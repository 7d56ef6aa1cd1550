"""Tests for whole-machine elaboration."""

import dataclasses
import enum
import hashlib
from fractions import Fraction

import pytest

from repro.core import params
from repro.core.chip import SkipChannel, default_floorplan
from repro.core.geometry import Dim, TorusDirection, XP, XM, YP
from repro.core.machine import (
    ChannelGroup,
    ChannelKind,
    ComponentKind,
    Machine,
    MachineConfig,
    group_of,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        config = MachineConfig()
        assert config.shape == (4, 4, 4)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            MachineConfig(vc_scheme="wormhole")

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            MachineConfig(shape=(17, 4, 4))

    def test_bad_latency(self):
        with pytest.raises(ValueError):
            MachineConfig(mesh_latency=0)

    def test_bad_classes(self):
        with pytest.raises(ValueError):
            MachineConfig(num_classes=3)

    def test_bad_cycles_per_flit(self):
        with pytest.raises(ValueError):
            MachineConfig(torus_cycles_per_flit=0.0)

    def test_vc_counts_by_scheme(self):
        anton = MachineConfig(vc_scheme="anton")
        baseline = MachineConfig(vc_scheme="baseline")
        assert anton.vcs_per_class_t == 4
        assert anton.vcs_per_class_m == 4
        assert baseline.vcs_per_class_t == 6
        assert baseline.vcs_per_class_m == 4

    def test_num_chips(self):
        assert MachineConfig(shape=(2, 3, 4)).num_chips == 24


class TestComponentCounts:
    def test_component_totals(self, tiny_machine):
        per_chip = 16 + 12 + 2  # routers + channel adapters + endpoints
        assert len(tiny_machine.components) == 8 * per_chip

    def test_kind_counts(self, tiny_machine):
        routers = sum(1 for _ in tiny_machine.routers())
        adapters = sum(1 for _ in tiny_machine.channel_adapters())
        endpoints = sum(1 for _ in tiny_machine.endpoints())
        assert routers == 8 * 16
        assert adapters == 8 * 12
        assert endpoints == 8 * 2

    def test_lookup_tables_cover_components(self, tiny_machine):
        assert len(tiny_machine.router_id) == 8 * 16
        assert len(tiny_machine.ca_id) == 8 * 12
        assert len(tiny_machine.ep_id) == 8 * 2


class TestChannels:
    def test_channel_ends_unique(self, tiny_machine):
        ends = set(zip(tiny_machine.channel_src, tiny_machine.channel_dst))
        assert len(ends) == len(tiny_machine.channel_src)

    def test_per_chip_channel_census(self, tiny_machine):
        from collections import Counter

        census = Counter(tiny_machine.channel_kind)
        chips = 8
        assert census[ChannelKind.MESH] == chips * 48
        assert census[ChannelKind.SKIP] == chips * 4
        assert census[ChannelKind.ROUTER_TO_CA] == chips * 12
        assert census[ChannelKind.CA_TO_ROUTER] == chips * 12
        assert census[ChannelKind.ROUTER_TO_EP] == chips * 2
        assert census[ChannelKind.EP_TO_ROUTER] == chips * 2
        assert census[ChannelKind.TORUS] == chips * 12

    def test_torus_channel_endpoints(self, tiny_machine):
        chip = (0, 0, 0)
        src = tiny_machine.ca_id[(chip, XP, 0)]
        dst = tiny_machine.ca_id[((1, 0, 0), XM, 0)]
        cid = list(zip(tiny_machine.channel_src, tiny_machine.channel_dst)).index(
            (src, dst)
        )
        assert tiny_machine.channel_kind[cid] == ChannelKind.TORUS

    def test_torus_bandwidth_derating(self, tiny_machine):
        for kind, cpf in zip(
            tiny_machine.channel_kind, tiny_machine.channel_cycles_per_flit
        ):
            if kind == ChannelKind.TORUS:
                assert cpf == pytest.approx(288.0 / 89.6)
            else:
                assert cpf == 1.0

    def test_radix_one_dimension_has_no_channels(self):
        machine = Machine(MachineConfig(shape=(4, 1, 1), endpoints_per_chip=1))
        for src, kind in zip(machine.channel_src, machine.channel_kind):
            if kind != ChannelKind.TORUS:
                continue
            direction, _slice = machine.components[src].detail
            assert direction.dim == Dim.X

    def test_radix_two_has_both_direction_links(self):
        machine = Machine(MachineConfig(shape=(2, 1, 1), endpoints_per_chip=1))
        torus = [k for k in machine.channel_kind if k == ChannelKind.TORUS]
        # 2 chips x 1 dim x 2 directions x 2 slices = 8 directed channels.
        assert len(torus) == 8


class TestGroups:
    def test_group_mapping(self):
        assert group_of(ChannelKind.MESH) == ChannelGroup.M
        assert group_of(ChannelKind.SKIP) == ChannelGroup.T
        assert group_of(ChannelKind.TORUS) == ChannelGroup.T
        assert group_of(ChannelKind.ROUTER_TO_CA) == ChannelGroup.T
        assert group_of(ChannelKind.CA_TO_ROUTER) == ChannelGroup.T
        assert group_of(ChannelKind.ROUTER_TO_EP) == ChannelGroup.E
        assert group_of(ChannelKind.EP_TO_ROUTER) == ChannelGroup.E

    def test_channel_vcs_by_group(self, tiny_machine):
        for kind, vcs in zip(tiny_machine.channel_kind, tiny_machine.channel_vcs):
            if group_of(kind) == ChannelGroup.E:
                assert vcs == 1
            else:
                assert vcs == 4

    def test_baseline_t_group_vcs(self):
        machine = Machine(
            MachineConfig(shape=(2, 2, 2), endpoints_per_chip=1, vc_scheme="baseline")
        )
        for kind, vcs in zip(machine.channel_kind, machine.channel_vcs):
            if group_of(kind) == ChannelGroup.T:
                assert vcs == 6
            elif group_of(kind) == ChannelGroup.M:
                assert vcs == 4


class TestInputIndexing:
    def test_input_index_consistent(self, tiny_machine):
        for cid, dst in enumerate(tiny_machine.channel_dst):
            index = tiny_machine.input_index[cid]
            assert tiny_machine.component_inputs[dst][index] == cid

    def test_outputs_reference_sources(self, tiny_machine):
        for comp_id, outputs in enumerate(tiny_machine.component_outputs):
            for channel_id in outputs:
                assert tiny_machine.channel_src[channel_id] == comp_id

    def test_router_input_counts(self, tiny_machine):
        # A corner router with a skip channel and an adapter: 2 mesh + 1
        # skip + 1 CA = 4 inputs (endpoints may add more).
        router = tiny_machine.router_id[((0, 0, 0), (0, 0))]
        inputs = tiny_machine.component_inputs[router]
        assert len(inputs) >= 4

    def test_input_order_translation_invariant(self, tiny_machine):
        """Every chip's components see their input channels in the same
        relative (kind) order -- the property the symmetric load
        computation relies on."""
        def signature(chip):
            router = tiny_machine.router_id[(chip, (0, 0))]
            return [
                tiny_machine.channel_kind[c]
                for c in tiny_machine.component_inputs[router]
            ]

        base = signature((0, 0, 0))
        for chip in ((1, 0, 0), (0, 1, 0), (1, 1, 1)):
            assert signature(chip) == base


class TestChipBlockLayout:
    """Every chip is the same chip, block after block: what routes are
    assembled from (``Machine.layout``). An elaboration change that breaks
    it fails here, by name, and not as a wrong route."""

    @pytest.fixture(
        scope="class",
        params=[
            ("torus", (3, 2, 4)),
            ("torus", (2, 1, 1)),
            ("mesh", (3, 4)),
            ("chiplet", (2, 3)),
        ],
        ids=lambda param: f"{param[0]}-{'x'.join(map(str, param[1]))}",
    )
    def machine(self, request):
        topology, shape = request.param
        return Machine(
            MachineConfig(shape=shape, topology=topology, endpoints_per_chip=3)
        )

    def test_every_block_holds_the_same_links_in_the_same_slots(self, machine):
        layout = machine.layout
        per_chip = machine.onchip_channels_per_chip
        assert layout.onchip_per_chip == per_chip
        components_per_chip = len(machine.components) // len(layout.chips)
        for index, chip in enumerate(layout.chips):
            assert layout.chip_index[chip] == index
            for k in range(components_per_chip):
                component = machine.components[index * components_per_chip + k]
                first = machine.components[k]
                assert component.chip == chip
                assert (component.kind, component.detail) == (first.kind, first.detail)
            src, dst, kinds = machine.channel_src, machine.channel_dst, machine.channel_kind
            for slot in range(per_chip):
                cid = index * per_chip + slot
                assert (
                    src[cid] - index * components_per_chip,
                    dst[cid] - index * components_per_chip,
                    kinds[cid],
                ) == (src[slot], dst[slot], kinds[slot])

    def test_slot_tables_name_every_on_chip_channel(self, machine):
        layout = machine.layout
        per_chip = machine.onchip_channels_per_chip
        between = {
            ends: cid
            for cid, ends in enumerate(zip(machine.channel_src, machine.channel_dst))
        }
        for index, chip in enumerate(layout.chips):
            named = {}
            for (a, b), slot in layout.router_link.items():
                named[slot] = (machine.router_id[(chip, a)], machine.router_id[(chip, b)])
            for (direction, slice_index), (out, back) in layout.adapter_link.items():
                router = machine.router_id[
                    (chip, machine.floorplan.channel_adapter_router[(direction, slice_index)])
                ]
                adapter = machine.ca_id[(chip, direction, slice_index)]
                named[out] = (router, adapter)
                named[back] = (adapter, router)
            for endpoint, (out, back) in enumerate(layout.endpoint_link):
                router = machine.router_id[
                    (chip, machine.floorplan.endpoint_router[endpoint])
                ]
                adapter = machine.ep_id[(chip, endpoint)]
                named[out] = (router, adapter)
                named[back] = (adapter, router)
            assert sorted(named) == list(range(per_chip))
            for slot, ends in named.items():
                assert between[ends] == index * per_chip + slot

    def test_internode_rows_agree_with_the_graph(self, machine):
        layout = machine.layout
        topology = machine.topology
        between = {
            ends: cid
            for cid, ends in enumerate(zip(machine.channel_src, machine.channel_dst))
        }
        links = 0
        for (direction, slice_index), row in layout.internode.items():
            dim = direction.dim
            for index, chip in enumerate(layout.chips):
                if not topology.has_link(chip, direction):
                    assert row[index] is None
                    continue
                links += 1
                neighbor = machine.neighbor(chip, direction)
                assert row[index] == (
                    between[
                        (
                            machine.ca_id[(chip, direction, slice_index)],
                            machine.ca_id[(neighbor, direction.opposite, slice_index)],
                        )
                    ],
                    layout.chip_index[neighbor],
                    topology.crossing_step(dim, chip[dim], neighbor[dim]),
                )
        assert links == len(machine.channel_kind) - layout.internode_base
        assert all(
            kind == ChannelKind.TORUS
            for kind in machine.channel_kind[layout.internode_base :]
        )

    def test_cids_are_the_channels_own_ints(self, machine):
        cids = machine.layout.cids
        assert cids == list(range(len(machine.channel_src)))
        for named in (machine.component_inputs, machine.component_outputs):
            assert all(cid is cids[cid] for row in named for cid in row)

    def test_block_of_shifts_a_channel_to_the_same_place_chips_later(self):
        machine = Machine(MachineConfig(shape=(3, 2, 2), endpoints_per_chip=1))
        layout = machine.layout
        per_component = len(machine.components) // len(layout.chips)
        src, kinds = machine.channel_src, machine.channel_kind
        for cid in range(len(src)):
            index, stride = layout.block_of(cid)
            assert machine.components[src[cid]].chip == layout.chips[index]
            home = cid - index * stride
            assert (src[home] % per_component, kinds[home]) == (
                src[cid] % per_component,
                kinds[cid],
            )


class TestNeighbor:
    def test_wraps(self, tiny_machine):
        assert tiny_machine.neighbor((1, 0, 0), XP) == (0, 0, 0)
        assert tiny_machine.neighbor((0, 0, 0), XM) == (1, 0, 0)

    def test_y_direction(self, tiny_machine):
        assert tiny_machine.neighbor((0, 0, 0), YP) == (0, 1, 0)


class TestDescribe:
    def test_describe_mentions_shape(self, tiny_machine):
        text = tiny_machine.describe()
        assert "2x2x2" in text
        assert "8 chips" in text

    def test_floorplan_mismatch_rejected(self):
        from repro.core.chip import default_floorplan

        with pytest.raises(ValueError):
            Machine(
                MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2),
                floorplan=default_floorplan(num_endpoints=4),
            )

    def test_channel_buffer_depth(self, tiny_machine):
        config = tiny_machine.config
        for kind, depth in zip(
            tiny_machine.channel_kind, tiny_machine.channel_buffer_depth
        ):
            if kind == ChannelKind.TORUS:
                assert depth == config.torus_buffer_flits
            else:
                assert depth == config.onchip_buffer_flits


# The elaboration oracle. Machine._build elaborates chip 0's block and
# copies it to every other chip by id offset, and states the channels as
# rows only; ELABORATION_DIGESTS was printed at commit 43dd0c9 (every
# component and channel elaborated one object at a time, the channels
# stated as ``channels``, one object each, and ``channel_between``, the
# (src, dst) -> id dict, which _RENDERED rebuilds from the rows) by
#
#     PYTHONPATH=src:. python -c "import json; \
#         from tests.core.test_machine import elaboration_digests; \
#         print(json.dumps(elaboration_digests(), indent=4))"
#
# and every machine below must reproduce it. A digest is the SHA-256 of
# the canonical form (_canonical) of everything a machine states, section
# by section (_STATED).


def _custom_floorplan():
    """One X skip channel instead of two, endpoints on inner routers."""
    return dataclasses.replace(
        default_floorplan(num_endpoints=3),
        skip_channels=(SkipChannel(ends=((3, 0), (0, 0)), slice_index=1),),
        endpoint_router=((1, 1), (2, 2), (1, 1)),
    )


#: case name -> (MachineConfig keywords, floorplan factory or None).
ELABORATION_CASES = {
    "torus-1x1x1": (dict(shape=(1, 1, 1), endpoints_per_chip=2), None),
    "torus-2x2x2": (dict(shape=(2, 2, 2), endpoints_per_chip=2), None),
    "torus-3x2x4": (dict(shape=(3, 2, 4), endpoints_per_chip=3), None),
    "torus-4x4x2": (dict(shape=(4, 4, 2), endpoints_per_chip=2), None),
    "torus-8x8x8": (dict(shape=(8, 8, 8), endpoints_per_chip=2), None),
    "mesh-3x4": (dict(shape=(3, 4), topology="mesh", endpoints_per_chip=2), None),
    "chiplet-2x3": (
        dict(shape=(2, 3), topology="chiplet", endpoints_per_chip=2), None,
    ),
    "torus-2x3x2-baseline": (
        dict(shape=(2, 3, 2), endpoints_per_chip=2, vc_scheme="baseline"), None,
    ),
    "torus-2x2x2-unsafe-single": (
        dict(shape=(2, 2, 2), endpoints_per_chip=1, vc_scheme="unsafe-single"),
        None,
    ),
    "torus-3x2x2-two-classes": (
        dict(shape=(3, 2, 2), endpoints_per_chip=2, num_classes=2), None,
    ),
    "torus-2x2x3-latencies": (
        dict(
            shape=(2, 2, 3), endpoints_per_chip=2, mesh_latency=2,
            skip_latency=3, adapter_link_latency=2, torus_latency=7,
            onchip_buffer_flits=4, torus_buffer_flits=16,
            torus_cycles_per_flit=3.2,
        ),
        None,
    ),
    "torus-3x3x1-custom-floorplan": (
        dict(shape=(3, 3, 1), endpoints_per_chip=3), _custom_floorplan,
    ),
}

#: What a machine states, in digest order.
_STATED = (
    "components", "router_id", "ca_id", "ep_id", "channels",
    "channel_between", "component_inputs", "component_outputs",
    "input_index", "channel_vcs", "channel_buffer_depth",
    "channel_occupancy_ticks", "ticks_per_cycle", "onchip_channels_per_chip",
    "layout", "engine_rows",
)


def _canonical(value):
    """``value`` as nested tuples of ints, bools, strings and None: one
    form for a list and a tuple, a dict as its items in insertion order,
    an enum member by name, so the digest reads the same on every
    supported Python."""
    kind = type(value)
    if kind is int or kind is bool or kind is str or value is None:
        return value
    if kind is tuple or kind is list:
        if all(type(item) is int for item in value):
            return tuple(value)
        return tuple(map(_canonical, value))
    if isinstance(value, enum.Enum):
        return f"{kind.__name__}.{value.name}"
    if kind is Fraction:
        return ("Fraction", value.numerator, value.denominator)
    if kind is range:
        return ("range", value.start, value.stop, value.step)
    if kind is dict:
        return tuple((_canonical(k), _canonical(v)) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return (kind.__name__,) + tuple(
            _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, tuple):  # a NamedTuple
        return (kind.__name__,) + tuple(map(_canonical, value))
    raise TypeError(f"no canonical form for {kind.__name__}")


def _machine_of(case):
    keywords, floorplan = ELABORATION_CASES[case]
    return Machine(
        MachineConfig(**keywords), floorplan=floorplan() if floorplan else None
    )


#: The sections the digests state in the object form the machine once
#: held, rendered from its rows: a channel as its (class name, id, src,
#: dst, kind, group, latency, cycles per flit), the ends-to-id dict, and
#: the engine rows with the VC-field width and each channel's slot range
#: they once tabulated (now ``vc_bits`` and arithmetic).
_RENDERED = {
    "channels": lambda machine: tuple(
        ("Channel", cid, src, dst, kind, group_of(kind), latency, cpf)
        for cid, (src, dst, kind, latency, cpf) in enumerate(
            zip(
                machine.channel_src, machine.channel_dst, machine.channel_kind,
                machine.channel_latency, machine.channel_cycles_per_flit,
            )
        )
    ),
    "channel_between": lambda machine: {
        ends: cid
        for cid, ends in enumerate(zip(machine.channel_src, machine.channel_dst))
    },
    "engine_rows": lambda machine: (
        "EngineRows", *machine.engine_rows[:4], machine.vc_bits,
        tuple(
            range(cid << machine.vc_bits, (cid << machine.vc_bits) + vcs)
            for cid, vcs in enumerate(machine.channel_vcs)
        ),
        *machine.engine_rows[4:],
    ),
}


def elaboration_digest(machine):
    digest = hashlib.sha256()
    for name in _STATED:
        value = _RENDERED[name](machine) if name in _RENDERED else getattr(machine, name)
        digest.update(repr((name, _canonical(value))).encode())
    return digest.hexdigest()


def elaboration_digests():
    """The table, recomputed (what the command above prints)."""
    return {
        case: elaboration_digest(_machine_of(case)) for case in ELABORATION_CASES
    }


ELABORATION_DIGESTS = {
    "torus-1x1x1":
        "a93f30b042b2a9c9709e9e6c63ac7d0526bf43e275ff3d4a431a2f392b2494d7",
    "torus-2x2x2":
        "463f8472afb50f0f1470dc157d1ec3dd044c22223167f40afe81c9f396650e6c",
    "torus-3x2x4":
        "dd179e0b62e7f1079e8748183aeeed16e3daad8d75217b209da982651599c8da",
    "torus-4x4x2":
        "264d31496c72811a5081d3c7beaedccd13cb148dd4f588ae43e2af648e90b97c",
    "torus-8x8x8":
        "9bfe04d2b9c9a3d69b47bfe3d2cbf128490fe7f6ab9c4f6c31fdf202593225c0",
    "mesh-3x4":
        "1eb2f53d358d6330b40773013f55373cf6b3fda56482936d03f7ef62efd8922d",
    "chiplet-2x3":
        "c1d918c6d863ccf7b3c783c27608d38ec46bb8213d41fa197838a84140ccdbba",
    "torus-2x3x2-baseline":
        "19d5ba7d480cec02503ca522801f9bcc44c2eb2746694e9e5f47cb954e78be7b",
    "torus-2x2x2-unsafe-single":
        "6ce68baaf6a546ddf7fb6e53e1fa43e6296294d3c229d8e4077ba954e0737d18",
    "torus-3x2x2-two-classes":
        "8b38dc75aee0ceee8fed9326b4725decc6363cb7e16130b2ded193583bd4ac1a",
    "torus-2x2x3-latencies":
        "0257067df07cd2892773aeeee9e6c96d4930293479adaf189f85735d44988414",
    "torus-3x3x1-custom-floorplan":
        "6575481b917ccb5784d67635e173156487d2fc1ae3a39cb416755da746d6d3f6",
}


class TestElaborationOracle:
    """Every machine states what the object-by-object walk stated."""

    def test_table_names_every_case(self):
        assert list(ELABORATION_DIGESTS) == list(ELABORATION_CASES)

    @pytest.mark.parametrize("case", list(ELABORATION_CASES))
    def test_machine_states_the_walks_bytes(self, case):
        assert elaboration_digest(_machine_of(case)) == ELABORATION_DIGESTS[case]

    def test_a_floorplan_that_repeats_a_link_is_refused(self):
        plan = dataclasses.replace(
            default_floorplan(num_endpoints=1),
            skip_channels=(SkipChannel(ends=((0, 0), (1, 0)), slice_index=0),),
        )
        with pytest.raises(
            ValueError, match=r"^duplicate channel between 0 and 4$"
        ):
            Machine(
                MachineConfig(shape=(2, 1, 1), endpoints_per_chip=1),
                floorplan=plan,
            )

    def test_engine_rows_hold_the_components_own_ids(self):
        machine = _machine_of("torus-3x2x4")
        rows = machine.engine_rows
        components = machine.components
        assert all(cid is components[cid].cid for cid in rows.src + rows.dst)
