"""Tests for whole-machine elaboration."""

import pytest

from repro.core import params
from repro.core.geometry import Dim, TorusDirection, XP, XM, YP
from repro.core.machine import (
    Channel,
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
    def test_channel_between_unique(self, tiny_machine):
        assert len(tiny_machine.channel_between) == len(tiny_machine.channels)

    def test_per_chip_channel_census(self, tiny_machine):
        from collections import Counter

        census = Counter(c.kind for c in tiny_machine.channels)
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
        channel = tiny_machine.channel(src, dst)
        assert channel.kind == ChannelKind.TORUS

    def test_torus_bandwidth_derating(self, tiny_machine):
        for channel in tiny_machine.channels:
            if channel.kind == ChannelKind.TORUS:
                assert channel.cycles_per_flit == pytest.approx(288.0 / 89.6)
            else:
                assert channel.cycles_per_flit == 1.0

    def test_radix_one_dimension_has_no_channels(self):
        machine = Machine(MachineConfig(shape=(4, 1, 1), endpoints_per_chip=1))
        for channel in machine.channels:
            if channel.kind != ChannelKind.TORUS:
                continue
            direction, _slice = machine.components[channel.src].detail
            assert direction.dim == Dim.X

    def test_radix_two_has_both_direction_links(self):
        machine = Machine(MachineConfig(shape=(2, 1, 1), endpoints_per_chip=1))
        torus = [c for c in machine.channels if c.kind == ChannelKind.TORUS]
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

    def test_vcs_for_channel_by_group(self, tiny_machine):
        for channel in tiny_machine.channels:
            vcs = tiny_machine.vcs_for_channel(channel)
            if channel.group == ChannelGroup.E:
                assert vcs == 1
            else:
                assert vcs == 4

    def test_baseline_t_group_vcs(self):
        machine = Machine(
            MachineConfig(shape=(2, 2, 2), endpoints_per_chip=1, vc_scheme="baseline")
        )
        for channel in machine.channels:
            vcs = machine.vcs_for_channel(channel)
            if channel.group == ChannelGroup.T:
                assert vcs == 6
            elif channel.group == ChannelGroup.M:
                assert vcs == 4


class TestInputIndexing:
    def test_input_index_consistent(self, tiny_machine):
        for channel in tiny_machine.channels:
            index = tiny_machine.input_index[channel.cid]
            assert tiny_machine.component_inputs[channel.dst][index] == channel.cid

    def test_outputs_reference_sources(self, tiny_machine):
        for comp_id, outputs in enumerate(tiny_machine.component_outputs):
            for channel_id in outputs:
                assert tiny_machine.channels[channel_id].src == comp_id

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
                tiny_machine.channels[c].kind
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
            for slot in range(per_chip):
                channel = machine.channels[index * per_chip + slot]
                first = machine.channels[slot]
                assert (
                    channel.src - index * components_per_chip,
                    channel.dst - index * components_per_chip,
                    channel.kind,
                ) == (first.src, first.dst, first.kind)

    def test_slot_tables_name_every_on_chip_channel(self, machine):
        layout = machine.layout
        per_chip = machine.onchip_channels_per_chip
        between = machine.channel_between
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
                    machine.channel_between[
                        (
                            machine.ca_id[(chip, direction, slice_index)],
                            machine.ca_id[(neighbor, direction.opposite, slice_index)],
                        )
                    ],
                    layout.chip_index[neighbor],
                    topology.crossing_step(dim, chip[dim], neighbor[dim]),
                )
        assert links == len(machine.channels) - layout.internode_base
        assert all(
            channel.kind == ChannelKind.TORUS
            for channel in machine.channels[layout.internode_base :]
        )

    def test_cids_are_the_channels_own_ints(self, machine):
        assert len(machine.layout.cids) == len(machine.channels)
        assert all(
            cid is channel.cid
            for cid, channel in zip(machine.layout.cids, machine.channels)
        )

    def test_block_of_shifts_a_channel_to_the_same_place_chips_later(self):
        machine = Machine(MachineConfig(shape=(3, 2, 2), endpoints_per_chip=1))
        layout = machine.layout
        per_component = len(machine.components) // len(layout.chips)
        for channel in machine.channels:
            index, stride = layout.block_of(channel.cid)
            assert machine.components[channel.src].chip == layout.chips[index]
            home = machine.channels[channel.cid - index * stride]
            assert (home.src % per_component, home.kind) == (
                channel.src % per_component,
                channel.kind,
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

    def test_buffer_depth_for_channel(self, tiny_machine):
        config = tiny_machine.config
        for channel in tiny_machine.channels:
            depth = tiny_machine.buffer_depth_for_channel(channel)
            if channel.kind == ChannelKind.TORUS:
                assert depth == config.torus_buffer_flits
            else:
                assert depth == config.onchip_buffer_flits
