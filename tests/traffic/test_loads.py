"""Tests for the analytic load computation."""

import hashlib

import pytest

from repro.core.geometry import all_coords
from repro.core.machine import ChannelKind, ComponentKind, Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.traffic.loads import (
    _translation_maps,
    active_endpoints,
    compute_loads,
    ideal_batch_cycles,
    merge_arbiter_loads,
    merge_vc_loads,
)
from repro.traffic.patterns import (
    BitComplement,
    Tornado,
    UniformRandom,
    pattern_factories,
)


@pytest.fixture(scope="module")
def loaded(tiny_machine, tiny_routes):
    pattern = UniformRandom((2, 2, 2))
    table = compute_loads(tiny_machine, tiny_routes, pattern, cores_per_chip=2)
    return pattern, table


class TestActiveEndpoints:
    def test_count(self, tiny_machine):
        assert len(active_endpoints(tiny_machine, 2)) == 16

    def test_out_of_range(self, tiny_machine):
        with pytest.raises(ValueError):
            active_endpoints(tiny_machine, 3)


class TestConservation:
    """Flow-conservation invariants the load tables must satisfy."""

    def test_injection_load_one_per_source(self, tiny_machine, loaded):
        # Each source injects exactly one packet per round, all of it on
        # its EP -> router link.
        _pattern, table = loaded
        for cid, kind in enumerate(tiny_machine.channel_kind):
            if kind == ChannelKind.EP_TO_ROUTER:
                component = tiny_machine.components[tiny_machine.channel_src[cid]]
                if component.detail < 2:  # active endpoint
                    assert table.channel_load[cid] == pytest.approx(1.0)

    def test_ejection_totals_match_sources(self, tiny_machine, loaded):
        _pattern, table = loaded
        total_ejected = sum(
            load
            for cid, load in table.channel_load.items()
            if tiny_machine.channel_kind[cid] == ChannelKind.ROUTER_TO_EP
        )
        assert total_ejected == pytest.approx(16.0)

    def test_arbiter_inputs_sum_to_channel_load(self, tiny_machine, loaded):
        # Everything leaving on a channel arrived via some input (except
        # at injection, which has no upstream arbitration).
        _pattern, table = loaded
        for oc, per_input in table.arbiter_load.items():
            assert sum(per_input) == pytest.approx(table.channel_load[oc])

    def test_vc_loads_sum_to_channel_load(self, tiny_machine, loaded):
        _pattern, table = loaded
        for cid, per_vc in table.vc_load.items():
            assert sum(per_vc) == pytest.approx(table.channel_load[cid])

    def test_torus_load_accounts_for_mean_hops(self, tiny_machine, loaded):
        pattern, table = loaded
        total_torus = sum(
            load
            for cid, load in table.channel_load.items()
            if tiny_machine.channel_kind[cid] == ChannelKind.TORUS
        )
        assert total_torus == pytest.approx(16 * pattern.mean_hops())


def _table_digest(table):
    sha = hashlib.sha256()
    for part in (table.channel_load, table.arbiter_load, table.vc_load):
        sha.update(repr(sorted(part.items())).encode())
    sha.update(repr(table.num_sources).encode())
    return sha.hexdigest()


class TestPinnedTables:
    """Bit-for-bit the tables of the hop-by-hop route builder (commit
    3eb7088; same routes in the same order, so the same float sums).
    ``_table_digest`` of each call below, printed there."""

    PINNED = {
        ("torus", (3, 3, 3), False): (
            "672a404eb162e63f46d6606fcbdd6befd89f27ddb445ea351e9363e1d56805bb"
        ),
        ("torus", (3, 3, 3), True): (
            "3c3e3ca15b0d78456e8896e9d0d445f837ef2f74a9e797f34b5f553395d94d87"
        ),
        ("mesh", (4, 4), False): (
            "a143d30b8d96f8d254c9e59c309ac42edfae4d056e9aceb742a2027427d4150f"
        ),
    }

    @pytest.mark.parametrize("topology, shape, use_symmetry", list(PINNED))
    def test_loads_are_unchanged(self, topology, shape, use_symmetry):
        machine = Machine(
            MachineConfig(shape=shape, topology=topology, endpoints_per_chip=2)
        )
        table = compute_loads(
            machine,
            RouteComputer(machine),
            UniformRandom(machine.config.shape),
            cores_per_chip=2,
            use_symmetry=use_symmetry,
        )
        assert _table_digest(table) == self.PINNED[(topology, shape, use_symmetry)]


#: Even, odd and mixed radices, a radix-2 ring (both directions reach the
#: same neighbor) and radix-1 dimensions (no inter-node channel at all).
TRANSLATION_SHAPES = [(2, 2, 2), (3, 3, 1), (4, 1, 1), (5, 3, 2), (1, 1, 3)]


def _walk_translate(machine, between, channel_id, offset):
    """The oracle: shift a channel by looking both its ends up by name
    (``between`` maps a channel's (src, dst) to its id)."""
    shape = machine.config.shape

    def shifted(comp_id):
        comp = machine.components[comp_id]
        chip = tuple((comp.chip[d] + offset[d]) % shape[d] for d in range(3))
        if comp.kind == ComponentKind.ROUTER:
            return machine.router_id[(chip, comp.detail)]
        if comp.kind == ComponentKind.ENDPOINT:
            return machine.ep_id[(chip, comp.detail)]
        return machine.ca_id[(chip,) + comp.detail]

    return between[
        (
            shifted(machine.channel_src[channel_id]),
            shifted(machine.channel_dst[channel_id]),
        )
    ]


class TestTranslationByArithmetic:
    @pytest.mark.parametrize("shape", TRANSLATION_SHAPES)
    def test_every_channel_at_every_offset_matches_the_walk(self, shape):
        machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        every = range(len(machine.channel_src))
        between = {
            ends: cid
            for cid, ends in enumerate(zip(machine.channel_src, machine.channel_dst))
        }
        seen = []
        for offset, channel_map in _translation_maps(machine, every):
            seen.append(offset)
            assert channel_map == {
                cid: _walk_translate(machine, between, cid, offset) for cid in every
            }
        assert seen == [c for c in all_coords(shape) if c != (0, 0, 0)]

    def test_on_chip_blocks_tile_the_on_chip_channels(self, tiny_machine):
        block = tiny_machine.onchip_channels_per_chip
        chips = list(all_coords(tiny_machine.config.shape))
        for cid, (src, dst, kind) in enumerate(
            zip(
                tiny_machine.channel_src,
                tiny_machine.channel_dst,
                tiny_machine.channel_kind,
            )
        ):
            on_chip = kind != ChannelKind.TORUS
            assert on_chip == (cid < block * len(chips))
            if on_chip:
                chip = chips[cid // block]
                assert tiny_machine.components[src].chip == chip
                assert tiny_machine.components[dst].chip == chip


class TestSymmetryShortcut:
    @pytest.mark.parametrize("pattern_cls", [UniformRandom, Tornado])
    def test_matches_exhaustive(self, tiny_machine, tiny_routes, pattern_cls):
        pattern = pattern_cls((2, 2, 2))
        fast = compute_loads(
            tiny_machine, tiny_routes, pattern, 2, use_symmetry=True
        )
        slow = compute_loads(
            tiny_machine, tiny_routes, pattern, 2, use_symmetry=False
        )
        keys = set(fast.channel_load) | set(slow.channel_load)
        for key in keys:
            assert fast.channel_load.get(key, 0.0) == pytest.approx(
                slow.channel_load.get(key, 0.0)
            )
        for oc in set(fast.arbiter_load) | set(slow.arbiter_load):
            assert fast.arbiter_load[oc] == pytest.approx(slow.arbiter_load[oc])
        for cid in set(fast.vc_load) | set(slow.vc_load):
            assert fast.vc_load[cid] == pytest.approx(slow.vc_load[cid])

    @staticmethod
    def _both_paths(shape, name):
        machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        routes = RouteComputer(machine)
        pattern = pattern_factories(shape)[name]()
        return (
            compute_loads(machine, routes, pattern, 2, use_symmetry=True),
            compute_loads(machine, routes, pattern, 2, use_symmetry=False),
        )

    @pytest.mark.parametrize("shape", TRANSLATION_SHAPES)
    @pytest.mark.parametrize("name", ["uniform", "2hop", "tornado"])
    def test_matches_exhaustive_on_odd_and_degenerate_shapes(self, shape, name):
        fast, slow = self._both_paths(shape, name)
        # Same sites; the values are sums of the same terms in another
        # order, so they agree to rounding, not to the bit.
        close = dict(rel=1e-12, abs=1e-12)
        assert fast.channel_load == pytest.approx(slow.channel_load, **close)
        assert fast.arbiter_load.keys() == slow.arbiter_load.keys()
        for oc, row in slow.arbiter_load.items():
            assert fast.arbiter_load[oc] == pytest.approx(row, **close)
        assert fast.vc_load.keys() == slow.vc_load.keys()
        for cid, row in slow.vc_load.items():
            assert sum(fast.vc_load[cid]) == pytest.approx(sum(row), **close)
        assert fast.num_sources == slow.num_sources

    @pytest.mark.xfail(
        strict=True,
        reason="which VC a hop rides depends on where its route crossed a "
        "dateline, and datelines do not move with the source: on any ring "
        "of radix >= 3 the shortcut spreads chip (0,0,0)'s VC split over "
        "every chip. Fixing it moves every iw VC table (ROADMAP).",
    )
    @pytest.mark.parametrize("shape", [(3, 3, 1), (4, 1, 1), (5, 3, 2)])
    def test_per_vc_split_matches_exhaustive(self, shape):
        fast, slow = self._both_paths(shape, "uniform")
        for cid, row in slow.vc_load.items():
            assert fast.vc_load[cid] == pytest.approx(row, rel=1e-12, abs=1e-12)

    @staticmethod
    def _statically_faulted_4x4x2():
        from repro.faults import FaultAwareRouteComputer
        from repro.faults.model import failable_channels

        machine = Machine(MachineConfig(shape=(4, 4, 2), endpoints_per_chip=2))
        routes = FaultAwareRouteComputer(machine)
        routes.set_failed([failable_channels(machine)[7]])
        return machine, routes

    def test_failed_channels_select_the_exhaustive_path(self):
        """Faults break translation symmetry: left to choose, compute_loads
        must not translate one chip's loads over a degraded machine."""
        machine, routes = self._statically_faulted_4x4x2()
        pattern = Tornado((4, 4, 2))
        auto = compute_loads(machine, routes, pattern, 2)
        slow = compute_loads(machine, routes, pattern, 2, use_symmetry=False)
        assert auto.channel_load == slow.channel_load
        assert auto.arbiter_load == slow.arbiter_load
        assert auto.vc_load == slow.vc_load
        # ...and the shortcut really would have been wrong here.
        healthy = compute_loads(machine, RouteComputer(machine), pattern, 2)
        assert healthy.channel_load != slow.channel_load

    def test_explicit_shortcut_over_failed_channels_is_refused(self):
        machine, routes = self._statically_faulted_4x4x2()
        with pytest.raises(ValueError, match="fault-free route computer"):
            compute_loads(
                machine, routes, Tornado((4, 4, 2)), 2, use_symmetry=True
            )

    def test_asymmetric_pattern_uses_slow_path(self, tiny_machine, tiny_routes):
        pattern = BitComplement((2, 2, 2))
        table = compute_loads(tiny_machine, tiny_routes, pattern, 2)
        assert table.num_sources == 16


class TestValidation:
    def test_shape_mismatch(self, tiny_machine, tiny_routes):
        with pytest.raises(ValueError):
            compute_loads(tiny_machine, tiny_routes, UniformRandom((3, 3, 3)), 2)


class TestMerging:
    def test_arbiter_matrix_shape(self, tiny_machine, tiny_routes):
        patterns = [Tornado((2, 2, 2)), UniformRandom((2, 2, 2))]
        tables = [
            compute_loads(tiny_machine, tiny_routes, p, 2) for p in patterns
        ]
        merged = merge_arbiter_loads(tiny_machine, tables)
        for oc, matrix in merged.items():
            src = tiny_machine.channel_src[oc]
            assert len(matrix) == len(tiny_machine.component_inputs[src])
            assert all(len(row) == 2 for row in matrix)

    def test_vc_matrix_shape(self, tiny_machine, tiny_routes):
        patterns = [Tornado((2, 2, 2)), UniformRandom((2, 2, 2))]
        tables = [
            compute_loads(tiny_machine, tiny_routes, p, 2) for p in patterns
        ]
        merged = merge_vc_loads(tiny_machine, tables)
        for cid, matrix in merged.items():
            assert len(matrix) == tiny_machine.channel_vcs[cid]


class TestIdealCycles:
    def test_torus_normalization_uses_derating(self, tiny_machine, loaded):
        _pattern, table = loaded
        ideal = ideal_batch_cycles(tiny_machine, table, packets_per_source=10)
        expected = (
            10
            * table.max_torus_load(tiny_machine)
            * tiny_machine.config.torus_cycles_per_flit
        )
        assert ideal == pytest.approx(expected)

    def test_any_bottleneck_at_least_torus_term(self, tiny_machine, loaded):
        _pattern, table = loaded
        torus = ideal_batch_cycles(tiny_machine, table, 10, bottleneck="torus")
        any_b = ideal_batch_cycles(tiny_machine, table, 10, bottleneck="any")
        assert any_b >= torus

    def test_unknown_bottleneck(self, tiny_machine, loaded):
        _pattern, table = loaded
        with pytest.raises(ValueError):
            ideal_batch_cycles(tiny_machine, table, 10, bottleneck="mesh")

    def test_flit_scaling(self, tiny_machine, loaded):
        _pattern, table = loaded
        one = ideal_batch_cycles(tiny_machine, table, 10, flits_per_packet=1)
        two = ideal_batch_cycles(tiny_machine, table, 10, flits_per_packet=2)
        assert two == pytest.approx(2 * one)
