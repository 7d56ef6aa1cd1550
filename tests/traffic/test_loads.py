"""Tests for the analytic load computation."""

import pytest

from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.traffic.loads import (
    active_endpoints,
    compute_loads,
    ideal_batch_cycles,
    merge_arbiter_loads,
    merge_vc_loads,
)
from repro.traffic.patterns import BitComplement, Tornado, UniformRandom


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
        for channel in tiny_machine.channels:
            if channel.kind == ChannelKind.EP_TO_ROUTER:
                component = tiny_machine.components[channel.src]
                if component.detail < 2:  # active endpoint
                    assert table.channel_load[channel.cid] == pytest.approx(1.0)

    def test_ejection_totals_match_sources(self, tiny_machine, loaded):
        _pattern, table = loaded
        total_ejected = sum(
            load
            for cid, load in table.channel_load.items()
            if tiny_machine.channels[cid].kind == ChannelKind.ROUTER_TO_EP
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
            if tiny_machine.channels[cid].kind == ChannelKind.TORUS
        )
        assert total_torus == pytest.approx(16 * pattern.mean_hops())


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

    def test_asymmetric_pattern_uses_slow_path(self, tiny_machine, tiny_routes):
        pattern = BitComplement((2, 2, 2))
        table = compute_loads(tiny_machine, tiny_routes, pattern, 2)
        assert table.num_sources == 16

    def test_dst_endpoint_modes(self, tiny_machine, tiny_routes):
        pattern = UniformRandom((2, 2, 2))
        same = compute_loads(tiny_machine, tiny_routes, pattern, 2, "same_index")
        uniform = compute_loads(tiny_machine, tiny_routes, pattern, 2, "uniform")
        # Total torus load identical; per-endpoint ejection differs only
        # in distribution.
        total = lambda t: sum(
            load
            for cid, load in t.channel_load.items()
            if tiny_machine.channels[cid].kind == ChannelKind.TORUS
        )
        assert total(same) == pytest.approx(total(uniform))


class TestValidation:
    def test_shape_mismatch(self, tiny_machine, tiny_routes):
        with pytest.raises(ValueError):
            compute_loads(tiny_machine, tiny_routes, UniformRandom((3, 3, 3)), 2)

    def test_bad_mode(self, tiny_machine, tiny_routes):
        with pytest.raises(ValueError):
            compute_loads(
                tiny_machine, tiny_routes, UniformRandom((2, 2, 2)), 2, "roundrobin"
            )


class TestMerging:
    def test_arbiter_matrix_shape(self, tiny_machine, tiny_routes):
        patterns = [Tornado((2, 2, 2)), UniformRandom((2, 2, 2))]
        tables = [
            compute_loads(tiny_machine, tiny_routes, p, 2) for p in patterns
        ]
        merged = merge_arbiter_loads(tiny_machine, tables)
        for oc, matrix in merged.items():
            src = tiny_machine.channels[oc].src
            assert len(matrix) == len(tiny_machine.component_inputs[src])
            assert all(len(row) == 2 for row in matrix)

    def test_vc_matrix_shape(self, tiny_machine, tiny_routes):
        patterns = [Tornado((2, 2, 2)), UniformRandom((2, 2, 2))]
        tables = [
            compute_loads(tiny_machine, tiny_routes, p, 2) for p in patterns
        ]
        merged = merge_vc_loads(tiny_machine, tables)
        for cid, matrix in merged.items():
            channel = tiny_machine.channels[cid]
            assert len(matrix) == tiny_machine.vcs_for_channel(channel)


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
