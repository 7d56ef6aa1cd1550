"""Tests for the latency-versus-offered-load characterization."""

import pytest

from repro.analysis.latency_load import latency_vs_load, saturation_rate
from repro.traffic.loads import compute_loads
from repro.traffic.patterns import Tornado, UniformRandom


class TestSaturationRate:
    def test_positive_and_below_injection_limit(self, tiny_machine, tiny_routes):
        pattern = UniformRandom((2, 2, 2))
        table = compute_loads(tiny_machine, tiny_routes, pattern, 2)
        rate = saturation_rate(tiny_machine, table)
        assert rate > 0

    def test_zero_torus_load_rejected(self, tiny_machine, tiny_routes):
        # Tornado on a radix-2 torus degenerates to self-traffic (offset
        # k/2 - 1 = 0): no torus load, no saturation rate.
        table = compute_loads(tiny_machine, tiny_routes, Tornado((2, 2, 2)), 2)
        with pytest.raises(ValueError):
            saturation_rate(tiny_machine, table)

    def test_heavier_pattern_saturates_earlier(self):
        from repro.core.machine import Machine, MachineConfig
        from repro.core.routing import RouteComputer
        from repro.traffic.patterns import NHopNeighbor

        machine = Machine(MachineConfig(shape=(8, 2, 2), endpoints_per_chip=1))
        routes = RouteComputer(machine)
        local = compute_loads(machine, routes, NHopNeighbor((8, 2, 2), 1), 1)
        uniform = compute_loads(machine, routes, UniformRandom((8, 2, 2)), 1)
        # Uniform travels farther on the X rings, so it saturates at a
        # lower per-source injection rate than 1-hop-neighbor traffic.
        assert saturation_rate(machine, uniform) < saturation_rate(
            machine, local
        )


class TestLatencyLoadCurve:
    @pytest.fixture(scope="class")
    def curve(self, tiny_machine, tiny_routes):
        pattern = UniformRandom((2, 2, 2))
        return latency_vs_load(
            tiny_machine,
            tiny_routes,
            pattern,
            cores_per_chip=2,
            fractions_of_saturation=(0.2, 0.6, 0.95),
            duration_cycles=1200,
            seed=4,
        )

    def test_latency_monotone_in_load(self, curve):
        means = [point.mean_latency_cycles for point in curve]
        assert means[0] < means[-1]

    def test_knee_shape(self, curve):
        # The increase from 60% to 95% of saturation dwarfs the increase
        # from 20% to 60% (queueing blows up near the knee).
        low, mid, high = (point.mean_latency_cycles for point in curve)
        assert (high - mid) > (mid - low)

    def test_tail_above_mean(self, curve):
        for point in curve:
            assert point.p99_latency_cycles >= point.mean_latency_cycles

    def test_all_packets_observed(self, curve):
        for point in curve:
            assert point.delivered > 0


class TestBuiltLikeEveryOtherRun:
    """One builder: the policy applies at both arbitration stages and
    ``iw`` is programmed from the load table that set the rate."""

    # 4x2x2 x 2 endpoints, uniform, 0.9 of saturation, 400 cycles, seed 0:
    # (mean, p99). The rr row is what Fig 11's committed numbers hang on
    # and must not move; age used to be age at SA2 over round-robin SA1
    # (57.5267 / 131) and iw raised for want of the tables.
    EXPECTED = {
        "rr": (57.18239928645756, 128.0),
        "age": (57.43570685298052, 124.0),
        "iw": (57.075813884346665, 138.0),
    }

    @pytest.mark.parametrize("arbitration", sorted(EXPECTED))
    def test_policy(self, arbitration):
        from repro.core.machine import Machine, MachineConfig
        from repro.core.routing import RouteComputer

        machine = Machine(MachineConfig(shape=(4, 2, 2), endpoints_per_chip=2))
        (point,) = latency_vs_load(
            machine,
            RouteComputer(machine),
            UniformRandom((4, 2, 2)),
            cores_per_chip=2,
            fractions_of_saturation=(0.9,),
            duration_cycles=400,
            arbitration=arbitration,
        )
        assert point.delivered == 6727
        assert (
            point.mean_latency_cycles, point.p99_latency_cycles
        ) == self.EXPECTED[arbitration]
