"""Integration tests: analytic models against the cycle-level simulator."""

import pytest

from repro.analysis.fairness import finish_time_fairness
from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.simulator import RunSpec, run
from repro.traffic.batch import BatchSpec, generate_batch
from repro.traffic.loads import compute_loads, ideal_batch_cycles
from repro.traffic.patterns import Tornado, UniformRandom


class TestLoadsPredictSimulation:
    """The analytic expected loads must match measured channel traffic."""

    def test_channel_flits_match_expected_loads(self, tiny_machine, tiny_routes):
        pattern = UniformRandom((2, 2, 2))
        batch = 64
        table = compute_loads(tiny_machine, tiny_routes, pattern, cores_per_chip=2)
        spec = BatchSpec(pattern, packets_per_source=batch, cores_per_chip=2, seed=2)
        stats = run(RunSpec(tiny_machine.config, spec), machine=tiny_machine)
        # Aggregate per channel kind: statistical noise washes out.
        expected = {}
        measured = {}
        for cid, load in table.channel_load.items():
            kind = tiny_machine.channel_kind[cid]
            expected[kind] = expected.get(kind, 0.0) + load * batch
        for cid, flits in stats.channel_flits.items():
            kind = tiny_machine.channel_kind[cid]
            measured[kind] = measured.get(kind, 0.0) + flits
        for kind, value in expected.items():
            assert measured[kind] == pytest.approx(value, rel=0.06), kind

    def test_deterministic_pattern_matches_exactly_per_channel(
        self, tiny_machine, tiny_routes
    ):
        # Tornado with a fixed seed still randomizes routes, so compare
        # totals over torus channels, which are route-invariant.
        pattern = Tornado((2, 2, 2))
        batch = 32
        table = compute_loads(tiny_machine, tiny_routes, pattern, cores_per_chip=2)
        spec = BatchSpec(pattern, packets_per_source=batch, cores_per_chip=2, seed=1)
        stats = run(RunSpec(tiny_machine.config, spec), machine=tiny_machine)
        expected_torus = sum(
            load * batch
            for cid, load in table.channel_load.items()
            if tiny_machine.channel_kind[cid] == ChannelKind.TORUS
        )
        measured_torus = sum(
            flits
            for cid, flits in stats.channel_flits.items()
            if tiny_machine.channel_kind[cid] == ChannelKind.TORUS
        )
        assert measured_torus == pytest.approx(expected_torus, rel=1e-9)

    def test_completion_not_faster_than_ideal(self, tiny_machine, tiny_routes):
        pattern = UniformRandom((2, 2, 2))
        table = compute_loads(tiny_machine, tiny_routes, pattern, cores_per_chip=2)
        batch = 64
        spec = BatchSpec(pattern, packets_per_source=batch, cores_per_chip=2, seed=3)
        stats = run(RunSpec(tiny_machine.config, spec), machine=tiny_machine)
        # The torus-normalized ideal is a lower bound on completion time
        # up to batch sampling noise.
        ideal = ideal_batch_cycles(tiny_machine, table, batch)
        assert stats.last_delivery_cycle > 0.5 * ideal


class TestFairnessEndToEnd:
    """The paper's core result at demonstration scale: beyond saturation,
    round-robin starves distant sources while inverse weighting holds
    every source near equal finish times (tornado on an X ring)."""

    @pytest.fixture(scope="class")
    def tornado_setup(self):
        config = MachineConfig(shape=(8, 2, 2), endpoints_per_chip=2)
        machine = Machine(config)
        routes = RouteComputer(machine)
        pattern = Tornado(config.shape)
        table = compute_loads(machine, routes, pattern, cores_per_chip=2)
        return machine, routes, pattern, table

    def test_inverse_weighted_beats_round_robin(self, tornado_setup):
        machine, routes, pattern, table = tornado_setup
        # The batch must exceed the network's total buffer capacity for
        # sustained saturation (the regime Figure 9 measures); at 192
        # packets per source the gap is ~1.8x at this scale.
        batch = 192
        ideal = ideal_batch_cycles(machine, table, batch)
        results = {}
        for arbitration in ("rr", "iw"):
            spec = BatchSpec(
                pattern, packets_per_source=batch, cores_per_chip=2, seed=5
            )
            stats = run(
                RunSpec(machine.config, spec, arbitration), machine=machine,
                route_computer=routes,
            )
            results[arbitration] = {
                "throughput": ideal / stats.last_delivery_cycle,
                "fairness": finish_time_fairness(stats),
            }
        assert (
            results["iw"]["throughput"] > 1.25 * results["rr"]["throughput"]
        )
        # Inverse weighting also evens out finish times.
        assert results["iw"]["fairness"][1] < results["rr"]["fairness"][1]

    def test_all_packets_delivered_under_both_policies(self, tornado_setup):
        machine, routes, pattern, _table = tornado_setup
        for arbitration in ("rr", "iw"):
            spec = BatchSpec(pattern, packets_per_source=16, cores_per_chip=2, seed=1)
            stats = run(
                RunSpec(machine.config, spec, arbitration), machine=machine,
                route_computer=routes,
            )
            assert stats.delivered == stats.injected


class TestBothVcSchemesRunIdenticalWorkloads:
    def test_same_batch_same_deliveries(self):
        results = {}
        for scheme in ("anton", "baseline"):
            config = MachineConfig(
                shape=(3, 3, 3), endpoints_per_chip=2, vc_scheme=scheme
            )
            machine = Machine(config)
            routes = RouteComputer(machine)
            pattern = UniformRandom((3, 3, 3))
            spec = BatchSpec(pattern, packets_per_source=16, cores_per_chip=2, seed=7)
            stats = run(RunSpec(config, spec), machine=machine)
            results[scheme] = stats.delivered
        assert results["anton"] == results["baseline"]
