"""Tests for the high-level simulation facade."""

import json

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.checkpoint import dumps, snapshot_engine
from repro.sim.simulator import (
    RunSpec,
    arbiter_builder_for,
    build,
    build_batch_engine,
    make_weight_tables,
    run,
    run_single_packet,
)
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import Tornado, UniformRandom


@pytest.fixture(scope="module")
def setup():
    machine = Machine(MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2))
    return machine, RouteComputer(machine)


def _run(machine, routes, spec, arbitration, **kwargs):
    return run(
        RunSpec(machine.config, spec, arbitration, **kwargs),
        machine=machine, route_computer=routes,
    )


class TestRun:
    def test_all_policies_deliver_everything(self, setup):
        machine, routes = setup
        pattern = UniformRandom((2, 2, 2))
        spec = BatchSpec(pattern, packets_per_source=8, cores_per_chip=2, seed=1)
        for arbitration in ("rr", "age"):
            stats = _run(machine, routes, spec, arbitration)
            assert stats.delivered == stats.injected == 16 * 8

    def test_iw_with_weight_patterns(self, setup):
        machine, routes = setup
        pattern = UniformRandom((2, 2, 2))
        spec = BatchSpec(pattern, packets_per_source=8, cores_per_chip=2, seed=1)
        stats = _run(machine, routes, spec, "iw", weight_patterns=(pattern,))
        assert stats.delivered == 16 * 8

    def test_unknown_policy(self, setup):
        machine, routes = setup
        pattern = UniformRandom((2, 2, 2))
        spec = BatchSpec(pattern, packets_per_source=4, cores_per_chip=2)
        with pytest.raises(ValueError):
            _run(machine, routes, spec, "lottery")

    def test_deterministic_given_seed(self, setup):
        machine, routes = setup
        pattern = UniformRandom((2, 2, 2))
        spec = BatchSpec(pattern, packets_per_source=8, cores_per_chip=2, seed=9)
        first = _run(machine, routes, spec, "rr")
        second = _run(machine, routes, spec, "rr")
        assert first.last_delivery_cycle == second.last_delivery_cycle


class TestBuildBatchEngine:
    def test_iw_without_patterns_programs_the_batchs_own(self, setup):
        # The own-pattern rule every RunSpec follows: the entry used to
        # refuse ``iw`` with neither patterns nor tables.
        machine, routes = setup
        spec = BatchSpec(Tornado((2, 2, 2)), 8, cores_per_chip=2, seed=4)
        entry = build_batch_engine(machine, routes, spec, arbitration="iw")
        described = build(RunSpec(machine.config, spec, "iw"), machine, routes)
        for engine in (entry, described):
            engine.run_for(20)
        assert dumps(snapshot_engine(entry)) == dumps(snapshot_engine(described))
        assert json.dumps(entry.run().asdict()) == json.dumps(
            described.run().asdict()
        )


class TestWeightTables:
    def test_tables_cover_loaded_sites(self, setup):
        machine, routes = setup
        pattern = Tornado((2, 2, 2))
        tables = make_weight_tables(machine, routes, [pattern], cores_per_chip=2)
        assert tables
        for table in tables.values():
            assert table.num_patterns == 1

    def test_two_pattern_tables(self, setup):
        machine, routes = setup
        patterns = [UniformRandom((2, 2, 2)), Tornado((2, 2, 2))]
        tables = make_weight_tables(machine, routes, patterns, cores_per_chip=2)
        for table in tables.values():
            assert table.num_patterns == 2

    def test_builder_falls_back_for_unknown_site(self, setup):
        machine, routes = setup
        pattern = Tornado((2, 2, 2))
        tables = make_weight_tables(machine, routes, [pattern], cores_per_chip=2)
        builder = arbiter_builder_for("iw", tables, num_patterns=1)
        # A site with no modeled load still gets a working arbiter, every
        # input charged the maximum weight.
        sites = machine.engine_rows.arbiter_sites
        unknown = next(oc for oc in sites.order if oc not in tables)
        state = builder(sites).site_state(unknown)
        assert state["weights"] == [[31]] * sites.num_inputs[unknown]


class TestRunSinglePacket:
    def test_positive_latency(self, setup):
        machine, routes = setup
        src = machine.ep_id[((0, 0, 0), 0)]
        dst = machine.ep_id[((1, 1, 1), 0)]
        latency = run_single_packet(machine, routes, src, dst)
        assert latency > 0

    def test_monotone_in_distance(self, setup):
        machine, routes = setup
        src = machine.ep_id[((0, 0, 0), 0)]
        near = run_single_packet(machine, routes, src, machine.ep_id[((1, 0, 0), 0)])
        far = run_single_packet(machine, routes, src, machine.ep_id[((1, 1, 1), 0)])
        assert far > near
