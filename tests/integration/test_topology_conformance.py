"""Cross-subsystem conformance for every registered topology.

The Topology interface is only as strong as its weakest consumer, so
each subsystem that the torus path exercises is driven through mesh and
chiplet:

* mechanical deadlock freedom -- the CDG analysis is acyclic for the
  healthy machine *and* under every single-link degradation, and the
  mesh/chiplet T-VC set is exactly ``{0, 1}`` (rule-2 promotion only):
  the degenerate dateline, observed rather than assumed;
* the Figure 9/10 fairness harness completes on mesh and chiplet;
* golden traces exist (they regenerate byte-identically in
  ``tests/traffic/test_replay.py``).

Split runs, and the shard runner's refusal by name of every topology but
the torus, are checked on the differential harness's ``mesh`` and
``chiplet`` rows (``tests/integration/test_differential.py``), whose
machines these are.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.core import deadlock
from repro.core.machine import Machine
from repro.core.routing import RouteComputer
from repro.faults.verify import verify_single_link_failures
from repro.sim.goldens import GOLDEN_NAMES
from repro.sim.simulator import RunSpec, run
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import Tornado, UniformRandom

from tests.integration.test_differential import ROWS

_CACHE = {}

#: One small machine per topology: the harness rows' (endpoints=2 there,
#: so arbitration contention is real).
MACHINES = {
    ROWS[row].run.config.topology: ROWS[row].run.config
    for row in ("shard-uniform-rr", "split-mesh", "split-chiplet")
}


def setup_for(name, endpoints=2):
    key = (name, endpoints)
    if key not in _CACHE:
        config = dataclasses.replace(MACHINES[name], endpoints_per_chip=endpoints)
        machine = Machine(config)
        _CACHE[key] = (machine, RouteComputer(machine))
    return _CACHE[key]


class TestMechanicalDeadlockFreedom:
    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_healthy_cdg_acyclic(self, name):
        machine, routes = setup_for(name, endpoints=1)
        report = deadlock.analyze(machine, routes)
        assert report.deadlock_free
        assert report.routes > 0

    @pytest.mark.parametrize("name", ["mesh", "chiplet"])
    def test_degenerate_dateline_proven(self, name):
        # On a line topology rule 1 (dateline crossing) is unreachable,
        # so T-channel VCs stop at {0, 1}: base plus one rule-2
        # (dimension-completion) promotion. The torus needs {0..3}.
        machine, routes = setup_for(name, endpoints=1)
        report = deadlock.analyze(machine, routes)
        assert report.t_vcs_used == {0, 1}
        torus, torus_routes = setup_for("torus", endpoints=1)
        torus_report = deadlock.analyze(torus, torus_routes)
        assert torus_report.t_vcs_used == {0, 1, 2, 3}

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_single_link_failures_stay_acyclic(self, name):
        machine, _routes = setup_for(name, endpoints=1)
        report = verify_single_link_failures(machine)
        assert report.checked > 0
        assert report.all_acyclic
        assert not report.unroutable

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_cli_faults_validate(self, name, capsys):
        # The acceptance command: one invocation proves healthy +
        # degraded deadlock freedom mechanically.
        assert main(["faults", "validate", "--topology", name]) == 0
        out = capsys.readouterr().out
        assert f"topology={name}" in out
        assert "healthy dependency graph acyclic (deadlock-free)" in out
        assert "all degraded graphs acyclic, 0 unroutable" in out


class TestFairnessHarness:
    @pytest.mark.parametrize("name", ["mesh", "chiplet"])
    def test_figure9_points_complete(self, name):
        from repro.analysis.throughput import throughput_vs_batch_size

        machine, routes = setup_for(name)
        pattern = UniformRandom(machine.config.shape)
        points = throughput_vs_batch_size(
            machine,
            routes,
            patterns=[pattern],
            batch_sizes=[2, 4],
            cores_per_chip=2,
            arbitrations=("rr", "iw"),
            seed=3,
        )
        assert len(points) == 4
        for point in points:
            assert point.completion_cycles > 0
            assert 0.0 < point.normalized_throughput <= 1.0
            assert point.finish_spread >= 0.0

    @pytest.mark.parametrize("name", ["mesh", "chiplet"])
    def test_figure10_blend_completes(self, name):
        from repro.analysis.throughput import blend_sweep

        machine, routes = setup_for(name)
        shape = machine.config.shape
        points = blend_sweep(
            machine,
            routes,
            pattern_a=Tornado(shape),
            pattern_b=UniformRandom(shape),
            fractions=[0.5],
            batch_size=2,
            cores_per_chip=2,
            seed=1,
        )
        assert {p.arbitration for p in points} == {
            "none", "forward", "reverse", "both"
        }
        for point in points:
            assert point.completion_cycles > 0

    @pytest.mark.parametrize("name", ["mesh", "chiplet"])
    def test_finish_time_fairness_measurable(self, name):
        from repro.analysis.fairness import finish_time_fairness

        machine, routes = setup_for(name)
        pattern = UniformRandom(machine.config.shape)
        spec = BatchSpec(
            pattern, packets_per_source=4, cores_per_chip=2, seed=11
        )
        stats = run(
            RunSpec(machine.config, spec), machine=machine, route_computer=routes
        )
        assert stats.delivered == stats.injected > 0
        index, spread = finish_time_fairness(stats)
        assert 0.0 < index <= 1.0
        assert spread >= 0.0


class TestGoldens:
    def test_new_topologies_have_goldens(self):
        assert "mesh_4x4" in GOLDEN_NAMES
        assert "chiplet_2x2" in GOLDEN_NAMES