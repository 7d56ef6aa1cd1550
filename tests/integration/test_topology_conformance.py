"""Cross-subsystem conformance for every registered topology.

The Topology interface is only as strong as its weakest consumer, so
each subsystem that the torus path exercises is either driven through
mesh and chiplet here, or pinned to reject the combination loudly:

* mechanical deadlock freedom -- the CDG analysis is acyclic for the
  healthy machine *and* under every single-link degradation, and the
  mesh/chiplet T-VC set is exactly ``{0, 1}`` (rule-2 promotion only):
  the degenerate dateline, observed rather than assumed;
* the Figure 9/10 fairness harness completes on mesh and chiplet;
* checkpoint split-runs are bitwise identical to uninterrupted runs;
* golden traces exist and regenerate byte-identically;
* the shard partitioner (torus-only) rejects other topologies with a
  ``ValueError`` naming the unsupported combination.
"""

import io
import json

import pytest

from repro.cli import main
from repro.core import deadlock
from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.faults.verify import verify_single_link_failures
from repro.sim.goldens import GOLDEN_NAMES, check_goldens
from repro.sim.simulator import RunSpec, build_batch_engine, run
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import Tornado, UniformRandom

_CACHE = {}

#: One small representative machine per topology; endpoints=2 so
#: arbitration contention is real.
CASES = {
    "torus": (2, 2, 2),
    "mesh": (3, 3),
    "chiplet": (2, 2),
}


def setup_for(name, endpoints=2):
    key = (name, endpoints)
    if key not in _CACHE:
        machine = Machine(
            MachineConfig(
                shape=CASES[name],
                endpoints_per_chip=endpoints,
                topology=name,
            )
        )
        _CACHE[key] = (machine, RouteComputer(machine))
    return _CACHE[key]


class TestMechanicalDeadlockFreedom:
    @pytest.mark.parametrize("name", sorted(CASES))
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

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_single_link_failures_stay_acyclic(self, name):
        machine, _routes = setup_for(name, endpoints=1)
        report = verify_single_link_failures(machine)
        assert report.checked > 0
        assert report.all_acyclic
        assert not report.unroutable

    @pytest.mark.parametrize("name", sorted(CASES))
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


class TestCheckpointSplitRun:
    @pytest.mark.parametrize("name,split", [("mesh", 9), ("chiplet", 5)])
    def test_split_run_is_bitwise(self, name, split):
        from repro.sim.checkpoint import (
            dumps,
            loads,
            restore_engine,
            snapshot_engine,
        )
        from repro.sim.trace import JsonlTraceWriter

        machine, routes = setup_for(name)
        pattern = UniformRandom(machine.config.shape)
        spec = BatchSpec(
            pattern, packets_per_source=3, cores_per_chip=2, seed=7
        )

        def writer(stream, **kwargs):
            return JsonlTraceWriter(stream, meta={"run": name}, **kwargs)

        full_stream = io.StringIO()
        full_writer = writer(full_stream)
        engine = build_batch_engine(
            machine, routes, spec, trace=full_writer
        )
        full_stats = engine.run()
        full_writer.flush()

        head_stream = io.StringIO()
        head_writer = writer(head_stream)
        engine = build_batch_engine(
            machine, routes, spec, trace=head_writer
        )
        engine.run_for(split)
        head_writer.flush()
        data = loads(dumps(snapshot_engine(engine)))
        resumed = writer(head_stream, owns_stream=True)
        split_stats = restore_engine(data, trace=resumed).run()
        resumed.flush()

        assert head_stream.getvalue() == full_stream.getvalue()
        assert json.dumps(split_stats.asdict()) == json.dumps(
            full_stats.asdict()
        )


class TestGoldens:
    def test_new_topologies_have_goldens(self):
        assert "mesh_4x4" in GOLDEN_NAMES
        assert "chiplet_2x2" in GOLDEN_NAMES

    def test_goldens_regenerate_byte_identically(self):
        results = check_goldens()
        assert results["mesh_4x4"] is True
        assert results["chiplet_2x2"] is True


class TestShardRejection:
    @pytest.mark.parametrize("name", ["mesh", "chiplet"])
    def test_shard_plan_rejects_non_torus(self, name):
        from repro.sim.shard import ShardPlan

        machine, _routes = setup_for(name)
        with pytest.raises(
            ValueError,
            match="sharded runs support only the torus topology",
        ):
            ShardPlan.for_machine(machine, shards=2)

    def test_cli_sharded_run_rejects_mesh(self, capsys):
        code = main(
            [
                "run", "--topology", "mesh", "--shape", "3x3",
                "--endpoints", "2", "--batch", "1", "--shards", "2",
            ]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "sharded runs support only the torus topology" in err
