"""Tests for the parallel sweep runner.

The load-bearing property is that parallel execution is a pure
performance optimization: fanning points across a process pool must
return results identical to the serial loop, in input order.
"""

import dataclasses
import os
import signal

import pytest

from repro.analysis.throughput import BatchPoint, measure_batch_point
from repro.core.machine import MachineConfig
from repro.sim.simulator import shared_machine
from repro.sim.sweep import (
    SweepPoint,
    SweepPointError,
    default_workers,
    point_fingerprint,
    run_sweep,
)
from repro.traffic.patterns import UniformRandom


def _points(seeds=(3, 4), **batch_kwargs):
    config = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
    pattern = UniformRandom(config.shape)
    return [
        SweepPoint(
            label=f"uniform/rr/seed{seed}",
            fn=measure_batch_point,
            kwargs={
                "point": BatchPoint(
                    config=config,
                    pattern=pattern,
                    batch_size=16,
                    cores_per_chip=2,
                    arbitration="rr",
                    seed=seed,
                    **batch_kwargs,
                )
            },
        )
        for seed in seeds
    ]


class TestRunSweep:
    def test_serial_matches_parallel(self):
        serial = run_sweep(_points(), max_workers=1)
        parallel = run_sweep(_points(), max_workers=2)
        assert [r.label for r in serial] == [r.label for r in parallel]
        for s, p in zip(serial, parallel):
            # Every measured field must be bitwise-identical; only the
            # wall-clock timing of the measurement itself may differ.
            measured_s = dataclasses.asdict(s.value)
            measured_p = dataclasses.asdict(p.value)
            measured_s.pop("wall_seconds")
            measured_p.pop("wall_seconds")
            assert measured_s == measured_p

    def test_results_in_input_order(self):
        results = run_sweep(_points(seeds=(9, 8, 7)), max_workers=2)
        assert [r.label for r in results] == [
            "uniform/rr/seed9",
            "uniform/rr/seed8",
            "uniform/rr/seed7",
        ]
        assert [r.index for r in results] == [0, 1, 2]

    def test_serial_runs_in_process(self):
        (result,) = run_sweep(_points(seeds=(1,)), max_workers=1)
        assert result.worker_pid == os.getpid()
        assert result.wall_seconds >= 0

    def test_single_point_skips_pool(self):
        # One point never pays pool startup, whatever max_workers says.
        (result,) = run_sweep(_points(seeds=(2,)), max_workers=8)
        assert result.worker_pid == os.getpid()


class TestMetricsThroughSweep:
    """Metric summaries must survive the process-pool boundary and match
    the serial path exactly -- they ride inside the pickled result."""

    def test_metrics_collected_per_point_in_order(self):
        points = _points(seeds=(5, 6), collect_metrics=True, metrics_window=64)
        results = run_sweep(points, max_workers=2)
        assert [r.label for r in results] == [p.label for p in points]
        for result in results:
            summary = result.value.metrics
            assert summary is not None
            # Whole batch delivered: 8 chips x 2 cores x 16 packets.
            assert summary.delivered == 256
            assert summary.window_cycles == 64
            assert set(summary.latency_quantiles) == {0.5, 0.95, 0.99}

    def test_parallel_metrics_match_serial(self):
        serial = run_sweep(
            _points(seeds=(5, 6), collect_metrics=True), max_workers=1
        )
        parallel = run_sweep(
            _points(seeds=(5, 6), collect_metrics=True), max_workers=2
        )
        for s, p in zip(serial, parallel):
            assert s.value.metrics == p.value.metrics

    def test_metrics_off_by_default(self):
        (result,) = run_sweep(_points(seeds=(5,)), max_workers=1)
        assert result.value.metrics is None


def _boom(seed=0, detail="kaboom"):
    raise ValueError(f"simulated point failure: {detail}")


def _mixed_points():
    """Two good points around one that raises -- order must be preserved."""
    good = _points(seeds=(3, 4))
    bad = SweepPoint(
        label="uniform/rr/broken",
        fn=_boom,
        kwargs={"detail": "bad-spec"},
        seed=11,
    )
    return [good[0], bad, good[1]]


class TestSweepFailures:
    """A worker exception must not forfeit the rest of the sweep: the
    failing point's parameters are reported and the other points still
    complete (partial results ride on the raised error)."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_failure_reports_point_and_keeps_partial_results(self, max_workers):
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(_mixed_points(), max_workers=max_workers)
        err = excinfo.value
        # The summary names the failing point, its parameters, and the
        # original exception.
        assert "1 of 3 sweep points failed" in str(err)
        assert "uniform/rr/broken" in str(err)
        assert "'detail': 'bad-spec'" in str(err)
        assert "'seed': 11" in str(err)
        assert "simulated point failure: bad-spec" in str(err)
        # All three points executed; the good ones carry real values.
        assert [r.label for r in err.results] == [
            "uniform/rr/seed3",
            "uniform/rr/broken",
            "uniform/rr/seed4",
        ]
        assert [f.label for f in err.failures] == ["uniform/rr/broken"]
        assert err.results[1].value is None
        assert "ValueError" in err.results[1].error
        for good in (err.results[0], err.results[2]):
            assert good.error is None
            assert good.value.normalized_throughput > 0

    def test_green_path_has_no_errors(self):
        for result in run_sweep(_points(), max_workers=2):
            assert result.error is None


class TestResumeFingerprint:
    """A campaign directory only returns a recorded result to the point
    that produced it: a directory left over from a *different* sweep (or
    an edited point list) runs the new points instead of silently
    returning the other sweep's results."""

    def _strip_wall(self, result):
        fields = dataclasses.asdict(result.value)
        fields.pop("wall_seconds")
        return fields

    def test_dir_reused_across_different_sweeps_reruns(self, tmp_path):
        sweep_dir = str(tmp_path / "sweep")
        run_sweep(_points(seeds=(3, 4)), max_workers=1, checkpoint_dir=sweep_dir)
        reference = run_sweep(_points(seeds=(8, 9)), max_workers=1)
        resumed = run_sweep(
            _points(seeds=(8, 9)), max_workers=1, checkpoint_dir=sweep_dir
        )
        assert [r.label for r in resumed] == [r.label for r in reference]
        for got, want in zip(resumed, reference):
            assert self._strip_wall(got) == self._strip_wall(want)

    def test_same_labels_different_kwargs_rerun(self, tmp_path):
        # Labels alone are not identity: the same sweep with one kwarg
        # changed must not come back as the stale results.
        sweep_dir = str(tmp_path / "sweep")
        first = run_sweep(_points(), max_workers=1, checkpoint_dir=sweep_dir)
        assert all(r.value.metrics is None for r in first)
        resumed = run_sweep(
            _points(collect_metrics=True), max_workers=1, checkpoint_dir=sweep_dir
        )
        assert all(r.value.metrics is not None for r in resumed)

    def test_results_carry_fingerprints(self):
        points = _points(seeds=(3,))
        (result,) = run_sweep(points, max_workers=1)
        assert result.fingerprint == point_fingerprint(points[0])
        assert points[0].label in result.fingerprint


def _kill_worker(seed=0):
    # Simulates an OOM-killed worker: the process dies without raising a
    # Python exception, so the parent sees BrokenProcessPool (a pool-level
    # failure, not a point failure) out of future.result().
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
class TestPoolFailure:
    """A dead worker must degrade into per-point errors under the
    documented partial-results contract, not propagate raw and discard
    every completed point."""

    def _kill_points(self, count=2):
        return [
            SweepPoint(label=f"pool/kill{i}", fn=_kill_worker, seed=i)
            for i in range(count)
        ]

    def _partial(self, points):
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(points, max_workers=2)
        return excinfo.value.results

    def test_pool_failure_becomes_per_point_errors(self):
        results = self._partial(self._kill_points())
        assert [r.label for r in results] == ["pool/kill0", "pool/kill1"]
        for result in results:
            assert result.value is None
            assert "worker-pool failure" in result.error
            assert result.fingerprint is not None

    def test_pool_failure_raises_sweep_point_error(self):
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(self._kill_points(), max_workers=2)
        assert "2 of 2 sweep points failed" in str(excinfo.value)
        assert "worker-pool failure" in str(excinfo.value)

    def test_completed_points_survive_pool_failure(self):
        # Mid-sweep kill: whether the good point finishes before the pool
        # breaks is timing-dependent, but either way it gets a structured
        # result and the dead points report their loss -- nothing
        # propagates raw out of run_sweep.
        points = _points(seeds=(3,)) + self._kill_points()
        results = self._partial(points)
        assert [r.index for r in results] == [0, 1, 2]
        good = results[0]
        assert (good.error is None and good.value is not None) or (
            "worker-pool failure" in good.error
        )
        for result in results[1:]:
            assert result.value is None
            assert "worker-pool failure" in result.error


class TestSweepPoint:
    def test_seed_merged_into_kwargs(self):
        point = SweepPoint(label="x", fn=dict, kwargs={"a": 1}, seed=42)
        assert point.call_kwargs() == {"a": 1, "seed": 42}

    def test_kwargs_not_mutated(self):
        kwargs = {"a": 1}
        point = SweepPoint(label="x", fn=dict, kwargs=kwargs, seed=7)
        point.call_kwargs()
        assert kwargs == {"a": 1}

    def test_no_seed_leaves_kwargs_alone(self):
        point = SweepPoint(label="x", fn=dict, kwargs={"a": 1})
        assert point.call_kwargs() == {"a": 1}


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3

    def test_env_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        assert default_workers() == 1

    def test_default_capped(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert 1 <= default_workers() <= 4


class TestWorkerEnvPinning:
    """REPRO_SWEEP_WORKERS must flow through ``run_sweep`` end to end:
    the env decides serial-vs-pool when ``max_workers`` is omitted, and
    either route returns the same measured bytes -- the contract the CI
    smoke sweep and the benchmarks rely on."""

    def test_env_one_forces_in_process_execution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        results = run_sweep(_points())
        assert all(r.worker_pid == os.getpid() for r in results)

    def test_env_pool_runs_out_of_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        results = run_sweep(_points())
        assert all(r.worker_pid != os.getpid() for r in results)

    def test_env_serial_and_env_pool_results_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        serial = run_sweep(_points())
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        pooled = run_sweep(_points())
        for s, p in zip(serial, pooled):
            measured_s = dataclasses.asdict(s.value)
            measured_p = dataclasses.asdict(p.value)
            measured_s.pop("wall_seconds")
            measured_p.pop("wall_seconds")
            assert measured_s == measured_p

    def test_explicit_max_workers_overrides_env(self, monkeypatch):
        # An explicit kwarg wins over the env in both directions.
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        results = run_sweep(_points(), max_workers=1)
        assert all(r.worker_pid == os.getpid() for r in results)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        results = run_sweep(_points(), max_workers=2)
        assert all(r.worker_pid != os.getpid() for r in results)


class TestSharedMachine:
    def test_cached_per_config(self):
        config = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
        first = shared_machine(config)
        second = shared_machine(MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2))
        assert first[0] is second[0]
        assert first[1] is second[1]
