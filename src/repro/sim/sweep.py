"""Parallel sweep runner for independent simulation points.

The throughput experiments (Figures 9 and 10, and the weight-robustness
ablation) are embarrassingly parallel: every measured point -- a (machine
config, traffic pattern, batch size, arbiter config, seed) tuple -- is an
independent cycle-level simulation. With the engine's exact fixed-point
timing, a point's result is a pure function of its spec, so fanning points
across a :class:`~concurrent.futures.ProcessPoolExecutor` returns results
bitwise-identical to a serial loop, just wall-clock faster.

Tasks carry descriptions (a :class:`~repro.sim.simulator.RunSpec`),
never the elaborated component/channel graph: what points share offline
lives in :mod:`repro.sim.simulator`'s per-process memo, which a forked
worker inherits as it stood when the pool was created and any other
worker fills for itself, keyed like a resume and a checkpoint's run
stamp on :func:`canonical` content.

Run ``python -m repro.sim.sweep`` for a self-checking smoke sweep (two
Figure 9-style points executed serially and in parallel, results
compared); CI uses it as the parallel-runner gate.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence


class SweepPointError(RuntimeError):
    """One or more sweep points failed.

    Raised by :func:`run_sweep` *after* every point has executed, so a
    single bad point does not forfeit the rest of an expensive sweep:
    ``results`` holds the full result list (failed points carry
    ``value=None`` and an ``error`` traceback), and the message names
    each failing point with its parameters.
    """

    def __init__(self, message: str, results: List["SweepResult"]) -> None:
        super().__init__(message)
        self.results = results

    @property
    def failures(self) -> List["SweepResult"]:
        return [result for result in self.results if result.error is not None]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep.

    ``fn`` must be a module-level (picklable) callable; it is invoked as
    ``fn(**kwargs)``. ``seed``, when given, is merged into ``kwargs`` --
    making per-point seeding explicit in sweep construction rather than
    buried in each point's argument dict.
    """

    label: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    seed: Optional[int] = None

    def call_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs


@dataclasses.dataclass
class SweepResult:
    """Structured result of one executed sweep point."""

    label: str
    index: int
    value: Any
    wall_seconds: float
    #: PID of the worker process that ran the point (the parent's own PID
    #: for serial execution) -- makes work distribution inspectable.
    worker_pid: int
    #: Formatted traceback when the point's ``fn`` raised; ``None`` on
    #: success. Failed points carry ``value=None``.
    error: Optional[str] = None
    #: Identity fingerprint of the point that produced this result (see
    #: :func:`point_fingerprint`); ``resume`` only reuses a persisted
    #: result whose fingerprint matches the point at the same index.
    fingerprint: Optional[str] = None


def canonical(value: Any) -> str:
    """A value repr stable across processes and interpreter runs, behind
    :func:`point_fingerprint`, the keys of the simulator's offline memo
    and a checkpoint's run stamp (:func:`repro.sim.checkpoint.run_stamp`).

    ``repr`` alone is not an identity: objects without a custom
    ``__repr__`` (e.g. traffic patterns) render their memory address,
    which would make every resume look stale. Containers and dataclasses
    recurse; plain objects render as ``module.Class(sorted vars)``; sets
    sort their elements so hash randomization cannot reorder them.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{cls.__module__}.{cls.__qualname__}({fields})"
    if isinstance(value, dict):
        items = sorted(
            (canonical(k), canonical(v)) for k, v in value.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(canonical(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical(v) for v in value)) + "}"
    if callable(value) and hasattr(value, "__qualname__"):
        return f"{getattr(value, '__module__', '?')}.{value.__qualname__}"
    if type(value).__repr__ is object.__repr__:
        cls = type(value)
        state = ", ".join(
            f"{name}={canonical(val)}"
            for name, val in sorted(getattr(value, "__dict__", {}).items())
        )
        return f"{cls.__module__}.{cls.__qualname__}({state})"
    return repr(value)


def point_fingerprint(point: SweepPoint) -> str:
    """Canonical identity of a sweep point for resume validation.

    Combines the label, the fully qualified ``fn`` name, and a canonical
    rendering of the effective kwargs (seed merged, keys sorted). Two
    points with the same fingerprint run the same computation, so a
    persisted result may stand in for a re-run; a mismatch means the
    checkpoint dir belongs to a different sweep (or the point list was
    edited/reordered) and the point must re-run rather than silently
    returning another point's result.
    """
    kwargs = point.call_kwargs()
    rendered = ", ".join(
        f"{key}={canonical(kwargs[key])}" for key in sorted(kwargs)
    )
    return f"{point.label}|{canonical(point.fn)}|{rendered}"


def _result_path(checkpoint_dir: str, index: int) -> str:
    return os.path.join(checkpoint_dir, f"point_{index:04d}.result.pkl")


def _persist_result(result: SweepResult, path: str) -> None:
    """Atomically pickle one completed point result (crash-consistent)."""
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(result, handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _load_result(path: str) -> Optional[SweepResult]:
    """A previously persisted result, or None if absent/unreadable.

    A truncated pickle (crash mid-write of a pre-atomic-rename tool, or
    disk corruption) is treated as not-done: the point simply re-runs.
    """
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None


def _execute_point(
    point: SweepPoint, index: int, result_path: Optional[str] = None
) -> SweepResult:
    start = time.perf_counter()
    value = None
    error = None
    try:
        value = point.fn(**point.call_kwargs())
    except Exception:
        # Capture the failure with the point's parameters instead of
        # letting a bare pool traceback kill the whole sweep; the parent
        # reports all failures together once every point has run.
        # KeyboardInterrupt deliberately escapes: a kill mid-sweep must
        # abort the run (persisted results make it resumable), not be
        # recorded as a point failure.
        error = (
            f"sweep point {point.label!r} (index {index}) failed with "
            f"kwargs {point.call_kwargs()!r}:\n{traceback.format_exc()}"
        )
    result = SweepResult(
        label=point.label,
        index=index,
        value=value,
        wall_seconds=time.perf_counter() - start,
        worker_pid=os.getpid(),
        error=error,
        fingerprint=point_fingerprint(point),
    )
    if result_path is not None and error is None:
        # Only successes persist; failed points re-run on resume.
        _persist_result(result, result_path)
    return result


def default_workers() -> int:
    """Worker count for benchmark sweeps.

    Honors ``REPRO_SWEEP_WORKERS`` (0 or 1 forces serial execution);
    otherwise uses up to four cores -- the benchmarks' sweeps have about a
    dozen points, so wider pools mostly add startup cost.
    """
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env is not None:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def run_sweep(
    points: Sequence[SweepPoint],
    max_workers: Optional[int] = None,
    on_error: str = "raise",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> List[SweepResult]:
    """Execute every point and return results in sweep order.

    ``max_workers=1`` (or a single point) runs serially in-process --
    useful under profilers and as the reference for determinism checks;
    ``None`` uses :func:`default_workers`. Results are returned in input
    order regardless of completion order, so serial and parallel runs are
    directly comparable element by element.

    A point whose ``fn`` raises does not abort the sweep: every other
    point still runs, and the failure is recorded on its
    :class:`SweepResult` (``value=None``, ``error`` holding the point's
    parameters and traceback). Afterwards, ``on_error="raise"`` (the
    default) raises :class:`SweepPointError` summarizing every failed
    point, with the partial results attached as ``.results``;
    ``on_error="return"`` returns the result list and leaves failure
    handling to the caller.

    ``checkpoint_dir`` makes the sweep crash-resumable: each point's
    result is pickled (atomically, as it completes) into the directory,
    and ``resume=True`` loads completed points instead of re-running them
    -- a killed sweep restarted with ``resume`` finishes the remaining
    points and returns results identical to an uninterrupted run. The
    per-point pickles compose with mid-run engine checkpoints (a
    :class:`~repro.analysis.throughput.BatchPoint` with
    ``checkpoint_path`` set), so even the interrupted point resumes from
    its last engine snapshot rather than from cycle 0.
    """
    if on_error not in ("raise", "return"):
        raise ValueError(f"unknown on_error mode {on_error!r}")
    if max_workers is None:
        max_workers = default_workers()
    result_paths: List[Optional[str]] = [None] * len(points)
    done: Dict[int, SweepResult] = {}
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        result_paths = [
            _result_path(checkpoint_dir, i) for i in range(len(points))
        ]
        if resume:
            for i, path in enumerate(result_paths):
                loaded = _load_result(path)
                if (
                    loaded is not None
                    and loaded.error is None
                    and loaded.fingerprint == point_fingerprint(points[i])
                ):
                    # Results persisted by an older schema (no
                    # fingerprint) or by a *different* sweep sharing the
                    # directory fail the identity check and re-run.
                    done[i] = loaded
    todo = [i for i in range(len(points)) if i not in done]
    if max_workers <= 1 or len(todo) <= 1:
        for i in todo:
            done[i] = _execute_point(points[i], i, result_paths[i])
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                i: pool.submit(_execute_point, points[i], i, result_paths[i])
                for i in todo
            }
            for i, future in futures.items():
                try:
                    done[i] = future.result()
                except KeyboardInterrupt:
                    # A kill mid-sweep aborts (persisted results make it
                    # resumable), exactly as in the serial path.
                    raise
                except BaseException:
                    # A pool-level failure (e.g. BrokenProcessPool from an
                    # OOM-killed worker) reaches the parent through
                    # ``future.result()`` without a SweepResult. Recording
                    # it as a per-point failure preserves the documented
                    # partial-results contract: every other point's result
                    # survives, and on_error="raise" reports this point
                    # alongside ordinary fn failures.
                    done[i] = SweepResult(
                        label=points[i].label,
                        index=i,
                        value=None,
                        wall_seconds=0.0,
                        worker_pid=os.getpid(),
                        error=(
                            f"sweep point {points[i].label!r} (index {i}) "
                            f"lost to a worker-pool failure with kwargs "
                            f"{points[i].call_kwargs()!r}:\n"
                            f"{traceback.format_exc()}"
                        ),
                        fingerprint=point_fingerprint(points[i]),
                    )
    results = [done[i] for i in range(len(points))]
    if on_error == "raise":
        failures = [result for result in results if result.error is not None]
        if failures:
            summary = "\n".join(failure.error.rstrip() for failure in failures)
            raise SweepPointError(
                f"{len(failures)} of {len(results)} sweep points failed:\n"
                f"{summary}",
                results,
            )
    return results


# --- smoke sweep (CLI / CI gate) ----------------------------------------------


def _smoke_points() -> List[SweepPoint]:
    # Imported here: analysis.throughput imports this module.
    from repro.analysis.throughput import BatchPoint, measure_batch_point
    from repro.core.machine import MachineConfig
    from repro.traffic.patterns import UniformRandom

    config = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
    pattern = UniformRandom(config.shape)
    return [
        SweepPoint(
            label=f"uniform/{arbitration}/batch32",
            fn=measure_batch_point,
            kwargs={
                "point": BatchPoint(
                    config=config,
                    pattern=pattern,
                    batch_size=32,
                    cores_per_chip=2,
                    arbitration=arbitration,
                    seed=7,
                    collect_metrics=True,
                )
            },
        )
        for arbitration in ("rr", "iw")
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Self-checking smoke sweep: serial and parallel runs must agree."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Run a smoke sweep through the parallel sweep runner "
        "and verify parallel results match serial execution."
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="process-pool width for the parallel leg (default: 2)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist per-point results (parallel leg) for crash resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip points already completed in --checkpoint-dir",
    )
    args = parser.parse_args(argv)

    serial = run_sweep(_smoke_points(), max_workers=1)
    parallel = run_sweep(
        _smoke_points(),
        max_workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    status = 0
    for s, p in zip(serial, parallel):
        # Every measured field -- including the streaming metric summary
        # that crossed the process boundary -- must be bitwise-identical.
        match = (
            s.value.normalized_throughput == p.value.normalized_throughput
            and s.value.completion_cycles == p.value.completion_cycles
            and s.value.finish_spread == p.value.finish_spread
            and s.value.metrics == p.value.metrics
        )
        if not match:
            status = 1
        quantiles = p.value.metrics.latency_quantiles
        print(
            f"{s.label:24s} throughput={p.value.normalized_throughput:.3f} "
            f"cycles={p.value.completion_cycles} "
            f"p50={quantiles[0.5]} p99={quantiles[0.99]} "
            f"worker={p.worker_pid} "
            f"{'OK' if match else 'MISMATCH vs serial'}"
        )
    print("smoke sweep:", "PASS" if status == 0 else "FAIL")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
