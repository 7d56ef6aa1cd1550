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
worker fills for itself.

A campaign that must survive a kill names one directory
(``checkpoint_dir``) and nothing else. Each point has two files there,
both named by a hash of :func:`point_fingerprint` -- what the point *is*,
never its place in the list or where the directory lives: its sealed
record once it has finished, and, while it runs, whatever it keeps at
:func:`point_scratch` (a batch point, its engine checkpoint). Making the
same call again picks the campaign up: finished points come back from
their records, an interrupted one finds its scratch file, the rest run.

Run ``python -m repro.sim.sweep`` for a self-checking smoke sweep (two
Figure 9-style points executed serially and in parallel, results
compared); CI uses it as the parallel-runner gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Optional, Sequence

from .checkpoint import canonical, write_atomic


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
    #: Identity of the point that produced this result (see
    #: :func:`point_fingerprint`): what its record is named and sealed by.
    fingerprint: Optional[str] = None


def point_fingerprint(point: SweepPoint) -> str:
    """Canonical identity of a sweep point: the label, the fully
    qualified ``fn`` name, and a :func:`~repro.sim.checkpoint.canonical`
    rendering of the effective kwargs (seed merged, keys sorted). Two
    points with the same fingerprint run the same computation, so the
    record of one may stand in for running the other; an edited point
    has another fingerprint, another record name, and runs.
    """
    kwargs = point.call_kwargs()
    rendered = ", ".join(
        f"{key}={canonical(kwargs[key])}" for key in sorted(kwargs)
    )
    return f"{point.label}|{canonical(point.fn)}|{rendered}"


# --- the campaign directory -------------------------------------------------------

#: What :func:`point_scratch` returns: set around each point's ``fn``.
_SCRATCH: ContextVar[Optional[str]] = ContextVar("point_scratch", default=None)


def point_scratch() -> Optional[str]:
    """A path of its own for the point being executed, ``None`` outside
    a campaign directory. Whatever the point's ``fn`` leaves there is
    there when the same point is executed again -- the name comes from
    the point's fingerprint -- so a killed point can pick itself up."""
    return _SCRATCH.get()


def _stems(
    points: Sequence[SweepPoint], checkpoint_dir: Optional[str]
) -> List[Optional[str]]:
    """Per point, the path (less its suffix) of its two files in the
    campaign directory; ``None`` without one."""
    if checkpoint_dir is None:
        return [None] * len(points)
    names = (
        hashlib.sha256(point_fingerprint(point).encode()).hexdigest()[:32]
        for point in points
    )
    return [os.path.join(checkpoint_dir, name) for name in names]


def _seal(stem: str, payload: bytes) -> bytes:
    """Digest of a record's payload and of the name it is filed under."""
    name = os.path.basename(stem).encode()
    return hashlib.sha256(name + payload).hexdigest().encode()


def _store(result: SweepResult, stem: str) -> None:
    """Write a finished point's record: its pickle under its seal."""
    payload = pickle.dumps(result)
    write_atomic(stem + ".result", _seal(stem, payload) + b"\n" + payload)


def _stored(stem: str) -> Optional[SweepResult]:
    """The point's result out of its record -- or ``None``: no record,
    or one whose seal does not verify (a flipped bit, a truncation,
    another point's file under this name), or one this code cannot read
    back. Such a point is simply not done, and runs."""
    try:
        with open(stem + ".result", "rb") as handle:
            seal, _, payload = handle.read().partition(b"\n")
    except OSError:
        return None
    if seal != _seal(stem, payload):
        return None
    try:
        # Only bytes under their own seal are unpickled; what still fails
        # is a whole record of a class this version of the code lacks.
        return pickle.loads(payload)
    except Exception:
        return None


def finished(
    points: Sequence[SweepPoint], checkpoint_dir: Optional[str]
) -> Dict[int, SweepResult]:
    """``{index: result}`` of the points whose record is in the campaign
    directory: what :func:`run_sweep` returns as stored instead of
    running."""
    done: Dict[int, SweepResult] = {}
    for index, stem in enumerate(_stems(points, checkpoint_dir)):
        result = stem and _stored(stem)
        if result is not None:
            done[index] = dataclasses.replace(result, index=index)
    return done


def _execute_point(
    point: SweepPoint, index: int, stem: Optional[str] = None
) -> SweepResult:
    start = time.perf_counter()
    value = None
    error = None
    scratch = _SCRATCH.set(stem and stem + ".partial")
    try:
        value = point.fn(**point.call_kwargs())
    except Exception:
        # Capture the failure with the point's parameters instead of
        # letting a bare pool traceback kill the whole sweep; the parent
        # reports all failures together once every point has run.
        # KeyboardInterrupt deliberately escapes: a kill mid-sweep must
        # abort the run (the campaign directory picks it up), not be
        # recorded as a point failure.
        error = (
            f"sweep point {point.label!r} (index {index}) failed with "
            f"kwargs {point.call_kwargs()!r}:\n{traceback.format_exc()}"
        )
    finally:
        _SCRATCH.reset(scratch)
    result = SweepResult(
        label=point.label,
        index=index,
        value=value,
        wall_seconds=time.perf_counter() - start,
        worker_pid=os.getpid(),
        error=error,
        fingerprint=point_fingerprint(point),
    )
    if stem and error is None:
        # Only successes are recorded; a failed point runs again.
        _store(result, stem)
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
    checkpoint_dir: Optional[str] = None,
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
    parameters and traceback). Afterwards :class:`SweepPointError`
    summarizes every failed point, the whole result list attached as
    ``.results``.

    ``checkpoint_dir`` is the campaign directory (module docstring):
    every finished point is recorded there as it completes, and the same
    call made again -- after a kill, from another working directory,
    with points added, dropped or reordered -- returns the recorded
    points as stored and runs the others, for results identical to an
    uninterrupted run's. Nothing in the directory is ever overwritten by
    a different point, so campaigns may share one.
    """
    if max_workers is None:
        max_workers = default_workers()
    stems = _stems(points, checkpoint_dir)
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        twice = {p.label for p, s in zip(points, stems) if stems.count(s) > 1}
        if twice:
            # Two writers of one record and one scratch file.
            raise ValueError(
                f"sweep points listed twice: {sorted(twice)}; a campaign "
                f"directory keeps one record per distinct point"
            )
    done = finished(points, checkpoint_dir)
    todo = [i for i in range(len(points)) if i not in done]
    if max_workers <= 1 or len(todo) <= 1:
        for i in todo:
            done[i] = _execute_point(points[i], i, stems[i])
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                i: pool.submit(_execute_point, points[i], i, stems[i])
                for i in todo
            }
            for i, future in futures.items():
                try:
                    done[i] = future.result()
                except KeyboardInterrupt:
                    # A kill mid-sweep aborts (the campaign directory
                    # picks it up), exactly as in the serial path.
                    raise
                except BaseException:
                    # A pool-level failure (e.g. BrokenProcessPool from an
                    # OOM-killed worker) reaches the parent without a
                    # SweepResult. Recorded as this point's failure, every
                    # other point's result survives and it is reported
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
        help="campaign directory of the parallel leg: killed and made "
        "again, the command picks itself up from it",
    )
    args = parser.parse_args(argv)

    serial = run_sweep(_smoke_points(), max_workers=1)
    parallel = run_sweep(
        _smoke_points(), max_workers=args.workers, checkpoint_dir=args.checkpoint_dir
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
