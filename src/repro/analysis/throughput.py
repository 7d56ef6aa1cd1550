"""Throughput experiment harnesses (Figures 9 and 10).

These wrap the simulator into the paper's measurement methodology:
normalized batch throughput versus batch size for different arbitration
policies (Figure 9), and versus blend fraction for different arbiter
weight sets (Figure 10).

Every measured point is an independent simulation, so the sweeps fan
points across cores through :mod:`repro.sim.sweep`: a picklable
:class:`BatchPoint` *is* its :class:`~repro.sim.simulator.RunSpec` plus
reporting labels, and :func:`measure_batch_point` is prepare, build,
run, reduce over that value. What a campaign's points share -- machine,
analytic loads, programmed weight tables -- lives in the simulator's
memo: the parent prepares every point that will run before its pool
forks and the workers inherit it (one that cannot fills its own). The
engine's exact fixed-point timing makes the results bitwise-identical to
a serial loop.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.metrics import MetricsCollector, MetricsSummary
from repro.sim.simulator import (
    RunSpec,
    loads_of,
    program_weights,
    run as simulate,
    share_machine,
    shared_machine,
)
from repro.sim.sweep import SweepPoint, finished, point_scratch, run_sweep
from repro.traffic.batch import BatchSpec
from repro.traffic.loads import ideal_batch_cycles
from repro.traffic.patterns import Blend, TrafficPattern


#: Cycles between the engine checkpoints a point of a campaign directory
#: keeps while it runs (:func:`measure_batch_point`); a kill loses at
#: most this many cycles of one point. A save at 8x8x8 costs 1.3 s and
#: 9 MB plus 0.11 ms and 0.65 KB per packet still outstanding (12.9 s,
#: 74 MB at cycle 192 of the 696 a 4-core x 64 batch takes in ~55 s), so
#: points shorter than this -- minutes -- never save and re-run whole.
CHECKPOINT_EVERY = 4096


@dataclasses.dataclass
class ThroughputPoint:
    """One measured point of a throughput experiment."""

    pattern: str
    arbitration: str
    batch_size: int
    normalized_throughput: float
    finish_spread: float
    completion_cycles: int
    wall_seconds: float
    #: Streaming metric summary (latency quantiles, busy windows, VC
    #: occupancy) when the point was measured with ``collect_metrics``.
    metrics: Optional[MetricsSummary] = None


def _prepare(
    run: RunSpec,
    machine: Optional[Machine] = None,
    route_computer: Optional[RouteComputer] = None,
) -> tuple:
    """The offline half of a batch run: ``(machine, route computer, the
    measured pattern's load table, (SA2, SA1) weight tables)``. On the
    config's shared pair all of it comes out of the simulator's memo, so
    whoever asks first pays: a campaign's parent before its workers
    fork, else each worker."""
    if machine is None:
        machine, route_computer = shared_machine(run.config)
    elif route_computer is None:
        route_computer = RouteComputer(machine)
    spec = run.spec
    (load_table,) = loads_of(
        machine, route_computer, [spec.pattern], spec.cores_per_chip
    )
    tables = program_weights(run, machine, route_computer)
    return machine, route_computer, load_table, tables


def measure_run(
    run: RunSpec,
    label: Optional[str] = None,
    collector: Optional[MetricsCollector] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    machine: Optional[Machine] = None,
    route_computer: Optional[RouteComputer] = None,
) -> ThroughputPoint:
    """Measure one described batch run: prepare, build, run, reduce.

    Its completion time is normalized by the measured pattern's load
    table: following Section 4.1, a throughput of 1 means the busiest
    torus channel (under the pattern's expected loads) was never idle.
    ``machine`` (with ``route_computer``, else a stock one on it) is a
    pair the caller holds -- a custom floorplan or route computer, which
    a campaign refuses -- measured as it is; by default the config's
    shared pair. A :class:`~repro.sim.metrics.MetricsCollector` streams
    per-channel and latency metrics out of the run; its summary rides
    along on the returned point. ``checkpoint_path`` +
    ``checkpoint_every`` are :func:`repro.sim.simulator.run`'s: the file
    is stamped with ``run``, ``weight_patterns`` included, so editing
    what programs a point's weights refuses the old point's file like
    any other edit.
    """
    machine, route_computer, load_table, tables = _prepare(
        run, machine, route_computer
    )
    start = time.perf_counter()
    stats = simulate(
        run, machine=machine, trace=collector,
        checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every,
        route_computer=route_computer, weight_tables=tables,
    )
    wall = time.perf_counter() - start
    batch_size = run.spec.packets_per_source
    ideal = ideal_batch_cycles(machine, load_table, batch_size)
    return ThroughputPoint(
        pattern=run.spec.pattern.name,
        arbitration=label or run.arbitration,
        batch_size=batch_size,
        normalized_throughput=ideal / stats.last_delivery_cycle,
        finish_spread=stats.finish_spread() or 0.0,
        completion_cycles=stats.last_delivery_cycle,
        wall_seconds=wall,
        metrics=(
            None if collector is None else collector.summary(stats.end_cycle)
        ),
    )


@dataclasses.dataclass(frozen=True)
class BatchPoint:
    """Picklable spec of one batch-throughput simulation point: its
    :attr:`run` plus how to report it.

    ``weight_patterns`` names the patterns whose analytic loads program
    the inverse-weight tables for ``arbitration="iw"`` (empty means: the
    measured pattern itself).
    """

    config: MachineConfig
    pattern: TrafficPattern
    batch_size: int
    cores_per_chip: int
    arbitration: str
    weight_patterns: Tuple[TrafficPattern, ...] = ()
    seed: int = 0
    label: Optional[str] = None
    #: Override for the reported pattern name (e.g. the blend fraction).
    pattern_label: Optional[str] = None
    #: Attach a streaming :class:`~repro.sim.metrics.MetricsCollector`
    #: to the run; the point comes back with a picklable
    #: :class:`~repro.sim.metrics.MetricsSummary` in ``metrics``.
    collect_metrics: bool = False
    #: Busy-tick window grain (cycles) for collected metrics.
    metrics_window: int = 256
    @property
    def run(self) -> RunSpec:
        """What the point is prepared, built, stamped and cached as."""
        spec = BatchSpec(
            self.pattern, self.batch_size, self.cores_per_chip, seed=self.seed
        )
        return RunSpec(
            self.config, spec, self.arbitration, tuple(self.weight_patterns)
        )


def measure_batch_point(point: BatchPoint) -> ThroughputPoint:
    """Run one :class:`BatchPoint` (the sweep-runner work function).

    Under a campaign directory the run keeps an engine checkpoint at the
    runner's :func:`~repro.sim.sweep.point_scratch`, every
    :data:`CHECKPOINT_EVERY` cycles: the same point executed again after
    a kill is restored from it (:func:`~repro.sim.simulator.start`) and
    measures what the uninterrupted run would have; the file is gone once
    the point finishes.
    """
    collector = (
        MetricsCollector(window_cycles=point.metrics_window)
        if point.collect_metrics
        else None
    )
    result = measure_run(
        point.run, point.label, collector, point_scratch(), CHECKPOINT_EVERY
    )
    if point.pattern_label is not None:
        result.pattern = point.pattern_label
    return result


def run_batch_points(
    points: Sequence[BatchPoint],
    max_workers: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
) -> List[ThroughputPoint]:
    """Fan a list of batch points across cores; results in input order.

    ``checkpoint_dir`` is the sweep runner's campaign directory (see
    :func:`repro.sim.sweep.run_sweep`): killed and made again, this call
    returns the finished points as recorded, restores the interrupted
    one mid-run (:func:`measure_batch_point`) and runs the rest.

    The offline halves (:func:`_prepare`) of the points that will run
    are computed here, in the parent, before any worker exists:
    machines, load tables and weight tables are programmed once per
    campaign -- as the paper programs its weights once per traffic
    pattern -- and forked workers inherit them. Where workers do not
    fork they would inherit nothing, so the parent leaves the work to
    them (and to a serial loop's first use).
    """
    sweep_points = [
        SweepPoint(
            label=f"{p.pattern_label or p.pattern.name}/"
            f"{p.label or p.arbitration}/b{p.batch_size}",
            fn=measure_batch_point,
            kwargs={"point": p},
        )
        for p in points
    ]
    if multiprocessing.get_start_method() == "fork":
        done = finished(sweep_points, checkpoint_dir)
        for index, point in enumerate(points):
            if index in done:
                continue
            try:
                _prepare(point.run)
            except Exception:
                # The point's own run raises the same error, and the
                # sweep runner reports it by name beside the others.
                pass
    results = run_sweep(
        sweep_points, max_workers=max_workers, checkpoint_dir=checkpoint_dir
    )
    return [r.value for r in results]


def throughput_vs_batch_size(
    machine: Machine,
    route_computer: RouteComputer,
    patterns: Sequence[TrafficPattern],
    batch_sizes: Sequence[int],
    cores_per_chip: int,
    weight_pattern: Optional[TrafficPattern] = None,
    arbitrations: Sequence[str] = ("rr", "iw"),
    seed: int = 0,
    max_workers: Optional[int] = 1,
) -> List[ThroughputPoint]:
    """The Figure 9 experiment.

    A *single* set of inverse weights -- computed from ``weight_pattern``
    (default: the first pattern, matching the paper's use of
    uniform-derived weights for all traffic) -- is used for every
    measured pattern. ``max_workers`` > 1 fans the points across
    processes; results are identical to serial execution (the default).
    """
    weight_pattern = weight_pattern or patterns[0]
    share_machine(machine, route_computer)
    points = [
        BatchPoint(
            config=machine.config,
            pattern=pattern,
            batch_size=batch_size,
            cores_per_chip=cores_per_chip,
            arbitration=arbitration,
            weight_patterns=(weight_pattern,),
            seed=seed,
        )
        for pattern in patterns
        for batch_size in batch_sizes
        for arbitration in arbitrations
    ]
    return run_batch_points(points, max_workers=max_workers)


def blend_sweep(
    machine: Machine,
    route_computer: RouteComputer,
    pattern_a: TrafficPattern,
    pattern_b: TrafficPattern,
    fractions: Sequence[float],
    batch_size: int,
    cores_per_chip: int,
    seed: int = 0,
    max_workers: Optional[int] = 1,
) -> List[ThroughputPoint]:
    """The Figure 10 experiment: blend two patterns, vary the fraction,
    and measure four arbiter configurations:

    * ``none`` -- round-robin arbitration;
    * ``forward`` -- inverse weights for ``pattern_a`` only;
    * ``reverse`` -- inverse weights for ``pattern_b`` only;
    * ``both`` -- two weight sets, packets labeled by component pattern.

    ``max_workers`` > 1 fans the (fraction x arbiter-config) points across
    processes; results are identical to serial execution (the default).
    """
    label_weights = {
        "none": (),
        "forward": (pattern_a,),
        "reverse": (pattern_b,),
        "both": (pattern_a, pattern_b),
    }
    share_machine(machine, route_computer)
    points = [
        BatchPoint(
            config=machine.config,
            pattern=Blend([pattern_a, pattern_b], [fraction, 1.0 - fraction]),
            batch_size=batch_size,
            cores_per_chip=cores_per_chip,
            arbitration="rr" if label == "none" else "iw",
            weight_patterns=label_weights[label],
            seed=seed,
            label=label,
            pattern_label=f"{fraction:.2f} {pattern_a.name}",
        )
        for fraction in fractions
        for label in ("none", "forward", "reverse", "both")
    ]
    return run_batch_points(points, max_workers=max_workers)
