"""Throughput experiment harnesses (Figures 9 and 10).

These wrap the simulator into the paper's measurement methodology:
normalized batch throughput versus batch size for different arbitration
policies (Figure 9), and versus blend fraction for different arbiter
weight sets (Figure 10).

Every measured point is an independent simulation, so the sweeps fan
points across cores through :mod:`repro.sim.sweep`: a point is described
by a picklable :class:`BatchPoint` spec and run by
:func:`measure_batch_point`. What the points of a campaign share -- the
machine, the analytic loads, the programmed weight tables -- is prepared
once, in the parent, and inherited by forked workers (a worker that
cannot inherit rebuilds it from the spec, cached per process). The
engine's exact fixed-point timing makes the parallel results
bitwise-identical to a serial loop.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.metrics import MetricsCollector, MetricsSummary
from repro.sim.simulator import RunSpec, build, program_weight_tables, run_engine
from repro.sim.sweep import (
    SweepPoint,
    canonical,
    run_sweep,
    share_machine,
    shared_machine,
)
from repro.traffic.batch import BatchSpec
from repro.traffic.loads import LoadTable, compute_loads, ideal_batch_cycles
from repro.traffic.patterns import Blend, TrafficPattern


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


def measure_batch(
    machine: Machine,
    route_computer: RouteComputer,
    pattern: TrafficPattern,
    batch_size: int,
    cores_per_chip: int,
    arbitration: str,
    load_table: Optional[LoadTable] = None,
    weight_tables: Optional[Dict] = None,
    vc_weight_tables: Optional[Dict] = None,
    seed: int = 0,
    label: Optional[str] = None,
    collector: Optional[MetricsCollector] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
) -> ThroughputPoint:
    """Run one batch and normalize its completion time.

    Normalization follows Section 4.1: a throughput of 1 means the
    busiest torus channel (under the pattern's expected loads) was never
    idle. A :class:`~repro.sim.metrics.MetricsCollector` may be attached
    to also stream per-channel and latency metrics out of the run; its
    summary rides along on the returned point.

    ``checkpoint_path`` + ``checkpoint_every`` enable the periodic
    checkpoint/resume behavior of :func:`repro.sim.simulator.run_batch`:
    an interrupted point resumes mid-run and its measured result is
    bitwise-identical to a never-interrupted execution; the file is
    stamped with this point's run, so a point edited since (another
    pattern, batch size, seed or policy) refuses it by name.
    """
    if load_table is None:
        load_table = compute_loads(machine, route_computer, pattern, cores_per_chip)
    spec = BatchSpec(
        pattern,
        packets_per_source=batch_size,
        cores_per_chip=cores_per_chip,
        seed=seed,
    )
    run = RunSpec(machine.config, spec, arbitration)
    start = time.perf_counter()
    stats = run_engine(
        # Weights not handed in are programmed from the measured pattern
        # itself, off the load table that also normalizes the result.
        lambda: build(
            run,
            machine,
            route_computer,
            trace=collector,
            weight_tables=(weight_tables, vc_weight_tables),
            load_tables=[load_table],
        ),
        trace=collector,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        machine=machine,
        run=run,
    )
    wall = time.perf_counter() - start
    ideal = ideal_batch_cycles(machine, load_table, batch_size)
    return ThroughputPoint(
        pattern=pattern.name,
        arbitration=label or arbitration,
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
    """Picklable spec of one batch-throughput simulation point.

    Carries the machine *config* rather than the machine: the elaborated
    machine comes from :func:`repro.sim.sweep.shared_machine`, the
    per-process cache a forked worker inherits warm and any other worker
    fills from the config. ``weight_patterns`` names the
    patterns whose analytic loads program the inverse-weight tables for
    ``arbitration="iw"`` (empty means: the measured pattern itself).
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
    #: Mid-run checkpoint file for this point (see
    #: :mod:`repro.sim.checkpoint`): written every ``checkpoint_every``
    #: cycles, removed on completion, resumed from when present -- so a
    #: killed sweep finishes its interrupted point bitwise-identically.
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 0


#: Per-process caches of analytic loads and programmed weight tables.
#: Keys carry the patterns' canonical *content*, never their names: two
#: ``FixedPermutation``s both called "permutation" load the machine
#: differently. A campaign fills them in the parent before its pool
#: forks (:func:`run_batch_points`), so they live as long as the process.
_LOADS_CACHE: Dict[tuple, LoadTable] = {}
_TABLES_CACHE: Dict[tuple, tuple] = {}


def _cache_key(machine, patterns, cores_per_chip) -> tuple:
    return (
        machine.config,
        tuple(canonical(pattern) for pattern in patterns),
        cores_per_chip,
    )


def _loads_for(machine, route_computer, pattern, cores_per_chip) -> LoadTable:
    key = _cache_key(machine, (pattern,), cores_per_chip)
    table = _LOADS_CACHE.get(key)
    if table is None:
        table = compute_loads(machine, route_computer, pattern, cores_per_chip)
        _LOADS_CACHE[key] = table
    return table


def _weight_tables_for(machine, route_computer, patterns, cores_per_chip):
    key = _cache_key(machine, patterns, cores_per_chip)
    tables = _TABLES_CACHE.get(key)
    if tables is None:
        load_tables = [
            _loads_for(machine, route_computer, pattern, cores_per_chip)
            for pattern in patterns
        ]
        tables = program_weight_tables(
            machine, route_computer, patterns, cores_per_chip,
            load_tables=load_tables,
        )
        _TABLES_CACHE[key] = tables
    return tables


def prepare_batch_point(point: BatchPoint) -> tuple:
    """The offline half of a point: ``(machine, route computer, load
    table, SA2 weight tables, SA1 weight tables)``, the tables ``None``
    unless the point arbitrates by inverse weights.

    Everything here is a pure function of (config, patterns, cores) and
    is cached per process, so whoever calls it first pays: the campaign's
    parent, before its workers fork and inherit the result, or -- under a
    start method that does not fork -- each worker on its first point.
    """
    machine, route_computer = shared_machine(point.config)
    load_table = _loads_for(
        machine, route_computer, point.pattern, point.cores_per_chip
    )
    weight_tables = vc_weight_tables = None
    if point.arbitration == "iw":
        weight_tables, vc_weight_tables = _weight_tables_for(
            machine,
            route_computer,
            point.weight_patterns or (point.pattern,),
            point.cores_per_chip,
        )
    return machine, route_computer, load_table, weight_tables, vc_weight_tables


def measure_batch_point(point: BatchPoint) -> ThroughputPoint:
    """Run one :class:`BatchPoint` (the sweep-runner work function)."""
    (
        machine, route_computer, load_table, weight_tables, vc_weight_tables
    ) = prepare_batch_point(point)
    collector = (
        MetricsCollector(window_cycles=point.metrics_window)
        if point.collect_metrics
        else None
    )
    result = measure_batch(
        machine,
        route_computer,
        point.pattern,
        point.batch_size,
        point.cores_per_chip,
        point.arbitration,
        load_table=load_table,
        weight_tables=weight_tables,
        vc_weight_tables=vc_weight_tables,
        seed=point.seed,
        label=point.label,
        collector=collector,
        checkpoint_path=point.checkpoint_path,
        checkpoint_every=point.checkpoint_every,
    )
    if point.pattern_label is not None:
        result.pattern = point.pattern_label
    return result


def run_batch_points(
    points: Sequence[BatchPoint],
    max_workers: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> List[ThroughputPoint]:
    """Fan a list of batch points across cores; results in input order.

    ``checkpoint_dir``/``resume`` enable the sweep runner's crash-resume
    persistence (see :func:`repro.sim.sweep.run_sweep`); pair it with
    per-point ``checkpoint_path`` on the :class:`BatchPoint` specs to
    also resume the interrupted point mid-run.

    The points' offline halves (:func:`prepare_batch_point`) run here, in
    the parent, before any worker exists: machines, load tables and
    weight tables are programmed once per campaign -- as the paper
    programs its weights once per traffic pattern -- and forked workers
    inherit them. Where workers do not fork they would inherit nothing,
    so the parent leaves the work to them (and to a serial loop's first
    use), as before.
    """
    if multiprocessing.get_start_method() == "fork":
        for point in points:
            try:
                prepare_batch_point(point)
            except Exception:
                # The point's own run raises the same error, and the
                # sweep runner reports it by name beside the others.
                pass
    results = run_sweep(
        [
            SweepPoint(
                label=f"{p.pattern_label or p.pattern.name}/"
                f"{p.label or p.arbitration}/b{p.batch_size}",
                fn=measure_batch_point,
                kwargs={"point": p},
            )
            for p in points
        ],
        max_workers=max_workers,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
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
