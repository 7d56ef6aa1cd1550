"""Degraded-machine throughput and fairness analysis.

A fault set turns the healthy Anton 2 machine into a *degraded* one:
fewer torus channels carrying the same traffic, over detoured routes.
This module measures what that costs, using the same methodology as the
healthy-throughput experiments (Section 4.1 normalization) so the two
are directly comparable:

* expected channel and arbiter loads are recomputed over the
  *fault-aware* routes (exhaustively -- faults break the translation
  symmetry the fast load path exploits);
* for inverse-weighted arbitration, weight tables are programmed from
  those degraded loads, mirroring how the offline flow of Section 3.2
  would re-program a machine after reconfiguring around a failure;
* normalized throughput uses the degraded ideal bound, so a value near 1
  means the simulator extracts nearly all the bandwidth the surviving
  topology offers.

Every measured point is an independent simulation, and a point *is* its
:class:`~repro.sim.simulator.RunSpec` -- picklable, fault set and policy
included -- so sweeps fan across cores through :mod:`repro.sim.sweep`
exactly like the healthy Figure 9 harness. The healthy machine and load
table are the simulator's memo's; degraded ones are never kept.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional

from repro.core.machine import Machine
from repro.core.routing import RouteComputer
from repro.faults.model import sample_link_faults
from repro.faults.runtime import FaultPolicy
from repro.sim.simulator import (
    RunSpec,
    build,
    loads_of,
    run_context,
    share_machine,
    shared_machine,
)
from repro.sim.sweep import SweepPoint, run_sweep
from repro.traffic.batch import BatchSpec
from repro.traffic.loads import ideal_batch_cycles
from repro.traffic.patterns import TrafficPattern

from .fairness import jain_index


@dataclasses.dataclass
class DegradedThroughputPoint:
    """One measured point of a degradation experiment."""

    pattern: str
    arbitration: str
    policy: str
    #: Number of fault specs in the applied fault set (0 = healthy).
    failed_links: int
    #: Throughput normalized to the *degraded* ideal bound: the busiest
    #: surviving torus channel under the fault-aware routes.
    normalized_throughput: float
    #: The same completion time normalized to the *healthy* machine's
    #: ideal bound -- the end-to-end cost of the failures.
    throughput_vs_healthy_ideal: float
    finish_spread: float
    #: Jain index of per-source batch finish times (1 = perfectly fair).
    finish_jain: float
    completion_cycles: int
    delivered: int
    dropped: int
    rerouted: int
    retried: int
    unroutable: int
    wall_seconds: float
    #: The applied fault set, canonical JSON (reproduces the run).
    fault_json: str


def measure_degraded_point(point: RunSpec) -> DegradedThroughputPoint:
    """Run one faulted batch :class:`~repro.sim.simulator.RunSpec` (the
    sweep-runner work function)."""
    machine, healthy_routes = shared_machine(point.config)
    _, routes, faults = run_context(point, machine)
    spec = point.spec
    # Degraded loads over the fault-aware routes, enumerated once: they
    # normalize the result below and, under ``iw``, program the weights.
    (load_table,) = loads_of(
        machine, routes, [spec.pattern], spec.cores_per_chip, faults
    )
    start = time.perf_counter()
    stats = build(point, machine, routes, faults, load_tables=[load_table]).run()
    wall = time.perf_counter() - start
    ideal = ideal_batch_cycles(machine, load_table, spec.packets_per_source)
    (healthy_table,) = loads_of(
        machine, healthy_routes, [spec.pattern], spec.cores_per_chip
    )
    healthy_ideal = ideal_batch_cycles(
        machine, healthy_table, spec.packets_per_source
    )
    finishes = list(stats.source_finish_cycle.values())
    return DegradedThroughputPoint(
        pattern=spec.pattern.name,
        arbitration=point.arbitration,
        policy=point.fault_policy.mode,
        failed_links=len(point.fault_set),
        normalized_throughput=ideal / stats.last_delivery_cycle,
        throughput_vs_healthy_ideal=healthy_ideal / stats.last_delivery_cycle,
        finish_spread=stats.finish_spread() or 0.0,
        finish_jain=jain_index(finishes) if finishes else 1.0,
        completion_cycles=stats.last_delivery_cycle,
        delivered=stats.delivered,
        dropped=stats.dropped,
        rerouted=stats.rerouted,
        retried=stats.retried,
        unroutable=stats.unroutable,
        wall_seconds=wall,
        fault_json=point.fault_set.to_json(),
    )


def degradation_sweep(
    machine: Machine,
    pattern: TrafficPattern,
    batch_size: int,
    cores_per_chip: int,
    max_failed: int,
    arbitration: str = "iw",
    fault_seed: int = 0,
    seed: int = 0,
    max_workers: Optional[int] = 1,
) -> List[DegradedThroughputPoint]:
    """Throughput and fairness versus number of failed links.

    For each ``k`` in ``0..max_failed``, draws ``k`` random torus-link
    failures (seeded: the sweep is reproducible), reroutes around them,
    reprograms arbiter weights from the degraded loads, and measures one
    batch. ``k=0`` is the healthy baseline: its point runs through the
    identical degraded pipeline, so any fault-handling overhead would
    show up as a baseline shift. ``max_workers`` > 1 fans the points
    across processes; results are identical to serial execution.
    """
    share_machine(machine, RouteComputer(machine))
    spec = BatchSpec(pattern, batch_size, cores_per_chip, seed=seed)
    points = [
        RunSpec(
            machine.config,
            spec,
            arbitration,
            fault_set=sample_link_faults(
                machine, k, seed=fault_seed, note=f"degradation sweep k={k}"
            ),
            fault_policy=FaultPolicy(),
        )
        for k in range(max_failed + 1)
    ]
    results = run_sweep(
        [
            SweepPoint(
                label=f"{pattern.name}/{arbitration}/faults{k}",
                fn=measure_degraded_point,
                kwargs={"point": p},
            )
            for k, p in enumerate(points)
        ],
        max_workers=max_workers,
    )
    return [r.value for r in results]


__all__ = [
    "DegradedThroughputPoint",
    "degradation_sweep",
    "measure_degraded_point",
]
