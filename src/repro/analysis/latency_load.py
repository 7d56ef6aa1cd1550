"""Latency versus offered load: the classic network characterization.

The paper reports latency at zero load (Figures 11-12) and throughput
beyond saturation (Figures 9-10); this module fills in the curve between
them. Open-loop Bernoulli injection at a swept rate yields the familiar
hockey-stick: flat latency at low load, a knee near the saturation rate
predicted by the analytic channel loads, and runaway queueing beyond it.

The saturation prediction comes from :mod:`repro.traffic.loads`: a
per-source injection rate of ``1 / (max_torus_load x torus_cycles_per
_flit)`` packets/cycle keeps the busiest torus channel exactly busy.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.core.machine import Machine
from repro.core.routing import RouteComputer
from repro.sim.simulator import RunSpec, build, loads_of, program_weights
from repro.traffic.batch import BatchSpec, generate_open_loop
from repro.traffic.loads import LoadTable
from repro.traffic.patterns import TrafficPattern


@dataclasses.dataclass
class LatencyLoadPoint:
    """One point of the latency-load curve.

    Quantiles come from the engine's deterministic streaming estimator
    (:class:`repro.sim.metrics.StreamingQuantile`), so the curve no
    longer requires retaining every packet's latency in memory.
    """

    offered_load: float
    mean_latency_cycles: float
    p50_latency_cycles: float
    p95_latency_cycles: float
    p99_latency_cycles: float
    delivered: int


def saturation_rate(machine: Machine, table: LoadTable) -> float:
    """Per-source injection rate (packets/cycle) that saturates the
    busiest inter-node channel."""
    bottleneck = table.max_torus_load(machine) * machine.config.torus_cycles_per_flit
    if bottleneck <= 0:
        raise ValueError("pattern places no load on any inter-node channel")
    return 1.0 / bottleneck


def latency_vs_load(
    machine: Machine,
    route_computer: RouteComputer,
    pattern: TrafficPattern,
    cores_per_chip: int,
    fractions_of_saturation: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 0.9),
    duration_cycles: int = 2000,
    arbitration: str = "rr",
    seed: int = 0,
) -> List[LatencyLoadPoint]:
    """Measure mean/p50/p95/p99 packet latency at fractions of the
    saturation rate.

    Open-loop injection: sources emit Bernoulli packet streams for
    ``duration_cycles`` and the network drains completely, so every
    latency (including queueing at the source) is observed. Quantiles are
    streamed (nearest-rank, exact at these run sizes) rather than
    computed from a retained per-packet latency list.
    """
    (load_table,) = loads_of(machine, route_computer, [pattern], cores_per_chip)
    base_rate = saturation_rate(machine, load_table)
    # The open-loop packets stand in for the run's generation, as a
    # replay's do; ``iw`` is programmed from the table that set the rate.
    run = RunSpec(
        machine.config, BatchSpec(pattern, 1, cores_per_chip, seed=seed),
        arbitration,
    )
    tables = program_weights(run, machine, route_computer, load_tables=[load_table])
    points = []
    for fraction in fractions_of_saturation:
        rate = min(1.0, fraction * base_rate)
        packets = generate_open_loop(
            machine,
            route_computer,
            pattern,
            injection_rate=rate,
            duration_cycles=duration_cycles,
            cores_per_chip=cores_per_chip,
            seed=seed,
        )
        stats = build(
            run, machine, route_computer, packets=packets,
            weight_tables=tables, latency_quantiles=True,
        ).run()
        quantiles = stats.latency_quantiles((0.5, 0.95, 0.99))
        points.append(
            LatencyLoadPoint(
                offered_load=fraction,
                mean_latency_cycles=stats.mean_network_latency,
                p50_latency_cycles=float(quantiles[0.5]),
                p95_latency_cycles=float(quantiles[0.95]),
                p99_latency_cycles=float(quantiles[0.99]),
                delivered=stats.delivered,
            )
        )
    return points
