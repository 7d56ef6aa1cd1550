"""Mechanical deadlock-freedom verification for degraded machines.

The Section 2.5 dateline argument covers healthy minimal routing and
extends to monotone non-minimal displacements, but two-phase detours
restart the VC allocator mid-route, so their safety is machine- and
fault-specific. This module re-verifies the degraded channel-dependency
graph mechanically:

* :func:`degraded_report` — full deadlock analysis of one fault set's
  resolved route set (wraps :func:`repro.core.deadlock.analyze_routes`);
* :func:`verify_single_link_failures` — the exhaustive property: for
  *every* single failable link of a machine, the degraded route set
  keeps the dependency graph acyclic. Incremental: the healthy edge
  multiset is built once, and each failure only re-resolves the routes
  that crossed the failed channel.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence

from ..core.deadlock import (
    analyze_routes,
    enumerate_routes,
    find_cycle,
    route_dependency_edges,
)
from ..core.machine import ChannelKind, Machine
from ..core.routing import RouteComputer, Unroutable
from .model import FaultSet, failable_channels
from .routing import FaultAwareRouteComputer


def degraded_report(
    machine: Machine,
    fault_set: FaultSet,
    endpoints_per_chip: Optional[int] = None,
):
    """Full deadlock analysis of a fault set's resolved route set.

    Uses every channel the fault set ever fails (including scheduled
    mid-run failures), i.e. the most-degraded topology the run can see.
    """
    computer = FaultAwareRouteComputer(machine)
    computer.set_failed(fault_set.all_channels(machine))
    routes = enumerate_routes(
        machine, computer, endpoints_per_chip, skip_unroutable=True
    )
    return analyze_routes(machine, routes)


@dataclasses.dataclass
class SingleFailureReport:
    """Result of the exhaustive single-link-failure sweep."""

    #: Channel ids checked (one failure each).
    checked: int
    #: Failed-channel ids whose degraded dependency graph has a cycle.
    cyclic: List[int]
    #: Failed-channel id -> number of (pair, choice) requests that became
    #: unroutable (empty for a healthy single-failure-tolerant machine).
    unroutable: Dict[int, int]
    #: Failed-channel id -> resolutions served beyond the re-pick stage.
    escalations: Dict[int, int]

    @property
    def all_acyclic(self) -> bool:
        return not self.cyclic


def verify_single_link_failures(
    machine: Machine,
    kinds: Sequence[ChannelKind] = (ChannelKind.TORUS,),
    endpoints_per_chip: int = 1,
) -> SingleFailureReport:
    """Check degraded deadlock-freedom under every single link failure.

    For each failable channel of the requested kinds, resolves the full
    route set with exactly that channel failed and tests the resulting
    (channel, VC) dependency graph for cycles. Incremental: routes not
    crossing the failed channel keep their healthy dependency edges, so
    each failure costs only the re-resolution of affected routes plus
    one acyclicity pass.
    """
    healthy = RouteComputer(machine)
    baseline = list(enumerate_routes(machine, healthy, endpoints_per_chip))
    base_edges: List[List] = []
    edge_count: Counter = Counter()
    routes_using: Dict[int, List[int]] = defaultdict(list)
    for index, route in enumerate(baseline):
        edges = route_dependency_edges(machine, route)
        base_edges.append(edges)
        edge_count.update(edges)
        for cid in set(route.channels()):
            routes_using[cid].append(index)

    cyclic: List[int] = []
    unroutable: Dict[int, int] = {}
    escalations: Dict[int, int] = {}
    candidates = failable_channels(machine, kinds)
    for cid in candidates:
        affected = routes_using.get(cid, ())
        removed: Counter = Counter()
        added: Counter = Counter()
        computer = FaultAwareRouteComputer(machine, (cid,))
        dead = 0
        for index in affected:
            route = baseline[index]
            removed.update(base_edges[index])
            try:
                replacement = computer.compute(route.src, route.dst, route.choice)
            except Unroutable:
                dead += 1
                continue
            added.update(route_dependency_edges(machine, replacement))
        if dead:
            unroutable[cid] = dead
        escalated = sum(
            count
            for stage, count in computer.resolution_counts.items()
            if stage not in ("primary", "repick")
        )
        if escalated:
            escalations[cid] = escalated
        # An edge survives while some route still uses it.
        kept = (edge for edge, n in edge_count.items() if n > removed[edge])
        if find_cycle(itertools.chain(kept, added)) is not None:
            cyclic.append(cid)

    return SingleFailureReport(
        checked=len(candidates),
        cyclic=cyclic,
        unroutable=unroutable,
        escalations=escalations,
    )
