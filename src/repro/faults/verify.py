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
from typing import Dict, List, Optional

from ..core.deadlock import (
    Node,
    analyze_routes,
    cycle_reachable,
    enumerate_routes,
    find_cycle,
    route_dependency_edges,
)
from ..core.machine import Machine
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


def degraded_cycle(healthy: Dict[Node, List[Node]], dead: set, added):
    """One cycle of the acyclic healthy graph (``healthy``, its successor
    lists) less the ``dead`` edges plus the ``added`` ones, or ``None``.
    A cycle must use an added edge, so the search starts at their sources."""
    cut = {src for src, _dst in dead}
    grown: Dict[Node, List[Node]] = {}
    for src, dst in added:
        grown.setdefault(src, []).append(dst)

    def successors(node: Node) -> List[Node]:
        out = healthy.get(node, [])
        if node in cut:
            out = [dst for dst in out if (node, dst) not in dead]
        return out + grown[node] if node in grown else out

    return cycle_reachable(grown, successors)


def verify_single_link_failures(machine: Machine) -> SingleFailureReport:
    """Check degraded deadlock-freedom under every single torus-link failure.

    For each failable torus channel, resolves the full route set (one
    endpoint per chip) with exactly that channel failed and tests the
    resulting (channel, VC) dependency graph for cycles. Incremental:
    routes not crossing the failed channel keep their healthy dependency
    edges, so each failure costs only the re-resolution of affected
    routes plus one acyclicity pass -- from the added edges alone when
    the healthy graph is acyclic (:func:`degraded_cycle`).
    """
    healthy = RouteComputer(machine)
    baseline = list(enumerate_routes(machine, healthy, 1))
    base_edges: List[List] = []
    edge_count: Counter = Counter()
    routes_using: Dict[int, List[int]] = defaultdict(list)
    for index, route in enumerate(baseline):
        edges = route_dependency_edges(machine, route)
        base_edges.append(edges)
        edge_count.update(edges)
        for cid in set(route.channels()):
            routes_using[cid].append(index)

    healthy_successors: Dict[Node, List[Node]] = {}
    for src, dst in edge_count:
        healthy_successors.setdefault(src, []).append(dst)
    healthy_cyclic = find_cycle(edge_count) is not None

    cyclic: List[int] = []
    unroutable: Dict[int, int] = {}
    escalations: Dict[int, int] = {}
    candidates = failable_channels(machine)
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
        if healthy_cyclic:
            kept = (edge for edge, n in edge_count.items() if n > removed[edge])
            cycle = find_cycle(itertools.chain(kept, added))
        else:
            dead = {edge for edge, n in removed.items() if edge_count[edge] <= n}
            cycle = degraded_cycle(healthy_successors, dead, added)
        if cycle is not None:
            cyclic.append(cid)

    return SingleFailureReport(
        checked=len(candidates),
        cyclic=cyclic,
        unroutable=unroutable,
        escalations=escalations,
    )
