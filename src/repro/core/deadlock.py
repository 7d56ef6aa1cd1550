"""Constructive deadlock-freedom verification (Section 2.5).

The Anton 2 network avoids deadlock by ensuring that the dependency
relation between (channel, VC) pairs is acyclic [Dally & Seitz 1987]. The
paper proves this for its VC promotion algorithm; this module *checks* it
mechanically for any machine and VC scheme by:

1. enumerating every legal route (all source/destination endpoint pairs,
   all dimension orders, both slices, and both tie-break directions for
   even-radix half-way destinations);
2. adding a dependency edge for every consecutive hop pair
   ``(channel_a, vc_a) -> (channel_b, vc_b)``; and
3. testing the resulting directed graph for cycles (:func:`find_cycle`).

Endpoint-adapter links are excluded: injection links have no
predecessors and ejection links no successors, so they cannot extend a
cycle (and a delivered packet always drains).

The checker is the evidence behind the Section 2.5 claims reproduced in
``benchmarks/bench_sec25_vc_ablation.py``: both the Anton scheme (n + 1
VCs) and the baseline (2n VCs) are acyclic, the Anton scheme touches only
4 distinct VCs per class, and the single-VC negative control contains
cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .machine import ChannelGroup, Machine, group_of
from .routing import Route, RouteComputer, Unroutable
from .geometry import all_coords

#: A dependency-graph node: ``(channel id, vc)``.
Node = Tuple[int, int]


@dataclasses.dataclass
class DeadlockReport:
    """Result of a dependency-graph analysis."""

    #: Whether the (channel, VC) dependency graph is acyclic.
    deadlock_free: bool
    #: One dependency cycle (as (channel id, vc) nodes) if any exists.
    cycle: Optional[List[Node]]
    #: Number of dependency-graph nodes actually used by some route.
    nodes: int
    #: Number of distinct dependency edges.
    edges: int
    #: Distinct VCs used on T-group channels.
    t_vcs_used: Set[int]
    #: Distinct VCs used on M-group channels.
    m_vcs_used: Set[int]
    #: Number of routes enumerated.
    routes: int


def enumerate_routes(
    machine: Machine,
    route_computer: RouteComputer,
    endpoints_per_chip: Optional[int] = None,
    skip_unroutable: bool = False,
):
    """Yield every legal route between the selected endpoints.

    ``endpoints_per_chip`` limits the endpoints considered per chip
    (default: all of them). Every dimension order, slice, and minimal
    tie-break combination is enumerated via
    :meth:`RouteComputer.all_choices`. With a fault-aware route computer
    each yielded route is the degraded machine's resolution of that
    choice; ``skip_unroutable`` silently omits pairs the degraded machine
    cannot connect (otherwise :class:`Unroutable` propagates).
    """
    count = endpoints_per_chip or machine.config.endpoints_per_chip
    chips = list(all_coords(machine.config.shape))
    for src_chip in chips:
        for src_index in range(count):
            src_ep = machine.ep_id[(src_chip, src_index)]
            for dst_chip in chips:
                for dst_index in range(count):
                    dst_ep = machine.ep_id[(dst_chip, dst_index)]
                    if dst_ep == src_ep:
                        continue
                    for choice, _prob in route_computer.all_choices(
                        src_chip, dst_chip
                    ):
                        try:
                            yield route_computer.compute(src_ep, dst_ep, choice)
                        except Unroutable:
                            if not skip_unroutable:
                                raise


def route_dependency_edges(machine: Machine, route: Route) -> List[Tuple[Node, Node]]:
    """The (channel, VC) dependency edges contributed by one route.

    Edges through endpoint-adapter links are skipped (sources and sinks
    cannot deadlock).
    """
    kinds = machine.channel_kind
    edges: List[Tuple[Node, Node]] = []
    prev = None
    for channel_id, vc in route.hops:
        if group_of(kinds[channel_id]) == ChannelGroup.E:
            prev = None
            continue
        node = (channel_id, vc)
        if prev is not None:
            edges.append((prev, node))
        prev = node
    return edges


def find_cycle(edges: Iterable[Tuple[Node, Node]]) -> Optional[List[Node]]:
    """One cycle of the digraph ``edges`` spell, or ``None`` if acyclic.

    An iterative three-colour depth-first search: a node is unvisited,
    on the current path, or done. Successor lists and the order roots
    are tried in follow first-seen edge order, so the cycle returned
    depends on the edge sequence alone, never on hashing. Consecutive
    nodes of the cycle, and its last and first, are edges.
    """
    successors: Dict[Node, List[Node]] = {}
    for src, dst in edges:
        successors.setdefault(src, []).append(dst)
        successors.setdefault(dst, [])
    return cycle_reachable(successors, successors.__getitem__)


def cycle_reachable(roots, successors: Callable) -> Optional[List[Node]]:
    """One cycle reachable from ``roots`` (tried in order) in the graph
    ``successors(node)`` describes, or ``None``: :func:`find_cycle`'s search."""
    done: Set[Node] = set()
    for root in roots:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(successors(root))]
        while pending:
            for node in pending[-1]:
                if node in on_path:
                    return path[path.index(node):]
                if node not in done:
                    path.append(node)
                    on_path.add(node)
                    pending.append(iter(successors(node)))
                    break
            else:
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)
    return None


def analyze_routes(machine: Machine, routes) -> DeadlockReport:
    """Deadlock analysis over an explicit (possibly degraded) route set.

    Used both by the healthy-machine analysis and by the fault
    subsystem, which passes the degraded machine's resolved route set.
    """
    # A dict, not a set: its first-seen order makes the reported cycle
    # a function of the route order alone.
    edges: Dict[Tuple[Node, Node], None] = {}
    count = 0
    for route in routes:
        count += 1
        edges.update(dict.fromkeys(route_dependency_edges(machine, route)))
    nodes = {node for edge in edges for node in edge}
    t_vcs: Set[int] = set()
    m_vcs: Set[int] = set()
    for channel_id, vc in nodes:
        group = group_of(machine.channel_kind[channel_id])
        if group == ChannelGroup.T:
            t_vcs.add(vc)
        elif group == ChannelGroup.M:
            m_vcs.add(vc)
    cycle = find_cycle(edges)
    return DeadlockReport(
        deadlock_free=cycle is None,
        cycle=cycle,
        nodes=len(nodes),
        edges=len(edges),
        t_vcs_used=t_vcs,
        m_vcs_used=m_vcs,
        routes=count,
    )


def analyze(
    machine: Machine,
    route_computer: RouteComputer,
    endpoints_per_chip: Optional[int] = None,
) -> DeadlockReport:
    """Run the full deadlock analysis for a machine's VC scheme."""
    return analyze_routes(
        machine, enumerate_routes(machine, route_computer, endpoints_per_chip)
    )


def describe_cycle(machine: Machine, cycle: List[Node]) -> str:
    """Human-readable rendering of a dependency cycle (for diagnostics)."""
    parts = []
    for channel_id, vc in cycle:
        src = machine.components[machine.channel_src[channel_id]]
        dst = machine.components[machine.channel_dst[channel_id]]
        parts.append(f"{src}->{dst} vc{vc}")
    return " => ".join(parts)
