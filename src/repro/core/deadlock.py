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
3. testing the resulting directed graph for cycles with networkx.

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
from typing import Dict, List, Optional, Set, Tuple

from .machine import ChannelGroup, Machine, group_of
from .routing import Route, RouteComputer, Unroutable
from .geometry import all_coords


@dataclasses.dataclass
class DeadlockReport:
    """Result of a dependency-graph analysis."""

    #: Whether the (channel, VC) dependency graph is acyclic.
    deadlock_free: bool
    #: One dependency cycle (as (channel id, vc) nodes) if any exists.
    cycle: Optional[List[Tuple[int, int]]]
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


def route_dependency_edges(
    machine: Machine, route: Route
) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The (channel, VC) dependency edges contributed by one route.

    Edges through endpoint-adapter links are skipped (sources and sinks
    cannot deadlock).
    """
    kinds = machine.channel_kind
    edges: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
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


def build_dependency_graph_from_routes(
    machine: Machine, routes
) -> Tuple[nx.DiGraph, int]:
    """The (channel, VC) dependency graph over an explicit route set.

    Returns the graph and the number of routes consumed. Used both by the
    healthy-machine analysis and by the fault subsystem, which passes the
    degraded machine's resolved route set.
    """
    import networkx as nx

    graph = nx.DiGraph()
    edges: Set[Tuple[Tuple[int, int], Tuple[int, int]]] = set()
    count = 0
    for route in routes:
        count += 1
        edges.update(route_dependency_edges(machine, route))
    graph.add_edges_from(edges)
    return graph, count


def build_dependency_graph(
    machine: Machine,
    route_computer: RouteComputer,
    endpoints_per_chip: Optional[int] = None,
) -> Tuple[nx.DiGraph, int]:
    """The (channel, VC) dependency graph over all enumerated routes."""
    return build_dependency_graph_from_routes(
        machine, enumerate_routes(machine, route_computer, endpoints_per_chip)
    )


def analyze_routes(machine: Machine, routes) -> DeadlockReport:
    """Deadlock analysis over an explicit (possibly degraded) route set."""
    graph, count = build_dependency_graph_from_routes(machine, routes)
    return _report_from_graph(machine, graph, count)


def analyze(
    machine: Machine,
    route_computer: RouteComputer,
    endpoints_per_chip: Optional[int] = None,
) -> DeadlockReport:
    """Run the full deadlock analysis for a machine's VC scheme."""
    graph, routes = build_dependency_graph(
        machine, route_computer, endpoints_per_chip
    )
    return _report_from_graph(machine, graph, routes)


def _report_from_graph(
    machine: Machine, graph: nx.DiGraph, routes: int
) -> DeadlockReport:
    import networkx as nx

    cycle: Optional[List[Tuple[int, int]]] = None
    try:
        raw_cycle = nx.find_cycle(graph)
        cycle = [edge[0] for edge in raw_cycle]
    except nx.NetworkXNoCycle:
        pass
    t_vcs: Set[int] = set()
    m_vcs: Set[int] = set()
    for channel_id, vc in graph.nodes:
        group = group_of(machine.channel_kind[channel_id])
        if group == ChannelGroup.T:
            t_vcs.add(vc)
        elif group == ChannelGroup.M:
            m_vcs.add(vc)
    return DeadlockReport(
        deadlock_free=cycle is None,
        cycle=cycle,
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        t_vcs_used=t_vcs,
        m_vcs_used=m_vcs,
        routes=routes,
    )


def describe_cycle(machine: Machine, cycle: List[Tuple[int, int]]) -> str:
    """Human-readable rendering of a dependency cycle (for diagnostics)."""
    parts = []
    for channel_id, vc in cycle:
        src = machine.components[machine.channel_src[channel_id]]
        dst = machine.components[machine.channel_dst[channel_id]]
        parts.append(f"{src}->{dst} vc{vc}")
    return " => ".join(parts)
