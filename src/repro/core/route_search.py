"""The on-chip routing-algorithm search of Section 2.4 (Figure 4).

The ASIC should emulate a perfect switch between its external torus
channels. The on-chip local routing algorithm was chosen by evaluating
every *direction-order* algorithm against every possible switching demand
and picking the one that minimizes the worst-case load on any mesh
channel. Because the maximum load over the demand polytope (nonnegative
demands with unit row/column sums) is always attained at an extreme
point, and extreme points are permutations [Towles & Dally 2002], the
search reduces to enumerating the 24 direction orders against the
permutations of the six torus directions (slices assumed load-balanced).

This module reproduces the search's two published findings:

* the order **V-, U+, U-, V+** minimizes the worst-case mesh load, and
* the worst case for *every* direction order is permutation (1),

      X+ X- Y+ Y-  Z+ Z-
      Z- X+ Y- Z+  X- Y+

  under which the best algorithm loads its heaviest mesh channel with
  exactly **two** torus channels' worth of traffic (Figure 4) -- which a
  288 Gb/s mesh channel absorbs with headroom against two 89.6 Gb/s
  torus channels.

An ablation mode (``use_skip=False``) shows what happens without the skip
channels: X through traffic must cross the mesh, raising the worst-case
load.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import params
from .chip import ChipFloorplan, default_floorplan
from .geometry import Coord2, TORUS_DIRECTIONS, TorusDirection
from .onchip import (
    ANTON_DIRECTION_ORDER,
    all_direction_orders,
    direction_order_name,
    mesh_route_links,
)

#: A switching demand: traffic entering on one external channel and
#: leaving on another, identified by their direction labels.
DemandPair = Tuple[TorusDirection, TorusDirection]

#: A permutation demand: a destination direction for each source direction,
#: in the canonical order of TORUS_DIRECTIONS.
Permutation = Tuple[TorusDirection, ...]

#: The paper's common worst-case permutation (1):
#: X+->Z-, X- ->X+, Y+->Y-, Y- ->Z+, Z+->X-, Z- ->Y+.
PAPER_WORST_CASE: Permutation = tuple(
    {
        "X+": "Z-",
        "X-": "X+",
        "Y+": "Y-",
        "Y-": "Z+",
        "Z+": "X-",
        "Z-": "Y+",
    }[str(direction)]
    for direction in TORUS_DIRECTIONS
)


def _parse_direction(label: str) -> TorusDirection:
    for direction in TORUS_DIRECTIONS:
        if str(direction) == label:
            return direction
    raise ValueError(f"unknown direction label {label!r}")


# Resolve the string table above into TorusDirection objects once.
PAPER_WORST_CASE = tuple(
    _parse_direction(entry) if isinstance(entry, str) else entry
    for entry in PAPER_WORST_CASE
)


@dataclasses.dataclass(frozen=True)
class DemandRoute:
    """The on-chip resources used by one switching-demand flow."""

    mesh_links: Tuple[Tuple[Coord2, Coord2], ...]
    uses_skip: bool


def demand_route(
    floorplan: ChipFloorplan,
    src: TorusDirection,
    dst: TorusDirection,
    slice_index: int,
    order: Sequence = ANTON_DIRECTION_ORDER,
    use_skip: bool = True,
) -> DemandRoute:
    """The on-chip route of traffic entering channel ``src`` and leaving
    channel ``dst`` on one slice.

    Traffic "entering channel src" arrives at the adapter labeled ``src``
    (a packet traveling X+ arrives on the X- channel, so a through X+
    demand is the pair ``X- -> X+``). X through pairs take the skip
    channel; everything else follows the direction-order mesh route
    between the two adapters' routers.
    """
    entry = floorplan.channel_adapter_router[(src, slice_index)]
    exit_ = floorplan.channel_adapter_router[(dst, slice_index)]
    if entry == exit_:
        return DemandRoute(mesh_links=(), uses_skip=False)
    if use_skip and floorplan.skip_for(entry, exit_):
        return DemandRoute(mesh_links=(), uses_skip=True)
    return DemandRoute(
        mesh_links=tuple(mesh_route_links(entry, exit_, order)),
        uses_skip=False,
    )


def permutation_mesh_loads(
    floorplan: ChipFloorplan,
    permutation: Permutation,
    order: Sequence = ANTON_DIRECTION_ORDER,
    use_skip: bool = True,
) -> Dict[Tuple[int, Coord2, Coord2], float]:
    """Mesh-channel loads induced by a permutation demand on both slices.

    Keys are ``(slice, from_router, to_router)``; each demand contributes
    one torus channel's worth of load to every mesh link on its route.
    """
    loads: Dict[Tuple[int, Coord2, Coord2], float] = {}
    for slice_index in range(params.NUM_SLICES):
        for src, dst in zip(TORUS_DIRECTIONS, permutation):
            route = demand_route(floorplan, src, dst, slice_index, order, use_skip)
            for link in route.mesh_links:
                key = (slice_index, link[0], link[1])
                loads[key] = loads.get(key, 0.0) + 1.0
    return loads


def max_mesh_load(
    floorplan: ChipFloorplan,
    permutation: Permutation,
    order: Sequence = ANTON_DIRECTION_ORDER,
    use_skip: bool = True,
) -> float:
    """The heaviest mesh-channel load induced by a permutation."""
    loads = permutation_mesh_loads(floorplan, permutation, order, use_skip)
    return max(loads.values(), default=0.0)


def all_permutations() -> Iterable[Permutation]:
    """All 720 permutations of the six torus directions."""
    return itertools.permutations(TORUS_DIRECTIONS)


@dataclasses.dataclass
class OrderResult:
    """Worst-case evaluation of one direction-order algorithm."""

    order: Tuple
    worst_load: float
    worst_permutations: List[Permutation]
    #: Mean (over all permutations) of the maximum mesh-channel load; a
    #: robustness tie-break between orders with equal worst case.
    mean_max_load: float = 0.0

    @property
    def name(self) -> str:
        return direction_order_name(self.order)

    @property
    def num_worst(self) -> int:
        """How many permutations attain the worst-case load."""
        return len(self.worst_permutations)

    @property
    def rank_key(self):
        """Lexicographic quality key: worst case first, then how often the
        worst case is hit, then the mean maximum load."""
        return (self.worst_load, self.num_worst, self.mean_max_load)


@dataclasses.dataclass
class SearchResult:
    """Outcome of the full routing-algorithm search."""

    per_order: List[OrderResult]

    @property
    def best(self) -> OrderResult:
        """An optimal direction order (minimal rank key)."""
        return min(self.per_order, key=lambda r: r.rank_key)

    @property
    def best_orders(self) -> List[OrderResult]:
        """All direction orders tied for the best rank key.

        With the reconstructed floorplan these form an equivalence class
        of twelve orders (related by the chip's layout symmetries) that
        contains the paper's V-, U+, U-, V+.
        """
        best_key = self.best.rank_key
        return [r for r in self.per_order if r.rank_key == best_key]

    def result_for(self, order: Sequence) -> OrderResult:
        name = direction_order_name(order)
        for result in self.per_order:
            if result.name == name:
                return result
        raise KeyError(f"order {name} not in search results")

    def common_worst_permutations(self) -> List[Permutation]:
        """Permutations that are worst-case for *every* direction order.

        The paper reports that permutation (1) is such a common worst
        case.
        """
        common: Optional[set] = None
        for result in self.per_order:
            worst = set(result.worst_permutations)
            common = worst if common is None else common & worst
        return sorted(common or set())


def search_direction_orders(
    floorplan: Optional[ChipFloorplan] = None,
    use_skip: bool = True,
) -> SearchResult:
    """Evaluate every direction-order algorithm against every permutation.

    Returns per-order worst-case mesh loads and the permutations that
    attain them. With the default floorplan and skip channels enabled,
    the best orders have worst-case load 2.0 (two torus channels per mesh
    channel) and include V-, U+, U-, V+.
    """
    floorplan = floorplan or default_floorplan()
    permutations = list(all_permutations())
    per_order: List[OrderResult] = []
    for order in all_direction_orders():
        worst = 0.0
        total = 0.0
        worst_permutations: List[Permutation] = []
        for permutation in permutations:
            load = max_mesh_load(floorplan, permutation, order, use_skip)
            total += load
            if load > worst + 1e-12:
                worst = load
                worst_permutations = [permutation]
            elif abs(load - worst) <= 1e-12:
                worst_permutations.append(permutation)
        per_order.append(
            OrderResult(
                order=tuple(order),
                worst_load=worst,
                worst_permutations=worst_permutations,
                mean_max_load=total / len(permutations),
            )
        )
    return SearchResult(per_order=per_order)


def format_permutation(permutation: Permutation) -> str:
    """Render a permutation the way the paper's equation (1) does."""
    top = "  ".join(f"{str(s):>2}" for s in TORUS_DIRECTIONS)
    bottom = "  ".join(f"{str(d):>2}" for d in permutation)
    return f"({top})\n({bottom})"
