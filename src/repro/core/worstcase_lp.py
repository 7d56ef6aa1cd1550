"""Worst-case switching demands as a linear program [Towles & Dally 2002].

Section 2.4 poses the routing-algorithm evaluation as a linear program:
given a (deterministic) routing algorithm, the load placed on a channel is
linear in the demand matrix, so maximizing any channel's load over the
demand polytope

    D >= 0,  sum_j D[i][j] <= 1 (per source),  sum_i D[i][j] <= 1 (per
    destination)

is an LP whose optimum lies at an extreme point; for this doubly
substochastic polytope the extreme points are the (sub)permutation
matrices, which justifies the permutation enumeration in
:mod:`repro.core.route_search`.

This module solves the LP directly with ``scipy.optimize.linprog`` and is
used to cross-check the enumeration: for every direction order, the LP
optimum equals the permutation-enumeration optimum.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from . import params
from .chip import ChipFloorplan, default_floorplan
from .geometry import TORUS_DIRECTIONS
from .onchip import ANTON_DIRECTION_ORDER
from .route_search import demand_route


@dataclasses.dataclass
class LpResult:
    """Worst-case load found by the LP for one routing algorithm."""

    #: Maximum over channels of the LP optimum.
    worst_load: float
    #: The channel attaining it, as (slice, from_router, to_router).
    worst_channel: Tuple
    #: The maximizing demand matrix (rows: sources, cols: destinations,
    #: both in TORUS_DIRECTIONS order).
    demand: np.ndarray


def _channel_usage(
    floorplan: ChipFloorplan,
    order: Sequence,
    use_skip: bool,
    directions: Sequence = TORUS_DIRECTIONS,
) -> Dict[Tuple, np.ndarray]:
    """For each mesh channel, the NxN indicator of demands that use it.

    ``directions`` is the inter-node direction set demands arrive from
    and depart to -- all six for the torus, the four planar ones for a
    2D topology (a mesh or chiplet node never sees Z through traffic).
    """
    import numpy as np

    num_dirs = len(directions)
    usage: Dict[Tuple, np.ndarray] = {}
    for slice_index in range(params.NUM_SLICES):
        for i, src in enumerate(directions):
            for j, dst in enumerate(directions):
                route = demand_route(floorplan, src, dst, slice_index, order, use_skip)
                for link in route.mesh_links:
                    key = (slice_index, link[0], link[1])
                    matrix = usage.setdefault(
                        key, np.zeros((num_dirs, num_dirs))
                    )
                    matrix[i, j] = 1.0
    return usage


def max_channel_load_lp(
    usage_matrix: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Maximize one channel's load over the doubly substochastic polytope.

    Variables are the 36 demand entries; the objective is the sum of
    entries whose routes use the channel. Returns (optimal load, demand
    matrix).
    """
    import numpy as np
    from scipy.optimize import linprog

    num_dirs = usage_matrix.shape[0]
    num_vars = num_dirs * num_dirs
    c = -usage_matrix.reshape(num_vars)
    # Row-sum and column-sum constraints.
    a_ub = np.zeros((2 * num_dirs, num_vars))
    for i in range(num_dirs):
        for j in range(num_dirs):
            a_ub[i, i * num_dirs + j] = 1.0  # row sums
            a_ub[num_dirs + j, i * num_dirs + j] = 1.0  # column sums
    b_ub = np.ones(2 * num_dirs)
    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs"
    )
    if not result.success:  # pragma: no cover - LP is always feasible
        raise RuntimeError(f"LP failed: {result.message}")
    return -result.fun, result.x.reshape((num_dirs, num_dirs))


def worst_case_lp(
    floorplan: Optional[ChipFloorplan] = None,
    order: Sequence = ANTON_DIRECTION_ORDER,
    use_skip: bool = True,
    topology=None,
) -> LpResult:
    """The LP worst-case mesh load for one direction-order algorithm.

    ``topology`` (a :class:`~repro.core.topology.Topology`) restricts the
    demand matrix to the directions its links actually carry; ``None``
    keeps the full six-direction torus demand set.
    """
    import numpy as np

    floorplan = floorplan or default_floorplan()
    directions = (
        TORUS_DIRECTIONS if topology is None else topology.active_directions()
    )
    usage = _channel_usage(floorplan, order, use_skip, directions)
    best_load = 0.0
    best_channel: Tuple = ()
    best_demand = np.zeros((len(directions), len(directions)))
    for channel, matrix in usage.items():
        load, demand = max_channel_load_lp(matrix)
        if load > best_load:
            best_load = load
            best_channel = channel
            best_demand = demand
    return LpResult(
        worst_load=best_load, worst_channel=best_channel, demand=best_demand
    )
