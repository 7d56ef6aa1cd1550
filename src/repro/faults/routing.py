"""Fault-aware route construction for degraded machines.

:class:`FaultAwareRouteComputer` resolves each requested route choice
against the current set of failed channels, in a deterministic escalation
order that stays as close to the healthy machine's behavior as possible:

1. **primary** — the requested choice, unchanged, if its route avoids
   every failed channel (so a fault-free machine routes identically);
2. **re-pick** — another of the existing legal choices: a different
   dimension order, channel slice, or minimal tie-break direction;
3. **non-minimal** — a monotone displacement the long way around one or
   more rings (``|delta| <= radix - 1``). A monotone ring traversal still
   crosses the dateline at most once, so the Section 2.5 VC-promotion
   argument carries over unchanged;
4. **detour** — a two-phase route through an intermediate chip, each
   phase a fresh minimal route with its own VC allocator (the classic
   intermediate-node construction). Detour route sets are not covered by
   the per-ring dateline argument, so degraded deadlock-freedom is
   re-verified mechanically (:mod:`repro.faults.verify`);
5. otherwise the pair is :class:`~repro.core.routing.Unroutable`.

Resolution is cached per (src, dst, choice, class) and invalidated when
the failed-channel set changes; with no failures every call is a direct
pass-through to the base computer, returning the identical cached
:class:`~repro.core.routing.Route` objects.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

from ..core import params
from ..core.geometry import Coord3, all_coords
from ..core.machine import Machine
from ..core.onchip import ANTON_DIRECTION_ORDER
from ..core.routing import (
    ALL_DIM_ORDERS,
    Route,
    RouteChoice,
    RouteComputer,
    Unroutable,
)

#: Resolution stages, in escalation order (keys of ``resolution_counts``).
RESOLUTION_STAGES = ("primary", "repick", "nonminimal", "detour", "unroutable")

_UNROUTABLE = object()  # cache sentinel


class FaultAwareRouteComputer(RouteComputer):
    """A route computer that routes around a mutable set of failed channels."""

    def __init__(
        self,
        machine: Machine,
        failed_channels: Iterable[int] = (),
        direction_order: Sequence = ANTON_DIRECTION_ORDER,
    ) -> None:
        super().__init__(machine, direction_order, allow_nonminimal=True)
        self._failed: frozenset = frozenset(failed_channels)
        #: How many resolutions each escalation stage served (diagnostics).
        self.resolution_counts: Counter = Counter()
        self._fault_cache: Dict[Tuple[int, int, RouteChoice, int], object] = {}
        self._reroute_cache: Dict[Tuple[int, int, int], object] = {}
        self._dead_pairs: Set[Tuple[int, int, int]] = set()

    @property
    def failed(self) -> frozenset:
        """The currently failed channel ids."""
        return self._failed

    def set_failed(self, channels: Iterable[int]) -> None:
        """Replace the failed-channel set, invalidating fault resolutions.

        Base (healthy) route caches survive: routes themselves do not
        depend on the fault state, only the resolution mapping does.
        """
        new = frozenset(channels)
        if new != self._failed:
            self._failed = new
            self._fault_cache.clear()
            self._reroute_cache.clear()
            self._dead_pairs.clear()

    def route_clear(self, route: Route, from_hop: int = 0) -> bool:
        """Whether a route avoids every currently failed channel."""
        failed = self._failed
        for cid, _vc in route.hops[from_hop:]:
            if cid in failed:
                return False
        return True

    # --- endpoint-to-endpoint resolution -----------------------------------

    def compute(
        self,
        src_endpoint: int,
        dst_endpoint: int,
        choice: RouteChoice,
        traffic_class: int = 0,
    ) -> Route:
        if not self._failed:
            return super().compute(src_endpoint, dst_endpoint, choice, traffic_class)
        key = (src_endpoint, dst_endpoint, choice, traffic_class)
        cached = self._fault_cache.get(key)
        if cached is not None:
            if cached is _UNROUTABLE:
                raise Unroutable(src_endpoint, dst_endpoint, "all choices blocked")
            return cached
        try:
            route = self._resolve(src_endpoint, dst_endpoint, choice, traffic_class)
        except Unroutable:
            self._fault_cache[key] = _UNROUTABLE
            self.resolution_counts["unroutable"] += 1
            raise
        self._fault_cache[key] = route
        return route

    def _resolve(
        self,
        src_endpoint: int,
        dst_endpoint: int,
        choice: RouteChoice,
        traffic_class: int,
    ) -> Route:
        primary = super().compute(src_endpoint, dst_endpoint, choice, traffic_class)
        if self.route_clear(primary):
            self.resolution_counts["primary"] += 1
            return primary

        machine = self.machine
        src_chip = machine.components[src_endpoint].chip
        dst_chip = machine.components[dst_endpoint].chip

        for cand in self._repick_choices(src_chip, dst_chip, choice):
            route = super().compute(src_endpoint, dst_endpoint, cand, traffic_class)
            if self.route_clear(route):
                self.resolution_counts["repick"] += 1
                return route

        for cand in self._nonminimal_choices(src_chip, dst_chip, choice.slice_index):
            route = super().compute(src_endpoint, dst_endpoint, cand, traffic_class)
            if self.route_clear(route):
                self.resolution_counts["nonminimal"] += 1
                return route

        pair_key = (src_endpoint, dst_endpoint, traffic_class)
        if pair_key not in self._dead_pairs:
            for legs in self._detour_plans(src_chip, dst_chip, choice.slice_index):
                route = self.compute_plan(
                    src_endpoint, dst_endpoint, legs, traffic_class
                )
                if self.route_clear(route):
                    self.resolution_counts["detour"] += 1
                    return route
            # The detour scan does not depend on the requested choice;
            # remember the pair is dead so other choices skip the scan.
            self._dead_pairs.add(pair_key)
        raise Unroutable(src_endpoint, dst_endpoint, "all choices blocked")

    # --- mid-route rerouting ------------------------------------------------

    def compute_reroute(
        self, start_component: int, dst_endpoint: int, traffic_class: int = 0
    ) -> Route:
        """A fresh route for a packet stranded mid-flight by a fault.

        ``start_component`` is the router or channel adapter currently
        holding (or about to receive) the packet. The same escalation
        order applies: minimal choices, then non-minimal, then a
        two-phase detour.
        """
        key = (start_component, dst_endpoint, traffic_class)
        cached = self._reroute_cache.get(key)
        if cached is not None:
            if cached is _UNROUTABLE:
                raise Unroutable(start_component, dst_endpoint, "stranded")
            return cached
        machine = self.machine
        src_chip = machine.components[start_component].chip
        dst_chip = machine.components[dst_endpoint].chip
        route: Optional[Route] = None
        for cand in self._repick_choices(src_chip, dst_chip, None):
            trial = self.compute_plan(
                start_component, dst_endpoint, ((dst_chip, cand),), traffic_class
            )
            if self.route_clear(trial):
                route = trial
                break
        if route is None:
            for cand in self._nonminimal_choices(src_chip, dst_chip, 0):
                trial = self.compute_plan(
                    start_component, dst_endpoint, ((dst_chip, cand),), traffic_class
                )
                if self.route_clear(trial):
                    route = trial
                    break
        if route is None:
            for legs in self._detour_plans(src_chip, dst_chip, 0):
                trial = self.compute_plan(
                    start_component, dst_endpoint, legs, traffic_class
                )
                if self.route_clear(trial):
                    route = trial
                    break
        if route is None:
            self._reroute_cache[key] = _UNROUTABLE
            raise Unroutable(start_component, dst_endpoint, "stranded")
        self._reroute_cache[key] = route
        return route

    # --- candidate enumeration ----------------------------------------------

    def _repick_choices(
        self, src_chip: Coord3, dst_chip: Coord3, requested: Optional[RouteChoice]
    ) -> Iterator[RouteChoice]:
        """Every existing legal choice, the requested slice's choices first."""
        preferred = requested.slice_index if requested is not None else 0
        ordered = sorted(range(params.NUM_SLICES), key=lambda s: s != preferred)
        topology = self.machine.topology
        delta_options = [
            topology.minimal_deltas(src_chip[d], dst_chip[d], d) for d in range(3)
        ]
        for slice_index in ordered:
            for dim_order in ALL_DIM_ORDERS:
                for deltas in itertools.product(*delta_options):
                    cand = self.intern_choice(dim_order, slice_index, tuple(deltas))
                    if requested is not None and cand == requested:
                        continue
                    yield cand

    def _nonminimal_choices(
        self, src_chip: Coord3, dst_chip: Coord3, preferred_slice: int
    ) -> Iterator[RouteChoice]:
        """Monotone non-minimal delta combinations, shortest paths first.

        On line dimensions the monotone displacement set equals the
        minimal one, so every combination is skipped as already covered
        by re-pick and escalation proceeds straight to the detour stage.
        """
        topology = self.machine.topology
        options = [
            topology.monotone_deltas(src_chip[d], dst_chip[d], d) for d in range(3)
        ]
        minimal = [
            topology.minimal_deltas(src_chip[d], dst_chip[d], d) for d in range(3)
        ]
        combos = sorted(
            itertools.product(*options),
            key=lambda combo: (sum(abs(x) for x in combo), combo),
        )
        ordered_slices = sorted(
            range(params.NUM_SLICES), key=lambda s: s != preferred_slice
        )
        for combo in combos:
            if all(combo[d] in minimal[d] for d in range(3)):
                continue  # covered by the re-pick stage
            for slice_index in ordered_slices:
                for dim_order in ALL_DIM_ORDERS:
                    yield self.intern_choice(dim_order, slice_index, combo)

    def _detour_plans(
        self, src_chip: Coord3, dst_chip: Coord3, preferred_slice: int
    ) -> Iterator[Tuple[Tuple[Coord3, RouteChoice], ...]]:
        """Two-phase plans through intermediate chips, nearest first."""
        topology = self.machine.topology
        shape = self.machine.config.shape
        vias = sorted(
            (
                (topology.hops(src_chip, via) + topology.hops(via, dst_chip), via)
                for via in all_coords(shape)
                if via != src_chip and via != dst_chip
            ),
        )
        ordered_slices = sorted(
            range(params.NUM_SLICES), key=lambda s: s != preferred_slice
        )
        for _hops, via in vias:
            for slice_index in ordered_slices:
                for order_a in ALL_DIM_ORDERS:
                    for order_b in ALL_DIM_ORDERS:
                        yield (
                            (via, self.intern_choice(order_a, slice_index, None)),
                            (dst_chip, self.intern_choice(order_b, slice_index, None)),
                        )
