"""Full route construction: inter-node + on-chip + VC assignment.

Unicast routing in the Anton 2 network is *oblivious* (Section 2.3): a
packet follows a minimal dimension-order route through the inter-node
network, where the dimension order is any of the six permutations of
X, Y, Z and the packet is pinned to one of the two channel slices;
typically both choices are randomized per packet. Within each chip the
packet follows the direction-order on-chip algorithm
(:mod:`repro.core.onchip`); between chips it hops inter-node channels
through the channel adapters, using the skip channels for X through
traffic. Which displacements are minimal, and where datelines sit, is
the machine's :class:`~repro.core.topology.Topology`'s call -- the
route builder itself is topology-agnostic.

This module turns a (source endpoint, destination endpoint, route choice)
triple into the exact sequence of ``(channel, VC)`` hops the hardware
would use, including the VC promotion decisions of Section 2.5. The
resulting :class:`Route` objects are immutable and cached, and are what
both the cycle-level simulator and the analytic load computation consume.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import params
from .geometry import Coord2, Coord3, Dim, TORUS_DIRECTIONS
from .machine import ChannelKind, ComponentKind, Machine
from .onchip import ANTON_DIRECTION_ORDER, mesh_route_links, validate_direction_order
from .vc import make_allocator

#: All six dimension orders of Section 2.3 (XYZ, XZY, YXZ, YZX, ZXY, ZYX).
ALL_DIM_ORDERS: Tuple[Tuple[Dim, Dim, Dim], ...] = tuple(
    itertools.permutations((Dim.X, Dim.Y, Dim.Z))
)

#: The shared direction objects, by ``(dimension, travelling toward +)``.
_DIRECTIONS = {(int(d.dim), d.sign > 0): d for d in TORUS_DIRECTIONS}


@dataclasses.dataclass(frozen=True)
class RouteChoice:
    """The randomized per-packet routing decisions.

    ``deltas`` optionally pins the signed displacement traveled in each
    dimension; when omitted, the minimal displacement is used with ties
    (even radix, half-way destinations) broken toward ``+``.
    """

    dim_order: Tuple[Dim, Dim, Dim] = (Dim.X, Dim.Y, Dim.Z)
    slice_index: int = 0
    deltas: Optional[Coord3] = None

    def __post_init__(self) -> None:
        if tuple(sorted(self.dim_order)) != (Dim.X, Dim.Y, Dim.Z):
            raise ValueError(f"dim_order must be a permutation of X, Y, Z: {self.dim_order}")
        if self.slice_index not in range(params.NUM_SLICES):
            raise ValueError(f"slice_index must be 0 or 1, got {self.slice_index}")


@dataclasses.dataclass(frozen=True)
class Route:
    """A complete route: the exact (channel id, VC index) hop sequence,
    stored as one engine *slot* a hop, ``(channel << vc_bits) | vc``
    (:attr:`~repro.core.machine.Machine.vc_bits`): 4 bytes a hop, read
    as is by the engine, the load enumerator and the deadlock proof.

    ``via`` is the intermediate chip of a two-phase detour route (fault
    avoidance), or ``None`` for ordinary single-phase routes; it has no
    default, as no ``__slots__`` field can. Routes compare by value,
    slots included; nothing hashes them.
    """

    __slots__ = (
        "src", "dst", "choice", "slots", "internode_hops", "vc_bits", "via"
    )
    src: int
    dst: int
    choice: RouteChoice
    slots: array
    internode_hops: int
    vc_bits: int
    via: Optional[Coord3]

    def __reduce__(self):
        # Pickle would set a ``__slots__`` object's fields back one by one,
        # which a frozen class refuses; it makes the route anew instead.
        return Route, tuple(getattr(self, name) for name in self.__slots__)

    @classmethod
    def from_hops(
        cls,
        machine: Machine,
        src: int,
        dst: int,
        choice: RouteChoice,
        hops: Iterable[Tuple[int, int]],
        internode_hops: int,
        via: Optional[Coord3] = None,
    ) -> "Route":
        """The route over ``machine`` crossing ``hops``, ``(channel, VC)``
        pairs: how a route read from outside (a checkpoint's packet row,
        a replayed trace's ``depart`` events) or written out in a test is
        made. Raises ``ValueError`` naming the first pair that is no
        (channel, VC) of the machine; :func:`validate_route` checks the
        walk."""
        vcs, bits = machine.channel_vcs, machine.vc_bits
        slots = []
        for channel, vc in hops:
            if not (
                type(channel) is int and 0 <= channel < len(vcs)
                and type(vc) is int and 0 <= vc < vcs[channel]
            ):
                raise ValueError(_no_such_hop(channel, vc))
            slots.append((channel << bits) | vc)
        return cls(src, dst, choice, array("i", slots), internode_hops, bits, via)

    @property
    def hops(self) -> Tuple[Tuple[int, int], ...]:
        """The ``(channel id, VC)`` pairs, decoded from :attr:`slots` on
        each read: for display and tests, never stored."""
        bits = self.vc_bits
        mask = (1 << bits) - 1
        return tuple((slot >> bits, slot & mask) for slot in self.slots)

    def channels(self) -> Tuple[int, ...]:
        """The channel ids along the route, in order."""
        bits = self.vc_bits
        return tuple(slot >> bits for slot in self.slots)

    def first_failed(self, failed, from_hop: int = 0) -> int:
        """The first channel in ``failed`` crossed from hop ``from_hop`` on, or -1."""
        bits = self.vc_bits
        for slot in self.slots[from_hop:]:
            channel = slot >> bits
            if channel in failed:
                return channel
        return -1


def _no_such_hop(channel, vc) -> str:
    return (
        f"route has hop ({channel!r}, {vc!r}), which is no "
        f"(channel, VC) of this machine"
    )


class Unroutable(RuntimeError):
    """No legal route exists between two components on this (degraded) machine.

    Raised by fault-aware routing when every dimension order, slice,
    non-minimal displacement, and two-phase detour is blocked by failed
    channels.
    """

    def __init__(self, src: int, dst: int, detail: str = "") -> None:
        message = f"no route from component {src} to component {dst}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.src = src
        self.dst = dst


#: The most routes one table of a machine's route memo holds; a table
#: that would pass it is emptied first. The machine, and with it the
#: memo, lives as long as the process that elaborated it (a server's, a
#: campaign's), so the memo must not grow to a machine's route space
#: (exhaustive load enumeration at 4x4x4 asks for all 190 464 routes,
#: ~390 B each with its memo entry); the 131 072 packets of an 8x8x8 x
#: 4 cores x 64 point still fit, so its saves find every live route
#: (~650 B a packet there: packet, route and memo entry).
ROUTE_MEMO_ENTRIES = 1 << 17


class RouteComputer:
    """Builds routes over one machine, into the machine's route memo
    (:meth:`~repro.core.machine.Machine.route_memo`)."""

    def __init__(
        self,
        machine: Machine,
        direction_order: Sequence = ANTON_DIRECTION_ORDER,
        allow_nonminimal: bool = False,
    ) -> None:
        self.machine = machine
        self.direction_order = validate_direction_order(direction_order)
        #: Accept monotone non-minimal displacements (``|delta| <= radix-1``,
        #: the other way around a ring). Off by default: healthy-machine
        #: routing is strictly minimal; fault-aware routing enables it.
        self.allow_nonminimal = allow_nonminimal
        #: ``compute``'s routes: the machine's memo for this order and
        #: rule, shared with every other computer on the machine.
        self._cache: Dict[Tuple[int, int, RouteChoice, int], Route] = (
            machine.route_memo(self.direction_order, allow_nonminimal)
        )
        self._plan_cache: Dict[Tuple, Route] = {}
        #: Interned :class:`RouteChoice` flyweights keyed by their field
        #: tuple. Sampling draws the same few hundred distinct choices
        #: over and over (6 orders x 2 slices x tie-breaks), so reusing
        #: one frozen instance per distinct choice keeps the route cache
        #: key-space small and skips dataclass construction + validation
        #: on every draw. Shared by everything holding this computer --
        #: the traffic samplers and the fault-aware subclass alike.
        self._choice_cache: Dict[Tuple, RouteChoice] = {}
        #: The chip-local tables routes are assembled from, filled on
        #: first use: the slots of the on-chip path between two routers
        #: under this computer's ``direction_order``, and what one
        #: ``(dimension, toward +, slice)`` of inter-node travel takes.
        self._mesh_paths: Dict[Tuple[Coord2, Coord2], Tuple[int, ...]] = {}
        self._direction_rows: Dict[Tuple[int, bool, int], Tuple] = {}

    # --- route-choice helpers ------------------------------------------------

    def intern_choice(
        self,
        dim_order: Tuple[Dim, Dim, Dim],
        slice_index: int,
        deltas: Optional[Coord3],
    ) -> RouteChoice:
        """The canonical :class:`RouteChoice` for a field combination.

        Equal field tuples always return the *same* object (validated
        once, on first construction); equality and hashing semantics are
        unchanged, identity is a bonus for cache lookups.
        """
        key = (dim_order, slice_index, deltas)
        choice = self._choice_cache.get(key)
        if choice is None:
            choice = RouteChoice(
                dim_order=dim_order, slice_index=slice_index, deltas=deltas
            )
            self._choice_cache[key] = choice
        return choice

    def random_choice(
        self, rng: random.Random, src_chip: Coord3, dst_chip: Coord3
    ) -> RouteChoice:
        """Draw a uniformly randomized route choice (order, slice, ties).

        The RNG draw sequence (order, slice, then one tie-break per
        dimension) is part of the engine's bit-reproducibility contract;
        interning happens after the draws and never consumes randomness.
        """
        dim_order = ALL_DIM_ORDERS[rng.randrange(len(ALL_DIM_ORDERS))]
        slice_index = rng.randrange(params.NUM_SLICES)
        topology = self.machine.topology
        deltas = tuple(
            rng.choice(topology.minimal_deltas(src_chip[d], dst_chip[d], d))
            for d in range(3)
        )
        return self.intern_choice(dim_order, slice_index, deltas)

    def all_choices(self, src_chip: Coord3, dst_chip: Coord3):
        """Every (dim order, slice, tie-break) choice with its probability.

        Used by the analytic load computation: yields ``(choice, prob)``
        pairs whose probabilities sum to one and match the distribution of
        :meth:`random_choice`.
        """
        topology = self.machine.topology
        delta_options = [
            topology.minimal_deltas(src_chip[d], dst_chip[d], d) for d in range(3)
        ]
        num_delta_combos = 1
        for options in delta_options:
            num_delta_combos *= len(options)
        prob = 1.0 / (len(ALL_DIM_ORDERS) * params.NUM_SLICES * num_delta_combos)
        for dim_order in ALL_DIM_ORDERS:
            for slice_index in range(params.NUM_SLICES):
                for deltas in itertools.product(*delta_options):
                    yield (
                        self.intern_choice(dim_order, slice_index, tuple(deltas)),
                        prob,
                    )

    # --- route construction ----------------------------------------------------

    def compute(
        self,
        src_endpoint: int,
        dst_endpoint: int,
        choice: RouteChoice,
        traffic_class: int = 0,
    ) -> Route:
        """The route from one endpoint adapter to another.

        Routes are memoized per machine (every computer of this order and
        rule returns the same object while the memo holds it); callers
        must treat the result as immutable.
        """
        key = (src_endpoint, dst_endpoint, choice, traffic_class)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        route = self._build(src_endpoint, dst_endpoint, choice, traffic_class)
        cache = self._cache
        if len(cache) >= ROUTE_MEMO_ENTRIES:
            cache.clear()
        cache[key] = route
        return route

    def compute_plan(
        self,
        start: int,
        dst_endpoint: int,
        legs: Sequence[Tuple[Coord3, RouteChoice]],
        traffic_class: int = 0,
    ) -> Route:
        """A route from any component through a sequence of inter-node legs.

        ``start`` may be an endpoint adapter, a router, or a channel
        adapter (the latter two are used when re-routing an in-flight
        packet around a mid-run fault); ``legs`` is a sequence of
        ``(target chip, choice)`` pairs, each traveled with a fresh VC
        allocator so the Section 2.5 promotion invariants hold per leg.
        The final leg's target must be the destination endpoint's chip.
        Routes are cached; callers must treat the result as immutable.
        """
        legs = tuple(legs)
        key = (start, dst_endpoint, legs, traffic_class)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        route = self._build_plan(start, dst_endpoint, legs, traffic_class)
        self._plan_cache[key] = route
        return route

    def _leg_deltas(
        self, cur_chip: Coord3, target_chip: Coord3, choice: RouteChoice
    ) -> Coord3:
        """Validate (or derive) the signed displacements for one leg."""
        topology = self.machine.topology
        deltas = choice.deltas
        if deltas is None:
            return tuple(
                topology.delta(cur_chip[d], target_chip[d], d) for d in range(3)
            )
        for d in range(3):
            legal = (
                topology.monotone_deltas(cur_chip[d], target_chip[d], d)
                if self.allow_nonminimal
                else topology.minimal_deltas(cur_chip[d], target_chip[d], d)
            )
            if deltas[d] not in legal:
                raise ValueError(
                    f"delta {deltas[d]} is not legal for dimension {Dim(d)}"
                )
        return deltas

    def _build(
        self,
        src_endpoint: int,
        dst_endpoint: int,
        choice: RouteChoice,
        traffic_class: int,
    ) -> Route:
        machine = self.machine
        src = machine.components[src_endpoint]
        dst = machine.components[dst_endpoint]
        if src.kind != ComponentKind.ENDPOINT or dst.kind != ComponentKind.ENDPOINT:
            raise ValueError("routes connect endpoint adapters")
        return self._build_plan(
            src_endpoint, dst_endpoint, ((dst.chip, choice),), traffic_class
        )

    def _mesh_path(self, src: Coord2, dst: Coord2) -> Tuple[int, ...]:
        """Chip index 0's slots, at VC 0, of the direction-order path
        between two routers."""
        key = (src, dst)
        path = self._mesh_paths.get(key)
        if path is None:
            link = self.machine.layout.router_link
            bits = self.machine.vc_bits
            path = self._mesh_paths[key] = tuple(
                link[pair] << bits
                for pair in mesh_route_links(src, dst, self.direction_order)
            )
        return path

    def _direction_row(self, dim: int, positive: bool, slice_index: int) -> Tuple:
        """What travelling one (direction, slice) takes, on any chip.

        ``(departure router, arrival router, router -> adapter slot,
        through-chip slots, adapter -> router slot, the layout's
        inter-node row, direction)``, the slots chip index 0's at VC 0:
        the departure adapter hangs off the departure router; the packet
        lands on the opposite direction's adapter, which hangs off the
        arrival router; a through chip is crossed adapter -> router,
        (skip channel where the two routers differ), router -> adapter --
        ``None`` when the floorplan has no such skip channel, which only
        a through chip may object to.
        """
        machine = self.machine
        plan = machine.floorplan
        layout = machine.layout
        bits = machine.vc_bits
        direction = _DIRECTIONS[(dim, positive)]
        departure = plan.channel_adapter_router[(direction, slice_index)]
        arrival = plan.channel_adapter_router[(direction.opposite, slice_index)]
        depart = layout.adapter_link[(direction, slice_index)][0]
        arrive = layout.adapter_link[(direction.opposite, slice_index)][1]
        through: Optional[Tuple[int, ...]] = (arrive << bits, depart << bits)
        if arrival != departure:
            # Position in the block == channel id on chip index 0.
            skip = layout.router_link.get((arrival, departure))
            if skip is None or machine.channel_kind[skip] != ChannelKind.SKIP:
                through = None
            else:
                through = (arrive << bits, skip << bits, depart << bits)
        row = self._direction_rows[(dim, positive, slice_index)] = (
            departure,
            arrival,
            depart << bits,
            through,
            arrive << bits,
            layout.internode[(direction, slice_index)],
            direction,
        )
        return row

    def _build_plan(
        self,
        start: int,
        dst_endpoint: int,
        legs: Tuple[Tuple[Coord3, RouteChoice], ...],
        traffic_class: int,
    ) -> Route:
        """Assemble a route from chip-local tables (DESIGN.md Section 9).

        Every chip is the same chip, so a route is a handful of segments
        -- endpoint link, mesh path, router/adapter links, through-chip
        crossings -- each a tuple of chip index 0's slots, shifted to the
        chip the packet is on by that chip's first slot and given the
        hop's VC; the inter-node channel and the next chip come from one
        per-(direction, slice) row. Only the VC depends on where the chip
        sits, and the allocator is driven through the same few calls per
        dimension as ever.
        """
        machine = self.machine
        plan = machine.floorplan
        cfg = machine.config
        dst = machine.components[dst_endpoint]
        if dst.kind != ComponentKind.ENDPOINT:
            raise ValueError("routes end at endpoint adapters")
        if not legs:
            raise ValueError("route plan needs at least one leg")
        if legs[-1][0] != dst.chip:
            raise ValueError(
                f"final leg targets {legs[-1][0]}, destination is on {dst.chip}"
            )
        if not 0 <= traffic_class < cfg.num_classes:
            raise ValueError(
                f"traffic class {traffic_class} is out of range: the machine "
                f"has num_classes={cfg.num_classes}"
            )

        layout = machine.layout
        bits = machine.vc_bits
        # Slots per chip block: chip ``c``'s first on-chip slot is
        # ``c * per_chip``.
        per_chip = layout.onchip_per_chip << bits
        m_vcs = cfg.vcs_per_class_m
        t_vcs = cfg.vcs_per_class_t
        rows = self._direction_rows
        slots: List[int] = []
        internode_hops = 0

        def class_vc(within_class_vc: int, per_class: int, slot: int) -> int:
            if within_class_vc >= per_class:
                cid = slot >> bits
                raise AssertionError(
                    f"VC {within_class_vc} exceeds the {per_class} VCs of "
                    f"ch{cid}[{machine.channel_kind[cid].name}]"
                )
            return traffic_class * per_class + within_class_vc

        allocs = [make_allocator(cfg.vc_scheme) for _ in legs]

        # Starting position: endpoints and channel adapters first hop onto
        # their attached router; a router start begins on the mesh directly.
        # Endpoint links carry one VC per class.
        origin = machine.components[start]
        cur_chip = origin.chip
        chip = layout.chip_index[cur_chip]
        first = chip * per_chip
        if origin.kind == ComponentKind.ENDPOINT:
            cur_router = plan.endpoint_router[origin.detail]
            slots.append(
                (first + (layout.endpoint_link[origin.detail][1] << bits))
                | traffic_class
            )
        elif origin.kind == ComponentKind.ROUTER:
            cur_router = origin.detail
        elif origin.kind == ComponentKind.CHANNEL_ADAPTER:
            cur_router = plan.channel_adapter_router[origin.detail]
            slot = first + (layout.adapter_link[origin.detail][1] << bits)
            slots.append(slot | class_vc(allocs[0].t_vc(), t_vcs, slot))
        else:  # pragma: no cover - defensive
            raise ValueError(f"cannot start a route at {origin}")

        for (target_chip, choice), alloc in zip(legs, allocs):
            deltas = self._leg_deltas(cur_chip, target_chip, choice)
            slice_index = choice.slice_index
            for dim in choice.dim_order:
                delta = deltas[dim]
                if not delta:
                    continue
                (
                    departure,
                    arrival,
                    depart,
                    through,
                    arrive,
                    links,
                    direction,
                ) = rows.get((dim, delta > 0, slice_index)) or self._direction_row(
                    dim, delta > 0, slice_index
                )

                # On-chip route to the departure channel adapter's router,
                # then into the T-group via the router -> adapter link.
                if cur_router != departure:
                    path = self._mesh_path(cur_router, departure)
                    vc = class_vc(alloc.m_vc(), m_vcs, first + path[0])
                    slots += [(first + slot) | vc for slot in path]
                alloc.start_dimension()
                vc = class_vc(alloc.t_vc(), t_vcs, first + depart)
                slots.append((first + depart) | vc)

                steps = abs(delta)
                for step in range(steps):
                    cid, chip, crosses = links[chip]
                    if crosses:
                        # The dateline channel itself is used at the promoted VC.
                        alloc.cross_dateline()
                        vc = class_vc(alloc.t_vc(), t_vcs, cid << bits)
                    slots.append((cid << bits) | vc)
                    first = chip * per_chip
                    if step < steps - 1:
                        # Through route at an intermediate chip, all T-group.
                        if through is None:
                            raise AssertionError(
                                f"no skip channel between {arrival} and "
                                f"{departure} for {direction} through traffic"
                            )
                        slots += [(first + slot) | vc for slot in through]
                # Last chip of this dimension: leave the T-group. The final
                # adapter -> router link still belongs to this dimension's
                # T-group visit (old VC); the promotion applies afterwards.
                slots.append((first + arrive) | vc)
                alloc.finish_dimension()
                internode_hops += steps
                cur_router = arrival
            if chip != layout.chip_index[target_chip]:  # pragma: no cover - defensive
                raise AssertionError(
                    f"leg ended at {layout.chips[chip]}, expected {target_chip}"
                )
            cur_chip = target_chip

        # Destination chip: on-chip route to the destination endpoint, still
        # under the last leg's allocator.
        dst_router = plan.endpoint_router[dst.detail]
        if cur_router != dst_router:
            path = self._mesh_path(cur_router, dst_router)
            vc = class_vc(allocs[-1].m_vc(), m_vcs, first + path[0])
            slots += [(first + slot) | vc for slot in path]
        slots.append(
            (first + (layout.endpoint_link[dst.detail][0] << bits)) | traffic_class
        )

        return Route(
            src=start,
            dst=dst_endpoint,
            choice=legs[0][1],
            slots=array("i", slots),
            internode_hops=internode_hops,
            vc_bits=bits,
            via=legs[0][0] if len(legs) > 1 else None,
        )


def validate_route(machine: Machine, route: Route, moved: bool = False) -> None:
    """Refuse, by name, a route that is not a walk of ``machine``'s
    (channel, VC) pairs from ``route.src`` into ``route.dst``: each slot a
    channel of the machine on a VC it implements, leaving the component
    the hop before it entered. Reads the machine's channel rows.

    The one check of a route read from outside -- a checkpoint's or a
    shard transfer's packet row, a replayed trace's ``depart`` events
    (made by :meth:`Route.from_hops`, which names a pair that is no
    slot) -- and of the routes the tests build. ``moved``: the packet
    has left its source, so its route may be one spliced around a fault,
    whose first hop is the channel that held the packet; that hop may
    then leave any component.

    Raises ``ValueError`` naming the first defect.
    """
    if not route.slots:
        raise ValueError("route has no hops")
    bits = route.vc_bits
    if bits != machine.vc_bits:
        raise ValueError(
            f"route's slots carry {bits} VC bits, this machine's "
            f"{machine.vc_bits}"
        )
    mask = (1 << bits) - 1
    vcs, leaves, enters = machine.channel_vcs, machine.channel_src, machine.channel_dst
    at = None if moved else route.src
    for slot in route.slots:
        channel, vc = slot >> bits, slot & mask
        if not 0 <= channel < len(vcs) or vc >= vcs[channel]:
            raise ValueError(_no_such_hop(channel, vc))
        if at is not None and leaves[channel] != at:
            raise ValueError(
                f"route hops onto channel {channel}, which does not leave "
                f"component {at}, where the packet is by then"
            )
        at = enters[channel]
    if at != route.dst:
        raise ValueError(f"route ends at component {at}, not at its dst {route.dst}")
