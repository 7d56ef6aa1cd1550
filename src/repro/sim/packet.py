"""Packets as simulated by the cycle-level engine.

The Anton 2 network is optimized for fine-grained packets: the common case
is 16 bytes of payload plus 8 bytes of header -- exactly one 24-byte flit,
transferred over a mesh channel in a single cycle -- and the largest packet
is two flits (Section 2.1). The simulator therefore tracks packets (not
individual flits) and charges channels one cycle of occupancy per flit.

A packet's route, including every VC decision, is computed at injection
time by :class:`repro.core.routing.RouteComputer`; routing in Anton 2 is
oblivious, so this is behaviourally identical to hop-by-hop route
computation and considerably faster to simulate.
"""

from __future__ import annotations

from typing import Optional

from repro.core.routing import Route


class Packet:
    """One simulated packet.

    Satisfies the :class:`repro.arbiters.base.Request` protocol
    (``pattern`` and ``inject_cycle``), so packets are passed directly to
    arbiters as requests.
    """

    __slots__ = (
        "pid",
        "route",
        "size_flits",
        "pattern",
        "traffic_class",
        "release_cycle",
        "inject_cycle",
        "deliver_cycle",
        "hop_index",
        "next_hop",
        "ready_cycle",
        "retries",
        "drop_on_arrival",
        "fifo_next",
    )

    def __init__(
        self,
        pid: int,
        route: Route,
        size_flits: int = 1,
        pattern: int = 0,
        traffic_class: int = 0,
        release_cycle: int = 0,
    ) -> None:
        if size_flits < 1:
            raise ValueError(f"packet size must be at least one flit, got {size_flits}")
        self.pid = pid
        self.route = route
        self.size_flits = size_flits
        self.pattern = pattern
        self.traffic_class = traffic_class
        #: Cycle at which the packet becomes available at its source queue.
        self.release_cycle = release_cycle
        #: Cycle at which the packet's first flit entered the network
        #: (set by the engine; used by age-based arbitration and latency
        #: statistics).
        self.inject_cycle = release_cycle
        self.deliver_cycle: Optional[int] = None
        #: Index of the next hop in ``route.slots`` to be taken.
        self.hop_index = 0
        #: The slot ``(channel << vc_bits) | vc`` at ``hop_index``, or
        #: None past the last hop -- cached so the engine's eligibility
        #: scan skips the route indexing chain. Kept in sync by
        #: everything that moves ``hop_index`` or replaces ``route`` (the
        #: engine's depart, splice, and source-screening paths).
        self.next_hop = route.slots[0] if route.slots else None
        #: Cycle at which the packet clears the current component's
        #: pipeline and may arbitrate (set by the engine on arrival).
        self.ready_cycle = release_cycle
        #: Source re-injections performed so far (fault retry policy).
        self.retries = 0
        #: Set when a mid-run fault condemned this in-flight copy: the
        #: engine discards it (returning its credits) on arrival instead
        #: of buffering it.
        self.drop_on_arrival = False
        #: The packet behind this one in the VC buffer holding it: the
        #: engine's FIFOs are linked through their packets.
        self.fifo_next: Optional["Packet"] = None

    @property
    def src(self) -> int:
        """Source endpoint component id."""
        return self.route.src

    @property
    def dst(self) -> int:
        """Destination endpoint component id."""
        return self.route.dst

    @property
    def delivered(self) -> bool:
        return self.deliver_cycle is not None

    @property
    def latency(self) -> int:
        """Release-to-delivery latency in cycles (includes queueing)."""
        if self.deliver_cycle is None:
            raise ValueError(f"packet {self.pid} not delivered yet")
        return self.deliver_cycle - self.release_cycle

    @property
    def network_latency(self) -> int:
        """Injection-to-delivery latency in cycles (excludes source queueing)."""
        if self.deliver_cycle is None:
            raise ValueError(f"packet {self.pid} not delivered yet")
        return self.deliver_cycle - self.inject_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.pid}, src={self.src}, dst={self.dst}, "
            f"hop={self.hop_index}/{len(self.route.slots)})"
        )
