"""The cycle-driven simulation engine.

The engine advances a global cycle counter and, each cycle, performs the
two-stage switch allocation of the Anton 2 router pipeline:

* **SA1 (input arbitration)** -- each input port nominates at most one of
  its VCs' head packets, chosen round-robin among *eligible* VCs (next
  output channel idle and downstream VC credit available for the whole
  packet -- virtual cut-through flow control);
* **SA2 (output arbitration)** -- each output channel's arbiter (the
  policy under study: round-robin, age-based, or inverse-weighted) picks
  one winner among the nominating input ports.

Winning packets occupy the output channel for one cycle per flit, occupy
their input port likewise, consume downstream credits immediately, and
arrive in the downstream buffer after the channel latency. Credits return
to the upstream arbitration point one channel latency after a packet
departs a buffer.

**Timing is exact fixed point.** Channel occupancy is carried in integer
*ticks*: one cycle is :attr:`~repro.core.machine.Machine.ticks_per_cycle`
ticks (the LCM of every channel's ``cycles_per_flit`` denominator -- 14 on
a default machine, where torus channels cost exactly 45/14 cycles per
flit). Serialization start/end times and the channel-free horizon are
plain integer arithmetic, so sub-cycle torus bandwidth is modeled without
quantization *and* without floating-point drift: a million-cycle
saturation run ends on exactly the tick the rational arithmetic predicts.

**Scheduling is a bucketed timing wheel.** Arrivals, credit returns,
source wakes, and fault transitions land in per-cycle FIFO buckets;
since channel latencies are small bounded integers, almost every event
lands within a few cycles and is an O(1) FIFO append into
:class:`~repro.sim.wheel.TimingWheel` rather than an O(log n) heap push
(far-future events -- fault timelines, open-loop release wakes --
overflow into a small heap). Each cycle's batch is drained in an order
that agrees with the *canonical within-cycle order* (see
:func:`event_sort_key`) wherever it is observable -- faults by timeline
index, then arrivals by channel -- so the observable event stream is a
pure function of simulation state rather than push history. Then each
cycle arbitrates every active component and only afterwards moves the
winners across the switch (:meth:`Engine._step`). See DESIGN.md
sections 9 and 14.

**A shard is an engine.** The sharded runner (:mod:`repro.sim.shard`)
runs one engine per sub-box of the torus, and this class does not know
it: a grant onto a channel that leaves the shard pushes its arrival onto
this engine's wheel, and a credit for a channel fed from outside it
goes onto the wheel too, exactly as in a serial run. Between cycles, at
each lookahead barrier, the runner takes off the wheel every event
another shard owns and puts it on the owner's wheel, in the same bucket
or overflow heap; the canonical order above makes the union of the
shards' states the serial engine's. A sharded run takes no trace sink:
the serial engine writes the same trace. What the runner cannot read off
the public state lives here: ``_fault_owned`` (which shard counts a
fault).

Endpoint adapters inject from an unbounded source queue (the Section 4.1
batch methodology: every core has a batch of packets ready at time zero)
and consume delivered packets at arrival.

The engine is deliberately conservative about liveness: if no packet
moves for ``watchdog_cycles`` while packets are in flight, it raises
:class:`DeadlockError`. With correctly assigned VCs this never fires; the
deadlock tests use it to demonstrate that *broken* VC assignments (e.g.,
no datelines) really do deadlock.
"""

from __future__ import annotations

import itertools
from heapq import heappop
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.arbiters.bank import ArbiterBank, RoundRobinBank
from repro.core.machine import ArbiterSites, Machine
from repro.core.routing import Route, Unroutable

from .metrics import StreamingQuantile, split_collector
from .packet import Packet
from .stats import SimStats
from .trace import TraceEvent
from .wheel import TimingWheel


class DeadlockError(RuntimeError):
    """Raised when the network makes no progress for the watchdog period."""


#: Builds one arbitration stage's bank given the stage's sites: a bank
#: class, or a partial of one carrying its tables
#: (:func:`repro.sim.simulator.arbiter_builder_for`).
ArbiterBuilder = Callable[[ArbiterSites], ArbiterBank]


class ChannelRows(NamedTuple):
    """One channel's share of an engine's state, out of the flat rows:
    what :meth:`Engine.channel_rows` renders and
    :meth:`Engine.assign_channel` puts back. The layout of the rows
    themselves is this module's alone: the shard cut and merge move state
    through these, a checkpoint through :meth:`Engine.rows`.
    """

    #: Source side -- the arbitration point feeding the channel: its
    #: credit view per VC, the staging timer, the SA2 site's
    #: :meth:`~repro.arbiters.bank.ArbiterBank.state` (``None``: no site).
    credits: List[int]
    channel_free_at: int
    arbiter: Optional[dict]
    #: Destination side -- the buffers the channel fills: per VC the
    #: packets in FIFO order, the input timer, the SA1 site's state.
    queues: List[List[Packet]]
    input_free_at: int
    vc_arbiter: Optional[dict]


_EV_ARRIVAL = 0
_EV_CREDIT = 1
_EV_WAKE = 2
_EV_FAULT = 3


def event_sort_key(payload: tuple) -> tuple:
    """Canonical within-cycle event order: the order checkpoint
    serialization writes a cycle's events in.

    The key ranks faults (by timeline index, carried in the payload's
    spare slot), then source wakes (by component id), credit returns (by
    channel then VC) and arrivals (by channel id). Processing needs less
    of it: credits add and wakes only set membership, so the engine's
    drain applies them as it walks the batch, and pins only what is
    observable -- faults by timeline index, then arrivals by channel id
    (a channel receives at most one arrival per cycle, per-component
    state is disjoint). Trace emission, stats dict fill order and the
    serialized wheel are thereby functions of simulation state, not push
    history. That is what lets a spatially sharded run
    (repro/sim/shard.py) reproduce the serial engine's bytes: each shard
    generates its own events, and the union taken in (cycle, key) order
    equals the serial schedule. Ties (several credits for one (channel,
    VC) swept in the same cycle) fall back to push order via sort
    stability; every tie class has a single producing component, so the
    order is shard-invariant too.
    """
    kind, a, b, c = payload
    if kind == _EV_ARRIVAL:
        return (3, b, 0)
    if kind == _EV_CREDIT:
        return (2, a, b)
    if kind == _EV_WAKE:
        return (1, a, 0)
    return (0, -1 if c is None else c, 0)


def serialization_end_ticks(
    free_at_ticks: int, now_ticks: int, size_flits: int, occupancy_ticks: int
) -> int:
    """Tick at which a packet's last flit clears the channel.

    Serialization begins when the previous packet's last flit clears the
    channel (``free_at_ticks``, which may be mid-cycle on slow torus
    channels) or now, whichever is later; back-to-back packets therefore
    serialize gaplessly at the channel's exact rational bandwidth.
    """
    start = free_at_ticks if free_at_ticks > now_ticks else now_ticks
    return start + size_flits * occupancy_ticks


def arrival_cycle(
    end_ticks: int, ticks_per_cycle: int, latency: int, now: int
) -> int:
    """Cycle at which a packet granted at cycle ``now`` is fully received
    downstream -- the engine's expression (its traversal inlines it).

    The channel-latency pipeline is counted from the last whole cycle the
    packet's serialization has begun by the time it ends: ``latency``
    cycles after ``floor(end) - 1``, with a serialization ending exactly
    on a cycle boundary attributed to the cycle it closes (the ``- 1``
    inside the floor division). The calibrated channel latencies (the
    Figure 11/12 fits) include the final partial serialization cycle, so
    this matches the engine's original float expression
    ``-int(-(end - 1e-6)) - 1`` -- a *floor* with an epsilon guard, since
    Python's ``int()`` truncates toward zero -- exactly, for every value
    the float code computed correctly: the epsilon forgave upward float
    drift at integer boundaries, which exact ticks render impossible.

    The result is clamped to at least ``now + 1``: a packet arrives no
    earlier than the cycle after its grant. The clamp fires on every
    one-flit hop over an idle latency-1 channel (the on-chip and endpoint
    channels), where the expression gives ``now``.
    """
    arrival = (end_ticks - 1) // ticks_per_cycle - 1 + latency
    return arrival if arrival > now else now + 1


def arrival_vc(packet: Packet) -> int:
    """VC the packet occupies at the end of its most recent hop.

    The hop that carried a packet to its current arbitration point is
    ``route.hops[hop_index - 1]``; its VC component is the buffer the
    packet sits in (or, on the final hop, the VC whose credit is returned
    at delivery). Every arrival disposition -- buffer, deliver, and
    fault-drop -- shares this one lookup.
    """
    return packet.route.hops[packet.hop_index - 1][1]


class Engine:
    """Cycle-level simulator over a :class:`~repro.core.machine.Machine`."""

    def __init__(
        self,
        machine: Machine,
        arbiter_builder: ArbiterBuilder = RoundRobinBank,
        vc_arbiter_builder: ArbiterBuilder = RoundRobinBank,
        watchdog_cycles: int = 20_000,
        trace=None,
        latency_quantiles: bool = False,
        faults=None,
    ) -> None:
        self.machine = machine
        self.stats = SimStats()
        self.cycle = 0
        self.watchdog_cycles = watchdog_cycles
        self.trace = trace
        if latency_quantiles:
            # Streaming p50/p95/p99 without retaining per-packet latency
            # lists (see :mod:`repro.sim.metrics`).
            self.stats.latency_estimator = StreamingQuantile()

        rows = machine.engine_rows
        num_channels = len(rows.latency)
        #: Integer ticks per cycle; all channel timing below is in ticks.
        self._ticks_per_cycle: int = machine.ticks_per_cycle
        #: Tick at which each channel's staging buffer drains (the last
        #: flit of the previous packet clears the channel).
        self._channel_free_at: List[int] = [0] * num_channels
        self._input_free_at: List[int] = [0] * num_channels
        self._latency = rows.latency
        #: Ticks of channel occupancy per flit (45 vs the mesh's 14 on a
        #: default machine: torus effective bandwidth is below one flit
        #: per on-chip cycle, by exactly 45/14).
        self._occupancy_ticks: List[int] = machine.channel_occupancy_ticks
        self._pipeline = machine.config.router_pipeline_cycles
        self.stats.ticks_per_cycle = self._ticks_per_cycle
        # Per-(channel, VC) state is one flat row per kind, indexed by
        # the slot ``(cid << vc_bits) | vc``; nothing is allocated per
        # slot, so an engine is a few dozen objects whatever the machine
        # (DESIGN.md section 9).
        self._vc_bits: int = rows.vc_bits
        self._slots = rows.slots
        #: Credits available to the channel's source, by slot.
        self._credits: List[int] = list(rows.credits)
        #: The VC buffers at the channel's destination, by slot: FIFOs
        #: linked through ``Packet.fifo_next``, from ``_fifo_head`` (what
        #: arbitrates) to ``_fifo_tail`` (where arrivals join).
        self._fifo_head: List[Optional[Packet]] = [None] * len(rows.credits)
        self._fifo_tail: List[Optional[Packet]] = [None] * len(rows.credits)
        # What is buffered, as bitmasks (DESIGN.md section 9): the scan
        # visits the inputs and VCs that hold a packet and no others,
        # as SA1 sees request lines only from occupied VCs (Section 3.4).
        #: By channel: bit ``vc`` set while that VC's FIFO holds a packet.
        self._vc_occupied: List[int] = [0] * num_channels
        #: By component: bit ``input_index[cid]`` set while input ``cid``
        #: holds any packet.
        self._input_occupied: List[int] = [0] * len(rows.is_endpoint)
        self._input_bit, self._bits = machine.occupancy_rows
        self._channel_src = rows.src
        self._channel_dst = rows.dst
        self._is_endpoint = rows.is_endpoint
        self._component_inputs = machine.component_inputs
        # Hot-path aliases into the stats counter dicts (defaultdicts):
        # the traversal increments these directly instead of calling
        # ``stats.record_channel_use`` tens of thousands of times.
        self._stat_channel_flits = self.stats.channel_flits
        self._stat_channel_busy = self.stats.channel_busy_ticks

        #: The output (SA2) arbiters, sites keyed by output channel id.
        self.arbiters: ArbiterBank = arbiter_builder(rows.arbiter_sites)
        #: The input (SA1) VC-selection arbiters, sites keyed by input
        #: channel id.
        self.vc_arbiters: ArbiterBank = vc_arbiter_builder(
            rows.vc_arbiter_sites
        )

        #: Injection queues per endpoint component id.
        self._source_queues: Dict[int, List[Packet]] = {}
        self._source_heads: Dict[int, int] = {}
        #: The event core: a bucketed timing wheel sized so every
        #: credit/arrival push (bounded by channel latency plus a couple
        #: of serialization cycles) takes the O(1) bucket path.
        self._events = TimingWheel(2 * max(self._latency, default=1) + 16)
        #: Components with (potentially) arbitrable work, as an
        #: insertion-ordered dict used as an ordered set. ``_step``
        #: walks it in *sorted* order -- part of the canonical
        #: within-cycle order (see :func:`event_sort_key`) that makes
        #: every observable stream a function of simulation state, so
        #: only membership matters; a dict still beats a ``set`` for
        #: the O(1) ordered-pop pattern and reproducible serialization
        #: (checkpoint.py).
        self._active: Dict[int, None] = {}
        self._queued = 0
        self._in_network = 0
        self._last_progress = 0
        #: Optional hook invoked as ``on_delivery(packet, cycle)`` when a
        #: packet is consumed at its destination endpoint. Handlers may
        #: call :meth:`enqueue` (e.g. to send a reply), which models the
        #: endpoint's counted-write handler dispatch [Grossman 2013].
        self.on_delivery: Optional[Callable[[Packet, int], None]] = None

        #: Monotone count of fault events ever pushed onto the wheel --
        #: the next canonical timeline index handed out by
        #: :meth:`schedule_faults` (see :func:`event_sort_key`).
        self._fault_push_seq = 0
        # The engine knows one thing of the sharded runner
        # (repro/sim/shard.py), which otherwise works on its public state
        # -- the wheel, the counters, channel_rows/assign_channel -- from
        # outside, between cycles, and it cannot be read off that state:
        #: Channel ids whose fault bookkeeping this engine owns (None =
        #: all). Every shard applies every fault -- routing state is
        #: global -- but only the owner of the channel counts
        #: ``stats.fault_events``, so the merged totals match the serial
        #: engine's.
        self._fault_owned: Optional[frozenset] = None

        #: Optional fault state (see :mod:`repro.faults`). ``None`` keeps
        #: the fault path zero-overhead: ``_failed_channels`` stays None,
        #: so every gate below is a single falsy check -- the same
        #: standard as tracing.
        self._fault_runtime = faults
        self._failed_channels: Optional[set] = None
        self._fault_routes = None
        #: In-flight arrivals (packet -> output channel), maintained only
        #: when faults are configured: the fault sweep needs to find
        #: packets committed to the wire, and the timing wheel (unlike the
        #: old global heap) has no cheap scan for them. Insertion order is
        #: push order, matching the event-seq order the sweep re-routes in.
        self._inflight: Optional[Dict[Packet, int]] = None
        if faults is not None:
            self._inflight = {}
            self._fault_routes = faults.route_computer
            self._failed_channels = set(faults.initial_failed)
            self._fault_routes.set_failed(self._failed_channels)
            for idx, (fault_cycle, cid, is_down) in enumerate(faults.timeline):
                # The timeline index rides in the payload's spare slot:
                # it is the canonical same-cycle fault order (see
                # event_sort_key) and survives checkpointing.
                self._push_event(fault_cycle, _EV_FAULT, cid, is_down, idx)
            self._fault_push_seq = len(faults.timeline)

    # --- public API -------------------------------------------------------------

    @property
    def trace(self):
        """The structured-event sink (see :mod:`repro.sim.trace`), or None.

        ``None`` keeps tracing zero-overhead: one falsy check per emission
        site, no event construction. Assigning splits the sink once
        (:func:`~repro.sim.metrics.split_collector`): a
        :class:`~repro.sim.metrics.MetricsCollector` it reaches is fed
        directly at grant, depart, arrive and deliver, and only the other
        sinks get those events. Fault, drop, re-route and retry records
        still go to the whole sink. The split is read once a cycle, so the
        sink may be reassigned between cycles.
        """
        return self._trace

    @trace.setter
    def trace(self, sink) -> None:
        self._trace = sink
        self._metrics, self._sink = split_collector(sink)

    def enqueue(self, packet: Packet) -> None:
        """Add a packet to its source endpoint's injection queue.

        Packets must be enqueued per-source in nondecreasing
        ``release_cycle`` order (generators in :mod:`repro.traffic` do
        this naturally).
        """
        src = packet.src
        if not self._is_endpoint[src]:
            raise ValueError(f"packet source {src} is not an endpoint adapter")
        if self._failed_channels:
            # The machine is currently degraded: resolve the route against
            # the failed set before it enters the queue (replies enqueued
            # by on_delivery handlers may carry stale healthy routes).
            packet = self._screen_source_packet(packet)
            if packet is None:
                return
        queue = self._source_queues.setdefault(src, [])
        if queue and queue[-1].release_cycle > packet.release_cycle:
            raise ValueError("packets must be enqueued in release order")
        queue.append(packet)
        self._source_heads.setdefault(src, 0)
        self._queued += 1
        if packet.release_cycle <= self.cycle:
            self._active[src] = None
        else:
            self._push_event(packet.release_cycle, _EV_WAKE, src, 0, None)

    @property
    def drained(self) -> bool:
        """True when no queued, in-flight, or scheduled work remains.

        The public form of the run loops' continuation condition, for
        callers advancing the engine in slices (``repro serve`` sessions,
        tests): ``run_for`` on a drained engine is a no-op.
        """
        return not (self._queued or self._in_network or self._events.pending)

    def schedule_faults(self, fault_set) -> int:
        """Merge additional *future* faults into a faulted engine mid-run.

        The live-injection entry point (``repro serve``'s
        ``inject_fault``): validates the :class:`~repro.faults.model.FaultSet`
        against this machine, requires every down/up cycle to lie strictly
        in the future (cycle-0 faults only make sense at construction),
        merges the specs into the attached runtime's set -- so checkpoints
        taken later serialize the full schedule -- and pushes the new
        timeline events onto the wheel exactly as the constructor would
        have. Returns the number of scheduled events. Raises
        :class:`ValueError` if the engine was built without fault support
        (the fault sweep state only exists when ``faults=`` was passed).
        """
        if self._fault_runtime is None:
            raise ValueError(
                "engine was built without fault support; construct it with "
                "faults= (an empty FaultSet is fine) to inject faults later"
            )
        fault_set.validate(self.machine)
        for spec in fault_set.specs:
            if spec.down_cycle <= self.cycle:
                raise ValueError(
                    f"fault down_cycle {spec.down_cycle} is not in the "
                    f"future (engine is at cycle {self.cycle})"
                )
            if spec.up_cycle is not None and spec.up_cycle <= self.cycle:
                raise ValueError(
                    f"fault up_cycle {spec.up_cycle} is not in the future "
                    f"(engine is at cycle {self.cycle})"
                )
        events = self._fault_runtime.extend(fault_set)
        for fault_cycle, cid, is_down in events:
            self._push_event(
                fault_cycle, _EV_FAULT, cid, is_down, self._fault_push_seq
            )
            self._fault_push_seq += 1
        return len(events)

    def run_for(self, cycles: int) -> SimStats:
        """Advance the simulation by at most ``cycles`` cycles.

        Returns early if all traffic drains first. Useful for observing
        mid-run state (e.g. arbiter service shares while the network is
        still saturated); call again or call :meth:`run` to finish.
        ``stats.end_cycle`` is updated on every return, so mid-run
        snapshots (utilization, trace footers) see the true cycle span.

        Like :meth:`run`, raises :class:`DeadlockError` if no packet moves
        for ``watchdog_cycles`` while packets are in the network -- a
        genuinely wedged configuration must not silently burn the caller's
        whole cycle budget.
        """
        self._advance_to(self.cycle + cycles)
        return self.stats

    def run(self, max_cycles: int = 10_000_000) -> SimStats:
        """Run until all enqueued packets are delivered (or ``max_cycles``)."""
        self._advance_to(max_cycles)
        if not self.drained:
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles with "
                f"{self._queued + self._in_network} packets outstanding"
            )
        return self.stats

    def close(self) -> None:
        """Let go of what the run holds outside this object: nothing, for
        the serial engine (a sharded one stops its workers)."""

    def _advance_to(self, target: int) -> None:
        """The run loop: step until drained or ``self.cycle == target``."""
        events = self._events
        active = self._active
        process_events = self._process_events
        step = self._step
        watchdog = self.watchdog_cycles
        while (self._queued or self._in_network or events.pending) and (
            self.cycle < target
        ):
            if not active and events.pending:
                # Nothing can move; jump to the next event. If no event
                # lands before the budget boundary, consume the rest of
                # the budget and stop -- running the loop body at
                # ``target`` would overshoot to ``target + 1``, making a
                # split run drift one cycle per call past a single run.
                nxt = events.next_cycle(self.cycle)
                if nxt >= target:
                    self.cycle = target
                    break
                if nxt > self.cycle:
                    self.cycle = nxt
            process_events()
            if active:
                step()
            if (
                self._in_network
                and self.cycle - self._last_progress > watchdog
            ):
                self._raise_deadlock()
            self.cycle += 1
        self.stats.end_cycle = self.cycle

    # --- internals ----------------------------------------------------------------

    def _raise_deadlock(self) -> None:
        # Flush any partial trace first: a wedged run's events up to the
        # jam are exactly the evidence a deadlock post-mortem needs.
        if self.trace is not None:
            self.trace.flush()
        raise DeadlockError(
            f"no progress for {self.watchdog_cycles} cycles at cycle "
            f"{self.cycle}; {self._in_network} packets stuck in the network"
        )

    def _push_event(self, cycle: int, kind: int, a, b, c) -> None:
        self._events.push(cycle, self.cycle, (kind, a, b, c))

    def _process_events(self) -> None:
        """Apply this cycle's events: one body, healthy or faulted.

        Credits and wakes are applied as the batch is walked -- they emit
        nothing and commute with everything else in the cycle. Faults
        (rare) follow in timeline order, then arrivals by channel id: the
        only orders an observable stream depends on (see
        :func:`event_sort_key`). No handler schedules work for the
        current cycle -- channel latency is at least 1, an arrival is
        clamped past its grant cycle (:func:`arrival_cycle`) and a retry
        backs off at least one cycle -- so the batch is complete before it
        is walked.
        """
        events = self._events
        now = self.cycle
        overflow = events.overflow
        batch = None
        if overflow and overflow[0][0] <= now:
            # Overdue overflow events (far-future pushes whose cycle has
            # come, idle-jump targets) join the cycle's batch.
            batch = []
            while overflow and overflow[0][0] <= now:
                batch.append(heappop(overflow)[2])
            events.pending -= len(batch)
        bucket = events.take_due(now)
        if bucket:
            if batch is None:
                batch = bucket
            else:
                batch.extend(bucket)
        elif batch is None:
            return
        credits = self._credits
        vc_bits = self._vc_bits
        active = self._active
        arrivals = []
        faults = []
        for event in batch:
            kind, a, b, c = event
            if kind == _EV_ARRIVAL:
                arrivals.append(event)
            elif kind == _EV_CREDIT:
                # No wake: a component holding work never left
                # ``_active`` (a router stays while any input buffers a
                # packet, an endpoint while its head is released).
                credits[(a << vc_bits) | b] += c
            elif kind == _EV_WAKE:
                active[a] = None
            else:
                faults.append(event)
        if faults:
            faults.sort(key=event_sort_key)
            for _, cid, is_down, idx in faults:
                self._apply_fault(cid, is_down, idx)
        if len(arrivals) > 1:
            arrivals.sort(key=itemgetter(2))
        # One guard for both observers: the collector fed directly
        # (``metrics``), every other sink fed events (``sink``).
        trace = self._trace
        metrics = self._metrics
        sink = self._sink
        if metrics is not None:
            occupancy_move = metrics.occupancy.move
        inflight = self._inflight
        latency = self._latency
        fifo_head = self._fifo_head
        fifo_tail = self._fifo_tail
        vc_occupied = self._vc_occupied
        input_occupied = self._input_occupied
        input_bit = self._input_bit
        channel_dst = self._channel_dst
        ready_cycle = now + self._pipeline
        now_ticks = now * self._ticks_per_cycle
        for _, packet, cid, _ in arrivals:
            if inflight is not None:
                inflight.pop(packet, None)
            vc = packet.route.hops[packet.hop_index - 1][1]  # arrival_vc()
            if packet.drop_on_arrival or packet.next_hop is None:
                # Consumed here: at its destination endpoint, or -- a
                # copy a mid-run fault condemned in flight (drop policy,
                # retry re-injection, unroutable stranding), accounted
                # when the fault was applied -- discarded. Either way its
                # buffer credits go back.
                self._in_network -= 1
                self._last_progress = now
                delivered = not packet.drop_on_arrival
                if delivered:
                    packet.deliver_cycle = now
                    self.stats.record_delivery(packet)
                    if trace is not None:
                        if metrics is not None:
                            if now > metrics.last_cycle:
                                metrics.last_cycle = now
                            metrics.deliver(now - packet.inject_cycle)
                        if sink is not None:
                            sink.emit(
                                TraceEvent(
                                    "deliver", now, now_ticks, packet.pid, cid, vc,
                                    (
                                        ("lat", packet.network_latency),
                                        ("qlat", packet.latency),
                                    ),
                                )
                            )
                self._push_event(
                    now + latency[cid], _EV_CREDIT, cid, vc, packet.size_flits
                )
                if delivered and self.on_delivery is not None:
                    self.on_delivery(packet, now)
                continue
            packet.ready_cycle = ready_cycle
            slot = (cid << vc_bits) | vc
            tail = fifo_tail[slot]
            dst = channel_dst[cid]
            if tail is None:
                fifo_head[slot] = packet
                vc_occupied[cid] |= 1 << vc
                input_occupied[dst] |= input_bit[cid]
            else:
                tail.fifo_next = packet
            fifo_tail[slot] = packet
            active[dst] = None
            if trace is not None:
                if metrics is not None:
                    if now > metrics.last_cycle:
                        metrics.last_cycle = now
                    occupancy_move(cid, vc, now, 1)
                if sink is not None:
                    sink.emit(
                        TraceEvent("arrive", now, now_ticks, packet.pid, cid, vc)
                    )

    def _step(self) -> None:
        """One cycle of the router pipeline over every active component,
        in two phases.

        *Arbitrate*: the sorted active set is scanned -- SA1 and SA2 for
        a router, the release/credit/channel check for an endpoint -- and
        each win is appended to ``grants`` in grant order (an injection
        carries ``ic = -1``); each arbiter stage then commits its wins in
        one :meth:`~repro.arbiters.bank.ArbiterBank.commit_all`.
        *Traverse*: one loop departs every grant. Deferring traversal
        past the scan is exact: what a departure writes that is read in
        the same cycle -- its output's timer and credits, its input's
        timer, FIFO and occupancy bits -- is read only by the granting
        component, whose scan is over; everything else it writes lands in
        a future cycle. Likewise a stage's sites (output channels for
        SA2, input channels for SA1) are each peeked and committed at
        most once a cycle.

        This is the hottest loop in the repository, so both phases live
        inline here, over engine attributes hoisted to locals once per
        cycle.
        """
        now = self.cycle
        active = self._active
        is_endpoint = self._is_endpoint
        component_inputs = self._component_inputs
        source_queues = self._source_queues
        source_heads = self._source_heads
        fifo_head = self._fifo_head
        vc_bits = self._vc_bits
        vc_occupied = self._vc_occupied
        input_occupied = self._input_occupied
        bits = self._bits
        input_free_at = self._input_free_at
        channel_free_at = self._channel_free_at
        credits = self._credits
        sa1_peek = self.vc_arbiters.peek
        sa2_peek = self.arbiters.peek
        failed = self._failed_channels
        tpc = self._ticks_per_cycle
        now_ticks = now * tpc
        # First tick of the next cycle: a channel accepts a new packet in
        # any cycle in which its staging buffer drains (free_at strictly
        # before this horizon). A drain exactly on a cycle boundary keeps
        # the channel busy through the drain cycle -- the whole-cycle
        # convention the original integer-vs-float comparison expressed.
        horizon_ticks = now_ticks + tpc
        idle: List[int] = []
        # ``(comp_id, packet, ic, vc, oc)`` per grant, in grant order, and
        # the router grants' SA entries ``(input_idx, packet, ic, vc, oc)``.
        grants: List[tuple] = []
        won: List[tuple] = []
        # Sorted, not insertion, order: part of the canonical
        # within-cycle schedule (event_sort_key) -- same-cycle grants
        # across components are physically independent, so sorting only
        # pins the observable emission order.
        for comp_id in sorted(active):
            if is_endpoint[comp_id]:
                queue = source_queues.get(comp_id)
                if queue is None:
                    idle.append(comp_id)
                    continue
                head = source_heads[comp_id]
                if head >= len(queue):
                    del source_queues[comp_id], source_heads[comp_id]
                    idle.append(comp_id)
                    continue
                packet = queue[head]
                if packet.release_cycle > now:
                    # Head not released yet; a wake event will re-activate us.
                    idle.append(comp_id)
                    continue
                oc, ovc = packet.next_hop
                if (
                    channel_free_at[oc] > now_ticks
                    or credits[(oc << vc_bits) | ovc] < packet.size_flits
                ):
                    continue
                if head + 1 < len(queue):
                    source_heads[comp_id] = head + 1
                else:
                    # Let the drained queue list be garbage collected.
                    del source_queues[comp_id], source_heads[comp_id]
                grants.append((comp_id, packet, -1, 0, oc))
                continue
            occupied = input_occupied[comp_id]
            if not occupied:
                # Nothing buffered: nothing to arbitrate until an arrival.
                idle.append(comp_id)
                continue
            # SA1: each input port nominates one VC's head packet among
            # the *eligible* ones (next channel accepting, credits
            # available). The SA1 arbiter state is only committed if the
            # packet also wins SA2. ``candidates`` maps oc -> one
            # nomination tuple, widened to a list of them only under
            # output contention, so the common uncontended case allocates
            # nothing per output. Only occupied inputs and VCs are
            # visited, in ascending order: the order of a full scan.
            candidates: Optional[Dict[int, object]] = None
            inputs = component_inputs[comp_id]
            for input_idx in bits[occupied]:
                ic = inputs[input_idx]
                if input_free_at[ic] > now:
                    continue
                # The (vc, packet) requests are materialized lazily:
                # inputs whose scan yields a single eligible VC (the
                # common case) never build the list.
                vc_requests: Optional[List] = None
                first_vc = -1
                first_packet = None
                base = ic << vc_bits
                for vc in bits[vc_occupied[ic]]:
                    packet = fifo_head[base | vc]
                    if packet.ready_cycle > now:
                        continue
                    oc, ovc = packet.next_hop
                    # Frozen channels grant nothing. (The fault sweep
                    # re-routes every stranded packet, so this only fires
                    # in the window before a re-resolved packet's next
                    # arbitration.)
                    if failed and oc in failed:
                        continue
                    # A channel accepts a new packet in any cycle in
                    # which its staging buffer drains (free_at < now + 1,
                    # in ticks); fractional occupancy carries over so
                    # sub-cycle bandwidth (the 45/14 cycles/flit torus
                    # channels) is not quantized away.
                    if channel_free_at[oc] >= horizon_ticks:
                        continue
                    if credits[(oc << vc_bits) | ovc] < packet.size_flits:
                        continue
                    if first_packet is None:
                        first_vc = vc
                        first_packet = packet
                    elif vc_requests is None:
                        vc_requests = [(first_vc, first_packet), (vc, packet)]
                    else:
                        vc_requests.append((vc, packet))
                if first_packet is None:
                    continue
                if vc_requests is None:
                    # A sole eligible VC needs no SA1 arbitration: every
                    # policy's ``peek`` returns the only request, so
                    # skipping the call is bit-identical (its commit
                    # still runs on an SA2 win, keeping arbiter state in
                    # lockstep).
                    vc = first_vc
                    packet = first_packet
                else:
                    vc, packet = sa1_peek(ic, vc_requests)
                oc = packet.next_hop[0]
                entry = (input_idx, packet, ic, vc, oc)
                if candidates is None:
                    candidates = {oc: entry}
                else:
                    prev = candidates.get(oc)
                    if prev is None:
                        candidates[oc] = entry
                    elif type(prev) is list:
                        prev.append(entry)
                    else:
                        candidates[oc] = [prev, entry]
            if candidates is not None:
                # SA2: arbitrate each requested output channel. A sole
                # nominator is granted unconditionally, as every policy
                # would.
                for oc, entry in candidates.items():
                    if type(entry) is list:
                        entry = sa2_peek(oc, entry)
                    won.append(entry)
                    grants.append((comp_id, entry[1], entry[2], entry[3], oc))
        for comp_id in idle:
            active.pop(comp_id, None)
        if not grants:
            return
        if won:
            indices, requests, ics, vcs, ocs = zip(*won)
            self.arbiters.commit_all(ocs, indices, requests)
            self.vc_arbiters.commit_all(ics, vcs, requests)

        # Traverse: every grant crosses the switch, in grant order. One
        # guard for both observers, as in the drain.
        stats = self.stats
        trace = self._trace
        metrics = self._metrics
        sink = self._sink
        if metrics is not None:
            occupancy_move = metrics.occupancy.move
            busy_add = metrics.busy.add
            if now > metrics.last_cycle:
                metrics.last_cycle = now
        latency = self._latency
        occupancy_ticks = self._occupancy_ticks
        stat_channel_flits = self._stat_channel_flits
        stat_channel_busy = self._stat_channel_busy
        fifo_tail = self._fifo_tail
        input_bit = self._input_bit
        inflight = self._inflight
        events = self._events
        wheel_size = events.size
        buckets = events.buckets
        mask = events.mask
        pushed = 0
        injected = 0
        for comp_id, packet, ic, vc, oc in grants:
            size = packet.size_flits
            ovc = packet.next_hop[1]
            busy_ticks = size * occupancy_ticks[oc]
            # serialization_end_ticks(), inlined.
            free_at = channel_free_at[oc]
            end_ticks = (free_at if free_at > now_ticks else now_ticks) + busy_ticks
            channel_free_at[oc] = end_ticks
            credits[(oc << vc_bits) | ovc] -= size
            stat_channel_flits[oc] += size
            stat_channel_busy[oc] += busy_ticks
            if ic >= 0:
                input_free_at[ic] = now + size
                # Unlink the FIFO head: only a head is ever granted.
                slot = (ic << vc_bits) | vc
                behind = packet.fifo_next
                fifo_head[slot] = behind
                if behind is None:
                    fifo_tail[slot] = None
                    left = vc_occupied[ic] ^ (1 << vc)
                    vc_occupied[ic] = left
                    if not left:
                        input_occupied[comp_id] ^= input_bit[ic]
                else:
                    packet.fifo_next = None
                # The freed buffer's credit goes back upstream.
                credit_cycle = now + latency[ic]
                if credit_cycle - now < wheel_size:
                    buckets[credit_cycle & mask].append((_EV_CREDIT, ic, vc, size))
                    pushed += 1
                else:
                    events.push(credit_cycle, now, (_EV_CREDIT, ic, vc, size))
            else:
                injected += 1
                packet.inject_cycle = now
                stats.record_injection(packet)
            if trace is not None:
                if metrics is not None:
                    if ic >= 0:
                        occupancy_move(ic, vc, now, -1)
                    busy_add(oc, now, busy_ticks)
                if sink is not None:
                    pid = packet.pid
                    if ic < 0:
                        kind = "inject"
                        detail = (("src", comp_id), ("dst", packet.dst), ("flits", size))
                    else:
                        kind = "grant"
                        detail = (("in_ch", ic), ("in_vc", vc))
                    sink.emit(TraceEvent(kind, now, now_ticks, pid, oc, ovc, detail))
                    sink.emit(
                        TraceEvent(
                            "depart", now, now_ticks, pid, oc, ovc,
                            (("flits", size), ("busy", busy_ticks), ("end", end_ticks)),
                        )
                    )
                    if ic >= 0 and ovc != vc:
                        # Dateline / dimension-completion VC promotion: the
                        # hop carried the packet onto a higher VC (Section 2.5).
                        sink.emit(
                            TraceEvent(
                                "promote", now, now_ticks, pid, oc, ovc, (("from_vc", vc),)
                            )
                        )
            hop_index = packet.hop_index + 1
            packet.hop_index = hop_index
            hops = packet.route.hops
            packet.next_hop = hops[hop_index] if hop_index < len(hops) else None
            # arrival_cycle(), inlined.
            arrival = (end_ticks - 1) // tpc - 1 + latency[oc]
            if arrival <= now:
                arrival = now + 1
            if arrival - now < wheel_size:
                buckets[arrival & mask].append((_EV_ARRIVAL, packet, oc, None))
                pushed += 1
            else:
                events.push(arrival, now, (_EV_ARRIVAL, packet, oc, None))
            if inflight is not None:
                inflight[packet] = oc
        events.pending += pushed
        self._queued -= injected
        self._in_network += injected
        self._last_progress = now

    # --- fault handling ----------------------------------------------------------
    #
    # Semantics of a link-down event at cycle C: the transfer currently in
    # flight on the channel completes (it is already committed on the
    # wire), but the channel grants nothing from cycle C on. Every packet
    # whose *remaining* route crosses a failed channel is immediately
    # re-dispositioned per the policy: re-routed in place, dropped, or
    # re-injected at its source with backoff. A link-up event only makes
    # the channel available to future route resolutions.

    def _apply_fault(self, channel_id: int, is_down: bool, fault_idx) -> None:
        now = self.cycle
        if fault_idx is None:
            # Pre-canonical checkpoints carry no timeline index: this
            # event uses up the next one, in drain order (the order they
            # were saved).
            self._fault_push_seq += 1
        if is_down:
            self._failed_channels.add(channel_id)
        else:
            self._failed_channels.discard(channel_id)
        self._fault_routes.set_failed(self._failed_channels)
        # Every shard applies every fault (routing state is global), but
        # only the owner of the channel counts it.
        owned = self._fault_owned
        if owned is None or channel_id in owned:
            self.stats.fault_events += 1
        # Applying a fault is progress for watchdog purposes: the drops
        # and re-routes below change the network state.
        self._last_progress = now
        if self.trace is not None:
            self.trace.emit(
                TraceEvent(
                    "fault",
                    now,
                    now * self._ticks_per_cycle,
                    -1,
                    channel_id,
                    0,
                    (("down", int(is_down)),),
                )
            )
        if not is_down:
            # Recovery strands nothing; wake sources so resolutions that
            # can now use the channel are re-attempted promptly.
            for src in self._source_queues:
                self._active[src] = None
            return
        self._sweep_source_queues(now)
        self._sweep_buffers(now)
        self._sweep_inflight(now)

    def _screen_source_packet(self, packet: Packet) -> Optional[Packet]:
        """Resolve a not-yet-injected packet against the failed set.

        Returns the packet (possibly with a re-resolved route) or None if
        it was dropped. Callers own the ``_queued`` accounting.
        """
        blocked = packet.route.first_failed(self._failed_channels)
        if blocked < 0:
            return packet
        now = self.cycle
        mode = self._fault_runtime.policy.mode
        if mode != "drop":
            try:
                packet.route = self._fault_routes.compute(
                    packet.route.src,
                    packet.route.dst,
                    packet.route.choice,
                    packet.traffic_class,
                )
            except Unroutable:
                self.stats.unroutable += 1
            else:
                packet.next_hop = packet.route.hops[0]
                self.stats.rerouted += 1
                if self.trace is not None:
                    self.trace.emit(
                        TraceEvent(
                            "reroute",
                            now,
                            now * self._ticks_per_cycle,
                            packet.pid,
                            blocked,
                            0,
                            (("hops", len(packet.route.hops)),),
                        )
                    )
                return packet
        self._drop(packet, blocked, 0, now)
        return None

    def _drop(self, packet: Packet, where: int, vc: int, now: int) -> None:
        """Account and announce the loss of ``packet`` to a fault at
        channel ``where``; the caller discards it."""
        self.stats.dropped += 1
        if self.trace is not None:
            self.trace.emit(
                TraceEvent(
                    "drop", now, now * self._ticks_per_cycle, packet.pid, where, vc
                )
            )

    def _sweep_source_queues(self, now: int) -> None:
        for src in sorted(self._source_queues):
            queue = self._source_queues[src]
            head = self._source_heads[src]
            survivors = []
            dropped = 0
            for packet in queue[head:]:
                kept = self._screen_source_packet(packet)
                if kept is None:
                    dropped += 1
                else:
                    survivors.append(kept)
            if not dropped and not head:
                continue
            self._queued -= dropped
            if survivors:
                self._source_queues[src] = survivors
                self._source_heads[src] = 0
            else:
                del self._source_queues[src]
                del self._source_heads[src]

    def _sweep_buffers(self, now: int) -> None:
        # A disposal writes no FIFO but its own: list the buffers first.
        failed = self._failed_channels
        for ic, vc, queue in self._buffers():
            kept = []
            for packet in queue:
                if packet.route.first_failed(failed, packet.hop_index) < 0:
                    kept.append(packet)
                elif self._dispose_stranded(packet, ic, vc, now):
                    kept.append(packet)
                else:
                    self._in_network -= 1
                    self._push_event(
                        now + self._latency[ic], _EV_CREDIT, ic, vc, packet.size_flits
                    )
            if len(kept) < len(queue):
                self._link_fifo((ic << self._vc_bits) | vc, kept)
            if kept:
                self._active[self._channel_dst[ic]] = None

    def _dispose_stranded(
        self, packet: Packet, ic: int, vc: int, now: int
    ) -> bool:
        """Disposition a packet whose remaining route is blocked, held in
        (or in flight towards) VC ``vc`` of channel ``ic``.

        Returns True when it was re-routed in place and stays where it
        is, False when the caller must discard it (dropped, or
        re-injected at its source).
        """
        policy = self._fault_runtime.policy
        if policy.mode == "reroute":
            holder = self._channel_dst[ic]
            try:
                tail = self._fault_routes.compute_reroute(
                    holder, packet.route.dst, packet.traffic_class
                )
            except Unroutable:
                self.stats.unroutable += 1
            else:
                self._splice_route(packet, ic, vc, tail)
                self.stats.rerouted += 1
                if self.trace is not None:
                    self.trace.emit(
                        TraceEvent(
                            "reroute",
                            now,
                            now * self._ticks_per_cycle,
                            packet.pid,
                            ic,
                            vc,
                            (("hops", len(packet.route.hops) - 1),),
                        )
                    )
                return True
        elif policy.mode == "retry" and packet.retries < policy.max_retries:
            self._schedule_retry(packet, ic, now)
            return False
        self._drop(packet, ic, vc, now)
        return False

    def _sweep_inflight(self, now: int) -> None:
        # Snapshot (retry dispositions mutate engine state mid-scan) in
        # canonical pid order -- shard-invariant, unlike insertion
        # order. Stable sort keeps push order for duplicate pids (a
        # retried packet's condemned copy and its clone), which only
        # the serial engine can produce.
        items = sorted(self._inflight.items(), key=lambda item: item[0].pid)
        for packet, oc in items:
            if packet.drop_on_arrival:
                continue
            hop_index = packet.hop_index
            if hop_index >= len(packet.route.hops):
                continue  # final delivery hop; endpoint links cannot fail
            if packet.route.first_failed(self._failed_channels, hop_index) < 0:
                continue
            if not self._dispose_stranded(packet, oc, arrival_vc(packet), now):
                packet.drop_on_arrival = True

    def _splice_route(
        self, packet: Packet, holding_channel: int, holding_vc: int, tail: Route
    ) -> None:
        """Replace a packet's remaining route with a freshly resolved tail.

        The packet keeps its identity (pid, source, destination) and its
        current position: the new route's hop 0 is the channel currently
        holding (or delivering) it, so the engine's ``hops[hop_index - 1]``
        buffer-VC lookups stay valid with ``hop_index = 1``.
        """
        old = packet.route
        packet.route = Route(
            src=old.src,
            dst=old.dst,
            choice=old.choice,
            hops=((holding_channel, holding_vc),) + tail.hops,
            internode_hops=tail.internode_hops,
            via=tail.via,
        )
        packet.hop_index = 1
        packet.next_hop = packet.route.hops[1]

    def _schedule_retry(self, packet: Packet, where: int, now: int) -> None:
        """Re-inject a stranded packet at its source with backoff.

        The in-network copy is discarded by the caller; a fresh copy with
        a fault-aware route enters the source queue ``backoff(attempt)``
        cycles from now (or is dropped once retries are exhausted or the
        pair is unroutable).
        """
        policy = self._fault_runtime.policy
        attempt = packet.retries + 1
        release = now + policy.backoff(attempt)
        old = packet.route
        try:
            route = self._fault_routes.compute(
                old.src, old.dst, old.choice, packet.traffic_class
            )
        except Unroutable:
            self.stats.unroutable += 1
            self._drop(packet, where, 0, now)
            return
        queue = self._source_queues.get(old.src)
        if queue and queue[-1].release_cycle > release:
            # Keep the per-source release order invariant.
            release = queue[-1].release_cycle
        clone = Packet(
            packet.pid,
            route,
            size_flits=packet.size_flits,
            pattern=packet.pattern,
            traffic_class=packet.traffic_class,
            release_cycle=release,
        )
        clone.retries = attempt
        self.stats.retried += 1
        if self.trace is not None:
            self.trace.emit(
                TraceEvent(
                    "retry",
                    now,
                    now * self._ticks_per_cycle,
                    packet.pid,
                    where,
                    0,
                    (("attempt", attempt), ("rel", release)),
                )
            )
        self.enqueue(clone)

    # --- state by channel ------------------------------------------------------------

    def _fifo_packets(self, slot: int) -> List[Packet]:
        """The packets buffered at ``slot``, head first."""
        out = []
        packet = self._fifo_head[slot]
        while packet is not None:
            out.append(packet)
            packet = packet.fifo_next
        return out

    def _link_fifo(self, slot: int, queue: List[Packet]) -> None:
        """Make ``queue`` (head first) the FIFO at ``slot``, and its
        channel's occupancy bits say so: the one writer of whole FIFOs."""
        for packet, behind in zip(queue, queue[1:]):
            packet.fifo_next = behind
        if queue:
            queue[-1].fifo_next = None
        self._fifo_head[slot] = queue[0] if queue else None
        self._fifo_tail[slot] = queue[-1] if queue else None
        cid = slot >> self._vc_bits
        occupied = self._vc_occupied[cid] = sum(
            1 << vc for vc, s in enumerate(self._slots[cid]) if self._fifo_head[s]
        )
        dst, bit = self._channel_dst[cid], self._input_bit[cid]
        others = self._input_occupied[dst] & ~bit
        self._input_occupied[dst] = others | bit if occupied else others

    def channel_rows(self, cid: int) -> ChannelRows:
        """Everything this engine holds for channel ``cid``: what a shard
        merge copies from the owner of each side of the channel
        (:func:`~repro.sim.shard.merge_shard_snapshots`)."""
        slots = self._slots[cid]
        sa2, sa1 = self.arbiters, self.vc_arbiters
        return ChannelRows(
            credits=self._credits[slots.start:slots.stop],
            channel_free_at=self._channel_free_at[cid],
            arbiter=sa2.site_state(cid) if sa2.num_inputs[cid] else None,
            queues=[self._fifo_packets(slot) for slot in slots],
            input_free_at=self._input_free_at[cid],
            vc_arbiter=sa1.site_state(cid) if sa1.num_inputs[cid] else None,
        )

    def assign_channel(
        self, cid: int, rows: ChannelRows, src: bool = True, dst: bool = True
    ) -> None:
        """Put ``rows`` back as channel ``cid``'s state: its source side,
        its destination side, or both. The inverse of
        :meth:`channel_rows`, for an engine of the same machine and
        policies; anything else raises ``ValueError``."""
        slots = self._slots[cid]
        if len(rows.credits) != len(slots) or len(rows.queues) != len(slots):
            raise ValueError(
                f"channel {cid} has {len(slots)} VCs, its state "
                f"{len(rows.credits)} credit counts and {len(rows.queues)} "
                f"buffers"
            )
        if src:
            self._credits[slots.start:slots.stop] = rows.credits
            self._channel_free_at[cid] = rows.channel_free_at
            if rows.arbiter is not None:
                self.arbiters.restore_site(cid, rows.arbiter)
        if dst:
            for slot, queue in zip(slots, rows.queues):
                self._link_fifo(slot, queue)
            self._input_free_at[cid] = rows.input_free_at
            if rows.vc_arbiter is not None:
                self.vc_arbiters.restore_site(cid, rows.vc_arbiter)

    def rows(self) -> tuple:
        """This engine's state by channel and by (channel, VC), without the
        slot layout: the credits in (channel, VC) order, the two timers,
        and the non-empty VC buffers as ``(cid, vc, packets head first)``."""
        credits = [self._credits[slot] for vcs in self._slots for slot in vcs]
        return (
            credits, list(self._channel_free_at), list(self._input_free_at),
            self._buffers(),
        )

    def _buffers(self) -> list:
        """The non-empty VC buffers as ``(cid, vc, packets head first)``,
        in (channel, VC) order: what the occupancy masks name."""
        vc_bits = self._vc_bits
        return [
            (cid, vc, self._fifo_packets((cid << vc_bits) | vc))
            for cid, occupied in enumerate(self._vc_occupied) if occupied
            for vc in self._bits[occupied]
        ]

    def assign_rows(self, credits, channel_free_at, input_free_at, buffers) -> None:
        """Put :meth:`rows` back into a new engine of the same machine. A
        row of another length, or a buffer that is empty, out of (channel,
        VC) order or at no VC of this machine, raises ``ValueError``."""
        slots = self._slots
        for name, row, size in (
            ("credits", credits, sum(map(len, slots))),
            ("channel_free_at", channel_free_at, len(slots)),
            ("input_free_at", input_free_at, len(slots)),
        ):
            if len(row) != size:
                raise ValueError(
                    f"the {name} row has {len(row)} entries, this machine's {size}"
                )
        for slot, value in zip(itertools.chain.from_iterable(slots), credits):
            self._credits[slot] = value
        self._channel_free_at[:] = channel_free_at
        self._input_free_at[:] = input_free_at
        last = (0, -1)  # below every (channel, VC)
        for cid, vc, queue in buffers:
            if not (
                last < (cid, vc) and cid < len(slots)
                and 0 <= vc < len(slots[cid]) and queue
            ):
                raise ValueError(
                    f"buffer ({cid}, {vc}) is empty, out of (channel, VC) order "
                    f"or at no VC of this machine"
                )
            last = (cid, vc)
            self._link_fifo(slots[cid][vc], queue)

    # --- introspection (used by tests) ------------------------------------------

    def buffered_packets(self) -> int:
        """Packets currently sitting in network buffers (a recount)."""
        return sum(len(queue) for _cid, _vc, queue in self._buffers())

    def credits_outstanding(self, channel_id: int, vc: int) -> int:
        """Credits currently held (buffer depth minus available credits)."""
        depth = self.machine.channel_buffer_depth[channel_id]
        return depth - self._credits[(channel_id << self._vc_bits) | vc]
