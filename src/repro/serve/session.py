"""One served simulation session: an engine, its streams, its budget.

A :class:`Session` wraps exactly the engine a direct
``run(RunSpec.from_params(workload))`` (:func:`~repro.sim.simulator.run`)
would build -- same decoder, same builder, same arbiter programming, same
seeds -- and advances it in bounded quanta on the server's event loop.
That makes the direct runner the *oracle* for the server: the
conformance tests drive a workload over the wire and byte-compare stats
and checkpoint text against the serial run.

Determinism argument
--------------------

* **Slicing.** ``run_for(q)`` chunks compose bitwise into ``run()``
  (pinned since PR 1 by the split-run property tests), so cooperative
  time-slicing is invisible in the results.
* **Observation.** The session traces through its
  :class:`~repro.sim.metrics.MetricsCollector` alone, which the engine
  feeds directly: an unobserved session builds no
  :class:`~repro.sim.trace.TraceEvent`. Only while a ``trace``
  subscriber exists is the engine's sink ``Tee(collector, buffer)``;
  the last one leaving puts the collector back alone. The checkpoint
  module's trace section records the collector and *ignores* sinks it
  does not recognize, so the :class:`TraceStreamBuffer` leaves
  checkpoint bytes identical either way, and the collector sees the
  same calls whether or not the buffer is attached. The buffer itself
  is a pure observer; metrics pushes use the non-mutating
  :meth:`~repro.sim.metrics.MetricsCollector.snapshot`.
* **Resume.** :meth:`snapshot_text` is a
  :func:`~repro.sim.checkpoint.snapshot_engine` checkpoint; handed back
  to :meth:`create` it is restored, which revives the collector.
  Checkpoint/restore is bitwise resume-equivalent, so a snapshot, close
  and resume cannot change a single byte of the final stats.

Backpressure
------------

Stream frames flow into each subscriber connection's
:class:`OutboundChannel`, which carries two lanes: *control* frames
(hello, replies, the drain sentinel) are never dropped and never
blocked, preserving the protocol's exactly-one-reply-per-request
invariant under any load; *event* frames (trace/metrics pushes) are
bounded, and when the event lane is full the session applies its
configured policy: ``drop-oldest`` discards the oldest queued *event*
frame (counted in ``trace_frames_dropped``) and keeps simulating;
``pause`` awaits event-lane space (counted in ``backpressure_pauses``),
letting one slow consumer throttle its session -- but only its session,
since every other session keeps its own quantum turn on the loop.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
from typing import Deque, List, Optional, Tuple

from repro.core.routing import RouteComputer
from repro.sim.checkpoint import (
    check_stamp,
    restore_engine,
    run_stamp,
    snapshot_engine,
)
from repro.sim.checkpoint import dumps as checkpoint_dumps
from repro.sim.checkpoint import loads as checkpoint_loads
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import RunSpec, build, run_context
from repro.sim.trace import Tee

from .protocol import (
    STREAM_NAMES,
    encode_frame,
    metrics_event_frame,
    trace_event_frame,
)

#: Outbound-queue overflow policies (see the module docstring).
BACKPRESSURE_MODES = ("drop-oldest", "pause")


class SessionError(ValueError):
    """A request is invalid against this session's current state."""


@dataclasses.dataclass(frozen=True)
class SessionConfig:
    """Scheduling and streaming knobs of one session.

    ``quantum_cycles`` bounds how long a session may hold the event loop
    per turn -- one hot session cannot starve the rest. ``max_cycles``
    mirrors the direct runners' budget and turns a wedged workload into
    an error reply instead of an unbounded spin.
    """

    quantum_cycles: int = 256
    backpressure: str = "drop-oldest"
    #: Trace lines per pushed ``trace`` event frame.
    trace_batch: int = 256
    #: Default cadence (cycles) of pushed ``metrics`` frames; 0 disables
    #: unless a subscriber asks for its own cadence.
    metrics_every: int = 0
    #: Window of the per-session MetricsCollector.
    window_cycles: int = 256
    max_cycles: int = 10_000_000

    def __post_init__(self) -> None:
        # A ``create`` request's ``config`` comes from outside the program:
        # a float or a string here would fail much later, inside the engine.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "int" and type(value) is not int:
                raise ValueError(
                    f"{field.name} must be an integer, got {value!r}"
                )
        if self.quantum_cycles < 1:
            raise ValueError("quantum_cycles must be >= 1")
        if self.backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_MODES}, "
                f"got {self.backpressure!r}"
            )
        if self.trace_batch < 1:
            raise ValueError("trace_batch must be >= 1")
        if self.metrics_every < 0 or self.window_cycles < 1:
            raise ValueError("metrics_every must be >= 0, window_cycles >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")


class TraceStreamBuffer:
    """Trace sink that batches canonical event lines for streaming.

    Attached behind a :class:`~repro.sim.trace.Tee` next to the session's
    collector only while a ``trace`` subscriber exists, it buffers
    exactly the single-line JSON a
    :class:`~repro.sim.trace.JsonlTraceWriter` would emit. The checkpoint
    trace section ignores this sink entirely -- see the module docstring.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, event) -> None:
        self.lines.append(event.to_json())

    def flush(self) -> None:
        pass

    def take(self) -> List[str]:
        """Drain and return the buffered lines."""
        lines, self.lines = self.lines, []
        return lines


class OutboundChannel:
    """One connection's outbound frame channel, in two lanes.

    *Control* frames -- the hello, request replies, the drain task's
    ``None`` stop sentinel -- are enqueued with :meth:`put_control`:
    never dropped, never blocked. *Event* frames (trace/metrics pushes)
    are bounded by ``limit`` and subject to the owning session's
    backpressure policy. Keeping the lanes in one FIFO preserves the
    relative order frames were produced in, while guaranteeing overload
    can only ever discard events -- a queued-but-unflushed reply
    survives any drop storm, so the protocol's exactly-one-reply
    invariant holds regardless of streaming load.

    Control-lane depth is intrinsically bounded: the connection loop
    reads one request at a time and enqueues its single reply before
    reading the next, so at most a hello plus one reply (plus the stop
    sentinel) are ever queued.
    """

    def __init__(self, limit: int = 0) -> None:
        if limit < 0:
            raise ValueError("limit must be >= 0 (0 means unbounded)")
        self._limit = limit
        #: FIFO of ``(is_event, frame-bytes-or-None)``.
        self._items: Deque[Tuple[bool, Optional[bytes]]] = (
            collections.deque()
        )
        self._events = 0
        self._ready = asyncio.Event()
        self._space = asyncio.Event()
        self._space.set()

    # --- producer side ---

    def put_control(self, data: Optional[bytes]) -> None:
        """Enqueue a control frame (or the ``None`` stop sentinel)."""
        self._items.append((False, data))
        self._ready.set()

    def events_full(self) -> bool:
        return bool(self._limit) and self._events >= self._limit

    async def put_event(self, data: bytes) -> None:
        """Enqueue an event frame, waiting for event-lane space."""
        while self.events_full():
            self._space.clear()
            await self._space.wait()
        self._items.append((True, data))
        self._events += 1
        self._ready.set()

    def put_event_drop_oldest(self, data: bytes) -> int:
        """Enqueue an event frame, dropping oldest events to make room.

        Returns how many queued event frames were discarded; control
        frames are always skipped.
        """
        dropped = 0
        while self.events_full() and self._drop_oldest_event():
            dropped += 1
        self._items.append((True, data))
        self._events += 1
        self._ready.set()
        return dropped

    def _drop_oldest_event(self) -> bool:
        for i, (is_event, _) in enumerate(self._items):
            if is_event:
                del self._items[i]
                self._events -= 1
                self._space.set()
                return True
        return False  # pragma: no cover - _events counts queued events

    # --- consumer side ---

    def empty(self) -> bool:
        return not self._items

    def get_nowait(self) -> Optional[bytes]:
        if not self._items:
            raise asyncio.QueueEmpty
        return self._pop()

    async def get(self) -> Optional[bytes]:
        while not self._items:
            self._ready.clear()
            await self._ready.wait()
        return self._pop()

    def _pop(self) -> Optional[bytes]:
        is_event, data = self._items.popleft()
        if is_event:
            self._events -= 1
            self._space.set()
        return data


class Subscriber:
    """One connection's attachment to a session's event streams."""

    __slots__ = ("channel", "streams", "metrics_every", "next_metrics_cycle")

    def __init__(
        self,
        channel: OutboundChannel,
        streams,
        metrics_every: int = 0,
    ) -> None:
        unknown = set(streams) - set(STREAM_NAMES)
        if unknown:
            raise SessionError(
                f"unknown streams {sorted(unknown)}; known: {STREAM_NAMES}"
            )
        if metrics_every < 0:
            raise SessionError("metrics_every must be >= 0")
        self.channel = channel
        self.streams = frozenset(streams)
        self.metrics_every = metrics_every
        self.next_metrics_cycle = 0


class Session:
    """A workload-bearing engine plus its serving state."""

    def __init__(
        self,
        session_id: str,
        engine: Engine,
        collector: MetricsCollector,
        buffer: TraceStreamBuffer,
        config: SessionConfig,
        workload: dict,
        routes: RouteComputer,
    ) -> None:
        self.session_id = session_id
        self.engine = engine
        self.machine = engine.machine
        self.collector = collector
        self.buffer = buffer
        self.config = config
        #: The creating workload spec, verbatim.
        self.workload = workload
        #: Route computer used for post-create workload generation
        #: (``submit_demand``); the fault-aware one on faulted sessions.
        self.routes = routes
        self.subscribers: List[Subscriber] = []
        #: True while a step/run quantum loop holds the engine.
        self.busy = False
        # Serving counters, not simulation state: a resumed session
        # starts them at zero.
        self.cycles_run = 0
        self.quanta = 0
        self.trace_events_streamed = 0
        self.trace_frames_dropped = 0
        self.backpressure_pauses = 0
        self.demands_submitted = 0
        self.faults_injected = 0

    # --- construction -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        session_id: str,
        workload: dict,
        config: Optional[SessionConfig] = None,
        checkpoint: Optional[str] = None,
    ) -> "Session":
        """Build a session from a workload spec dict.

        The dict is the parameter form of a run, decoded by
        :meth:`~repro.sim.simulator.RunSpec.from_params` exactly as the
        CLI's flags are (DESIGN.md section 17 has the key table). Kind
        ``idle`` -- the default -- builds an empty engine for later
        ``submit_demand`` requests; a ``faults``/``policy`` pair attaches
        a fault runtime (``policy`` alone, an empty set that only enables
        live ``inject_fault``). Machine, loads and ``iw`` tables are the
        simulator's memo's; the route computer is the session's own.

        ``checkpoint``, the text of a :meth:`snapshot_text` of a session
        of the same workload, resumes that session instead: it must be a
        checkpoint of the workload's machine, stamped by its run or by
        none, or it is refused as :func:`~repro.sim.simulator.start`
        refuses a file.
        """
        config = config or SessionConfig()
        if not isinstance(workload, dict):
            raise SessionError("workload must be a JSON object")
        if checkpoint is not None and not isinstance(checkpoint, str):
            raise SessionError("checkpoint must be the text of a snapshot")
        try:
            run = RunSpec.from_params(workload)
            # The fault-aware computer of a faulted session also resolves
            # the routes of later workload generation (``submit_demand``).
            machine, routes, faults = run_context(run)
        except ValueError as exc:
            raise SessionError(str(exc))

        collector = MetricsCollector(window_cycles=config.window_cycles)
        if checkpoint is not None:
            data = checkpoint_loads(checkpoint)
            check_stamp(data, run_stamp(run))
            # The restore revives the collector from what the snapshot
            # captured of it.
            engine = restore_engine(data, machine=machine, trace=collector)
            # A faulted engine re-routes through its restored runtime's
            # computer; a healthy one through the session's fresh one.
            routes = engine._fault_routes or routes
        elif run.spec is not None:
            engine = build(run, machine, routes, faults, trace=collector)
        elif run.arbitration != "rr":
            raise SessionError(
                "idle sessions use rr arbitration; create a demand or "
                "batch session for age/iw programming"
            )
        else:
            engine = Engine(machine, trace=collector, faults=faults)
        return cls(
            session_id, engine, collector, TraceStreamBuffer(), config,
            workload, routes,
        )

    # --- advancing --------------------------------------------------------------

    @property
    def drained(self) -> bool:
        return self.engine.drained

    def _require_idle(self, what: str) -> None:
        if self.busy:
            raise SessionError(
                f"session {self.session_id!r} is busy; {what} needs an idle "
                "session (stats is valid mid-run)"
            )

    async def advance(self, cycles: Optional[int] = None) -> dict:
        """Advance until drained, or by at most ``cycles``.

        Runs the engine in ``quantum_cycles`` slices, publishing stream
        frames and yielding the event loop between slices. ``None``
        means run-to-drain (the ``run`` request); an integer bounds the
        advance (the ``step`` request -- a no-op on a drained session,
        mirroring ``run_for``).
        """
        self._require_idle("step/run")
        self.busy = True
        engine = self.engine
        start_cycle = engine.cycle
        delivered_before = engine.stats.delivered
        remaining = cycles
        try:
            while not engine.drained:
                if remaining is not None and remaining <= 0:
                    break
                if engine.cycle >= self.config.max_cycles:
                    raise SessionError(
                        f"session exceeded max_cycles="
                        f"{self.config.max_cycles} with traffic outstanding"
                    )
                quantum = self.config.quantum_cycles
                if remaining is not None:
                    quantum = min(quantum, remaining)
                quantum = min(quantum, self.config.max_cycles - engine.cycle)
                before = engine.cycle
                engine.run_for(quantum)
                self.quanta += 1
                advanced = engine.cycle - before
                self.cycles_run += advanced
                if remaining is not None:
                    # ``run_for`` can return early on drain; charge at
                    # least one cycle so a stuck budget still terminates.
                    remaining -= max(advanced, 1)
                await self._publish()
                await asyncio.sleep(0)
        finally:
            self.busy = False
        return {
            "session": self.session_id,
            "cycle": engine.cycle,
            "advanced": engine.cycle - start_cycle,
            "delivered": engine.stats.delivered - delivered_before,
            "drained": engine.drained,
        }

    # --- streams ----------------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> None:
        self.subscribers.append(subscriber)
        if "trace" in subscriber.streams:
            self.engine.trace = Tee(self.collector, self.buffer)
        # First metrics frame fires at the first publish past this point.
        subscriber.next_metrics_cycle = self.engine.cycle

    def unsubscribe_channel(self, channel: OutboundChannel) -> None:
        """Detach every subscription feeding ``channel`` (connection drop)."""
        self.subscribers = [
            s for s in self.subscribers if s.channel is not channel
        ]
        if not any("trace" in s.streams for s in self.subscribers):
            self.engine.trace = self.collector
            self.buffer.take()

    async def _publish(self) -> None:
        """Push buffered trace lines and due metrics frames."""
        lines = self.buffer.take()
        if lines:
            trace_subs = [
                s for s in self.subscribers if "trace" in s.streams
            ]
            batch_size = self.config.trace_batch
            for i in range(0, len(lines), batch_size):
                data = encode_frame(
                    trace_event_frame(
                        self.session_id, lines[i : i + batch_size]
                    )
                )
                for sub in trace_subs:
                    await self._offer(sub, data)
            self.trace_events_streamed += len(lines)
        cycle = self.engine.cycle
        data = None
        for sub in self.subscribers:
            if "metrics" not in sub.streams:
                continue
            every = sub.metrics_every or self.config.metrics_every
            if not every or cycle < sub.next_metrics_cycle:
                continue
            if data is None:
                data = encode_frame(
                    metrics_event_frame(
                        self.session_id, cycle, self.collector.snapshot()
                    )
                )
            await self._offer(sub, data)
            sub.next_metrics_cycle = cycle + every

    async def _offer(self, sub: Subscriber, data: bytes) -> None:
        """Enqueue one event frame under the session's backpressure policy.

        Both policies act on the channel's event lane only -- control
        frames (replies, hello) are never dropped or displaced.
        """
        channel = sub.channel
        if self.config.backpressure == "pause":
            if channel.events_full():
                self.backpressure_pauses += 1
            await channel.put_event(data)
            return
        self.trace_frames_dropped += channel.put_event_drop_oldest(data)

    # --- requests against a quiescent engine ------------------------------------

    def submit_demand(self, demand_cfg: dict) -> dict:
        """Generate a demand workload and enqueue it at the current cycle.

        Uses the same generator as a demand run (so a submission into a
        fresh session is oracle-identical), with every packet's timing
        shifted by the session's current cycle. Seed and cores default to
        the session's workload-level values -- the same defaults
        :meth:`create` decodes the ``demand`` sub-dict under -- so the same
        ``demand`` dict denotes the same traffic on both surfaces; a
        ``cores`` key in ``demand_cfg`` overrides per submission. Packet
        ids restart at 0 per submission -- the engine tracks packets by
        identity (pids are already reused by fault retries), so only
        trace readers see it.
        """
        self._require_idle("submit_demand")
        from repro.sim.simulator import _field
        from repro.traffic.demand import DemandSpec, generate_demand

        demand_cfg = demand_cfg or {}
        workload = self.workload if isinstance(self.workload, dict) else {}
        try:
            spec = DemandSpec.from_params(
                demand_cfg,
                self.machine.config.shape,
                _field(demand_cfg, "cores", workload.get("cores", 2)),
                workload.get("seed", 0),
                self.machine,
                self.routes,
            )
        except ValueError as exc:
            raise SessionError(str(exc))
        offset = self.engine.cycle
        packets = generate_demand(self.machine, self.routes, spec)
        for packet in packets:
            if offset:
                packet.release_cycle += offset
                packet.inject_cycle += offset
                packet.ready_cycle += offset
            self.engine.enqueue(packet)
        self.demands_submitted += 1
        return {
            "session": self.session_id,
            "enqueued": len(packets),
            "at_cycle": offset,
        }

    def inject_faults(self, faults_obj: dict) -> dict:
        """Schedule future link faults (requires a faulted session)."""
        self._require_idle("inject_fault")
        from repro.faults import FaultSet

        fault_set = FaultSet.from_dict(faults_obj)
        scheduled = self.engine.schedule_faults(fault_set)
        self.faults_injected += scheduled
        return {
            "session": self.session_id,
            "scheduled": scheduled,
            "at_cycle": self.engine.cycle,
        }

    # --- observation ------------------------------------------------------------

    def counters(self) -> dict:
        return {
            "cycles_run": self.cycles_run,
            "quanta": self.quanta,
            "trace_events_streamed": self.trace_events_streamed,
            "trace_frames_dropped": self.trace_frames_dropped,
            "backpressure_pauses": self.backpressure_pauses,
            "demands_submitted": self.demands_submitted,
            "faults_injected": self.faults_injected,
        }

    def stats_payload(self) -> dict:
        """The ``stats`` reply: engine stats + metrics + serving counters.

        Valid mid-run (every reducer read here is non-mutating), and
        canonical: dict insertion order follows delivery order, so equal
        histories serialize to equal bytes.
        """
        return {
            "session": self.session_id,
            "cycle": self.engine.cycle,
            "busy": self.busy,
            "drained": self.drained,
            "stats": self.engine.stats.asdict(),
            "metrics": self.collector.snapshot(),
            "counters": self.counters(),
        }

    def snapshot_text(self) -> str:
        """Canonical engine-checkpoint text (the ``snapshot`` reply)."""
        self._require_idle("snapshot")
        return checkpoint_dumps(snapshot_engine(self.engine))
