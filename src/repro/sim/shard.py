"""Sharded torus engine: conservative-lookahead spatial decomposition.

The cycle-level engine is sequential; an interactive 8x8x8 run is bound
by one core. This module partitions the torus into contiguous sub-boxes
(1/2/4/8 shards, split along the largest dimensions), runs one
:class:`~repro.sim.engine.Engine` per shard, and synchronizes them with
a conservative-lookahead barrier -- classic conservative parallel
discrete-event simulation, exact rather than approximate:

* **Partitioning.** Chips map to shards by contiguous per-dimension
  slabs (:func:`partition_parts`); every component on a chip belongs to
  the chip's shard. Only torus channels can cross a shard boundary --
  mesh and E-group channels connect components of a single chip.

* **Lookahead.** A packet granted onto a cross-shard channel at cycle
  ``g`` arrives at the remote buffer no earlier than
  ``g + lat - 1 + (occ - 1) // tpc`` cycles (wire latency plus the
  serialization already accrued by the grant), and its credit returns
  to the sender at exactly ``g + lat``. With

      ``L = min over cross-shard channels of min(lat, lat - 1 + (occ - 1) // tpc)``

  every event a shard generates for a peer during the window
  ``[B, B + L)`` lands at cycle ``>= B + L``: shards may run the window
  independently and exchange at the barrier without ever producing an
  event in a peer's past. On the default machine (torus latency 12
  cycles, 45 occupancy ticks at 14 ticks/cycle) ``L = 12``.

* **Exchange.** A shard's engine does not know it is one: a grant onto
  a channel into another shard pushes its arrival onto its own wheel,
  and a credit for a channel fed from another shard goes there too, as
  in a serial run. At each barrier the shard takes off its wheel every
  event another shard owns (:func:`event_owner`, the one rule of who
  owns what) -- the lookahead keeps each one due at or after the
  barrier, so it is still there -- grouped by owner; the owner puts it
  on its own wheel where the sender's held it, bucket for bucket,
  overflow heap for overflow heap. An arrival travels with its packet as
  a checkpoint packet row (:data:`~repro.sim.checkpoint.PACKET_ROW`),
  written and read by the checkpoint's codec: hop-less when the
  machine's route memo rebuilds the route, and checked on read.

* **Exactness.** A sharded run starts as the serial one does:
  :func:`~repro.sim.simulator.start` makes the serial engine -- every
  packet in its source queue (the serial pids and RNG draws), or restored
  from the checkpoint an interrupted run left -- and each shard *keeps*
  of that engine what it owns (:func:`_keep_owned`). The engine's
  canonical within-cycle event order makes the merged state a pure
  function of simulation state. Stats and checkpoint bytes are therefore
  bit-identical to the serial engine for every shard count -- the
  differential harness, ``tests/integration/test_differential.py``, pins
  this. A sharded run takes no trace sink
  (:func:`~repro.sim.simulator.start` refuses one by name): the serial
  run writes the same trace, faster than workers could ship theirs to
  the hub.

* **One engine.** What ``start`` hands back is a :class:`ShardedEngine`:
  the serial engine's driving surface (``cycle``, ``drained``,
  ``run_for``, ``run``, ``stats``, ``snapshot``, ``close``) over the
  barrier loop. The one loop that drives any engine
  (:func:`~repro.sim.simulator.run`) drives it too, so how a run
  is capped, saved, killed and cleaned up is written once and holds at
  every shard count; this module knows nothing of checkpoint files. Its
  :meth:`~ShardedEngine.snapshot` *merges* the shards' snapshots into the
  serial engine's at that cycle, byte for byte
  (:func:`merge_shard_snapshots`) -- the inverse of the cut every shard
  starts with. So a killed run resumes under any shard count, serial
  included.

Each shard runs in its own ``multiprocessing`` process, driven over a
pipe; a forked worker inherits the hub's engine, a spawned one restores
it from one snapshot.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import time
import traceback
from typing import List, Optional, Sequence, Tuple

from repro.core.machine import Machine

from .checkpoint import (
    CheckpointError,
    _checkpoint_codec,
    restore_engine,
    snapshot_engine,
)
from .engine import _EV_ARRIVAL, _EV_CREDIT, _EV_WAKE, DeadlockError, Engine
from .metrics import StreamingQuantile
from .simulator import RunSpec, reject_unshardable
from .simulator import run as run_sharded  # noqa: F401  (re-exported)
from .stats import SimStats

#: A sharded run is described, and run, like any other -- ``run(run, 1)``
#: *is* the serial path. Callers import it under these names.
ShardedRun = RunSpec

ALLOWED_SHARD_COUNTS = (1, 2, 4, 8)

#: Watchdog applied to shard engines while they run lookahead windows:
#: progress is global, so a shard that is legitimately idle (its traffic
#: drained, a neighbor's still coming) must not trip the per-engine
#: watchdog. The hub enforces the true watchdog across all shards.
_HUGE_WATCHDOG = 1 << 60


# --- partitioning -----------------------------------------------------------------


def partition_parts(shape: Sequence[int], shards: int) -> Tuple[int, int, int]:
    """Split ``shape`` into ``shards`` contiguous sub-boxes.

    Repeatedly halves the dimension with the largest remaining
    per-shard extent (ties to the lowest dimension index), so an 8x8x8
    torus becomes 4x8x8 / 4x4x8 / 4x4x4 slabs at 2 / 4 / 8 shards.
    Every halving requires the extent to be even -- an odd split would
    make shard membership depend on rounding, not geometry.
    """
    if shards not in ALLOWED_SHARD_COUNTS:
        raise ValueError(
            f"shard count must be one of {ALLOWED_SHARD_COUNTS}, got {shards}"
        )
    parts = [1, 1, 1]
    remaining = shards
    while remaining > 1:
        dim = max(range(3), key=lambda d: (shape[d] // parts[d], -d))
        extent = shape[dim] // parts[dim]
        if extent % 2:
            raise ValueError(
                f"cannot split shape {tuple(shape)} into {shards} shards: "
                f"dimension {dim} extent {extent} is not even"
            )
        parts[dim] *= 2
        remaining //= 2
    return tuple(parts)


def component_owners(machine: Machine, parts: Sequence[int]) -> List[int]:
    """Owning shard index per component id (chip slab membership)."""
    shape = machine.config.shape

    def owner(chip) -> int:
        ix = chip[0] * parts[0] // shape[0]
        iy = chip[1] * parts[1] // shape[1]
        iz = chip[2] * parts[2] // shape[2]
        return (ix * parts[1] + iy) * parts[2] + iz

    return [owner(comp.chip) for comp in machine.components]


def event_owner(
    payload: tuple, owners: Sequence[int], machine: Machine
) -> Optional[int]:
    """The shard that processes a wheel event: an arrival the owner of
    its channel's destination, a credit return the owner of its channel's
    source, a source wake the owner of the component. ``None`` for a
    fault transition, which every shard applies. The one statement of
    which shard an event belongs to: the cut (:func:`_keep_owned`), the
    barrier and the merge all ask it."""
    kind, a, b, _ = payload
    if kind == _EV_ARRIVAL:
        return owners[machine.channel_dst[b]]
    if kind == _EV_CREDIT:
        return owners[machine.channel_src[a]]
    if kind == _EV_WAKE:
        return owners[a]
    return None


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A validated decomposition: slab geometry plus the safe lookahead."""

    parts: Tuple[int, int, int]
    shards: int
    lookahead: int

    @classmethod
    def for_machine(cls, machine: Machine, shards: int) -> "ShardPlan":
        reject_unshardable(machine.config)
        parts = partition_parts(machine.config.shape, shards)
        owners = component_owners(machine, parts)
        tpc = machine.ticks_per_cycle
        # Each cross-shard channel bounds the window: a grant at cycle g
        # ends serialization no earlier than tick g * tpc + occ, so its
        # arrival lands at least lat - 1 + (occ - 1) // tpc cycles later,
        # and the credit it frees returns exactly lat cycles later.
        bounds = [
            min(lat, lat - 1 + (occ - 1) // tpc)
            for src, dst, lat, occ in zip(
                machine.channel_src,
                machine.channel_dst,
                machine.channel_latency,
                machine.channel_occupancy_ticks,
            )
            if owners[src] != owners[dst]
        ]
        if shards > 1 and not bounds:
            raise ValueError(
                f"partition {parts} of shape {machine.config.shape} produced "
                f"no cross-shard channels"
            )
        lookahead = min(bounds, default=1)
        if lookahead < 1:
            raise ValueError(
                "cross-shard channel latency too small for a conservative "
                f"lookahead window (computed {lookahead} cycles)"
            )
        return cls(parts=parts, shards=shards, lookahead=lookahead)


# --- shard worker -----------------------------------------------------------------


class _ShardCore:
    """One shard's engine plus the barrier-protocol message handlers
    (:func:`_dispatch`), which its worker process drives over a pipe."""

    def __init__(self, init: dict) -> None:
        self.index: int = init["shard"]
        plan: ShardPlan = init["plan"]
        # The whole machine's engine -- the hub's own, inherited across
        # fork, else restored (machine and all) from the hub's snapshot
        # of it -- cut down to this shard's part of it. A resumed worker
        # and a fresh one differ in nothing else.
        engine = init["engine"] or restore_engine(init["snapshot"])
        machine = engine.machine
        self.shards = plan.shards
        self.owners = owners = component_owners(machine, plan.parts)
        _keep_owned(engine, owners, self.index)
        faulted = engine._fault_runtime is not None
        if faulted:
            engine._fault_owned = frozenset(
                cid for cid, src in enumerate(machine.channel_src)
                if owners[src] == self.index
            )
        #: The run's watchdog; the hub enforces it across all shards.
        self.true_watchdog = engine.watchdog_cycles
        engine.watchdog_cycles = _HUGE_WATCHDOG
        self._codec = _checkpoint_codec(machine, faulted)
        self.engine = engine

    def _report(self) -> dict:
        engine = self.engine
        return {
            "drained": engine.drained,
            "queued": engine._queued,
            "in_network": engine._in_network,
            "last_progress": engine._last_progress,
            "end_cycle": engine.stats.end_cycle,
        }

    def feed(self, transfers: list) -> tuple:
        """Put the events the barrier owes this shard on its wheel
        (:func:`_place`). An arrival's packet row is read, and checked,
        by the checkpoint's codec; the packet joins this shard's
        in-network count and the in-flight table its fault sweeps walk."""
        engine = self.engine
        events = []
        for cycle, heap, (kind, a, b, c) in transfers:
            if kind == _EV_ARRIVAL:
                a = self._codec.packet(a)
                engine._in_network += 1
                if engine._inflight is not None:
                    engine._inflight[a] = b
            events.append((cycle, heap, (kind, a, b, c)))
        _place(engine._events, events)
        return ("fed", self._report())

    def run_window(self, w_end: int) -> tuple:
        """Advance to the barrier at ``w_end`` and hand over, grouped by
        owner, the events on the wheel that other shards own."""
        engine = self.engine
        if not engine.drained:
            engine.run_for(w_end - engine.cycle)
        # A shard that drained mid-window still observes the barrier: a
        # checkpoint taken here must place every shard at the same cycle.
        # (run_for already left stats.end_cycle at the shard's drain
        # cycle -- at the barrier if its wheel still held events for
        # others, whose owners then run past it, so the hub's maximum is
        # the serial drain cycle; forcing the clock does not disturb it.)
        engine.cycle = w_end
        # A transfer is ``(cycle, heap, payload)``: ``heap`` says it left
        # the overflow heap, and an arrival's packet rides as its row.
        outgoing: List[list] = [[] for _ in range(self.shards)]
        inflight = engine._inflight
        for owner, cycle, heap, payload in _take_foreign(
            engine, self.owners, self.index
        ):
            kind, a, b, c = payload
            if kind == _EV_ARRIVAL:
                # The packet now belongs to its owner, which counts it.
                engine._in_network -= 1
                if inflight is not None:
                    inflight.pop(a, None)
                payload = (kind, self._codec.row(a), b, c)
            outgoing[owner].append((cycle, heap, payload))
        return ("ok", outgoing)

    def snapshot(self) -> tuple:
        """Serial-format snapshot of this shard's engine at the barrier."""
        data = snapshot_engine(self.engine)
        data["watchdog_cycles"] = self.true_watchdog
        return ("snap", data)

    def stats(self) -> tuple:
        return ("stats", self.engine.stats)


def _dispatch(core: _ShardCore, msg: tuple) -> tuple:
    kind = msg[0]
    if kind == "feed":
        return core.feed(msg[1])
    if kind == "run":
        return core.run_window(msg[1])
    if kind == "snapshot":
        return core.snapshot()
    if kind == "stats":
        return core.stats()
    raise ValueError(f"unknown shard message {kind!r}")


def _shard_worker_main(conn, init: dict) -> None:
    """A worker's loop: start its core, then answer barrier messages
    until ``stop``."""
    try:
        core = _ShardCore(init)
        conn.send(("ready",))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                return
            conn.send(_dispatch(core, msg))
    except EOFError:
        return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _ProcessWorker:
    """One shard in its own process, driven over a ``multiprocessing`` pipe.

    ``init`` rides the process start: a forked worker inherits it (the
    hub's started engine, no copy); a spawned one gets it pickled, with
    the engine's snapshot in its place.
    """

    def __init__(self, init: dict) -> None:
        ctx = multiprocessing.get_context()
        self._index: int = init["shard"]
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker_main, args=(child_conn, init), daemon=True
        )
        self._proc.start()
        child_conn.close()

    def send(self, msg: tuple) -> None:
        try:
            self._conn.send(msg)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the worker is gone; recv_reply reports it

    def recv_reply(self) -> tuple:
        try:
            reply = self._conn.recv()
        except (EOFError, ConnectionResetError):
            self._proc.join(timeout=10)
            raise RuntimeError(
                f"shard worker {self._index} exited unexpectedly "
                f"(exit code {self._proc.exitcode})"
            ) from None
        if reply[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{reply[1]}")
        return reply

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join()


# --- checkpoint merge and split -----------------------------------------------------
#
# Who owns what, stated once for the cut, the barrier and the merge. A
# channel's *source* state (staging timer, credit view, SA2 arbiter)
# belongs to the shard owning the channel's source component; its
# *destination* state (VC buffers, input timer, SA1 arbiter) to the shard
# owning its destination; a source queue and an ``_active`` entry to the
# owner of the component; a wheel event to :func:`event_owner` (an
# arrival's ``_inflight`` entry goes with it), except fault transitions,
# which every shard applies in full. Accumulated stats are additive
# (:meth:`SimStats.merge`), so they may sit with any one shard.


def _take_foreign(engine: Engine, owners: Sequence[int], shard: int) -> list:
    """Take off ``engine``'s wheel, between cycles, every event another
    shard owns (:func:`event_owner`), as ``(owner, cycle, heap,
    payload)``: the buckets' events in cycle order and push order within
    a bucket, then the overflow heap's (``heap`` true) in (cycle, seq)
    order -- the order each producer pushed them. A bucket's index names
    its cycle: between cycles every bucket event lies in ``[now, now +
    size)``. The heap is filtered, then heapified again: mid-run it is a
    heap, not a sorted list."""
    wheel = engine._events
    machine = engine.machine
    now, mask = engine.cycle, wheel.mask
    mine = (None, shard)
    taken = []
    for index, bucket in enumerate(wheel.buckets):
        if not bucket:
            continue
        kept = []
        for payload in bucket:
            owner = event_owner(payload, owners, machine)
            if owner in mine:
                kept.append(payload)
            else:
                taken.append((owner, now + ((index - now) & mask), False, payload))
        if len(kept) < len(bucket):
            wheel.buckets[index] = kept
    overflow = [
        (item, event_owner(item[2], owners, machine)) for item in wheel.overflow
    ]
    foreign = sorted(pair for pair in overflow if pair[1] not in mine)
    if foreign:
        wheel.overflow = [item for item, owner in overflow if owner in mine]
        heapq.heapify(wheel.overflow)
        taken += [
            (owner, cycle, True, payload) for (cycle, _, payload), owner in foreign
        ]
    wheel.pending -= len(taken)
    return taken


def _place(wheel, events: list) -> None:
    """Put ``(cycle, heap, payload)`` events taken off another shard's
    wheel (:func:`_take_foreign`) where that wheel held them -- a bucket
    event in the bucket of its cycle, an overflow event on the heap --
    which is where the serial engine holds them: the sender pushed each
    at the serial cycle, by the serial rule."""
    for cycle, heap, payload in events:
        if heap:
            wheel.seq += 1
            heapq.heappush(wheel.overflow, (cycle, wheel.seq, payload))
        else:
            wheel.buckets[cycle & wheel.mask].append(payload)
    wheel.pending += len(events)


def merge_shard_snapshots(
    plan: ShardPlan, machine: Machine, snaps: List[dict]
) -> dict:
    """Merge per-shard barrier snapshots into one serial-format snapshot.

    Restores every shard into a live engine and copies each piece of
    state into shard 0's engine from its owner (the rule above). Foreign
    wheel events join the base wheel where the serial engine holds them
    -- bucket to bucket, overflow heap to overflow heap; push order is
    otherwise irrelevant because checkpoint serialization orders every
    cycle canonically. The result is byte-identical (via
    :func:`~repro.sim.checkpoint.dumps`) to the snapshot the untraced
    serial engine would write at the same cycle.
    """
    cycle = snaps[0]["cycle"]
    engines = [restore_engine(snap, machine=machine) for snap in snaps]
    base = engines[0]
    owners = component_owners(machine, plan.parts)
    for shard in range(1, len(engines)):
        eng = engines[shard]
        if eng.cycle != cycle:
            raise CheckpointError(
                f"shard {shard} snapshot is at cycle {eng.cycle}, "
                f"expected barrier cycle {cycle}"
            )
        base._source_queues.update(eng._source_queues)
        base._source_heads.update(eng._source_heads)
        for cid, (src, dst) in enumerate(
            zip(machine.channel_src, machine.channel_dst)
        ):
            src, dst = owners[src] == shard, owners[dst] == shard
            if src or dst:
                base.assign_channel(cid, eng.channel_rows(cid), src, dst)
        # Every wheel event but the faults, which the base holds too.
        _place(base._events, [t[1:] for t in _take_foreign(eng, owners, 0)])
        for comp in eng._active:
            base._active[comp] = None
        base._queued += eng._queued
        base._in_network += eng._in_network
        base._last_progress = max(base._last_progress, eng._last_progress)
        if base._inflight is not None:
            base._inflight.update(eng._inflight)
        base.stats.merge(eng.stats)
    if base.drained:
        # The serial engine's clock stopped at the drain cycle.
        base.cycle = base.stats.end_cycle
    else:
        # Mid-run, it sits exactly at the barrier.
        base.stats.end_cycle = cycle
    return snapshot_engine(base)


def _keep_owned(engine: Engine, owners: Sequence[int], shard: int) -> None:
    """Cut a whole-machine engine between cycles -- just built, or just
    restored -- down to what ``shard`` owns: the inverse of
    :func:`merge_shard_snapshots` under the rule above.

    Only state the engine *walks* has to go -- the fault sweeps visit
    every source queue, buffer and in-flight entry -- and the two packet
    counters are recounted from what stays. Foreign timers, credits and
    arbiters stay as restored: nothing reads them here, and the merge
    takes each from its owner. Shard 0 keeps the accumulated stats
    (what enqueueing on a degraded machine counted included); the others
    start empty, with a fresh latency estimator when the run carries one
    (merging estimators is order-independent).
    """
    channel_dst = engine.machine.channel_dst
    # (A build and a restore both leave every source queue's head at 0.)
    for src in [s for s in engine._source_queues if owners[s] != shard]:
        del engine._source_queues[src], engine._source_heads[src]
    for cid, dst in enumerate(channel_dst):
        if owners[dst] != shard and engine._vc_occupied[cid]:
            rows = engine.channel_rows(cid)
            emptied = rows._replace(queues=[[] for _ in rows.queues])
            engine.assign_channel(cid, emptied, src=False)
    # Every other shard keeps its own copy of what leaves here.
    _take_foreign(engine, owners, shard)
    wheel = engine._events
    events = [p for bucket in wheel.buckets for p in bucket]
    events += [item[2] for item in wheel.overflow]
    engine._active = {c: None for c in engine._active if owners[c] == shard}
    if engine._inflight is not None:
        engine._inflight = {
            packet: oc for packet, oc in engine._inflight.items()
            if owners[channel_dst[oc]] == shard
        }
    engine._queued = sum(len(queue) for queue in engine._source_queues.values())
    engine._in_network = engine.buffered_packets() + sum(
        1 for payload in events if payload[0] == _EV_ARRIVAL
    )
    if shard:
        stats = SimStats(ticks_per_cycle=engine.stats.ticks_per_cycle)
        if engine.stats.latency_estimator is not None:
            stats.latency_estimator = StreamingQuantile()
        engine.stats = stats
        engine._stat_channel_flits = stats.channel_flits
        engine._stat_channel_busy = stats.channel_busy_ticks


# --- the sharded engine --------------------------------------------------------------


class ShardedEngine:
    """The whole machine's engine, run as one engine per shard.

    What :func:`~repro.sim.simulator.start` returns for ``shards > 1``:
    the serial engine's driving surface -- ``cycle``, ``drained``,
    :meth:`run_for`, :meth:`run`, ``stats``, a serial-format
    :meth:`snapshot`, :meth:`close` -- over barrier-synchronized workers.
    It keeps who owns what and the window; budgets, saves, kills and
    files belong to whoever drives it, as they do for any engine.
    Its ``trace`` is ``None``: a sharded run takes no sink.

    ``whole`` starts the whole-machine engine on ``machine``, untraced;
    each worker keeps its shard of that engine.
    ``timings`` is a caller's dict filled with wall-clock phases:
    ``setup_s`` = ``generate_s`` (``whole()``: the checkpoint restored,
    or the workload generated and the engine built) + ``spawn_s`` (first
    worker start through the last ``ready``: each cutting the engine
    down), then ``windows_s`` (``ready`` through the latest merged
    ``stats``).
    """

    trace = None

    def __init__(
        self,
        machine: Machine,
        whole,
        shards: int,
        timings: Optional[dict] = None,
    ) -> None:
        self.machine = machine
        self.plan = ShardPlan.for_machine(machine, shards)
        self._workers: list = []
        self._timings = timings
        try:
            self._start_workers(whole)
        except BaseException:
            self.close()
            raise

    def _start_workers(self, whole) -> None:
        """Start the run, then one worker per shard on its engine (see
        :class:`_ShardCore`). The engine dies with this frame: the hub
        keeps no packet."""
        t_start = time.perf_counter()
        engine = whole()
        # Untraced, even resumed from a traced run's checkpoint (whose
        # collector the restore revives): the merged snapshot is the
        # untraced serial engine's.
        engine.trace = None
        #: The barrier the run is at; once drained, its drain cycle.
        self.cycle = engine.cycle
        self._watchdog = engine.watchdog_cycles
        t_spawn = time.perf_counter()
        # A spawned worker shares nothing: it restores its own engine
        # from one snapshot of the hub's.
        inherited = multiprocessing.get_start_method() == "fork"
        snapshot = None if inherited else snapshot_engine(engine)
        for shard in range(self.plan.shards):
            self._workers.append(_ProcessWorker({
                "shard": shard,
                "plan": self.plan,
                "engine": engine if inherited else None,
                "snapshot": snapshot,
            }))
        for worker in self._workers:
            worker.recv_reply()
        self._t_ready = time.perf_counter()
        if self._timings is not None:
            self._timings.update(
                generate_s=t_spawn - t_start,
                spawn_s=self._t_ready - t_spawn,
                setup_s=self._t_ready - t_start,
            )
        self._feed([[] for _ in self._workers])

    def _exchange(self, messages: List[tuple]) -> List[tuple]:
        for worker, msg in zip(self._workers, messages):
            worker.send(msg)
        return [worker.recv_reply() for worker in self._workers]

    def _feed(self, pending: List[list]) -> None:
        """Hand every shard what the barrier at ``cycle`` owes it, and
        take stock: drained or not, and the run's watchdog, which only
        the hub can apply -- progress is global."""
        replies = self._exchange([("feed", transfers) for transfers in pending])
        self._reports = reports = [reply[1] for reply in replies]
        if self.drained:
            # The clock stops where the serial engine's does.
            self.cycle = max(report["end_cycle"] for report in reports)
            return
        in_network = sum(report["in_network"] for report in reports)
        progress = max(report["last_progress"] for report in reports)
        if in_network and self.cycle - progress > self._watchdog:
            raise DeadlockError(
                f"no progress for {self._watchdog} cycles at cycle "
                f"{self.cycle}; {in_network} packets stuck in the network"
            )

    def _window(self, w_end: int) -> None:
        """Run every shard to the barrier at ``w_end`` and exchange."""
        pending: List[list] = [[] for _ in self._workers]
        for _, outgoing in self._exchange([("run", w_end)] * len(self._workers)):
            for transfers, incoming in zip(pending, outgoing):
                transfers += incoming
        self.cycle = w_end
        self._feed(pending)

    @property
    def drained(self) -> bool:
        return all(report["drained"] for report in self._reports)

    def run_for(self, cycles: int) -> SimStats:
        """:meth:`Engine.run_for`: lookahead windows, the last clipped to
        ``cycle + cycles``; returns early, at the drain cycle, if all
        traffic drains first."""
        target = self.cycle + cycles
        while not self.drained and self.cycle < target:
            self._window(min(self.cycle + self.plan.lookahead, target))
        return self.stats

    def run(self, max_cycles: int = 10_000_000) -> SimStats:
        """:meth:`Engine.run`: to the drain, or raise at ``max_cycles``."""
        stats = self.run_for(max_cycles - self.cycle)
        if not self.drained:
            outstanding = sum(
                report["queued"] + report["in_network"]
                for report in self._reports
            )
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles with "
                f"{outstanding} packets outstanding"
            )
        return stats

    @property
    def stats(self) -> SimStats:
        """The shards' stats merged, as of ``cycle``: a new object each
        time, so a caller's edits never reach a shard's."""
        merged = SimStats(ticks_per_cycle=self.machine.ticks_per_cycle)
        for reply in self._exchange([("stats",)] * len(self._workers)):
            merged.merge(reply[1])
        merged.end_cycle = self.cycle
        if self._timings is not None:
            self._timings["windows_s"] = time.perf_counter() - self._t_ready
        return merged

    def snapshot(self) -> dict:
        """What :func:`~repro.sim.checkpoint.snapshot_engine` returns for
        the serial engine at this cycle, merged from the shards'."""
        replies = self._exchange([("snapshot",)] * len(self._workers))
        return merge_shard_snapshots(
            self.plan, self.machine, [reply[1] for reply in replies]
        )

    def close(self) -> None:
        """Stop the workers; nothing of the run outlives them."""
        for worker in self._workers:
            worker.send(("stop",))
        for worker in self._workers:
            worker.close()
        self._workers = []
