"""Deterministic engine checkpoint/restart.

A checkpoint is a complete, versioned, canonical-JSON snapshot of one
:class:`~repro.sim.engine.Engine`: every piece of mutable state that can
influence a future cycle is captured, so that

    ``run(n)`` -> :func:`snapshot_engine` -> :func:`restore_engine` -> ``run(m)``

is *byte-identical* -- trace JSONL, stats dict, arbiter grants, event
schedule -- to the uninterrupted ``run(n + m)``. The guarantee is pinned
by the resume-equivalence property suite
(``tests/properties/test_checkpoint_props.py``) and the golden checkpoint
fixture.

What makes the engine checkpointable at all is that its state is already
exact and discrete (PR 1's integer-tick timebase) and its event order is
fully determined by serializable data:

* the timing wheel's bucket FIFOs and its overflow heap reconstruct the
  exact drain order (bucket cycles are recovered from the index via
  ``now + ((i - now) & mask)``, valid because every pending event
  satisfies ``now <= cycle < now + size`` between cycles), and each
  cycle's events are serialized in the *canonical within-cycle order*
  (:func:`~repro.sim.engine.event_sort_key`), which the engine's drain
  agrees with wherever order is observable -- so the serialized
  schedule is a function of simulation state, identical whether it was
  produced serially or merged from shards;
* ``Engine._active`` serializes as a sorted membership list (the engine
  walks it in sorted order);
* packets are tracked by *identity* (pids are reused by fault-retry
  clones), via an index table built in one canonical traversal order, so
  the restored ``_inflight`` keys and wheel arrivals are the same
  objects.

Serialization is canonical: compact separators, **insertion-ordered**
keys, where every producer inserts in a canonical order -- dataclass
field order for sections, and per-id stats dicts pre-sorted by key in
``SimStats.asdict`` (a pure function of the counts, identical between a
serial run and a shard-merged one). ``json.loads`` preserves object key
order, so a save/load/save round trip is byte-stable (double-checkpoint
idempotence, also pinned by tests).

A packet is one flat row of integers (:data:`PACKET_ROW`), and the
machine-sized state is whole rows in canonical order: credits by
(channel, VC) and the timers by channel, the non-empty VC buffers, each
arbitration stage as its bank's rows -- the file says nothing of how the
engine lays its state out. Schema 3 leaves a packet row's hops out when
the machine rebuilds exactly that route from the row's head, decided by
value, so the bytes stay a function of simulation state alone
(:class:`_PacketCodec`). Source queues are written *compacted* (the dead
prefix before the head dropped), which is observationally invisible.
Schema 2 -- every row with its hops -- is read as it is; schema 1 through
one up-converter, :func:`_upgrade_schema1`, and then restored like any
other payload.

Failure is explicit: any malformed, truncated, corrupted, or
future-versioned payload raises :class:`CheckpointError` (the CLI maps
it to a one-line error and exit code 1).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import os
import random
import tempfile
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.arbiters.bank import BANKS, InverseWeightedBank
from repro.core.machine import Fraction, Machine, MachineConfig
from repro.core.routing import (
    ALL_DIM_ORDERS,
    Route,
    RouteChoice,
    RouteComputer,
    validate_route,
)

from .engine import _EV_ARRIVAL, Engine, event_sort_key
from .metrics import MetricsCollector
from .packet import Packet
from .stats import SimStats
from .trace import JsonlTraceWriter, leaf_sinks

#: Version of the checkpoint payload schema; bump on any layout change.
CHECKPOINT_SCHEMA_VERSION = 3

#: Top-level scalar fields :func:`restore_engine` requires to be
#: non-negative integers.
_COUNTER_FIELDS = (
    "cycle",
    "queued",
    "in_network",
    "last_progress",
    "watchdog_cycles",
)

#: Environment variable naming a cycle at which
#: :func:`run_with_checkpoints` simulates a crash (raises
#: ``KeyboardInterrupt`` *without* saving). Deterministic stand-in for
#: kill-at-random-time in the crash-resume tests; inherited by sweep
#: worker processes.
CRASH_ENV_VAR = "REPRO_CRASH_AT_CYCLE"


class CheckpointError(RuntimeError):
    """A checkpoint payload is invalid, unsupported, or unserializable."""


def _collector_paused(fn):
    """``fn`` with the cyclic garbage collector paused: it allocates a
    container per packet, hop and row, none in a cycle, and the collector
    would rescan the growing heap again and again (DESIGN.md section 10)."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _stage_builder(stage: dict):
    """The builder (``Engine``'s ``arbiter_builder``) of the bank a
    stage's :meth:`~repro.arbiters.bank.ArbiterBank.state` describes."""
    tag = stage["type"]
    if tag not in BANKS:
        raise CheckpointError(f"unknown arbiter type {tag!r} in checkpoint")
    if tag == "iw":
        # The stage's shape from its first input; ``restore`` holds all to it.
        weights = stage["weights"]
        return functools.partial(
            InverseWeightedBank,
            num_patterns=len(weights[0]) if weights else 1,
            weight_bits=stage["weight_bits"],
        )
    return BANKS[tag]


# --- RNG state helpers ------------------------------------------------------------


def rng_state_to_json(rng: random.Random) -> list:
    """JSON-safe form of a ``random.Random`` state (Mersenne Twister)."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def rng_state_from_json(state: list) -> random.Random:
    """Rebuild a ``random.Random`` mid-stream from its serialized state."""
    rng = random.Random()
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))
    return rng


# --- snapshot ---------------------------------------------------------------------


def _machine_to_json(machine: Machine) -> dict:
    cfg = machine.config
    tcf = cfg.torus_cycles_per_flit
    data = {
        "shape": list(cfg.shape),
        "endpoints_per_chip": cfg.endpoints_per_chip,
        "vc_scheme": cfg.vc_scheme,
        "num_classes": cfg.num_classes,
        "mesh_latency": cfg.mesh_latency,
        "skip_latency": cfg.skip_latency,
        "adapter_link_latency": cfg.adapter_link_latency,
        "torus_latency": cfg.torus_latency,
        "onchip_buffer_flits": cfg.onchip_buffer_flits,
        "torus_buffer_flits": cfg.torus_buffer_flits,
        "torus_cycles_per_flit": [tcf.numerator, tcf.denominator],
        "router_pipeline_cycles": cfg.router_pipeline_cycles,
    }
    # Emitted only for non-default topologies: every torus checkpoint --
    # including the committed golden -- keeps its exact byte layout.
    if cfg.topology != "torus":
        data["topology"] = cfg.topology
    return data


def _config_from_json(data: dict) -> MachineConfig:
    num, den = data["torus_cycles_per_flit"]
    return MachineConfig(
        shape=tuple(data["shape"]),
        topology=data.get("topology", "torus"),
        endpoints_per_chip=data["endpoints_per_chip"],
        vc_scheme=data["vc_scheme"],
        num_classes=data["num_classes"],
        mesh_latency=data["mesh_latency"],
        skip_latency=data["skip_latency"],
        adapter_link_latency=data["adapter_link_latency"],
        torus_latency=data["torus_latency"],
        onchip_buffer_flits=data["onchip_buffer_flits"],
        torus_buffer_flits=data["torus_buffer_flits"],
        torus_cycles_per_flit=Fraction(num, den),
        router_pipeline_cycles=data["router_pipeline_cycles"],
    )


# --- packets ----------------------------------------------------------------------

#: A packet as a checkpoint and the shard wire write it: these fields, then
#: -- unless the machine rebuilds them (see :class:`_PacketCodec`) -- its
#: route's hops as one flat ``channel, vc, channel, vc, ...`` run.
#: ``drop`` is 0 or 1, ``order`` the dimension order's index in
#: :data:`~repro.core.routing.ALL_DIM_ORDERS`; the deltas ``dx, dy, dz``
#: are ``null`` when the route choice pins none; ``via`` is a detour's
#: intermediate chip as its index in chip order, ``-1`` for none. There is
#: no ``deliver_cycle``: the engine lets go of a packet as it delivers it,
#: so a checkpoint holds none delivered.
PACKET_ROW = (
    "pid", "size_flits", "pattern", "traffic_class", "release_cycle",
    "inject_cycle", "hop_index", "ready_cycle", "retries", "drop",
    "src", "dst", "order", "slice", "dx", "dy", "dz", "internode", "via",
)
_HEAD = len(PACKET_ROW)
_ORDER_CODE = {order: code for code, order in enumerate(ALL_DIM_ORDERS)}


class _PacketCodec:
    """Packets to and from :data:`PACKET_ROW` rows on ``machine``: one per
    payload (or shard core), so that the rows it reads share their route
    choices; :func:`_checkpoint_codec` makes them.

    A row stops after its head when the packet's route *equals*, field by
    field, the route ``routes`` builds from the head's ``(src, dst,
    choice, traffic_class)``; such a row is read back through the
    machine's route memo that computer fills, so packets read share its
    routes (DESIGN.md section 10). Every row it reads is checked against
    the machine: a hop-less one must be routable, a full one a walk of
    the machine's (channel, VC) pairs into ``dst``
    (:func:`~repro.core.routing.validate_route`).
    """

    def __init__(self, machine: Machine, routes: RouteComputer) -> None:
        _nx, self._ny, self._nz = machine.config.shape
        self._choices: Dict[tuple, RouteChoice] = {}
        self._machine = machine
        self._routes = routes
        self._memo = machine.route_memo(
            routes.direction_order, routes.allow_nonminimal
        )
        self._components = len(machine.components)

    def row(self, packet: Packet) -> list:
        route = packet.route
        choice = route.choice
        via = route.via
        row = [
            packet.pid, packet.size_flits, packet.pattern,
            packet.traffic_class, packet.release_cycle, packet.inject_cycle,
            packet.hop_index, packet.ready_cycle, packet.retries,
            int(packet.drop_on_arrival), route.src, route.dst,
            _ORDER_CODE[choice.dim_order], choice.slice_index,
            *(choice.deltas or (None, None, None)), route.internode_hops,
            -1 if via is None else (via[0] * self._ny + via[1]) * self._nz + via[2],
        ]
        try:
            rebuilt = self._route(
                packet.pid, route.src, route.dst, choice, packet.traffic_class
            )
        except CheckpointError:  # a key the machine does not route
            rebuilt = None
        # ``is`` only skips the field compare: the rule is equality, or
        # the bytes would depend on what the memo held.
        if rebuilt is route or rebuilt == route:
            return row
        row += itertools.chain.from_iterable(route.hops)
        return row

    def packet(self, row: list) -> Packet:
        if len(row) < _HEAD or (len(row) - _HEAD) % 2:
            raise CheckpointError(
                f"a packet row has {len(row)} fields: not {_HEAD} and a run "
                f"of (channel, vc) hops of even length"
            )
        (pid, size_flits, pattern, traffic_class, release, inject, hop_index,
         ready, retries, drop, src, dst, code, slice_index, dx, dy, dz,
         internode, via) = row[:_HEAD]
        key = (code, slice_index, dx, dy, dz)
        choice = self._choices.get(key)
        if choice is None:
            if not 0 <= code < len(ALL_DIM_ORDERS):
                raise CheckpointError(f"packet {pid} has dimension-order code {code}")
            deltas = None if dx is None else (dx, dy, dz)
            try:
                choice = RouteChoice(ALL_DIM_ORDERS[code], slice_index, deltas)
            except ValueError as exc:
                raise CheckpointError(f"packet {pid}'s route choice: {exc}") from None
            self._choices[key] = choice
        if len(row) == _HEAD:
            route = self._route(pid, src, dst, choice, traffic_class)
            if (internode, via) != (route.internode_hops, -1):
                raise CheckpointError(
                    f"packet {pid}'s row carries no hops, so its internode "
                    f"and via must be those of the route the machine builds "
                    f"({route.internode_hops}, -1), not ({internode}, {via})"
                )
        else:
            run = row[_HEAD:]
            if via != -1:
                rest, z = divmod(via, self._nz)
                via = (*divmod(rest, self._ny), z)
            try:
                route = Route.from_hops(
                    self._machine, src, dst, choice, zip(run[::2], run[1::2]),
                    internode, None if via == -1 else via,
                )
                validate_route(self._machine, route, moved=hop_index != 0)
            except ValueError as exc:
                raise CheckpointError(f"packet {pid}'s {exc}") from None
        slots = route.slots
        if not 0 <= hop_index <= len(slots):
            raise CheckpointError(
                f"packet {pid}'s hop_index {hop_index} is outside its "
                f"{len(slots)}-hop route"
            )
        packet = Packet(pid, route, size_flits, pattern, traffic_class, release)
        packet.inject_cycle, packet.ready_cycle = inject, ready
        packet.retries, packet.drop_on_arrival = retries, bool(drop)
        packet.hop_index = hop_index
        # ``next_hop`` is an invariant of (route, hop_index) at checkpoint
        # boundaries, so it is derived rather than stored.
        packet.next_hop = slots[hop_index] if hop_index < len(slots) else None
        return packet

    def _route(self, pid, src, dst, choice, traffic_class) -> Route:
        """The machine's route for a packet's key -- the memo's, else
        built into it -- or, by name, why there is none."""
        route = self._memo.get((src, dst, choice, traffic_class))
        if route is not None:
            return route
        for name, component in (("src", src), ("dst", dst)):
            # A negative index would silently wrap in the builder.
            if not (type(component) is int and 0 <= component < self._components):
                raise CheckpointError(
                    f"packet {pid}'s row carries no hops and its {name} "
                    f"{component!r} is no component of this machine"
                )
        try:
            return self._routes.compute(src, dst, choice, traffic_class)
        except ValueError as exc:
            raise CheckpointError(
                f"packet {pid}'s row carries no hops and the machine cannot "
                f"route it: {exc}"
            ) from None


def _checkpoint_codec(machine: Machine, faulted: bool) -> _PacketCodec:
    """The codec a checkpoint's packet rows, and a shard transfer's, are
    written and read with.

    Its rebuild is a plain computer under the default direction order over
    the machine's route memo -- the memo the run's own routes went into:
    minimal-only for a healthy run, accepting the non-minimal choices fault
    resolution takes for a faulted one (the payload's ``faults`` section
    says which, before any packet is read).
    """
    return _PacketCodec(machine, RouteComputer(machine, allow_nonminimal=faulted))


class _Placement:
    """The packet table handed out in the order :func:`snapshot_engine`
    numbered it -- source queues, buffers, wheel arrivals -- where every
    packet sits in exactly one place: a section naming anything but the
    next indices is refused by name."""

    def __init__(self, packets: List[Packet]) -> None:
        self.packets, self.placed = packets, 0

    def take(self, indices: list, where: str) -> List[Packet]:
        start, count = self.placed, len(self.packets)
        for want, index in enumerate(indices, start):
            if index == want < count:
                continue
            if type(index) is not int or not 0 <= index < count:
                raise CheckpointError(
                    f"{where} names packet {index}; the checkpoint lists {count}"
                )
            raise CheckpointError(
                f"{where} names packet {index} "
                f"{'a second time' if index < want else 'out of turn'}: packets "
                f"are numbered as the snapshot meets them, so {want} comes next"
            )
        self.placed += len(indices)
        return self.packets[start:self.placed]


def _wheel_to_json(wheel, now: int, encode=list) -> dict:
    """Serialize the timing wheel in canonical drain order.

    Buckets are scanned in cycle order from ``now``: between cycles every
    pending bucket event satisfies ``now <= cycle < now + size``, so the
    bucket at index ``i`` holds exactly the events for cycle
    ``now + ((i - now) & mask)``. Each cycle's events -- bucket and
    overflow alike -- are serialized in the canonical within-cycle order
    (:func:`~repro.sim.engine.event_sort_key`), which the engine's drain
    agrees with wherever order is observable, so the serialized schedule
    is a pure function of simulation state: a sharded run's merged wheel
    equals the serial engine's. Overflow sequence numbers are
    *renumbered* ``0..k-1`` in that canonical order (with ``seq`` = k),
    erasing push history while preserving pop order; the sorted tuples
    are already a valid heap. ``encode`` maps each payload tuple to a
    JSON-safe list (the engine path swaps packet objects for index-table
    entries).
    """
    buckets = []
    for delta in range(wheel.size):
        cycle = now + delta
        bucket = wheel.buckets[cycle & wheel.mask]
        if bucket:
            ordered = (
                sorted(bucket, key=event_sort_key) if len(bucket) > 1 else bucket
            )
            buckets.append([cycle, [encode(payload) for payload in ordered]])
    # Final tie-break on the original seq: within one (cycle, sort-key)
    # class only a single deterministic producer pushes, so push order is
    # itself canonical -- but the heap's *array* layout is not, so it
    # cannot serve as the stable-sort fallback.
    ordered_overflow = sorted(
        wheel.overflow,
        key=lambda item: (item[0], event_sort_key(item[2]), item[1]),
    )
    overflow = [
        [cycle, new_seq, encode(payload)]
        for new_seq, (cycle, _seq, payload) in enumerate(ordered_overflow)
    ]
    return {
        "seq": len(overflow),
        "pending": wheel.pending,
        "buckets": buckets,
        "overflow": overflow,
    }


def _trace_section(engine: Engine) -> dict:
    """Record enough about the attached sink(s) to resume byte-identically.

    For a :class:`JsonlTraceWriter` the event and byte counters are
    recorded so a resume can cut a crashed run's trace file back to this
    checkpoint and append header-free. A
    :class:`~repro.sim.metrics.MetricsCollector` is captured wholesale.
    Other sinks (ListSink, ad-hoc test sinks) carry no state a resume
    needs: the caller re-attaches whatever it wants.
    :func:`_revive_sinks` is the inverse.
    """
    section: dict = {"events_written": None, "bytes_written": None, "collector": None}
    for sink in leaf_sinks(engine.trace):
        if isinstance(sink, JsonlTraceWriter):
            section["events_written"] = sink.events_written
            section["bytes_written"] = sink.bytes_written
        elif isinstance(sink, MetricsCollector):
            section["collector"] = sink.state()
    return section


def _revive_sinks(trace, section: dict) -> None:
    """Put every sink ``trace`` reaches where :func:`_trace_section`
    recorded it: writers rewound to the recorded counts, collectors
    holding the captured reducers."""
    for sink in leaf_sinks(trace):
        if isinstance(sink, JsonlTraceWriter):
            if section["bytes_written"] is None:
                raise CheckpointError(
                    "checkpoint was saved without a JSONL trace writer "
                    "attached; cannot resume its trace file"
                )
            try:
                sink.rewind(section["events_written"], section["bytes_written"])
            except ValueError as exc:
                raise CheckpointError(str(exc)) from None
        elif isinstance(sink, MetricsCollector):
            if section["collector"] is not None:
                sink.restore_state(section["collector"])


@_collector_paused
def snapshot_engine(engine: Engine) -> dict:
    """Full mutable-state snapshot of a quiescent engine (between cycles).

    The engine is not modified. Raises :class:`CheckpointError` for state
    that cannot be serialized (an ``on_delivery`` hook -- arbitrary
    callables do not survive serialization). A
    :class:`~repro.sim.shard.ShardedEngine` answers with the same dict,
    merged from its shards'.
    """
    if not isinstance(engine, Engine):
        return engine.snapshot()
    if engine.on_delivery is not None:
        raise CheckpointError(
            "engine has an on_delivery hook attached; callable hooks are "
            "not checkpointable"
        )
    # Pids are *not* unique (a retry clone shares its pid with the
    # condemned in-flight copy it replaces), so packets are numbered by
    # identity in one canonical traversal -- source queues, VC buffers,
    # wheel events -- and the restored engine shares one object per
    # number, exactly as the live engine does.
    numbers: Dict[int, int] = {}
    packets: List[Packet] = []

    def number(packet: Packet) -> int:
        index = numbers.setdefault(id(packet), len(packets))
        if index == len(packets):
            packets.append(packet)
        return index

    source_queues = []
    for src in sorted(engine._source_queues):
        queue = engine._source_queues[src]
        head = engine._source_heads[src]
        source_queues.append([src, [number(p) for p in queue[head:]]])

    credits, channel_free_at, input_free_at, buffers = engine.rows()
    buffers = [
        [cid, vc, [number(p) for p in queue]] for cid, vc, queue in buffers
    ]

    def encode(payload: tuple) -> list:
        kind, a, b, c = payload
        if kind == _EV_ARRIVAL:
            a = number(a)
        return [kind, a, b, c]

    wheel = _wheel_to_json(engine._events, engine.cycle, encode)

    faults = None
    if engine._fault_runtime is not None:
        runtime = engine._fault_runtime
        policy = runtime.policy
        faults = {
            "fault_set": json.loads(runtime.fault_set.to_json()),
            "policy": {
                "mode": policy.mode,
                "max_retries": policy.max_retries,
                "backoff_base_cycles": policy.backoff_base_cycles,
                "backoff_cap_cycles": policy.backoff_cap_cycles,
            },
            "failed": sorted(engine._failed_channels or ()),
            # Sorted by packet index: every in-network packet already has
            # a pending wheel arrival, so its index was assigned by the
            # canonical traversal above and the sort erases push history.
            "inflight": sorted(
                [number(packet), oc]
                for packet, oc in engine._inflight.items()
            ),
            # Nothing of the route computer is state: its resolution
            # caches are memoization (recomputation is deterministic and
            # value-equal) and restart cold, and its ``resolution_counts``
            # count the *misses* of those caches -- a function of when
            # the memo was last emptied, not of the simulation.
        }

    return {
        "kind": "engine-checkpoint",
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "cycle": engine.cycle,
        "machine": _machine_to_json(engine.machine),
        "watchdog_cycles": engine.watchdog_cycles,
        "packets": list(map(
            _checkpoint_codec(engine.machine, faults is not None).row, packets
        )),
        "source_queues": source_queues,
        "buffers": buffers,
        "credits": credits,
        "channel_free_at": channel_free_at,
        "input_free_at": input_free_at,
        "arbiters": engine.arbiters.state(),
        "vc_arbiters": engine.vc_arbiters.state(),
        "wheel": wheel,
        "active": sorted(engine._active),
        "queued": engine._queued,
        "in_network": engine._in_network,
        "last_progress": engine._last_progress,
        "stats": engine.stats.asdict(),
        "trace": _trace_section(engine),
        "faults": faults,
    }


# --- restore ----------------------------------------------------------------------


def _wheel_from_json(wheel, data: dict, decode=tuple) -> None:
    """Reinstate a :func:`_wheel_to_json` snapshot into ``wheel`` in place.

    ``decode`` maps each encoded payload list back to its event tuple
    (the engine path swaps packet indices for the shared objects). The
    sorted (cycle, seq)-keyed overflow tuples are already a valid heap;
    no heapify is needed, and pop order is fully determined by the keys.
    """
    for bucket in wheel.buckets:
        del bucket[:]
    for cycle, encoded in data["buckets"]:
        wheel.buckets[cycle & wheel.mask].extend(decode(e) for e in encoded)
    wheel.overflow = [
        (cycle, seq, decode(enc)) for cycle, seq, enc in data["overflow"]
    ]
    wheel.seq = data["seq"]
    wheel.pending = data["pending"]


def _restore_into(engine: Engine, data: dict, packets: List[Packet]) -> None:
    engine.cycle = data["cycle"]

    placement = _Placement(packets)
    engine._source_queues = {}
    engine._source_heads = {}
    for src, indices in data["source_queues"]:
        engine._source_queues[src] = placement.take(indices, "source_queues")
        engine._source_heads[src] = 0

    buffers = [
        (cid, vc, placement.take(indices, "buffers"))
        for cid, vc, indices in data["buffers"]
    ]
    try:
        engine.assign_rows(
            data["credits"], data["channel_free_at"], data["input_free_at"], buffers
        )
        engine.arbiters.restore(data["arbiters"])
        engine.vc_arbiters.restore(data["vc_arbiters"])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint does not fit this machine: {exc}") from None

    def decode(enc: list) -> tuple:
        kind, a, b, c = enc
        if kind == _EV_ARRIVAL:
            (a,) = placement.take([a], "a wheel arrival")
        return (kind, a, b, c)

    _wheel_from_json(engine._events, data["wheel"], decode)
    if placement.placed != len(packets):
        raise CheckpointError(
            f"the checkpoint lists {len(packets)} packets but places "
            f"{placement.placed} in its source queues, buffers and wheel"
        )

    previous = -1  # each of the machine's components at most once, rising
    components = len(engine.machine.components)
    for comp in data["active"]:
        if type(comp) is not int or not previous < comp < components:
            raise CheckpointError(
                f"active names component {comp!r} after {previous}; the "
                f"machine has {components}"
            )
        previous = comp
    engine._active = dict.fromkeys(data["active"])
    engine._queued = data["queued"]
    engine._in_network = data["in_network"]
    engine._last_progress = data["last_progress"]

    engine.stats = SimStats.from_dict(data["stats"])
    # ``Engine._step`` increments these aliases directly; re-point them at
    # the restored stats object's dicts.
    engine._stat_channel_flits = engine.stats.channel_flits
    engine._stat_channel_busy = engine.stats.channel_busy_ticks

    if data["faults"] is not None:
        # Deferred import: repro.faults imports the engine module.
        from repro.faults.model import FaultSet
        from repro.faults.runtime import FaultPolicy, FaultRuntime

        fdata = data["faults"]
        fault_set = FaultSet.from_json(json.dumps(fdata["fault_set"]))
        policy = FaultPolicy(**fdata["policy"])
        # The runtime is rebuilt *after* engine construction so the
        # constructor's timeline pushes do not run: the restored wheel
        # already holds every pending fault event.
        runtime = FaultRuntime(engine.machine, fault_set, policy=policy)
        engine._fault_runtime = runtime
        engine._fault_routes = runtime.route_computer
        # The constructor's timeline pushes were skipped, so advance the
        # canonical fault-index counter past the timeline the restored
        # wheel already carries; later schedule_faults calls continue
        # the sequence instead of reusing indices.
        engine._fault_push_seq = len(runtime.timeline)
        engine._failed_channels = set(fdata["failed"])
        runtime.route_computer.set_failed(engine._failed_channels)
        # (Older files also carry a "resolution" list here: ignored.)
        previous = -1  # each of the table's packets at most once, rising
        for index, _oc in fdata["inflight"]:
            if type(index) is not int or not previous < index < len(packets):
                raise CheckpointError(
                    f"faults.inflight names packet {index} after {previous}; "
                    f"the checkpoint lists {len(packets)}"
                )
            previous = index
        engine._inflight = {packets[i]: oc for i, oc in fdata["inflight"]}


@_collector_paused
def restore_engine(
    data: dict,
    machine: Optional[Machine] = None,
    trace=None,
) -> Engine:
    """Rebuild a running engine from :func:`snapshot_engine` output.

    ``machine`` may supply an already-elaborated machine, which must
    have been built from the embedded configuration (anything else is
    refused, naming both); by default the machine is rebuilt from that
    config. ``trace`` attaches a sink to the restored engine, revived
    first: whatever the snapshot recorded of a sink it reaches -- a
    :class:`~repro.sim.trace.Tee` is descended -- is put back, a
    :class:`~repro.sim.metrics.MetricsCollector`'s reducers, a
    :class:`~repro.sim.trace.JsonlTraceWriter`'s position (its stream cut
    back to the recorded bytes). When ``trace`` is omitted and the
    checkpoint captured a collector, the collector is revived and
    attached. The sinks are touched last: a payload that is refused
    leaves them as they were. A schema-1 payload is read through
    :func:`_upgrade_schema1` first. Hop-less packet rows are rebuilt
    through the machine's route memo, so a restore onto a machine that
    has routed the run before is warm, one onto a fresh machine rebuilds
    every route it names.

    Raises :class:`CheckpointError` on any structural defect.
    """
    _validate_header(data)
    with _structural_defects():
        _validate_counters(data)
        if machine is None:
            machine = Machine(_config_from_json(data["machine"]))
        else:
            check_machine(data, machine)
        if data["schema"] == 1:
            data = _upgrade_schema1(data, machine)
        section = data["trace"]
        if trace is None and section["collector"] is not None:
            trace = MetricsCollector()  # revived below, like one handed in
        engine = Engine(
            machine,
            arbiter_builder=_stage_builder(data["arbiters"]),
            vc_arbiter_builder=_stage_builder(data["vc_arbiters"]),
            watchdog_cycles=data["watchdog_cycles"],
            trace=trace,
        )
        codec = _checkpoint_codec(machine, data["faults"] is not None)
        packets = list(map(codec.packet, data["packets"]))
        _restore_into(engine, data, packets)
        _revive_sinks(trace, section)
    return engine


# --- schema 1 ---------------------------------------------------------------------


def _packet_from_json(data: dict, machine: Machine) -> Packet:
    """A schema-1 packet: named fields, its route a dict with nested
    ``[channel, vc]`` hops."""
    rdata, cdata = data["route"], data["route"]["choice"]
    deltas, via = cdata["deltas"], rdata["via"]
    choice = RouteChoice(
        tuple(cdata["order"]), cdata["slice"],
        None if deltas is None else tuple(deltas),
    )
    hops = [(channel, vc) for channel, vc in rdata["hops"]]
    try:
        route = Route.from_hops(
            machine, rdata["src"], rdata["dst"], choice, hops,
            rdata["internode"], None if via is None else tuple(via),
        )
    except ValueError as exc:
        raise CheckpointError(f"packet {data['pid']}'s {exc}") from None
    packet = Packet(
        data["pid"], route, data["size_flits"], data["pattern"],
        data["traffic_class"], data["release_cycle"],
    )
    for name in ("inject_cycle", "hop_index", "ready_cycle", "retries"):
        setattr(packet, name, data[name])
    packet.drop_on_arrival = data["drop"]
    return packet


def _upgrade_stage(specs: list, sites, stage: str) -> dict:
    """Schema 1's ``[site, {"type", "state"}]`` list as the stage's rows, by
    way of a scratch bank: every per-site check holds (widths, weights, bit_exact)."""
    tags = sorted({spec["type"] for _site, spec in specs}) or ["rr"]
    if len(tags) > 1:
        raise CheckpointError(
            f"checkpoint mixes arbiter types {', '.join(tags)} in "
            f"{stage!r}; an engine runs one policy per stage"
        )
    first = specs[0][1]["state"] if specs else {}
    bank = _stage_builder(dict(first, type=tags[0]))(sites)
    for site, spec in specs:
        bank.restore_site(site, spec["state"])
    return bank.state()


def _upgrade_schema1(data: dict, machine: Machine) -> dict:
    """A schema-1 payload in schema 3's layout, its packet rows written by
    the checkpoint's own codec, on its own (vetted) ``machine``: the one
    way schema 1 is read, a pure data transform. Packet indices stay:
    every schema numbers packets in one traversal."""
    retained = data["stats"]["packet_latencies"]
    if data["keep_packet_latencies"] is not False or retained != []:
        raise CheckpointError(
            "checkpoint retains per-packet latencies "
            "(keep_packet_latencies), which engines no longer keep; "
            "read them from a trace's deliver events instead"
        )
    rows = machine.engine_rows
    for name in ("credits", "buffers"):
        if list(map(len, data[name])) != machine.channel_vcs:
            raise CheckpointError(
                f"checkpoint does not fit this machine: its {name} are not "
                f"one entry per VC of each channel"
            )
    codec = _checkpoint_codec(machine, data["faults"] is not None)
    return dict(
        {k: v for k, v in data.items() if k != "keep_packet_latencies"},
        schema=3,
        packets=[codec.row(_packet_from_json(p, machine)) for p in data["packets"]],
        buffers=[
            [cid, vc, queue]
            for cid, queues in enumerate(data["buffers"])
            for vc, queue in enumerate(queues)
            if queue
        ],
        credits=[credit for channel in data["credits"] for credit in channel],
        arbiters=_upgrade_stage(data["arbiters"], rows.arbiter_sites, "arbiters"),
        vc_arbiters=_upgrade_stage(
            data["vc_arbiters"], rows.vc_arbiter_sites, "vc_arbiters"
        ),
        stats={k: v for k, v in data["stats"].items() if k != "packet_latencies"},
    )


def check_machine(data: dict, machine: Machine) -> None:
    """Refuse, naming both, a payload taken on another machine's config."""
    with _structural_defects():
        theirs, ours = _config_from_json(data["machine"]), machine.config
    if theirs != ours:
        raise CheckpointError(
            "checkpoint belongs to a different machine: " + "; ".join(
                f"{f.name} is {getattr(theirs, f.name)} in the checkpoint, "
                f"{getattr(ours, f.name)} in this run"
                for f in dataclasses.fields(ours)
                if getattr(theirs, f.name) != getattr(ours, f.name)
            )
        )


@contextmanager
def _structural_defects():
    """Map the lookup failures a damaged payload causes to one error."""
    try:
        yield
    except CheckpointError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"truncated or corrupted checkpoint: {exc!r}") from exc


def _validate_counters(data: dict) -> None:
    # A string here would surface as a TypeError deep inside Engine.run,
    # a negative value as a run that "resumes" from before cycle 0.
    for name in _COUNTER_FIELDS:
        value = data[name]
        if type(value) is not int or value < 0:
            raise CheckpointError(
                f"checkpoint field {name!r} must be a non-negative integer, "
                f"got {value!r}"
            )


def _validate_header(data) -> None:
    if not isinstance(data, dict) or data.get("kind") != "engine-checkpoint":
        raise CheckpointError(
            "not an engine checkpoint (missing kind='engine-checkpoint')"
        )
    schema = data.get("schema")
    if schema not in (1, 2, CHECKPOINT_SCHEMA_VERSION):
        raise CheckpointError(
            f"unsupported checkpoint schema version {schema!r}; this build "
            f"reads versions 1, 2 and {CHECKPOINT_SCHEMA_VERSION}"
        )


# --- canonical serialization ------------------------------------------------------


def dumps(data: dict) -> str:
    """Canonical text form: compact, insertion-ordered, one trailing newline.

    Insertion order *is* the canonical order -- every producer inserts
    canonically (``SimStats.asdict`` sorts its per-id dicts, sections
    follow dataclass field order), so equal snapshots are equal bytes
    without a global ``sort_keys`` pass.
    """
    return json.dumps(data, separators=(",", ":")) + "\n"


@_collector_paused
def loads(text: str) -> dict:
    """Parse and header-validate checkpoint text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    _validate_header(data)
    return data


def canonical(value) -> str:
    """A value repr stable across processes and interpreter runs: what
    :func:`run_stamp`, the keys of the simulator's offline memo and a
    campaign record's name (:func:`repro.sim.sweep.point_fingerprint`)
    are made of.

    ``repr`` alone is not an identity: objects without a custom
    ``__repr__`` (e.g. traffic patterns) render their memory address,
    which would make every run look like a different one. Containers and
    dataclasses recurse; plain objects render as ``module.Class(sorted
    vars)``; sets sort their elements so hash randomization cannot
    reorder them.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{cls.__module__}.{cls.__qualname__}({fields})"
    if isinstance(value, dict):
        items = sorted(
            (canonical(k), canonical(v)) for k, v in value.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(canonical(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(canonical(v) for v in value)) + "}"
    if callable(value) and hasattr(value, "__qualname__"):
        return f"{getattr(value, '__module__', '?')}.{value.__qualname__}"
    if type(value).__repr__ is object.__repr__:
        cls = type(value)
        state = ", ".join(
            f"{name}={canonical(val)}"
            for name, val in sorted(getattr(value, "__dict__", {}).items())
        )
        return f"{cls.__module__}.{cls.__qualname__}({state})"
    return repr(value)


def run_stamp(run) -> str:
    """The stamp a periodic save writes for ``run`` (a ``RunSpec``): a
    hash of its :func:`canonical` rendering."""
    return hashlib.sha256(canonical(run).encode()).hexdigest()


def write_atomic(path: str, data) -> None:
    """Put ``data`` (text or bytes) at ``path``, whole or not at all.

    It lands via a same-directory temp file and ``os.replace``, so a
    crash or a failed write leaves the file that was there intact and no
    temp file behind -- what every record a killed run is picked up from
    (engine checkpoints, campaign records) relies on.
    Failure is an ``OSError`` whose one line names ``path``.
    """
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp"
        )
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
        tmp_path = None
    except OSError as exc:
        raise OSError(
            exc.errno, f"cannot write {path}: {exc.strerror or exc}"
        ) from None
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def save_checkpoint(engine: Engine, path: str, stamp: Optional[str] = None) -> dict:
    """Snapshot ``engine`` and :func:`write_atomic` it to ``path``;
    return the snapshot. ``stamp`` (see :func:`run_stamp`) is recorded as
    the top-level ``run_stamp`` key: :func:`load_checkpoint` refuses the
    file to any other run.
    """
    data = snapshot_engine(engine)
    if stamp is not None:
        data["run_stamp"] = stamp
    write_atomic(path, dumps(data))
    return data


def load_checkpoint(path: str, stamp: Optional[str] = None) -> dict:
    """Read and validate a checkpoint file (see :func:`loads`).

    With ``stamp``, the resuming run's :func:`run_stamp`, a file some
    other run stamped is refused by name and left untouched; a file
    without a stamp (``repro checkpoint save``, serve snapshots) belongs
    to whoever holds a matching machine.
    """
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        data = loads(text)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if stamp is not None:
        check_stamp(data, stamp, f"checkpoint {path}")
    return data


def check_stamp(data: dict, stamp: str, what: str = "checkpoint") -> None:
    """Refuse, naming ``what``, a payload some run other than the one
    ``stamp`` (its :func:`run_stamp`) names has stamped; an unstamped one
    belongs to any run on a matching machine."""
    theirs = data.get("run_stamp", stamp)
    if theirs != stamp:
        raise CheckpointError(
            f"{what} was written by a different run (its stamp is "
            f"{str(theirs)[:12]}, this run's {stamp[:12]}); remove it "
            f"or pass the run that wrote it"
        )


def checkpoint_info(data: dict) -> dict:
    """Human-oriented summary of a header-validated checkpoint payload.

    Raises :class:`CheckpointError` if a summarized field is missing or
    a counter is not one.
    """
    with _structural_defects():
        _validate_counters(data)
        stats = data["stats"]
        return {
            "schema": data["schema"],
            "cycle": data["cycle"],
            "shape": tuple(data["machine"]["shape"]),
            "queued": data["queued"],
            "in_network": data["in_network"],
            "events_pending": data["wheel"]["pending"],
            "injected": stats["injected"],
            "delivered": stats["delivered"],
            "faulted": data["faults"] is not None,
            "trace_events": data["trace"]["events_written"],
            "trace_bytes": data["trace"]["bytes_written"],
        }


# --- periodic checkpointing driver ------------------------------------------------


def run_with_checkpoints(
    engine: Engine,
    path: str,
    every: int,
    max_cycles: int = 10_000_000,
    stamp: Optional[str] = None,
) -> SimStats:
    """``engine.run(max_cycles)`` -- serial or sharded -- saving a
    checkpoint to ``path`` on the way.

    The one statement of how a run is saved, capped and killed:

    * **cadence** -- the run advances in chunks of ``every`` cycles from
      the cycle it started or resumed at (``run_for``: the same end state
      as one ``run``, pinned by the split-run property tests), and is
      saved after each chunk that leaves work outstanding. The attached
      trace sink is flushed first, so the bytes on disk cover at least
      the recorded ``bytes_written``; ``stamp`` goes to
      :func:`save_checkpoint`.
    * **cap** -- no chunk passes ``max_cycles``; work outstanding there
      is ``engine.run``'s error, raised at exactly the cap.
    * **kill** -- when :data:`CRASH_ENV_VAR` names a cycle, the run
      raises ``KeyboardInterrupt`` upon reaching it *without* saving --
      a deterministic crash for the resume tests, leaving the last
      periodic checkpoint (and possibly further trace bytes past it) on
      disk exactly as a real mid-run kill would. A run that drains
      first "exits" normally, like a process finishing before the kill
      lands.
    """
    if every < 1:
        raise ValueError(f"checkpoint interval must be >= 1 cycle, got {every}")
    # Unset, the kill lands past the cap: never.
    crash_cycle = int(os.environ.get(CRASH_ENV_VAR) or max_cycles + 1)
    while not engine.drained:
        if engine.cycle >= max_cycles:
            return engine.run(max_cycles)  # raises: work is outstanding
        budget = min(every, max_cycles - engine.cycle)
        crashing = engine.cycle + budget >= crash_cycle
        if crashing:
            budget = crash_cycle - engine.cycle
        if budget > 0:
            engine.run_for(budget)
        if engine.drained:
            break
        if crashing:
            raise KeyboardInterrupt(
                f"simulated crash at cycle {engine.cycle} "
                f"({CRASH_ENV_VAR}={crash_cycle})"
            )
        if engine.trace is not None:
            engine.trace.flush()
        save_checkpoint(engine, path, stamp)
    stats = engine.stats
    stats.end_cycle = engine.cycle
    return stats
