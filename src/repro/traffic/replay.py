"""Trace replay: re-issue a recorded JSONL trace as a workload.

A committed trace (:mod:`repro.sim.trace`) records everything needed to
reconstruct the workload that produced it:

* each packet's ``inject`` event carries its source and destination
  endpoint component ids and its flit count;
* its ordered ``depart`` events enumerate the exact ``(channel, vc)``
  hop sequence it traversed -- the :class:`~repro.core.routing.Route`
  hops, VC promotions included;
* its ``deliver`` event carries ``qlat`` (release-to-delivery cycles),
  so ``release_cycle = deliver_cycle - qlat`` recovers the original
  injection schedule exactly.

Replay rebuilds those packets and *re-simulates* them: the engine is
bit-deterministic given (packets, arbiters), so replaying a run's own
trace regenerates its event stream byte-for-byte -- the conformance
property pinned by the replay test layer and the CI round-trip job. The
header and end records are passed through verbatim (they are provenance,
not simulation output), so the full output file is byte-identical to the
input when -- and only when -- the re-simulation is faithful.

Two reconstruction subtleties the contract depends on:

* **Enqueue order.** Same-cycle timing-wheel events are processed in
  push order, and the pre-run enqueue loop pushes every future release's
  wake event, so the generator's source iteration order is observable.
  Replay therefore enqueues per-source packet blocks in
  :func:`~repro.traffic.loads.active_endpoints` order (the order every
  generator in :mod:`repro.traffic` uses), with each source's packets in
  trace order (= its FIFO queue order).
* **Faulted traces are not replayable.** Reroute/drop/retry dispositions
  overwrite routes mid-flight, so a trace with fault events does not
  contain the original injection schedule; :func:`load_replay` rejects
  such traces with a clear error rather than replaying them wrong.

Arbitration is not recorded per event; traces written by current tooling
carry it in the header (``"arb"``), and ``repro replay`` reconstructs
weight tables for ``iw`` traces from the header's pattern metadata.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.geometry import all_coords
from repro.core.machine import ChannelKind, ComponentKind, Machine, MachineConfig
from repro.core.routing import Route, RouteChoice, validate_route
from repro.sim.packet import Packet
from repro.sim.trace import EVENT_KINDS, TraceEvent

#: Event kinds whose presence makes a trace non-replayable.
FAULT_KINDS = ("fault", "reroute", "drop", "retry")


class ReplayError(ValueError):
    """The trace cannot be replayed (malformed, truncated, or faulted)."""


@dataclasses.dataclass
class ReplayWorkload:
    """A parsed trace, reconstructed into an injectable workload."""

    #: Normalized 3-tuple (a two-axis header ``[4, 4]`` reads ``(4, 4, 1)``).
    shape: Tuple[int, int, int]
    endpoints_per_chip: int
    #: The header's ``topology`` (absent on torus traces).
    topology: str
    header: dict
    #: Raw metadata record lines before the first event, verbatim.
    prologue: List[str]
    #: Raw metadata record lines after the last event, verbatim.
    epilogue: List[str]
    #: Reconstructed packets: per-source blocks in endpoint-rank order,
    #: each block in trace (= queue) order.
    packets: List[Packet]
    #: Events in the source trace (the regenerated count must match).
    num_events: int
    #: Arbitration policy from the header, or None if absent.
    arbitration: Optional[str]
    #: Optional workload hints from the header (for iw reconstruction).
    pattern: Optional[str]
    cores: Optional[int]

    @property
    def config(self) -> MachineConfig:
        """The machine the trace was recorded on."""
        return MachineConfig(
            shape=self.shape,
            endpoints_per_chip=self.endpoints_per_chip,
            topology=self.topology,
        )

    @property
    def cores_per_chip(self) -> int:
        return self.cores or self.endpoints_per_chip


def _reconstruct_packets(
    machine: Machine, events: Sequence[TraceEvent]
) -> List[Packet]:
    """Rebuild every injected packet from its inject/depart/deliver events."""
    injects: Dict[int, TraceEvent] = {}
    hops: Dict[int, List[Tuple[int, int]]] = {}
    release: Dict[int, int] = {}
    order: List[int] = []
    for event in events:
        if event.kind == "inject":
            if event.pid in injects:
                raise ReplayError(
                    f"pid {event.pid} injected twice; retries are not replayable"
                )
            injects[event.pid] = event
            hops[event.pid] = []
            order.append(event.pid)
        elif event.kind == "depart":
            if event.pid in hops:
                hops[event.pid].append((event.channel, event.vc))
        elif event.kind == "deliver":
            if event.pid not in injects:
                raise ReplayError(
                    f"pid {event.pid} delivered without an inject event"
                )
            release[event.pid] = event.cycle - event.get("qlat")

    missing = [pid for pid in order if pid not in release]
    if missing:
        raise ReplayError(
            f"{len(missing)} injected packet(s) never delivered (e.g. pid "
            f"{missing[0]}); the trace is truncated or faulted"
        )

    packets: Dict[int, List[Packet]] = {}
    for pid in order:
        inject = injects[pid]
        src = inject.get("src")
        dst = inject.get("dst")
        hop_list = hops[pid]
        if not hop_list:
            raise ReplayError(f"pid {pid} has no depart events")
        if hop_list[0][0] != inject.channel:
            raise ReplayError(
                f"pid {pid}: first depart channel {hop_list[0][0]} does not "
                f"match its inject channel {inject.channel}"
            )
        for comp_id, role in ((src, "source"), (dst, "destination")):
            if (
                type(comp_id) is not int
                or not 0 <= comp_id < len(machine.components)
                or machine.components[comp_id].kind != ComponentKind.ENDPOINT
            ):
                raise ReplayError(
                    f"pid {pid}: {role} component {comp_id!r} is not an "
                    f"endpoint of this machine"
                )
        try:
            route = Route.from_hops(machine, src, dst, RouteChoice(), hop_list, 0)
            validate_route(machine, route)
        except ValueError as exc:
            raise ReplayError(f"pid {pid}: {exc}") from None
        kinds = machine.channel_kind
        route = dataclasses.replace(route, internode_hops=sum(
            kinds[channel] == ChannelKind.TORUS for channel, _vc in hop_list
        ))
        packet = Packet(
            pid,
            route,
            size_flits=inject.get("flits", 1),
            release_cycle=release[pid],
        )
        block = packets.setdefault(src, [])
        if block and block[-1].release_cycle > packet.release_cycle:
            raise ReplayError(
                f"source {src}: pid {pid} released at {packet.release_cycle} "
                f"after pid {block[-1].pid} at {block[-1].release_cycle}; "
                f"the trace's injection order is not a queue order"
            )
        block.append(packet)

    # Per-source blocks in generator (active_endpoints) order, so the
    # pre-run wake-event push order matches the original run's.
    rank: Dict[int, int] = {}
    for chip in all_coords(machine.config.shape):
        for index in range(machine.config.endpoints_per_chip):
            rank[machine.ep_id[(chip, index)]] = len(rank)
    ordered: List[Packet] = []
    for src in sorted(packets, key=rank.__getitem__):
        ordered.extend(packets[src])
    return ordered


def load_replay(lines) -> ReplayWorkload:
    """Parse raw JSONL trace lines into a :class:`ReplayWorkload`.

    ``lines`` is any iterable of lines (an open file, a splitlines()
    list). Raises :class:`ReplayError` on traces that cannot round-trip:
    missing machine metadata, fault events, truncation, or metadata
    records interleaved with events.
    """
    return _load(lines)[0]


def _load(lines) -> Tuple[ReplayWorkload, Machine]:
    """:func:`load_replay`, plus the machine it elaborated on the way:
    every line is decoded once, and :func:`replay_trace` runs on the same
    machine the packets were reconstructed against."""
    import json

    raw = [line.rstrip("\n") for line in lines if line.strip()]
    if not raw:
        raise ReplayError("empty trace")
    records, events = [], []
    prologue, epilogue = [], []
    interleaved = False
    for line in raw:
        obj = json.loads(line)
        if obj.get("ev") in EVENT_KINDS:
            # An event after a trailing record: the record sits mid-stream.
            interleaved = interleaved or bool(epilogue)
            events.append(TraceEvent.from_obj(obj))
        else:
            records.append(obj)
            (epilogue if events else prologue).append(line)
    if interleaved:
        raise ReplayError(
            "metadata records interleaved with events; cannot replay verbatim"
        )

    header = records[0] if records else {}
    if header.get("ev") != "trace":
        raise ReplayError("trace has no header record ('ev': 'trace')")
    schema = header.get("schema")
    if schema != 1:
        raise ReplayError(f"unsupported trace schema {schema!r}")
    shape = header.get("shape")
    endpoints = header.get("endpoints")
    if shape is None or endpoints is None:
        raise ReplayError(
            "trace header lacks 'shape'/'endpoints'; cannot rebuild the machine"
        )
    faulted = sorted({e.kind for e in events if e.kind in FAULT_KINDS})
    if faulted:
        raise ReplayError(
            f"trace contains {'/'.join(faulted)} events; fault dispositions "
            f"are policy decisions the trace does not record, so faulted "
            f"traces are not bitwise-replayable"
        )
    if not events:
        raise ReplayError("trace contains no events")

    machine = Machine(
        MachineConfig(
            shape=tuple(shape),
            endpoints_per_chip=int(endpoints),
            topology=header.get("topology", "torus"),
        )
    )
    tpc = header.get("tpc")
    if tpc is not None and tpc != machine.ticks_per_cycle:
        raise ReplayError(
            f"trace timebase tpc={tpc} does not match the machine's "
            f"{machine.ticks_per_cycle}"
        )
    workload = ReplayWorkload(
        shape=machine.config.shape,
        endpoints_per_chip=machine.config.endpoints_per_chip,
        topology=machine.config.topology,
        header=header,
        prologue=prologue,
        epilogue=epilogue,
        packets=_reconstruct_packets(machine, events),
        num_events=len(events),
        arbitration=header.get("arb"),
        pattern=header.get("pattern"),
        cores=header.get("cores"),
    )
    return workload, machine


def _header_weight_patterns(workload: ReplayWorkload) -> list:
    """The pattern behind an ``iw`` trace's weight tables, decoded from
    its header like any other spelling of a run."""
    from repro.sim.simulator import RunSpec, header_params

    if workload.pattern is None:
        raise ReplayError(
            "trace header records no 'pattern'; cannot rebuild the iw "
            "weight tables (override with --arbitration rr or age)"
        )
    try:
        return [RunSpec.from_params(header_params(workload.header)).spec.pattern]
    except ValueError as exc:
        raise ReplayError(
            f"trace header: {exc}; replay via the API with explicit "
            f"weight_patterns"
        )


def build_replay_engine(
    machine: Machine,
    workload: ReplayWorkload,
    arbitration: Optional[str] = None,
    weight_patterns=None,
    trace=None,
):
    """An engine at cycle 0 with the replay workload enqueued.

    The replay entry into :func:`repro.sim.simulator.build`: the
    recorded packets stand in for generation. ``arbitration`` defaults
    to the trace header's ``arb`` field (falling back to round-robin).
    A trace has no pattern of its own, so ``iw`` needs
    ``weight_patterns`` to reprogram the weight tables --
    :func:`replay_trace` reconstructs them from the header's
    ``pattern``/``cores`` fields.
    """
    from repro.core.routing import RouteComputer
    from repro.sim.simulator import RunSpec, build

    config = machine.config
    if (config.shape, config.endpoints_per_chip, config.topology) != (
        workload.shape, workload.endpoints_per_chip, workload.topology
    ):
        raise ReplayError("machine does not match the trace header")
    policy = arbitration or workload.arbitration or "rr"
    if policy == "iw" and not weight_patterns:
        raise ReplayError(
            "replaying an inverse-weighted trace needs weight_patterns "
            "(reconstructed from the trace header's pattern metadata)"
        )
    run = RunSpec(machine.config, workload, policy, tuple(weight_patterns or ()))
    return build(
        run, machine, RouteComputer(machine), trace=trace,
        packets=workload.packets,
    )


def replay_trace(
    lines,
    out_stream=None,
    arbitration: Optional[str] = None,
    weight_patterns=None,
    max_cycles: int = 10_000_000,
):
    """Replay a trace end to end; returns ``(stats, workload, events)``.

    When ``out_stream`` is given, the replayed trace is written to it:
    the original metadata records verbatim, the regenerated events in
    between. For a faithful replay the output is byte-identical to the
    input. An ``iw`` replay given no ``weight_patterns`` programs its
    tables from the pattern the trace header names.
    """
    from repro.sim.trace import JsonlTraceWriter

    workload, machine = _load(lines)
    if (arbitration or workload.arbitration) == "iw" and not weight_patterns:
        weight_patterns = _header_weight_patterns(workload)
    writer = None
    if out_stream is not None:
        for line in workload.prologue:
            out_stream.write(line)
            out_stream.write("\n")
        writer = JsonlTraceWriter(out_stream, header=False)
    engine = build_replay_engine(
        machine,
        workload,
        arbitration=arbitration,
        weight_patterns=weight_patterns,
        trace=writer,
    )
    stats = engine.run(max_cycles=max_cycles)
    events_written = 0
    if writer is not None:
        writer.flush()
        events_written = writer.events_written
        for line in workload.epilogue:
            out_stream.write(line)
            out_stream.write("\n")
    return stats, workload, events_written
