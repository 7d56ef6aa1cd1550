"""Structured event tracing for the cycle-level engine.

The paper's measurement sections (Figures 9-13) all derive from per-flit
events -- channel occupancy, VC residency, release-to-delivery latency --
so the engine exposes an opt-in structured event stream rather than only
end-of-run aggregates. With the exact fixed-point timebase (PR 1) a run's
full event trace is a pure function of its spec, which makes traces
*pinnable*: the canonical runs in :mod:`repro.sim.goldens` are committed
as JSONL artifacts and byte-compared on every CI run, so any drift in
engine semantics becomes an immediate, diffable failure.

Event stream
------------

Six event kinds, each stamped with the cycle, the exact tick
(``cycle * ticks_per_cycle``), the packet id, a channel id, and a VC:

========== =====================================================================
kind       meaning (extra fields)
========== =====================================================================
``inject``  packet leaves its source queue onto its first channel
            (``src``, ``dst``, ``flits``)
``grant``   an SA2 output arbiter granted the packet its next channel
            (``in_ch``, ``in_vc``: the buffer it is leaving)
``depart``  packet begins serializing onto ``ch`` (``flits``, ``busy``:
            exact occupancy ticks, ``end``: exact serialization-end tick)
``promote`` the hop raised the packet's VC (dateline / dimension-completion
            promotion; ``from_vc``)
``arrive``  packet fully received into the VC buffer at ``ch``'s destination
``deliver`` packet consumed at its destination endpoint (``lat``: injection-
            to-delivery cycles, ``qlat``: release-to-delivery cycles)
``fault``   channel ``ch`` failed or recovered mid-run (``down``: 1 on
            failure, 0 on recovery; ``pid`` is -1 -- no packet involved)
``reroute`` a fault stranded the packet and it was re-routed in place from
            the component holding it (``hops``: new remaining hop count)
``drop``    a fault stranded the packet and the policy dropped it
``retry``   a fault stranded the packet and the retry policy re-injected it
            at its source (``attempt``, ``rel``: the re-release cycle)
========== =====================================================================

The fault kinds were added in PR 3 as a purely additive extension: a
trace containing no faults serializes byte-identically to one produced
before they existed, so the schema version is unchanged.

Within a cycle, events appear in causal order (``grant`` before the
``depart`` it caused, ``depart`` before any ``promote`` it carried).

Sinks
-----

The engine emits through a minimal sink protocol (``emit``/``flush``) and
pays a single ``is None`` check per site when tracing is disabled:

* :class:`ListSink` -- in-memory event list (tests, reducers);
* :class:`JsonlTraceWriter` -- canonical JSONL serialization, one event
  per line with a fixed key order, so equal traces are equal *bytes*;
* :class:`Tee` -- fan one stream out to several sinks (e.g. a JSONL file
  plus a :class:`repro.sim.metrics.MetricsCollector`).

A :class:`~repro.sim.metrics.MetricsCollector` in the engine's sink is
not sent the hot events: the engine splits it out when the sink is
assigned and calls its reducers directly at grant, depart, arrive and
deliver, so :class:`TraceEvent` objects are built only for the other
sinks (none at all under a collector alone). Fault, drop, re-route and
retry records and replayed files reach a collector as events, through
its ``emit``. Every other sink sees exactly the stream described above.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, NamedTuple, Optional, Tuple

#: Version of the serialized trace schema; bump on any field change.
TRACE_SCHEMA_VERSION = 1

#: The event kinds, in the order documented above.
EVENT_KINDS = (
    "inject",
    "grant",
    "depart",
    "promote",
    "arrive",
    "deliver",
    "fault",
    "reroute",
    "drop",
    "retry",
)


class TraceEvent(NamedTuple):
    """One structured engine event.

    ``extra`` holds the kind-specific fields as ``(key, value)`` pairs in
    their canonical serialization order.
    """

    kind: str
    cycle: int
    tick: int
    pid: int
    channel: int
    vc: int
    extra: Tuple[Tuple[str, int], ...] = ()

    def to_json(self) -> str:
        """Canonical single-line JSON: fixed key order, no whitespace."""
        parts = [
            f'"ev":"{self.kind}"',
            f'"cyc":{self.cycle}',
            f'"t":{self.tick}',
            f'"pid":{self.pid}',
            f'"ch":{self.channel}',
            f'"vc":{self.vc}',
        ]
        parts.extend(f'"{key}":{value}' for key, value in self.extra)
        return "{" + ",".join(parts) + "}"

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        return cls.from_obj(json.loads(line))

    @classmethod
    def from_obj(cls, obj: dict) -> "TraceEvent":
        """The event an already-decoded JSON line spells."""
        extra = tuple(
            (key, value)
            for key, value in obj.items()
            if key not in ("ev", "cyc", "t", "pid", "ch", "vc")
        )
        return cls(
            kind=obj["ev"],
            cycle=obj["cyc"],
            tick=obj["t"],
            pid=obj["pid"],
            channel=obj["ch"],
            vc=obj["vc"],
            extra=extra,
        )

    def get(self, key: str, default: int = 0) -> int:
        """Look up a kind-specific extra field."""
        for k, value in self.extra:
            if k == key:
                return value
        return default


class ListSink:
    """Collects events in memory (``.events``)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.emit = self.events.append  # bound append: no per-event frame

    def flush(self) -> None:
        pass


class Tee:
    """Fans every event (and flush) out to several sinks."""

    def __init__(self, *sinks) -> None:
        self.sinks = sinks

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()


def leaf_sinks(sink):
    """Every sink ``sink`` reaches, through any :class:`Tee`, in the order
    they are sent each event."""
    if isinstance(sink, Tee):
        for sub in sink.sinks:
            yield from leaf_sinks(sub)
    elif sink is not None:
        yield sink


class JsonlTraceWriter:
    """Serializes events as canonical JSONL onto a text stream.

    The first line is a header record (``"ev":"trace"``) carrying the
    schema version and whatever run metadata the caller supplies; callers
    may append further non-event records (e.g. an ``"ev":"end"`` summary)
    via :meth:`write_record`. All records use sorted keys and compact
    separators, so a trace's byte representation is a pure function of
    its events -- the property the golden-trace suite pins.

    A writer only ever writes to its stream unless ``owns_stream`` says
    the stream is this trace's own file, opened without cutting it (the
    CLI opens ``--trace`` paths so, before anyone knows whether the run
    resumes; never stdout, whatever it is redirected to). Such a writer
    may cut the file. The header is held until the first write, which
    then cuts whatever the file holds from there on; a resume calls
    :meth:`rewind` first (:func:`~repro.sim.checkpoint.restore_engine`
    does, for every writer it is handed), which drops the held header and
    cuts the file back to the checkpoint instead -- the finished file is
    byte-identical to the uninterrupted run's, end-record event count
    included -- and a refused checkpoint leaves the file as it was.

    ``header=False`` writes no header: records for a stream that has its
    own, or a trace that is always rewound into. ``bytes_written`` counts
    UTF-8 bytes of everything written (header and records too). The
    stream is flushed only by :meth:`flush`.
    """

    def __init__(
        self,
        stream: IO[str],
        meta: dict = None,
        header: bool = True,
        owns_stream: bool = False,
    ) -> None:
        self.stream = stream
        self.owns_stream = owns_stream
        self.events_written = self.bytes_written = 0
        #: The header line until the first write puts it out.
        self._held: Optional[str] = None
        if header:
            hdr = {"ev": "trace", "schema": TRACE_SCHEMA_VERSION}
            hdr.update(meta or {})
            self._held = _record_line(hdr)
            self.bytes_written = len(self._held.encode("utf-8"))

    def _begin(self) -> None:
        held, self._held = self._held, None
        if self.owns_stream:
            self.stream.truncate()  # an interrupted run's bytes
        self.stream.write(held)

    def rewind(self, events_written: int, bytes_written: int) -> None:
        """Cut the stream back to the first ``bytes_written`` bytes of the
        trace -- what a checkpoint recorded of it -- and go on from there.

        A crashed run may have written events past its last checkpoint.
        The writer must own its stream, the interrupted run's trace file;
        one that does not, or a file that holds less, is refused.
        """
        stream = self.stream
        size = stream.seek(0, 2) if self.owns_stream else None
        if size is None or size < bytes_written:
            raise ValueError(
                f"cannot resume this trace: its checkpoint recorded "
                f"{bytes_written} bytes of it and the stream "
                f"{'is not a file of its own' if size is None else f'holds {size}'}"
                f"; pass the interrupted run's trace file, not stdout or a new path"
            )
        self._held = None
        stream.seek(bytes_written)
        stream.truncate()
        self.events_written, self.bytes_written = events_written, bytes_written

    def emit(self, event: TraceEvent) -> None:
        if self._held is not None:
            self._begin()
        line = event.to_json()
        self.stream.write(line)
        self.stream.write("\n")
        self.events_written += 1
        self.bytes_written += len(line.encode("utf-8")) + 1

    def write_record(self, record: dict) -> None:
        """Write one non-event metadata record (an end summary)."""
        if self._held is not None:
            self._begin()
        line = _record_line(record)
        self.stream.write(line)
        self.bytes_written += len(line.encode("utf-8"))

    def flush(self) -> None:
        if self._held is not None:
            self._begin()
        self.stream.flush()


def _record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def read_trace(lines: Iterable[str]) -> Tuple[List[dict], List[TraceEvent]]:
    """Parse JSONL trace lines into (metadata records, events).

    Accepts any iterable of lines (an open file, ``str.splitlines()``);
    blank lines are ignored. Raises ``json.JSONDecodeError`` on a corrupt
    line -- the golden and watchdog tests rely on this strictness.
    """
    records: List[dict] = []
    events: List[TraceEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if obj.get("ev") in EVENT_KINDS:
            events.append(TraceEvent.from_obj(obj))
        else:
            records.append(obj)
    return records, events
