"""Wire protocol of the simulation service: versioned NDJSON frames.

The serve package multiplexes many concurrent simulation sessions over
one TCP byte stream per client. The protocol is deliberately minimal --
newline-delimited JSON objects ("frames"), one frame per line -- so a
session can be driven from any language, from ``nc``, or from a shell
heredoc, and a captured conversation is diffable text.

Frame taxonomy
--------------

Three frame shapes flow on a connection:

* **requests** (client -> server): ``{"type": <request>, "id": <int>,
  ...}``. ``id`` is a client-chosen correlation token echoed in the
  reply; ids must be JSON integers but carry no ordering semantics.
  Session-scoped requests additionally carry ``"session": <str>``.
* **replies** (server -> client): ``{"type": "reply", "id": <int>,
  "ok": true, "result": {...}}`` or ``{"type": "reply", "id": <int>,
  "ok": false, "error": "..."}``. Exactly one reply per request, in
  per-connection request order.
* **events** (server -> client, unsolicited): ``{"type": "event",
  "stream": "trace"|"metrics", "session": <str>, ...}`` -- pushed to
  subscribed connections as a session runs. ``trace`` events batch raw
  trace JSONL lines (``"events": [<line>, ...]``, exactly the bytes a
  :class:`~repro.sim.trace.JsonlTraceWriter` would emit); ``metrics``
  events carry a non-mutating
  :meth:`~repro.sim.metrics.MetricsCollector.snapshot` dict.

Request types (see :mod:`repro.serve.server` for handler semantics):

========================= =========================================================
``create``                 build a session around a workload spec (resumed from a
                           ``snapshot`` reply's text when it carries ``checkpoint``)
``step``                   advance a session at most N cycles
``run``                    advance a session until its traffic drains
``submit_demand``          enqueue a demand-matrix workload into a session
``inject_fault``           schedule future link faults in a faulted session
``snapshot``               return the session's canonical engine checkpoint text
``stats``                  stats dict + metrics snapshot (valid mid-run)
``subscribe``              attach this connection to a session's event streams
``close``                  finalize and discard a session
``server_stats``           server-wide counters and request-latency quantiles
``ping``                   liveness probe
========================= =========================================================

Serialization is canonical: compact separators, **insertion-ordered**
keys -- never ``sort_keys``, because reply payloads embed
``SimStats.asdict()`` counter dicts whose insertion order is delivery
order and part of the repo-wide bitwise determinism contract. Equal
payloads are therefore equal bytes, which is what lets the conformance
tests compare whole frames.

``PROTOCOL_VERSION`` is carried in the server's hello frame (the first
line it writes on every connection) and checked by the client SDK; bump
it on any frame-shape change.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple, Union

#: Version of the frame schema; bump on any shape change.
PROTOCOL_VERSION = 2

#: Hard per-frame size bound (bytes, newline included). Generous enough
#: for a snapshot reply carrying a large session checkpoint; a limit at
#: all so one malformed client cannot balloon server memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Every request type the server dispatches.
REQUEST_TYPES = (
    "create",
    "step",
    "run",
    "submit_demand",
    "inject_fault",
    "snapshot",
    "stats",
    "subscribe",
    "close",
    "server_stats",
    "ping",
)

#: Request types that address a session (must carry ``"session"``).
SESSION_REQUEST_TYPES = frozenset(REQUEST_TYPES) - {
    "create",
    "server_stats",
    "ping",
}

#: Server-pushed event stream names.
STREAM_NAMES = ("trace", "metrics")


class ProtocolError(ValueError):
    """A frame is malformed, oversized, or violates the frame schema."""


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Canonical bytes of one frame: compact JSON + newline.

    Insertion-ordered (never ``sort_keys``): embedded stats dicts carry
    meaning in their key order.
    """
    if not isinstance(frame, dict) or "type" not in frame:
        raise ProtocolError("frame must be a dict with a 'type' field")
    line = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return line


def decode_frame(line: Union[bytes, str]) -> Dict[str, Any]:
    """Parse one received line into a frame dict.

    Raises :class:`ProtocolError` on anything but a single JSON object
    with a string ``type`` -- corrupt lines must fail loudly, exactly
    like :func:`repro.sim.trace.read_trace` does for traces.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds MAX_FRAME_BYTES "
                f"({MAX_FRAME_BYTES})"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    if not isinstance(frame.get("type"), str):
        raise ProtocolError("frame has no string 'type' field")
    return frame


def parse_request(frame: Dict[str, Any]) -> Tuple[str, int, Optional[str]]:
    """Validate a request frame; returns ``(type, id, session-or-None)``."""
    rtype = frame["type"]
    if rtype not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown request type {rtype!r}; known: {', '.join(REQUEST_TYPES)}"
        )
    rid = frame.get("id")
    if not isinstance(rid, int) or isinstance(rid, bool):
        raise ProtocolError(f"request {rtype!r} needs an integer 'id'")
    session = frame.get("session")
    if rtype in SESSION_REQUEST_TYPES:
        if not isinstance(session, str) or not session:
            raise ProtocolError(
                f"request {rtype!r} needs a non-empty string 'session'"
            )
    elif session is not None and not isinstance(session, str):
        raise ProtocolError("'session' must be a string when present")
    return rtype, rid, session


def hello_frame(server: str = "repro-serve") -> Dict[str, Any]:
    """The first frame a server writes on every new connection."""
    return {"type": "hello", "proto": PROTOCOL_VERSION, "server": server}


def reply_ok(request_id: int, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "reply", "id": request_id, "ok": True, "result": result}


def reply_error(request_id: int, error: str) -> Dict[str, Any]:
    return {"type": "reply", "id": request_id, "ok": False, "error": error}


def trace_event_frame(session: str, lines: list) -> Dict[str, Any]:
    """One batched trace push: raw JSONL event lines, writer-identical."""
    return {
        "type": "event",
        "stream": "trace",
        "session": session,
        "events": lines,
    }


def metrics_event_frame(
    session: str, cycle: int, snapshot: Dict[str, Any]
) -> Dict[str, Any]:
    """One metrics push: a non-mutating collector snapshot at ``cycle``."""
    return {
        "type": "event",
        "stream": "metrics",
        "session": session,
        "cycle": cycle,
        "snapshot": snapshot,
    }
