"""The asyncio session server: table and dispatch.

One :class:`SimServer` owns a table of live
:class:`~repro.serve.session.Session` objects: a session lives in it from
``create`` until ``close``, and ``max_sessions`` caps it -- a ``create``
past the cap is refused, and only ``close`` makes room. A client that
wants to free a session and resume it later (on this server or another)
keeps the text of its ``snapshot`` reply, ``close``s it, and later sends
that text back as ``create``'s ``checkpoint``: checkpoint/restore is bitwise
resume-equivalent (re-argued in :mod:`repro.serve.session`), so the
resumed session ends byte-identical to one never interrupted.

Concurrency model
-----------------

One task per connection, reading requests strictly in order: a reply is
written before the next request on that connection is read (replies are
therefore in request order -- the protocol invariant). A second task per
connection drains its :class:`~repro.serve.session.OutboundChannel` to
the socket. The channel carries two lanes through one FIFO: control
frames (hello, replies) are never dropped, while stream event frames
are bounded by :data:`OUTBOUND_LIMIT` and governed by each session's
backpressure policy -- overload can discard events, never a reply. Long
``run`` requests yield the loop every quantum, so N connections advance
N sessions concurrently with no thread in sight.
"""

from __future__ import annotations

import asyncio
import dataclasses
import re
import time
from typing import Dict, Optional

from repro.sim.metrics import StreamingQuantile

from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    hello_frame,
    parse_request,
    reply_error,
    reply_ok,
)
from .session import (
    OutboundChannel,
    Session,
    SessionConfig,
    SessionError,
    Subscriber,
)

#: Session ids come from outside the program: a short, printable charset.
_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Bound of each connection's outbound event lane (frames); control
#: frames (replies, hello) are never bounded or dropped.
OUTBOUND_LIMIT = 1024


class SimServer:
    """A TCP server multiplexing many simulation sessions."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 1024,
        session_config: Optional[SessionConfig] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        self.session_config = session_config or SessionConfig()
        #: Live sessions, in creation order.
        self.sessions: Dict[str, Session] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._next_sid = 0
        #: Request latencies in integer microseconds.
        self.latency = StreamingQuantile()
        self.counters = {
            "connections": 0,
            "requests": 0,
            "protocol_errors": 0,
            "errors": 0,
            "created": 0,
            "closed": 0,
        }

    # --- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_FRAME_BYTES,
        )
        # Port 0 binds an ephemeral port; publish the real one.
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self):
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # --- connection handling ----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.counters["connections"] += 1
        outbound = OutboundChannel(OUTBOUND_LIMIT)
        drain = asyncio.ensure_future(self._drain_outbound(outbound, writer))
        outbound.put_control(encode_frame(hello_frame()))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized line: the stream cannot be re-synced.
                    self.counters["protocol_errors"] += 1
                    break
                except (ConnectionError, OSError):
                    break
                except asyncio.CancelledError:
                    # Loop teardown; exit quietly so the streams-layer
                    # completion callback sees a clean task.
                    break
                if not line:
                    break
                reply = await self._dispatch(line, outbound)
                outbound.put_control(encode_frame(reply))
        finally:
            for session in self.sessions.values():
                session.unsubscribe_channel(outbound)
            outbound.put_control(None)  # sentinel: flush then stop
            try:
                await drain
            except (asyncio.CancelledError, ConnectionError, OSError):
                # Loop teardown cancels the drain task out from under
                # us; the connection is going away either way.
                drain.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    @staticmethod
    async def _drain_outbound(outbound: OutboundChannel, writer) -> None:
        while True:
            data = await outbound.get()
            if data is None:
                break
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                # Peer vanished: keep consuming so producers never hang
                # on a full queue feeding a dead socket.
                while True:
                    leftover = await outbound.get()
                    if leftover is None:
                        return

    async def _dispatch(self, line: bytes, outbound: OutboundChannel) -> dict:
        """Decode, handle, and time one request; always returns a reply."""
        t0 = time.perf_counter_ns()
        rid = -1
        try:
            frame = decode_frame(line)
            raw_id = frame.get("id")
            if isinstance(raw_id, int) and not isinstance(raw_id, bool):
                rid = raw_id
            rtype, rid, sid = parse_request(frame)
            reply = reply_ok(rid, await self._handle(rtype, sid, frame, outbound))
        except ProtocolError as exc:
            self.counters["protocol_errors"] += 1
            reply = reply_error(rid, str(exc))
        except asyncio.CancelledError:  # pragma: no cover
            raise
        except Exception as exc:
            # Session/engine failures (bad workloads, deadlocks, budget
            # blowouts) become error replies; the server stays up.
            self.counters["errors"] += 1
            reply = reply_error(rid, f"{type(exc).__name__}: {exc}")
        self.counters["requests"] += 1
        self.latency.add((time.perf_counter_ns() - t0) // 1000)
        return reply

    # --- request handlers -------------------------------------------------------

    async def _handle(
        self, rtype: str, sid: Optional[str], frame: dict, outbound
    ) -> dict:
        if rtype == "ping":
            return {"pong": True, "proto": PROTOCOL_VERSION}
        if rtype == "server_stats":
            return self.server_stats_payload()
        if rtype == "create":
            return self._handle_create(sid, frame)
        session = self._session(sid)
        if rtype == "step":
            cycles = frame.get("cycles", 1)
            if not isinstance(cycles, int) or isinstance(cycles, bool) or cycles < 1:
                raise SessionError("step needs integer 'cycles' >= 1")
            return await session.advance(cycles)
        if rtype == "run":
            return await session.advance(None)
        if rtype == "submit_demand":
            return session.submit_demand(frame.get("demand") or {})
        if rtype == "inject_fault":
            return session.inject_faults(frame.get("faults") or {})
        if rtype == "snapshot":
            return {
                "session": sid,
                "cycle": session.engine.cycle,
                "checkpoint": session.snapshot_text(),
            }
        if rtype == "stats":
            return session.stats_payload()
        if rtype == "subscribe":
            streams = frame.get("streams")
            if streams is None:
                streams = ["trace", "metrics"]
            if not isinstance(streams, list) or not all(
                isinstance(s, str) for s in streams
            ):
                raise SessionError("'streams' must be a list of stream names")
            metrics_every = frame.get("metrics_every", 0)
            if not isinstance(metrics_every, int) or isinstance(
                metrics_every, bool
            ):
                raise SessionError("'metrics_every' must be an integer")
            session.subscribe(Subscriber(outbound, streams, metrics_every))
            return {"session": sid, "streams": sorted(streams)}
        if rtype == "close":
            return self._handle_close(session)
        raise ProtocolError(f"unhandled request type {rtype!r}")  # pragma: no cover

    def _handle_create(self, sid: Optional[str], frame: dict) -> dict:
        if sid is None:
            # Skip the ids clients chose for themselves.
            while f"s{self._next_sid}" in self.sessions:
                self._next_sid += 1
            sid = f"s{self._next_sid}"
            self._next_sid += 1
        elif not _SESSION_ID_RE.match(sid):
            raise SessionError(
                "session ids are 1-64 chars of [A-Za-z0-9._-], starting "
                "with an alphanumeric"
            )
        if sid in self.sessions:
            raise SessionError(f"session {sid!r} already exists")
        if len(self.sessions) >= self.max_sessions:
            raise SessionError(
                f"session table is full ({self.max_sessions} sessions); "
                "close a session first"
            )
        overrides = frame.get("config") or {}
        if not isinstance(overrides, dict):
            raise SessionError("'config' must be a JSON object")
        base = dataclasses.asdict(self.session_config)
        unknown = set(overrides) - set(base)
        if unknown:
            raise SessionError(
                f"unknown config keys {sorted(unknown)}; "
                f"known: {sorted(base)}"
            )
        base.update(overrides)
        config = SessionConfig(**base)
        session = Session.create(
            sid, frame.get("workload") or {}, config, frame.get("checkpoint")
        )
        self.sessions[sid] = session
        self.counters["created"] += 1
        return {
            "session": sid,
            "cycle": session.engine.cycle,
            "kind": session.workload.get("kind", "idle"),
            "drained": session.drained,
        }

    def _handle_close(self, session: Session) -> dict:
        session._require_idle("close")
        sid = session.session_id
        final = session.stats_payload()
        del self.sessions[sid]
        self.counters["closed"] += 1
        return {"session": sid, "closed": True, "final": final}

    # --- session table ----------------------------------------------------------

    def _session(self, sid: str) -> Session:
        session = self.sessions.get(sid)
        if session is None:
            raise SessionError(f"unknown session {sid!r}")
        return session

    # --- observation ------------------------------------------------------------

    def server_stats_payload(self) -> dict:
        quantiles = (
            self.latency.quantiles([0.5, 0.95, 0.99])
            if self.latency.count
            else {0.5: 0, 0.95: 0, 0.99: 0}
        )
        payload = {
            "proto": PROTOCOL_VERSION,
            "sessions": {
                "live": len(self.sessions),
                "max": self.max_sessions,
            },
            "latency_us": {
                "count": self.latency.count,
                "p50": quantiles[0.5],
                "p95": quantiles[0.95],
                "p99": quantiles[0.99],
            },
        }
        payload.update(self.counters)
        return payload
