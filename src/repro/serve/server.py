"""The asyncio session server: table, eviction, recovery, dispatch.

One :class:`SimServer` owns a table of live :class:`~repro.serve.session.Session`
objects plus an index of *spooled* ones -- sessions evicted to checkpoint
files in a spool directory. The table is LRU-ordered (every session
request touches its entry); when a ``create`` would exceed
``max_sessions``, the least-recently-used idle session is frozen to the
spool, and any request addressing a spooled session transparently thaws
it first. Because an evict/thaw cycle is bitwise-invisible (PR 5's
checkpoint contract, re-argued in :mod:`repro.serve.session`), clients
cannot observe whether their session stayed resident -- the property
that makes the LRU policy safe to apply blindly.

The spool doubles as crash recovery: spool files are written atomically
(temp file + ``os.replace``, the same pattern as
:func:`~repro.sim.checkpoint.save_checkpoint`), and a starting server
scans its spool directory and re-indexes every record it finds, so
sessions evicted before a crash survive it.

Concurrency model
-----------------

One task per connection, reading requests strictly in order: a reply is
written before the next request on that connection is read (replies are
therefore in request order -- the protocol invariant). A second task per
connection drains its :class:`~repro.serve.session.OutboundChannel` to
the socket. The channel carries two lanes through one FIFO: control
frames (hello, replies) are never dropped, while stream event frames
are bounded by ``outbound_limit`` and governed by each session's
backpressure policy -- overload can discard events, never a reply. Long
``run`` requests yield the loop every quantum, so N connections advance
N sessions concurrently with no thread in sight.

Eviction keeps live subscriptions: spool files cannot carry them (a
subscriber is a handle on a live connection), so :meth:`SimServer._evict`
parks a session's subscribers in server memory keyed by session id and
thaw re-attaches them -- streams resume exactly where the frozen session
does. A crash loses only those parked handles, whose connections died
with the process anyway.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import re
import time
from typing import Dict, List, Optional

from repro.sim.checkpoint import write_atomic
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

#: Session ids must be filesystem-safe: they name spool files.
_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Default bound of each connection's outbound event lane (frames);
#: control frames (replies, hello) are never bounded or dropped.
DEFAULT_OUTBOUND_LIMIT = 1024


class SimServer:
    """A TCP server multiplexing many simulation sessions."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        spool_dir: Optional[str] = None,
        max_sessions: int = 1024,
        session_config: Optional[SessionConfig] = None,
        outbound_limit: int = DEFAULT_OUTBOUND_LIMIT,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if outbound_limit < 1:
            raise ValueError("outbound_limit must be >= 1")
        self.host = host
        self.port = port
        self.spool_dir = spool_dir
        self.max_sessions = max_sessions
        self.session_config = session_config or SessionConfig()
        self.outbound_limit = outbound_limit
        #: Live sessions, LRU-ordered: first entry is coldest.
        self.sessions: Dict[str, Session] = {}
        #: Spooled sessions: id -> spool file path.
        self.spooled: Dict[str, str] = {}
        #: Subscribers of spooled sessions, parked until thaw re-attaches
        #: them (spool files cannot carry live connection handles).
        self._evicted_subs: Dict[str, List[Subscriber]] = {}
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
            "evictions": 0,
            "thaws": 0,
            "recovered": 0,
        }

    # --- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and recover any spooled sessions."""
        if self.spool_dir is not None:
            os.makedirs(self.spool_dir, exist_ok=True)
            for path in sorted(pathlib.Path(self.spool_dir).glob("*.json")):
                sid = path.stem
                if _SESSION_ID_RE.match(sid) and sid not in self.spooled:
                    self.spooled[sid] = str(path)
                    self.counters["recovered"] += 1
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
        outbound = OutboundChannel(self.outbound_limit)
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
            self._unpark_channel(outbound)
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

    def _unpark_channel(self, channel: OutboundChannel) -> None:
        """Forget parked subscriptions of a closing connection."""
        for sid in list(self._evicted_subs):
            kept = [
                s for s in self._evicted_subs[sid] if s.channel is not channel
            ]
            if kept:
                self._evicted_subs[sid] = kept
            else:
                del self._evicted_subs[sid]

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
        if rtype == "evict":
            session._require_idle("evict")
            path = self._evict(session)
            return {"session": sid, "evicted": True, "spool": path}
        raise ProtocolError(f"unhandled request type {rtype!r}")  # pragma: no cover

    def _handle_create(self, sid: Optional[str], frame: dict) -> dict:
        if sid is None:
            sid = f"s{self._next_sid}"
            self._next_sid += 1
        elif not _SESSION_ID_RE.match(sid):
            raise SessionError(
                "session ids are 1-64 chars of [A-Za-z0-9._-], starting "
                "with an alphanumeric (they name spool files)"
            )
        if sid in self.sessions or sid in self.spooled:
            raise SessionError(f"session {sid!r} already exists")
        overrides = frame.get("config") or {}
        if not isinstance(overrides, dict):
            raise SessionError("'config' must be a JSON object")
        import dataclasses as _dc

        base = _dc.asdict(self.session_config)
        unknown = set(overrides) - set(base)
        if unknown:
            raise SessionError(
                f"unknown config keys {sorted(unknown)}; "
                f"known: {sorted(base)}"
            )
        base.update(overrides)
        config = SessionConfig(**base)
        session = Session.create(sid, frame.get("workload") or {}, config)
        self._make_room()
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
        """Resolve a live session, thawing from the spool on a miss."""
        session = self.sessions.get(sid)
        if session is not None:
            self.sessions[sid] = self.sessions.pop(sid)  # LRU touch
            return session
        path = self.spooled.get(sid)
        if path is None:
            raise SessionError(f"unknown session {sid!r}")
        try:
            payload = json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise SessionError(
                f"session {sid!r} is spooled but unreadable: {exc}"
            ) from exc
        session = Session.thaw(payload)
        # Make room *before* forgetting the spool record: if the table is
        # full of busy sessions this raises, and the session must still
        # be reachable (spooled) for a later retry rather than lost.
        self._make_room()
        for sub in self._evicted_subs.pop(sid, []):
            session.subscribe(sub)
        self.sessions[sid] = session
        del self.spooled[sid]
        os.unlink(path)
        self.counters["thaws"] += 1
        return session

    def _make_room(self) -> None:
        """Evict LRU idle sessions until one table slot is free."""
        while len(self.sessions) >= self.max_sessions:
            victim = next(
                (s for s in self.sessions.values() if not s.busy), None
            )
            if victim is None:
                raise SessionError(
                    "session table is full and every session is busy"
                )
            self._evict(victim)

    def _evict(self, session: Session) -> str:
        """Freeze one session to its spool file, whole or not at all.

        Live subscribers are parked server-side and re-attached on thaw,
        so subscribed clients cannot observe the eviction either -- their
        streams resume when the session does.
        """
        if self.spool_dir is None:
            raise SessionError(
                "eviction needs a spool directory (start the server with "
                "--spool-dir)"
            )
        sid = session.session_id
        payload = session.spool_payload()
        path = os.path.join(self.spool_dir, f"{sid}.json")
        try:
            write_atomic(path, json.dumps(payload, separators=(",", ":")) + "\n")
        except OSError as exc:
            raise SessionError(str(exc)) from None
        if session.subscribers:
            self._evicted_subs[sid] = session.subscribers
        del self.sessions[sid]
        self.spooled[sid] = path
        self.counters["evictions"] += 1
        return path

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
                "spooled": len(self.spooled),
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


async def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    spool_dir: Optional[str] = None,
    max_sessions: int = 1024,
    session_config: Optional[SessionConfig] = None,
    ready=None,
) -> None:
    """Start a server and serve until cancelled (the CLI entry point).

    ``ready``, when given, is an :class:`asyncio.Event` set once the
    socket is bound -- tests use it to learn the ephemeral port.
    """
    server = SimServer(
        host=host,
        port=port,
        spool_dir=spool_dir,
        max_sessions=max_sessions,
        session_config=session_config,
    )
    await server.start()
    if ready is not None:
        ready.server = server  # type: ignore[attr-defined]
        ready.set()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        raise
    finally:
        await server.close()
