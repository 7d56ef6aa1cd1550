"""Asyncio client SDK for the simulation service.

A :class:`ServeClient` owns one connection: a background reader task
routes reply frames to the futures of in-flight requests (correlated by
``id``) and unsolicited event frames (trace/metrics pushes) onto
:attr:`ServeClient.events`. Requests may be issued concurrently from
many tasks over the same connection; the server replies in request
order, but correlation is by id, so callers never need to care.

Example::

    client = await ServeClient.connect("127.0.0.1", 7777)
    sid = (await client.create({"kind": "batch", "pattern": "tornado",
                                "batch": 8}))["session"]
    await client.subscribe(sid, streams=["metrics"], metrics_every=256)
    result = await client.run(sid)
    stats = await client.stats(sid)
    await client.close_session(sid)
    await client.close()

A session is freed and resumed later -- on any server -- by keeping the
text of its ``snapshot``::

    text = (await client.snapshot(sid))["checkpoint"]
    await client.close_session(sid)
    await client.create(workload, session=sid, checkpoint=text)
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, Optional

from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)


class ServeError(RuntimeError):
    """The server replied with an error, or the connection failed."""


class ServeClient:
    """One connection to a :class:`~repro.serve.server.SimServer`."""

    def __init__(self, reader, writer, hello: Dict[str, Any]) -> None:
        self._reader = reader
        self._writer = writer
        #: The server's hello frame (proto version, server name).
        self.hello = hello
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        #: Unsolicited event frames (trace/metrics pushes), in arrival
        #: order across all subscribed sessions.
        self.events: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES
        )
        line = await reader.readline()
        if not line:
            writer.close()
            raise ServeError("server closed the connection before hello")
        hello = decode_frame(line)
        if hello.get("type") != "hello":
            writer.close()
            raise ServeError(f"expected hello frame, got {hello.get('type')!r}")
        if hello.get("proto") != PROTOCOL_VERSION:
            writer.close()
            raise ServeError(
                f"server speaks protocol {hello.get('proto')!r}, "
                f"client speaks {PROTOCOL_VERSION}"
            )
        return cls(reader, writer, hello)

    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                except ProtocolError as exc:
                    error = ServeError(f"unparseable frame from server: {exc}")
                    break
                ftype = frame.get("type")
                if ftype == "reply":
                    future = self._pending.pop(frame.get("id"), None)
                    if future is not None and not future.done():
                        future.set_result(frame)
                elif ftype == "event":
                    await self.events.put(frame)
                # Unknown frame types are ignored: room for additive
                # server-side extensions without a version bump.
        except (ConnectionError, OSError) as exc:
            error = exc
        except asyncio.CancelledError:
            error = ServeError("client closed")
        finally:
            self._closed = True
            failure = error or ServeError("connection closed by server")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()
            self.events.put_nowait(None)  # EOF sentinel for event readers

    async def request(
        self, rtype: str, session: Optional[str] = None, **fields
    ) -> Dict[str, Any]:
        """Send one request and await its result payload.

        Raises :class:`ServeError` if the server replies ``ok: false``
        or the connection dies first.
        """
        if self._closed:
            raise ServeError("client is closed")
        rid = next(self._ids)
        frame: Dict[str, Any] = {"type": rtype, "id": rid}
        if session is not None:
            frame["session"] = session
        for key, value in fields.items():
            if value is not None:
                frame[key] = value
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        self._writer.write(encode_frame(frame))
        try:
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(rid, None)
            raise ServeError(f"connection lost: {exc}") from exc
        reply = await future
        if not reply.get("ok"):
            raise ServeError(reply.get("error", "unknown server error"))
        return reply.get("result") or {}

    # --- convenience wrappers ---------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self.request("ping")

    async def server_stats(self) -> Dict[str, Any]:
        return await self.request("server_stats")

    async def create(
        self,
        workload: Dict[str, Any],
        config: Optional[Dict[str, Any]] = None,
        session: Optional[str] = None,
        checkpoint: Optional[str] = None,
    ) -> Dict[str, Any]:
        return await self.request(
            "create",
            session=session,
            workload=workload,
            config=config,
            checkpoint=checkpoint,
        )

    async def step(self, session: str, cycles: int = 1) -> Dict[str, Any]:
        return await self.request("step", session=session, cycles=cycles)

    async def run(self, session: str) -> Dict[str, Any]:
        return await self.request("run", session=session)

    async def submit_demand(
        self, session: str, demand: Dict[str, Any]
    ) -> Dict[str, Any]:
        return await self.request(
            "submit_demand", session=session, demand=demand
        )

    async def inject_fault(
        self, session: str, faults: Dict[str, Any]
    ) -> Dict[str, Any]:
        return await self.request(
            "inject_fault", session=session, faults=faults
        )

    async def snapshot(self, session: str) -> Dict[str, Any]:
        return await self.request("snapshot", session=session)

    async def stats(self, session: str) -> Dict[str, Any]:
        return await self.request("stats", session=session)

    async def subscribe(
        self,
        session: str,
        streams=None,
        metrics_every: int = 0,
    ) -> Dict[str, Any]:
        return await self.request(
            "subscribe",
            session=session,
            streams=list(streams) if streams is not None else None,
            metrics_every=metrics_every or None,
        )

    async def close_session(self, session: str) -> Dict[str, Any]:
        return await self.request("close", session=session)

    async def close(self) -> None:
        """Tear the connection down and stop the reader task."""
        if not self._closed:
            self._closed = True
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
