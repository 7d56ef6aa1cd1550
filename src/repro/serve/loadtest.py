"""Load-test harness: hundreds of concurrent sessions, quantile reports.

Drives N sessions through a server -- by default an in-process one on
the same event loop, so CI needs no process management -- over a small
pool of pooled connections, with a seeded arrival process. Every session
is created before any is stepped (a two-phase barrier), so the peak
live-session count the report claims is a *measured* fact: the
coordinator samples ``server_stats`` while the barrier holds all N
sessions resident.

Latency is reported from both ends in integer microseconds through the
same :class:`~repro.sim.metrics.StreamingQuantile` the engine uses for
packet latencies: client-side per-request round trips, and the server's
own per-request dispatch times. ``repro loadtest`` exits 1 when a
session failed or fewer than all of them were live at once.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import time
from typing import Any, Dict, Optional

from repro.sim.metrics import StreamingQuantile

from .client import ServeClient, ServeError
from .server import SimServer

#: Version of the loadtest report schema; bump on any shape change.
LOADTEST_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class LoadTestSpec:
    """Parameters of one load-test run."""

    sessions: int = 500
    connections: int = 16
    #: step requests per session after the creation barrier.
    steps: int = 2
    step_cycles: int = 64
    #: Arrival offsets are drawn uniformly from [0, spread) seconds.
    arrival_spread_s: float = 0.25
    seed: int = 0
    #: Workload spec per session; ``None`` selects a small batch whose
    #: per-session ``seed`` varies, so sessions are not byte-clones.
    workload: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.steps < 0 or self.step_cycles < 1:
            raise ValueError("steps must be >= 0, step_cycles >= 1")
        if self.arrival_spread_s < 0:
            raise ValueError("arrival_spread_s must be >= 0")


def default_workload(index: int, seed: int) -> dict:
    """The stock loadtest workload: a small seeded batch."""
    return {
        "kind": "batch",
        "shape": [2, 2, 2],
        "endpoints": 1,
        "cores": 1,
        "pattern": "uniform",
        "batch": 2,
        "seed": seed + index,
    }


class _Phases:
    """Two-phase rendezvous: all-arrived, then released to step.

    Failed creations still *arrive* (without holding a session), so the
    barrier always fills and the coordinator never deadlocks on a
    partial fleet.
    """

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self.arrived = 0
        self.all_arrived = asyncio.Event()
        self.release = asyncio.Event()

    def arrive(self) -> None:
        self.arrived += 1
        if self.arrived >= self.parties:
            self.all_arrived.set()

    async def hold(self) -> None:
        await self.release.wait()


async def _session_task(
    index: int,
    client: ServeClient,
    spec: LoadTestSpec,
    phases: _Phases,
    latency: StreamingQuantile,
    tally: Dict[str, int],
) -> None:
    rng = random.Random((spec.seed << 20) ^ index)
    await asyncio.sleep(rng.uniform(0.0, spec.arrival_spread_s))
    sid = f"lt{index}"
    workload = (
        dict(spec.workload)
        if spec.workload is not None
        else default_workload(index, spec.seed)
    )

    async def timed(coro):
        t0 = time.perf_counter_ns()
        result = await coro
        latency.add((time.perf_counter_ns() - t0) // 1000)
        tally["requests"] += 1
        return result

    arrived = False
    try:
        await timed(client.create(workload, session=sid))
        phases.arrive()
        arrived = True
        await phases.hold()
        for _ in range(spec.steps):
            result = await timed(client.step(sid, spec.step_cycles))
            tally["cycles"] += result.get("advanced", 0)
        await timed(client.stats(sid))
        await timed(client.close_session(sid))
        tally["completed"] += 1
    except ServeError as exc:
        tally["failed"] += 1
        if not tally.get("_error_text"):
            tally["_error_text"] = f"{sid}: {exc}"
    finally:
        if not arrived:
            phases.arrive()


async def run_loadtest(
    spec: LoadTestSpec,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one load test; returns the report dict.

    With ``host`` ``None`` an in-process :class:`SimServer` is started on
    the current loop (sized to hold every session live) and torn down
    afterwards; otherwise an external server at ``host:port`` is driven.
    A ``port`` without a ``host`` is refused.
    """
    if host is None and port is not None:
        raise ValueError("--port names an external server; give --host too")
    server: Optional[SimServer] = None
    if host is None:
        server = SimServer(max_sessions=spec.sessions + 8)
        await server.start()
        host, port = server.address
    if port is None:
        raise ValueError("an external server needs an explicit port")

    latency = StreamingQuantile()
    tally: Dict[str, Any] = {
        "requests": 0,
        "cycles": 0,
        "completed": 0,
        "failed": 0,
    }
    phases = _Phases(spec.sessions)
    clients = []
    t_start = time.perf_counter()
    try:
        # Append as each connect succeeds so the finally block closes a
        # partially built pool when a later connect fails.
        for _ in range(spec.connections):
            clients.append(await ServeClient.connect(host, port))
        tasks = [
            asyncio.ensure_future(
                _session_task(
                    i,
                    clients[i % spec.connections],
                    spec,
                    phases,
                    latency,
                    tally,
                )
            )
            for i in range(spec.sessions)
        ]

        # Sample the live-session count while the barrier holds every
        # successfully created session resident -- the report's
        # concurrency claim is this measurement, not the request count.
        await phases.all_arrived.wait()
        peak_live = (await clients[0].server_stats())["sessions"]["live"]
        phases.release.set()
        await asyncio.gather(*tasks)
        server_stats = await clients[0].server_stats()
    finally:
        for client in clients:
            await client.close()
        if server is not None:
            await server.close()
    duration = time.perf_counter() - t_start

    quantiles = (
        latency.quantiles([0.5, 0.95, 0.99])
        if latency.count
        else {0.5: 0, 0.95: 0, 0.99: 0}
    )
    report: Dict[str, Any] = {
        "kind": "serve-loadtest",
        "schema": LOADTEST_SCHEMA_VERSION,
        "sessions": spec.sessions,
        "connections": spec.connections,
        "steps": spec.steps,
        "step_cycles": spec.step_cycles,
        "seed": spec.seed,
        "in_process_server": server is not None,
        "peak_live_sessions": peak_live,
        "completed": tally["completed"],
        "failed": tally["failed"],
        "duration_s": round(duration, 3),
        "requests": tally["requests"],
        "requests_per_s": round(tally["requests"] / duration, 1)
        if duration > 0
        else 0.0,
        "sessions_per_s": round(tally["completed"] / duration, 1)
        if duration > 0
        else 0.0,
        "cycles_simulated": tally["cycles"],
        "client_latency_us": {
            "count": latency.count,
            "p50": quantiles[0.5],
            "p95": quantiles[0.95],
            "p99": quantiles[0.99],
        },
        "server": server_stats,
    }
    if tally.get("_error_text"):
        report["first_error"] = tally["_error_text"]
    return report
