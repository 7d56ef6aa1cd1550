"""Wire-level conformance and table-management tests for SimServer.

The headline test drives K interleaved sessions over real TCP -- one of
them snapshotted, closed and resumed from its snapshot text mid-run --
and byte-compares every session's stats, metrics, and checkpoint text
against its serial oracle. A second test resumes a snapshot on a fresh
server after the one that took it is gone, and still matches the oracle.
"""

import asyncio
import io
import json

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import PROTOCOL_VERSION, encode_frame
from repro.serve.server import SimServer
from repro.serve.session import SessionConfig
from repro.sim.checkpoint import dumps, run_stamp
from repro.sim.simulator import RunSpec, run
from repro.sim.trace import EVENT_KINDS, JsonlTraceWriter

from tests.serve.oracle import canon, oracle_artifacts

WORKLOADS = {
    "alpha": {
        "kind": "batch",
        "shape": [2, 2, 2],
        "endpoints": 2,
        "cores": 2,
        "pattern": "uniform",
        "batch": 6,
        "seed": 21,
    },
    "bravo": {
        "kind": "batch",
        "shape": [2, 2, 2],
        "endpoints": 2,
        "cores": 2,
        "pattern": "tornado",
        "batch": 5,
        "arbitration": "iw",
        "seed": 8,
    },
    "charlie": {
        "kind": "demand",
        "shape": [2, 2, 2],
        "endpoints": 2,
        "cores": 2,
        "arbitration": "age",
        "seed": 4,
        "demand": {
            "generator": "hotspot",
            "rate": 0.08,
            "matrix_seed": 5,
            "epochs": 2,
            "epoch_length": 32,
            "duration": 96,
        },
    },
    "delta": {
        "kind": "demand",
        "shape": [2, 2, 2],
        "endpoints": 2,
        "cores": 2,
        "seed": 13,
        "policy": {"mode": "reroute", "retries": 4},
        "demand": {
            "generator": "skew",
            "rate": 0.06,
            "matrix_seed": 1,
            "duration": 80,
        },
    },
}


async def _wire_artifacts(client, sid):
    stats = await client.stats(sid)
    snapshot = await client.snapshot(sid)
    return {
        "stats": canon(stats["stats"]),
        "metrics": canon(stats["metrics"]),
        "checkpoint": snapshot["checkpoint"],
    }


def test_interleaved_wire_sessions_match_serial_oracles():
    """K concurrent sessions, stepped round-robin over TCP, one of them
    snapshotted, closed and resumed from its snapshot mid-run: every one
    must end byte-identical to its uninterrupted serial run."""

    async def scenario():
        server = SimServer(session_config=SessionConfig(quantum_cycles=16))
        await server.start()
        try:
            client = await ServeClient.connect(*server.address)
            for sid, workload in WORKLOADS.items():
                created = await client.create(workload, session=sid)
                assert created["session"] == sid
                assert created["cycle"] == 0

            # Free one session mid-run, keeping only its snapshot text,
            # and resume it under the same id.
            result = await client.step("bravo", 4)
            assert not result["drained"]
            text = (await client.snapshot("bravo"))["checkpoint"]
            await client.close_session("bravo")
            assert "bravo" not in server.sessions
            resumed = await client.create(
                WORKLOADS["bravo"], session="bravo", checkpoint=text
            )
            assert resumed["cycle"] == result["cycle"]

            done = set()
            while len(done) < len(WORKLOADS):
                for sid in WORKLOADS:
                    if sid in done:
                        continue
                    result = await client.step(sid, 16)
                    if result["drained"]:
                        done.add(sid)

            wire = {
                sid: await _wire_artifacts(client, sid) for sid in WORKLOADS
            }
            stats = await client.server_stats()
            assert stats["created"] == len(WORKLOADS) + 1
            assert stats["closed"] == 1
            await client.close()
            return wire
        finally:
            await server.close()

    wire = asyncio.run(scenario())
    for sid, workload in WORKLOADS.items():
        assert wire[sid] == oracle_artifacts(workload), sid


def test_a_snapshot_outlives_its_server():
    """A client holding a session's snapshot text resumes it on a fresh
    server after the one that took it is gone, byte-identical to its
    oracle."""
    workload = WORKLOADS["charlie"]

    async def first_life():
        server = SimServer(session_config=SessionConfig(quantum_cycles=16))
        await server.start()
        try:
            client = await ServeClient.connect(*server.address)
            await client.create(workload, session="survivor")
            result = await client.step("survivor", 48)
            assert not result["drained"]
            snapshot = await client.snapshot("survivor")
            await client.close()
            return snapshot["checkpoint"]
        finally:
            # No graceful shutdown of the session table: the session dies
            # with the server, its snapshot text lives on in the client.
            await server.close()

    async def second_life(text):
        server = SimServer()
        await server.start()
        try:
            client = await ServeClient.connect(*server.address)
            created = await client.create(
                workload, session="survivor", checkpoint=text
            )
            assert created["cycle"] == 48
            result = await client.run("survivor")
            assert result["drained"]
            artifacts = await _wire_artifacts(client, "survivor")
            await client.close()
            return artifacts
        finally:
            await server.close()

    text = asyncio.run(first_life())
    artifacts = asyncio.run(second_life(text))
    assert artifacts == oracle_artifacts(workload)


def test_a_full_table_frees_a_slot_by_snapshot_and_close():
    """At the cap, a client frees a slot by keeping a session's snapshot
    text and closing it; the slot serves another session, and the
    resumed one still ends byte-identical to its oracle."""

    async def scenario():
        server = SimServer(
            max_sessions=1, session_config=SessionConfig(quantum_cycles=16)
        )
        await server.start()
        try:
            client = await ServeClient.connect(*server.address)
            await client.create(WORKLOADS["charlie"], session="held")
            assert not (await client.step("held", 32))["drained"]
            text = (await client.snapshot("held"))["checkpoint"]
            await client.close_session("held")

            await client.create(WORKLOADS["alpha"], session="other")
            assert (await client.run("other"))["drained"]
            other = await _wire_artifacts(client, "other")
            with pytest.raises(ServeError, match="session table is full"):
                await client.create(
                    WORKLOADS["charlie"], session="held", checkpoint=text
                )
            await client.close_session("other")

            resumed = await client.create(
                WORKLOADS["charlie"], session="held", checkpoint=text
            )
            assert resumed["cycle"] == 32
            assert (await client.run("held"))["drained"]
            held = await _wire_artifacts(client, "held")
            await client.close()
            return other, held
        finally:
            await server.close()

    other, held = asyncio.run(scenario())
    assert other == oracle_artifacts(WORKLOADS["alpha"])
    assert held == oracle_artifacts(WORKLOADS["charlie"])


def _stamped_by_another_run(text):
    data = json.loads(text)
    other = RunSpec.from_params(dict(WORKLOADS["alpha"], seed=22))
    data["run_stamp"] = run_stamp(other)
    return dumps(data)


def _edited(edit):
    def apply(text):
        data = json.loads(text)
        edit(data)
        return dumps(data)

    return apply


REFUSALS = {
    "an arbiter entry out of range": (
        WORKLOADS["alpha"],
        _edited(lambda data: data["arbiters"]["grants"].__setitem__(0, -5)),
        r"CheckpointError: checkpoint does not fit this machine: "
        r"arbiter 0's grants entry is -5, not an integer >= 0",
    ),
    "an active component past the machine": (
        WORKLOADS["alpha"],
        _edited(lambda data: data["active"].append(10**9)),
        r"CheckpointError: active names component 1000000000 after \d+; "
        r"the machine has 240",
    ),
    "another machine": (
        dict(WORKLOADS["alpha"], shape=[4, 2, 2]),
        lambda text: text,
        r"CheckpointError: checkpoint belongs to a different machine: "
        r"shape is \(2, 2, 2\) in the checkpoint, \(4, 2, 2\) in this run",
    ),
    "another run's stamp": (
        WORKLOADS["alpha"],
        _stamped_by_another_run,
        r"CheckpointError: checkpoint was written by a different run",
    ),
    "not JSON": (
        WORKLOADS["alpha"],
        lambda text: "no checkpoint here",
        r"CheckpointError: checkpoint is not valid JSON",
    ),
    "past max_sessions": (
        WORKLOADS["alpha"],
        lambda text: None,
        r"SessionError: session table is full \(2 sessions\); "
        r"close a session first",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_create_refusals_are_one_line_replies(case):
    """A ``create`` the server cannot honour is refused by name in one
    line, adds nothing to the table, and leaves the server up."""
    workload, checkpoint, match = REFUSALS[case]

    async def scenario():
        server = SimServer(max_sessions=2)
        await server.start()
        try:
            client = await ServeClient.connect(*server.address)
            await client.create(WORKLOADS["alpha"], session="a")
            await client.step("a", 4)
            text = (await client.snapshot("a"))["checkpoint"]
            if case == "past max_sessions":
                await client.create(WORKLOADS["alpha"], session="b")
            live = set(server.sessions)
            with pytest.raises(ServeError, match=match) as caught:
                await client.create(
                    workload, session="resumed", checkpoint=checkpoint(text)
                )
            assert "\n" not in str(caught.value)
            assert set(server.sessions) == live
            assert (await client.ping())["pong"] is True
            await client.close()
        finally:
            await server.close()

    asyncio.run(scenario())


def test_raw_wire_protocol_errors():
    """Drive the socket by hand: hello first, malformed lines get error
    replies (id -1 when unknowable), and the connection survives."""

    async def scenario():
        server = SimServer()
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(*server.address)
            hello = json.loads(await reader.readline())
            assert hello["type"] == "hello"
            assert hello["proto"] == PROTOCOL_VERSION

            async def roundtrip(raw):
                writer.write(raw)
                await writer.drain()
                return json.loads(await reader.readline())

            reply = await roundtrip(b"this is not json\n")
            assert reply["ok"] is False and reply["id"] == -1

            reply = await roundtrip(encode_frame({"type": "reboot", "id": 5}))
            assert reply["ok"] is False and reply["id"] == 5
            assert "unknown request type" in reply["error"]

            reply = await roundtrip(encode_frame({"type": "stats", "id": 6}))
            assert reply["ok"] is False and "session" in reply["error"]

            reply = await roundtrip(
                encode_frame({"type": "stats", "id": 7, "session": "ghost"})
            )
            assert reply["ok"] is False
            assert "unknown session" in reply["error"]

            # The connection is still usable after every error above.
            reply = await roundtrip(encode_frame({"type": "ping", "id": 8}))
            assert reply["ok"] is True and reply["result"]["pong"] is True

            writer.close()
            await writer.wait_closed()
            assert server.counters["protocol_errors"] == 3
        finally:
            await server.close()

    asyncio.run(scenario())


def test_create_validation_and_close():
    async def scenario():
        server = SimServer()
        await server.start()
        try:
            client = await ServeClient.connect(*server.address)

            # Generated ids when the client does not pick one.
            sid = (await client.create(WORKLOADS["alpha"]))["session"]
            assert sid == "s0"
            # ... which skip the ids clients chose for themselves.
            await client.create(WORKLOADS["alpha"], session="s1")
            sid = (await client.create(WORKLOADS["alpha"]))["session"]
            assert sid == "s2"

            with pytest.raises(ServeError, match="session ids"):
                await client.create(WORKLOADS["alpha"], session="../escape")
            with pytest.raises(ServeError, match="already exists"):
                await client.create(WORKLOADS["alpha"], session="s0")
            with pytest.raises(ServeError, match="unknown config keys"):
                await client.create(
                    WORKLOADS["alpha"], config={"quantum": 8}
                )
            with pytest.raises(ServeError, match="unknown workload kind"):
                await client.create({"kind": "fuzz"})

            # Per-session config overrides apply.
            await client.create(
                WORKLOADS["alpha"],
                config={"quantum_cycles": 4},
                session="tuned",
            )
            assert server.sessions["tuned"].config.quantum_cycles == 4

            result = await client.run("s0")
            assert result["drained"]
            closed = await client.close_session("s0")
            assert closed["closed"] is True
            assert closed["final"]["stats"]["delivered"] > 0
            with pytest.raises(ServeError, match="unknown session"):
                await client.stats("s0")
            await client.close()
        finally:
            await server.close()

    asyncio.run(scenario())


def test_subscribe_over_the_wire_streams_events():
    async def scenario():
        server = SimServer(session_config=SessionConfig(quantum_cycles=16))
        await server.start()
        try:
            client = await ServeClient.connect(*server.address)
            await client.create(WORKLOADS["alpha"], session="s")
            sub = await client.subscribe(
                "s", streams=["trace", "metrics"], metrics_every=32
            )
            assert sub["streams"] == ["metrics", "trace"]
            with pytest.raises(ServeError, match="unknown streams"):
                await client.subscribe("s", streams=["video"])
            await client.run("s")
            await client.close_session("s")
            seen = {"trace": 0, "metrics": 0}
            while not client.events.empty():
                frame = client.events.get_nowait()
                if frame is None:
                    break
                assert frame["session"] == "s"
                seen[frame["stream"]] += (
                    len(frame.get("events", [])) or 1
                )
            await client.close()
            return seen
        finally:
            await server.close()

    seen = asyncio.run(scenario())
    assert seen["trace"] > 0
    assert seen["metrics"] > 0


def test_a_trace_subscriber_joins_mid_run_and_drops():
    """A session gains a trace subscriber at cycle 16 and loses it when
    that connection drops at cycle 40: its stats and snapshot are an
    unobserved twin's, and the watcher got exactly the lines a JSONL
    writer writes for cycles 16..39."""
    workload = WORKLOADS["alpha"]

    async def scenario():
        server = SimServer(session_config=SessionConfig(quantum_cycles=8))
        await server.start()
        try:
            owner = await ServeClient.connect(*server.address)
            for sid in ("seen", "unseen"):
                await owner.create(workload, session=sid)
                await owner.step(sid, 16)
            watcher = await ServeClient.connect(*server.address)
            await watcher.subscribe("seen", streams=["trace"])
            for sid in ("seen", "unseen"):
                await owner.step(sid, 24)
            # Replies share the event frames' FIFO: once this one is
            # back, every line of cycles 16..39 has arrived.
            await watcher.stats("seen")
            lines = []
            while not watcher.events.empty():
                lines.extend(watcher.events.get_nowait()["events"])
            await watcher.close()
            while server.sessions["seen"].subscribers:
                await asyncio.sleep(0.01)
            out = {}
            for sid in ("seen", "unseen"):
                await owner.run(sid)
                stats = await owner.stats(sid)
                stats.pop("session")
                out[sid] = (stats, (await owner.snapshot(sid))["checkpoint"])
            await owner.close()
            return lines, out
        finally:
            await server.close()

    lines, out = asyncio.run(scenario())
    (seen, seen_text), (unseen, unseen_text) = out["seen"], out["unseen"]
    assert seen_text == unseen_text
    streamed = seen["counters"].pop("trace_events_streamed")
    assert unseen["counters"].pop("trace_events_streamed") == 0
    assert canon(seen) == canon(unseen)
    assert streamed == len(lines)

    stream = io.StringIO()
    run(RunSpec.from_params(workload), trace=JsonlTraceWriter(stream))
    written = [
        line for line in stream.getvalue().splitlines()
        if json.loads(line).get("ev") in EVENT_KINDS
        and 16 <= json.loads(line)["cyc"] < 40
    ]
    assert written and lines == written


def test_server_stats_shape_and_counters():
    async def scenario():
        server = SimServer()
        await server.start()
        try:
            client = await ServeClient.connect(*server.address)
            await client.ping()
            await client.create(WORKLOADS["alpha"], session="s")
            await client.run("s")
            stats = await client.server_stats()
            await client.close()
            return stats
        finally:
            await server.close()

    stats = asyncio.run(scenario())
    assert stats["proto"] == PROTOCOL_VERSION
    assert stats["sessions"] == {"live": 1, "max": 1024}
    assert stats["connections"] == 1
    assert stats["created"] == 1
    # ping + create + run were counted; the server_stats request itself
    # is timed after its payload is built.
    assert stats["requests"] == 3
    assert stats["latency_us"]["count"] == stats["requests"]
    assert stats["latency_us"]["p99"] >= stats["latency_us"]["p50"] >= 0


def test_constructor_validation():
    with pytest.raises(ValueError, match="max_sessions"):
        SimServer(max_sessions=0)
