"""Session behaviour past the serial oracle's rows.

Advancing a session in bounded quanta, and resuming it from its snapshot
text, is bitwise-invisible next to one uninterrupted ``run()``: the
differential harness's ``served`` leg holds every row to that
(``tests/integration/test_differential.py``; the workloads below are its
``serve-*`` rows). Pinned here: the memo sessions share, step
granularity, resumes after a mid-run fault injection or of an old spool
record, submitted demand, and that the trace stream carries exactly the
lines a :class:`~repro.sim.trace.JsonlTraceWriter` would have written.
"""

import asyncio
import json

import pytest

from repro.serve.protocol import decode_frame
from repro.serve.session import (
    OutboundChannel,
    Session,
    SessionConfig,
    SessionError,
    Subscriber,
    TraceStreamBuffer,
)
from repro.core.machine import Machine
from repro.sim import simulator
from repro.sim.checkpoint import CheckpointError, snapshot_engine
from repro.sim.checkpoint import dumps as checkpoint_dumps
from repro.sim.metrics import MetricsCollector
from repro.traffic import loads

from tests.integration.test_differential import (
    ROWS,
    canon,
    link_faults,
    oracle_artifacts,
    session_artifacts,
)

BATCH_RR = ROWS["serve-rr"].params
BATCH_IW = ROWS["serve-iw"].params
DEMAND_AGE = ROWS["serve-age"].params


def drive(session, cycles=None):
    return asyncio.run(session.advance(cycles))


class TestConfigAndWorkloadValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SessionConfig(quantum_cycles=0)
        with pytest.raises(ValueError, match="backpressure"):
            SessionConfig(backpressure="spill")
        with pytest.raises(ValueError):
            SessionConfig(trace_batch=0)
        with pytest.raises(ValueError):
            SessionConfig(metrics_every=-1)
        with pytest.raises(ValueError):
            SessionConfig(max_cycles=0)
        # A create's config comes from outside: non-integers are refused
        # here, by name, not deep inside the engine on a later run.
        for key, value in [
            ("quantum_cycles", 2.5),
            ("quantum_cycles", "8"),
            ("quantum_cycles", True),
            ("trace_batch", 2.5),
            ("metrics_every", 1.5),
        ]:
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                SessionConfig(**{key: value})

    def test_workload_rejects_bad_specs(self):
        with pytest.raises(SessionError, match="JSON object"):
            Session.create("s", ["batch"])
        with pytest.raises(SessionError, match="unknown workload kind"):
            Session.create("s", {"kind": "fuzz"})
        with pytest.raises(SessionError, match="shape"):
            Session.create("s", {"kind": "batch", "shape": [2, 2]})
        with pytest.raises(SessionError, match="arbitration"):
            Session.create("s", {"kind": "batch", "arbitration": "lotto"})
        with pytest.raises(SessionError, match="unknown pattern"):
            Session.create("s", {"kind": "batch", "pattern": "zigzag"})
        with pytest.raises(SessionError, match="idle sessions use rr"):
            Session.create("s", {"kind": "idle", "arbitration": "iw"})



def _count_calls(monkeypatch, owner, name):
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSessionsShareTheMemo:
    """What sessions share offline is the simulator's memo: one machine
    per config, one load enumeration and one table pair per (config,
    pattern, cores) -- and nothing a client can grow without bound."""

    def test_sessions_share_the_machine_not_the_route_computer(self):
        a = Session.create("a", dict(BATCH_RR))
        b = Session.create("b", dict(BATCH_RR, seed=12))
        assert a.engine.machine is b.engine.machine
        # Each session's route cache dies with the session.
        assert a.routes is not b.routes

    def test_iw_creates_enumerate_once_and_equal_cold_creates(self, monkeypatch):
        workloads = [dict(BATCH_IW, seed=seed) for seed in (3, 4)]
        monkeypatch.setattr(simulator, "_MEMO", {})
        enumerated = _count_calls(monkeypatch, loads, "compute_loads")
        warm = [Session.create("s", w).snapshot_text() for w in workloads]
        assert enumerated == ["compute_loads"]
        cold = []
        for workload in workloads:
            monkeypatch.setattr(simulator, "_MEMO", {})
            cold.append(Session.create("s", workload).snapshot_text())
        assert len(enumerated) == 3
        assert warm == cold

    def test_restore_elaborates_no_machine_when_its_config_is_resident(
        self, monkeypatch
    ):
        session = Session.create("s", dict(BATCH_IW))
        drive(session, 16)
        text = session.snapshot_text()
        built = _count_calls(monkeypatch, Machine, "__init__")
        restored = Session.create("s", dict(BATCH_IW), checkpoint=text)
        assert built == []
        assert restored.engine.machine is session.engine.machine
        assert restored.routes is not session.routes
        drive(restored)
        assert session_artifacts(restored) == oracle_artifacts(BATCH_IW)

    def test_restore_refuses_a_snapshot_of_another_machine(self):
        text = Session.create("s", dict(BATCH_RR)).snapshot_text()
        with pytest.raises(
            CheckpointError,
            match=r"checkpoint belongs to a different machine: shape is "
            r"\(2, 2, 2\) in the checkpoint, \(4, 2, 2\) in this run",
        ):
            Session.create("s", dict(BATCH_RR, shape=[4, 2, 2]), checkpoint=text)

    def test_client_chosen_matrices_are_kept_to_a_constant(self, monkeypatch):
        monkeypatch.setattr(simulator, "_MEMO", {})
        monkeypatch.setattr(simulator, "_DEMAND_ENTRIES", 2)

        def create(matrix_seed):
            return Session.create("s", dict(
                DEMAND_AGE, arbitration="iw",
                demand={"generator": "hotspot", "matrix_seed": matrix_seed,
                        "mode": "closed", "scale": 4.0},
            ))

        def resident(kind):
            return [key[3] for key in simulator._MEMO if key[0] == kind]

        for matrix_seed in range(3):
            create(matrix_seed)
        assert len(resident("loads")) == len(resident("tables")) == 2
        # The survivors are the newest, and a named pattern is never one
        # of the counted: its key is not a client's to choose.
        newest = resident("loads")
        create(2)
        Session.create("b", dict(BATCH_IW))
        assert resident("loads")[:2] == newest and len(resident("loads")) == 3

    def test_client_chosen_fault_sets_are_kept_to_a_constant(self, monkeypatch):
        """A faulted ``iw`` run's exhaustive loads are remembered by the
        failed set they route around -- a set a client chooses, so those
        entries are bounded like matrices'."""
        monkeypatch.setattr(simulator, "_MEMO", {})
        monkeypatch.setattr(simulator, "_DEMAND_ENTRIES", 2)
        calls, compute = [], loads.compute_loads
        monkeypatch.setattr(
            loads, "compute_loads", lambda *a, **k: calls.append(1) or compute(*a, **k)
        )

        def create(failed):
            return Session.create("s", dict(BATCH_IW, faults=link_faults(
                BATCH_IW["shape"], (0, None), first=failed)))

        def resident(kind):
            return [key[4] for key in simulator._MEMO if key[0] == kind]

        for failed in range(3):
            create(failed)
        assert len(calls) == 3
        assert len(resident("loads")) == len(resident("tables")) == 2
        newest = resident("loads")
        create(2)
        assert len(calls) == 3 and resident("loads") == newest


class TestOracleEquality:
    def test_batch_stats_match_a_run_spelt_by_hand(self):
        # Belt and braces on the decoder: a RunSpec written out field by
        # field runs to exactly the session's stats.
        from repro.core.machine import MachineConfig
        from repro.sim.simulator import RunSpec, run
        from repro.traffic.batch import BatchSpec
        from repro.traffic.patterns import pattern_factories

        shape = tuple(BATCH_RR["shape"])
        stats = run(RunSpec(
            MachineConfig(shape=shape, endpoints_per_chip=2),
            BatchSpec(
                pattern=pattern_factories(shape)["uniform"](),
                packets_per_source=BATCH_RR["batch"],
                cores_per_chip=BATCH_RR["cores"],
                seed=BATCH_RR["seed"],
            ),
        ))
        session = Session.create("s", dict(BATCH_RR))
        drive(session)
        assert canon(session.stats_payload()["stats"]) == canon(
            stats.asdict()
        )

    def test_step_on_drained_session_is_a_noop(self):
        session = Session.create("s", dict(BATCH_RR))
        drive(session)
        cycle = session.engine.cycle
        result = drive(session, 64)
        assert result["advanced"] == 0 and result["cycle"] == cycle

    def test_max_cycles_turns_wedge_into_error(self):
        session = Session.create(
            "s", dict(BATCH_RR), SessionConfig(max_cycles=4)
        )
        with pytest.raises(SessionError, match="max_cycles"):
            drive(session)
        assert not session.busy  # guard is released on the error path


class TestResume:
    def test_restore_rejects_foreign_text(self):
        with pytest.raises(CheckpointError, match="not an engine checkpoint"):
            Session.create("s", dict(BATCH_RR), checkpoint='{"kind": "x"}')
        data = json.loads(Session.create("s", dict(BATCH_RR)).snapshot_text())
        data["schema"] = 99
        with pytest.raises(CheckpointError, match="schema"):
            Session.create("s", dict(BATCH_RR), checkpoint=json.dumps(data))
        with pytest.raises(SessionError, match="text of a snapshot"):
            Session.create("s", dict(BATCH_RR), checkpoint=data)

    def test_a_record_of_the_old_spool_resumes_through_create(self):
        # Servers before protocol 2 spooled a session as a record whose
        # ``engine`` field is a checkpoint: ``create`` resumes it as is.
        session = Session.create("s", dict(BATCH_IW))
        drive(session, 16)
        record = json.loads(canon({
            "kind": "serve-session",
            "schema": 1,
            "session": "s",
            "workload": dict(BATCH_IW),
            "config": {},
            "counters": session.counters(),
            "engine": snapshot_engine(session.engine),
        }))
        restored = Session.create(
            record["session"],
            record["workload"],
            checkpoint=checkpoint_dumps(record["engine"]),
        )
        drive(restored)
        assert session_artifacts(restored) == oracle_artifacts(BATCH_IW)

    def test_restored_idle_session_takes_later_demand_bitwise(self):
        # A healthy idle session resumes on a fresh route computer of its
        # own: a demand submitted after the restore lands exactly as in
        # the session that was never freed.
        idle = {"kind": "idle", "shape": [2, 2, 2], "endpoints": 2}
        demand = dict(TestSubmitDemand.DEMAND)
        finals = []
        for restore in (False, True):
            session = Session.create("s", dict(idle))
            session.submit_demand(dict(demand))
            drive(session, 32)
            assert not session.drained  # the cut lands mid-run
            if restore:
                session = Session.create(
                    "s", dict(idle), checkpoint=session.snapshot_text()
                )
            assert drive(session)["drained"]
            session.submit_demand(dict(demand, seed=8))
            assert drive(session)["drained"]
            finals.append(session_artifacts(session))
        assert finals[0] == finals[1]


class TestSubmitDemand:
    DEMAND = {
        "generator": "skew",
        "rate": 0.05,
        "matrix_seed": 2,
        "duration": 64,
        "seed": 7,
    }

    def test_submission_into_idle_matches_run_demand_oracle(self):
        session = Session.create(
            "s",
            {"kind": "idle", "shape": [2, 2, 2], "endpoints": 2},
            SessionConfig(quantum_cycles=9),
        )
        result = session.submit_demand(dict(self.DEMAND))
        assert result["enqueued"] > 0 and result["at_cycle"] == 0
        drive(session)
        oracle = oracle_artifacts(
            {
                "kind": "demand",
                "shape": [2, 2, 2],
                "endpoints": 2,
                "cores": 2,
                "seed": 0,
                "demand": dict(self.DEMAND),
            }
        )
        assert session_artifacts(session) == oracle

    def test_midrun_submission_shifts_release_cycles(self):
        session = Session.create("s", dict(BATCH_RR))
        drive(session)
        at = session.engine.cycle
        assert at > 0
        delivered = session.engine.stats.delivered
        result = session.submit_demand(dict(self.DEMAND))
        assert result["at_cycle"] == at and result["enqueued"] > 0
        final = drive(session)
        assert final["drained"]
        assert session.engine.stats.delivered > delivered
        assert session.demands_submitted == 1


class TestFaultInjection:
    def _fault_obj(self, session, down, up=None):
        from repro.faults import FAULT_SCHEMA_VERSION, failable_channels

        spec = {
            "kind": "link",
            "channel": failable_channels(session.engine.machine)[0],
            "down": down,
        }
        if up is not None:
            spec["up"] = up
        return {
            "version": FAULT_SCHEMA_VERSION,
            "shape": list(session.engine.machine.config.shape),
            "faults": [spec],
        }

    def _faulted_workload(self):
        workload = dict(DEMAND_AGE)
        workload["arbitration"] = "rr"
        workload["policy"] = {"mode": "reroute", "retries": 4}
        return workload

    def test_injection_needs_a_fault_runtime(self):
        session = Session.create("s", dict(BATCH_RR))
        with pytest.raises(ValueError, match="without fault support"):
            session.inject_faults(self._fault_obj(session, down=50))

    def test_injection_rejects_past_cycles(self):
        session = Session.create("s", self._faulted_workload())
        drive(session, 40)
        with pytest.raises(ValueError):
            session.inject_faults(self._fault_obj(session, down=10))

    def test_injection_schedules_and_survives_restore_bitwise(self):
        # Two identical sessions, the same injection; one is restored
        # from its snapshot after the injection but before the fault
        # lands. Equal final bytes pin that injected schedules live in
        # the checkpoint.
        down, up = 64, 96
        finals = []
        for freeze in (False, True):
            session = Session.create(
                "s",
                self._faulted_workload(),
                SessionConfig(quantum_cycles=16),
            )
            drive(session, 32)
            result = session.inject_faults(
                self._fault_obj(session, down=down, up=up)
            )
            assert result["scheduled"] == 2  # down + up events
            if freeze:
                session = Session.create(
                    "s",
                    self._faulted_workload(),
                    SessionConfig(quantum_cycles=16),
                    checkpoint=session.snapshot_text(),
                )
            drive(session)
            assert session.faults_injected == (0 if freeze else 2)
            finals.append(session_artifacts(session))
        assert finals[0] == finals[1]

    def test_restore_is_invisible_in_a_faulted_snapshot(self):
        # One cycle-0 link fault, the same demand submitted twice with a
        # drain between: the second submission resolves the same pairs
        # under the same failed set. A restore in between restarts the
        # computer's memo cold; its miss counters once rode the snapshot
        # (primary 155 / repick 5 never restored, 310 / 10 restored).
        demand = dict(TestSubmitDemand.DEMAND)
        texts = []
        for freeze in (False, True):
            session = Session.create(
                "s", {"kind": "idle", "shape": [2, 2, 2], "endpoints": 2}
            )
            workload = {
                "kind": "idle",
                "shape": [2, 2, 2],
                "endpoints": 2,
                "faults": self._fault_obj(session, down=0),
                "policy": {"mode": "reroute"},
            }
            session = Session.create("s", workload)
            session.submit_demand(dict(demand))
            assert drive(session)["drained"]
            if freeze:
                session = Session.create(
                    "s", workload, checkpoint=session.snapshot_text()
                )
            session.submit_demand(dict(demand))
            assert drive(session)["drained"]
            assert session.engine.stats.rerouted == 0  # routed around at source
            texts.append(session.snapshot_text())
        assert texts[0] == texts[1]
        assert '"resolution"' not in texts[0]


class TestStreams:
    def test_trace_stream_carries_writer_identical_lines(self):
        class CaptureSink:
            def __init__(self):
                self.lines = []

            def emit(self, event):
                self.lines.append(event.to_json())

            def flush(self):
                pass

        async def scenario():
            session = Session.create(
                "s", dict(BATCH_RR), SessionConfig(quantum_cycles=16)
            )
            channel = OutboundChannel()
            session.subscribe(Subscriber(channel, ["trace"]))
            await session.advance()
            lines = []
            while not channel.empty():
                frame = decode_frame(channel.get_nowait())
                assert frame["stream"] == "trace"
                assert frame["session"] == "s"
                lines.extend(frame["events"])
            return lines, session.trace_events_streamed

        streamed, counted = asyncio.run(scenario())

        from repro.core.machine import Machine, MachineConfig
        from repro.core.routing import RouteComputer
        from repro.sim.simulator import build_batch_engine
        from repro.sim.trace import Tee
        from repro.traffic.batch import BatchSpec
        from repro.traffic.patterns import pattern_factories

        capture = CaptureSink()
        shape = tuple(BATCH_RR["shape"])
        machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        engine = build_batch_engine(
            machine,
            RouteComputer(machine),
            BatchSpec(
                pattern=pattern_factories(shape)["uniform"](),
                packets_per_source=BATCH_RR["batch"],
                cores_per_chip=BATCH_RR["cores"],
                seed=BATCH_RR["seed"],
            ),
            trace=Tee(MetricsCollector(window_cycles=256), capture),
        )
        engine.run()
        assert streamed == capture.lines
        assert counted == len(capture.lines) > 0

    def test_metrics_stream_honors_cadence(self):
        async def scenario():
            session = Session.create(
                "s", dict(BATCH_RR), SessionConfig(quantum_cycles=8)
            )
            channel = OutboundChannel()
            session.subscribe(Subscriber(channel, ["metrics"], metrics_every=24))
            await session.advance()
            frames = []
            while not channel.empty():
                frames.append(decode_frame(channel.get_nowait()))
            return frames

        frames = asyncio.run(scenario())
        assert frames, "expected at least one metrics push"
        cycles = [f["cycle"] for f in frames]
        assert cycles == sorted(cycles)
        assert all(b - a >= 24 for a, b in zip(cycles, cycles[1:]))
        assert all(f["stream"] == "metrics" for f in frames)
        assert "delivered" in frames[-1]["snapshot"]

    def test_subscriber_rejects_unknown_streams(self):
        with pytest.raises(SessionError, match="unknown streams"):
            Subscriber(OutboundChannel(), ["trace", "video"])

    def test_unsubscribe_disables_and_drains_the_buffer(self):
        session = Session.create("s", dict(BATCH_RR))
        assert session.engine.trace is session.collector
        channel = OutboundChannel()
        session.subscribe(Subscriber(channel, ["trace"]))
        assert session.engine.trace.sinks == (session.collector, session.buffer)
        session.buffer.lines.append("pending")
        session.unsubscribe_channel(channel)
        assert session.engine.trace is session.collector
        assert session.buffer.lines == []

    def test_unobserved_sessions_buffer_nothing(self):
        session = Session.create("s", dict(BATCH_RR))
        drive(session)
        assert session.buffer.lines == []
        assert session.trace_events_streamed == 0


class TestBackpressure:
    def test_drop_oldest_counts_and_never_blocks(self):
        async def scenario():
            session = Session.create(
                "s",
                dict(BATCH_RR),
                SessionConfig(
                    quantum_cycles=8,
                    trace_batch=1,
                    backpressure="drop-oldest",
                ),
            )
            channel = OutboundChannel(limit=2)
            session.subscribe(Subscriber(channel, ["trace"]))
            result = await session.advance()
            return session, result

        session, result = asyncio.run(scenario())
        assert result["drained"]
        assert session.trace_frames_dropped > 0
        # The observed run still matches the oracle: dropping frames
        # must not perturb the simulation itself.
        assert session_artifacts(session) == oracle_artifacts(BATCH_RR)

    def test_drop_oldest_never_drops_control_frames(self):
        """Overload may discard event frames, never a queued reply: the
        exactly-one-reply-per-request invariant survives a drop storm."""

        async def scenario():
            session = Session.create(
                "s",
                dict(BATCH_RR),
                SessionConfig(
                    quantum_cycles=8,
                    trace_batch=1,
                    backpressure="drop-oldest",
                ),
            )
            channel = OutboundChannel(limit=2)
            channel.put_control(b"hello-frame")
            session.subscribe(Subscriber(channel, ["trace"]))
            await session.advance()
            channel.put_control(b"reply-frame")
            drained = []
            while not channel.empty():
                drained.append(channel.get_nowait())
            return session, drained

        session, drained = asyncio.run(scenario())
        assert session.trace_frames_dropped > 0
        # Both control frames survive, in order, around at most `limit`
        # event frames.
        assert drained[0] == b"hello-frame"
        assert drained[-1] == b"reply-frame"
        assert len(drained) <= 2 + 2

    def test_pause_blocks_until_the_consumer_catches_up(self):
        async def scenario():
            session = Session.create(
                "s",
                dict(BATCH_RR),
                SessionConfig(
                    quantum_cycles=8, trace_batch=1, backpressure="pause"
                ),
            )
            channel = OutboundChannel(limit=2)
            session.subscribe(Subscriber(channel, ["trace"]))
            drained = 0

            async def consumer():
                nonlocal drained
                while True:
                    frame = await channel.get()
                    if frame is None:
                        return
                    drained += 1

            task = asyncio.ensure_future(consumer())
            result = await session.advance()
            channel.put_control(None)
            await task
            return session, result, drained

        session, result, drained = asyncio.run(scenario())
        assert result["drained"]
        assert session.backpressure_pauses > 0
        assert session.trace_frames_dropped == 0
        assert drained == session.trace_events_streamed > 0


class TestBusyGuards:
    def test_requests_against_a_running_session_are_rejected(self):
        async def scenario():
            session = Session.create(
                "s", dict(DEMAND_AGE), SessionConfig(quantum_cycles=4)
            )
            task = asyncio.ensure_future(session.advance())
            await asyncio.sleep(0)
            assert session.busy
            with pytest.raises(SessionError, match="busy"):
                await session.advance(1)
            with pytest.raises(SessionError, match="busy"):
                session.snapshot_text()
            with pytest.raises(SessionError, match="busy"):
                session.submit_demand({})
            # stats stays valid mid-run -- the one observation that must
            # not require quiescence.
            payload = session.stats_payload()
            assert payload["busy"] is True
            await task
            assert not session.busy

        asyncio.run(scenario())
