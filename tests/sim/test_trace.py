"""Tests for the structured event tracing subsystem."""

import io
import json

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteChoice, RouteComputer
from repro.sim.engine import DeadlockError, Engine
from repro.sim.packet import Packet
from repro.sim.simulator import RunSpec, run
from repro.sim.trace import (
    EVENT_KINDS,
    JsonlTraceWriter,
    ListSink,
    Tee,
    TraceEvent,
    read_trace,
)
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import UniformRandom


class TestTraceEvent:
    def test_to_json_key_order(self):
        event = TraceEvent("depart", 3, 42, 7, 12, 1, (("flits", 2), ("end", 132)))
        assert event.to_json() == (
            '{"ev":"depart","cyc":3,"t":42,"pid":7,"ch":12,"vc":1,'
            '"flits":2,"end":132}'
        )

    def test_json_round_trip(self):
        event = TraceEvent("grant", 5, 70, 9, 3, 0, (("in_ch", 1), ("in_vc", 2)))
        assert TraceEvent.from_json(event.to_json()) == event

    def test_get_extra_field(self):
        event = TraceEvent("deliver", 1, 14, 0, 2, 0, (("lat", 33),))
        assert event.get("lat") == 33
        assert event.get("missing", -1) == -1


class TestJsonlTraceWriter:
    def test_header_then_events_parse(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as stream:
            writer = JsonlTraceWriter(stream, meta={"name": "x"})
            writer.emit(TraceEvent("inject", 0, 0, 0, 1, 0))
            writer.write_record({"ev": "end", "events": 1})
        records, events = read_trace(path.read_text().splitlines())
        assert [r["ev"] for r in records] == ["trace", "end"]
        assert records[0]["schema"] == 1
        assert records[0]["name"] == "x"
        assert len(events) == 1 and events[0].kind == "inject"

    def test_header_is_held_until_the_first_write_and_counted_from_the_start(self):
        stream = io.StringIO()
        writer = JsonlTraceWriter(stream, meta={"name": "x"})
        assert stream.getvalue() == "" and writer.bytes_written > 0
        writer.flush()
        assert len(stream.getvalue().encode()) == writer.bytes_written
        assert json.loads(stream.getvalue())["name"] == "x"

    def test_first_write_or_rewind_cuts_what_an_interrupted_run_left(self, tmp_path):
        event = TraceEvent("inject", 0, 0, 0, 1, 0)
        path = tmp_path / "t.jsonl"
        with open(path, "w") as stream:
            first = JsonlTraceWriter(stream, meta={"name": "x"})
            first.emit(event)
            saved = first.events_written, first.bytes_written
            first.emit(event)
        interrupted = path.read_bytes()

        def own(stream):
            return JsonlTraceWriter(stream, meta={"name": "x"}, owns_stream=True)

        # Opened without cutting it, as a command that may resume does.
        with open(path, "r+") as stream:
            own(stream)
        assert path.read_bytes() == interrupted  # never written: untouched
        with open(path, "r+") as stream:
            resumed = own(stream)
            resumed.rewind(*saved)
            resumed.emit(event)
            assert (resumed.events_written, resumed.bytes_written) == (
                first.events_written, first.bytes_written
            )
        assert path.read_bytes() == interrupted
        with open(path, "r+") as stream:
            own(stream).emit(event)
        assert path.read_bytes() == interrupted[: saved[1]]  # a fresh run

    def test_a_stream_the_writer_does_not_own_is_only_written_to(self, tmp_path):
        """Stdout redirected with ``>>`` is seekable, reports offset 0 and
        holds the user's earlier bytes: the writer neither cuts them at
        its first write nor rewinds into them."""
        event = TraceEvent("inject", 0, 0, 0, 1, 0)
        path = tmp_path / "log"
        path.write_text("x" * 200)
        with open(path, "a") as stream:
            writer = JsonlTraceWriter(stream, meta={"name": "x"})
            with pytest.raises(ValueError, match="is not a file of its own"):
                writer.rewind(1, 99)
            writer.emit(event)
        text = path.read_text()
        records, events = read_trace(text[200:].splitlines())
        assert text[:200] == "x" * 200
        assert records[0]["name"] == "x" and len(events) == 1

    def test_rewind_refuses_a_file_without_the_bytes(self):
        writer = JsonlTraceWriter(
            io.StringIO("x" * 10), meta={"name": "x"}, owns_stream=True
        )
        with pytest.raises(ValueError, match="recorded 99 bytes .* holds 10"):
            writer.rewind(3, 99)

    def test_tee_fans_out(self):
        a, b = ListSink(), ListSink()
        tee = Tee(a, b)
        event = TraceEvent("arrive", 2, 28, 5, 9, 1)
        tee.emit(event)
        tee.flush()
        assert a.events == [event] and b.events == [event]


def _traced_batch(machine, routes, seed=5, **engine_kwargs):
    sink = ListSink()
    spec = BatchSpec(
        UniformRandom(machine.config.shape),
        packets_per_source=2,
        cores_per_chip=2,
        seed=seed,
    )
    stats = run(
        RunSpec(machine.config, spec), machine=machine, trace=sink,
        route_computer=routes, **engine_kwargs,
    )
    return sink.events, stats


class TestEngineEmission:
    @pytest.fixture(scope="class")
    def traced(self, tiny_machine, tiny_routes):
        return _traced_batch(tiny_machine, tiny_routes)

    def test_only_known_kinds(self, traced):
        events, _ = traced
        assert events and {e.kind for e in events} <= set(EVENT_KINDS)

    def test_event_counts_match_stats(self, traced):
        events, stats = traced
        kinds = [e.kind for e in events]
        assert kinds.count("inject") == stats.injected
        assert kinds.count("deliver") == stats.delivered
        # Every hop departs exactly once: flit-weighted departures equal
        # the stats channel accounting.
        departs = [e for e in events if e.kind == "depart"]
        assert sum(e.get("flits") for e in departs) == sum(
            stats.channel_flits.values()
        )
        assert sum(e.get("busy") for e in departs) == sum(
            stats.channel_busy_ticks.values()
        )

    def test_events_in_cycle_order(self, traced):
        events, _ = traced
        cycles = [e.cycle for e in events]
        assert cycles == sorted(cycles)
        for event in events:
            assert event.tick == event.cycle * 14

    def test_per_packet_causality(self, traced):
        events, stats = traced
        by_pid = {}
        for event in events:
            by_pid.setdefault(event.pid, []).append(event)
        assert len(by_pid) == stats.injected
        for pid, stream in by_pid.items():
            kinds = [e.kind for e in stream]
            assert kinds[0] == "inject"
            assert kinds[-1] == "deliver"
            # Delivery latency stamped on the event matches the cycle span.
            deliver = stream[-1]
            assert deliver.get("lat") == deliver.cycle - stream[0].cycle

    def test_grants_pair_with_router_departs(self, traced):
        events, _ = traced
        # Every grant is immediately followed by the depart it caused
        # (same packet, channel, cycle); injection departs have no grant.
        for i, event in enumerate(events):
            if event.kind != "grant":
                continue
            depart = events[i + 1]
            assert depart.kind == "depart"
            assert (depart.pid, depart.channel, depart.cycle) == (
                event.pid,
                event.channel,
                event.cycle,
            )

    def test_promotions_record_vc_change(self, traced):
        events, _ = traced
        promotions = [e for e in events if e.kind == "promote"]
        # Uniform traffic on the 2x2x2 torus crosses datelines: the trace
        # must witness VC promotion.
        assert promotions
        for event in promotions:
            assert event.get("from_vc") != event.vc

    def test_tracing_does_not_change_results(self, tiny_machine, tiny_routes, traced):
        _, traced_stats = traced
        spec = BatchSpec(
            UniformRandom(tiny_machine.config.shape),
            packets_per_source=2,
            cores_per_chip=2,
            seed=5,
        )
        untraced = run(
            RunSpec(tiny_machine.config, spec), machine=tiny_machine,
            route_computer=tiny_routes,
        )
        assert untraced.asdict() == traced_stats.asdict()


class TestWatchdogFlushesPartialTrace:
    """A wedged network must still raise DeadlockError with tracing on,
    leaving a parseable partial trace on disk (the deadlock post-mortem)."""

    @staticmethod
    def _jammed_engine(trace):
        # The radix-8 X-ring jam from the engine deadlock tests: a single
        # VC with no datelines wedges under all-to-halfway traffic.
        config = MachineConfig(
            shape=(8, 1, 1),
            endpoints_per_chip=1,
            vc_scheme="unsafe-single",
            onchip_buffer_flits=1,
            torus_buffer_flits=1,
            torus_latency=1,
        )
        machine = Machine(config)
        routes = RouteComputer(machine)
        engine = Engine(machine, watchdog_cycles=2_000, trace=trace)
        pid = 0
        for x in range(8):
            src = machine.ep_id[((x, 0, 0), 0)]
            dst = machine.ep_id[(((x + 4) % 8, 0, 0), 0)]
            route = routes.compute(
                src, dst, RouteChoice(deltas=(4, 0, 0), slice_index=0)
            )
            for _ in range(50):
                engine.enqueue(Packet(pid, route))
                pid += 1
        return engine

    def test_run_for_raises_and_flushes(self, tmp_path):
        path = tmp_path / "jam.jsonl"
        with open(path, "w") as stream:
            writer = JsonlTraceWriter(stream, meta={"name": "jam"})
            engine = self._jammed_engine(writer)
            with pytest.raises(DeadlockError):
                engine.run_for(1_000_000)
            # Flushed by the watchdog, before the stream is closed.
            records, events = read_trace(path.read_text().splitlines())
        assert records[0]["ev"] == "trace"
        assert events, "partial trace must contain the pre-jam events"
        kinds = {e.kind for e in events}
        assert "inject" in kinds and "depart" in kinds
        # The jam wedged before anything was delivered all the way around.
        assert len([e for e in events if e.kind == "deliver"]) < engine.stats.injected

    def test_every_flushed_line_is_valid_json(self, tmp_path):
        path = tmp_path / "jam.jsonl"
        with open(path, "w") as stream:
            writer = JsonlTraceWriter(stream, meta={"name": "jam"})
            engine = self._jammed_engine(writer)
            with pytest.raises(DeadlockError):
                engine.run()
        for line in path.read_text().splitlines():
            json.loads(line)
