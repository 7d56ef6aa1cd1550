"""A collector has two entries and one set of reducers.

The engine feeds a :class:`MetricsCollector` directly at grant, depart,
arrive and deliver; the sharded hub and replay feed it events through
``emit``. These tests pin that both land in the same state, that nothing
builds a :class:`TraceEvent` unless a sink reads it, and that the sink
may be reassigned between cycles without moving a byte of the run.
"""

import io
import json

import pytest

from repro.core.machine import MachineConfig
from repro.sim.checkpoint import dumps, snapshot_engine
from repro.sim.goldens import GOLDEN_NAMES, committed_golden_path, golden_runspec
from repro.sim.metrics import MetricsCollector, split_collector
from repro.sim.simulator import RunSpec, run, start
from repro.sim.trace import JsonlTraceWriter, ListSink, Tee, TraceEvent, read_trace
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import UniformRandom

#: Goldens that are runs (pingpong's is a delivery-hook driver).
RUN_GOLDENS = [name for name in GOLDEN_NAMES if name != "pingpong_2x2x2"]


def _node_fault_run(mode: str) -> RunSpec:
    """A 3x2x1 batch whose chip (1, 0, 0) fails mid-run under ``mode``."""
    return RunSpec.from_params({
        "kind": "batch", "shape": [3, 2, 1], "endpoints": 2, "cores": 2,
        "pattern": "uniform", "batch": 12, "seed": 1,
        "faults": {
            "version": 1, "shape": [3, 2, 1],
            "faults": [{"kind": "node", "chip": [1, 0, 0], "down": 6}],
        },
        "policy": {"mode": mode},
    })


def _pipelined_run() -> RunSpec:
    """A 2x2x2 batch whose routers hold each arrival two cycles: cycles
    with arrivals and nothing else (none in the goldens) are common."""
    config = MachineConfig(
        shape=(2, 2, 2), endpoints_per_chip=2, router_pipeline_cycles=2
    )
    return RunSpec(
        config, BatchSpec(UniformRandom(config.shape), 3, cores_per_chip=2, seed=5)
    )


RUNS = {name: (lambda name=name: golden_runspec(name)) for name in RUN_GOLDENS}
RUNS["retry_3x2x1"] = lambda: _node_fault_run("retry")
RUNS["drop_3x2x1"] = lambda: _node_fault_run("drop")
RUNS["pipelined_2x2x2"] = _pipelined_run


def _state_text(collector: MetricsCollector) -> str:
    # JSON text pins key order as well as values.
    return json.dumps(collector.state())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_live_collector_equals_one_fed_the_runs_jsonl(name):
    """At every cycle boundary, not just at the end: a mid-run read (a
    serve ``stats``) sees the live collector."""
    stream = io.StringIO()
    run(RUNS[name](), trace=JsonlTraceWriter(stream))
    events = read_trace(stream.getvalue().splitlines())[1]
    live = MetricsCollector(window_cycles=16)
    engine = start(RUNS[name](), trace=live)
    replayed = MetricsCollector(window_cycles=16)
    fed = 0
    while not engine.drained:
        engine.run_for(1)
        while fed < len(events) and events[fed].cycle < engine.cycle:
            replayed.emit(events[fed])
            fed += 1
        assert _state_text(live) == _state_text(replayed), engine.cycle
    assert fed == len(events)
    assert live.last_cycle == replayed.last_cycle
    assert live.delivered == engine.stats.delivered
    if name.endswith("3x2x1"):
        assert engine.stats.retried or engine.stats.dropped


@pytest.fixture
def constructions(monkeypatch):
    """Counts every :class:`TraceEvent` built while the test runs."""
    count = [0]
    original = TraceEvent.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__new__", counting)
    return count


class TestNoEventsWithoutAReader:
    def test_untraced_run(self, constructions):
        run(RUNS["faulted_2x2x2"]())
        assert constructions[0] == 0

    def test_collector_only_run(self, constructions):
        collector = MetricsCollector()
        run(RUNS["uniform_2x2x2"](), trace=collector)
        assert collector.delivered
        assert constructions[0] == 0

    def test_collector_only_faulted_run(self, constructions):
        # The faulted golden's fault and reroute records are the only
        # events built: they still reach the collector through ``emit``.
        rare = [
            event for event in read_trace(
                committed_golden_path("faulted_2x2x2").read_text().splitlines()
            )[1]
            if event.kind in ("fault", "reroute", "drop", "retry")
        ]
        constructions[0] = 0
        collector = MetricsCollector()
        run(RUNS["faulted_2x2x2"](), trace=collector)
        assert collector.delivered
        assert constructions[0] == len(rare) == 4

    def test_idle_subscriber_session(self, constructions):
        import asyncio

        from repro.serve.session import OutboundChannel, Session, Subscriber

        session = Session.create("s", dict(
            kind="batch", shape=[2, 2, 2], endpoints=2, cores=2,
            pattern="uniform", batch=8, seed=3,
        ))
        session.subscribe(Subscriber(OutboundChannel(), ["metrics"], 16))
        assert asyncio.run(session.advance())["drained"]
        assert constructions[0] == 0

    @pytest.mark.parametrize("name", ["uniform_2x2x2", "faulted_2x2x2", "demand_2x2x2"])
    def test_a_list_sink_beside_the_collector_gets_every_event(self, name):
        sink = ListSink()
        run(RUNS[name](), trace=Tee(MetricsCollector(), sink))
        committed = read_trace(
            committed_golden_path(name).read_text().splitlines()
        )[1]
        assert sink.events == committed


def test_split_collector():
    collector, other = MetricsCollector(), MetricsCollector()
    a, b = ListSink(), ListSink()
    assert split_collector(None) == (None, None)
    assert split_collector(a) == (None, a)
    assert split_collector(collector) == (collector, None)
    assert split_collector(Tee(a, collector)) == (collector, a)
    found, rest = split_collector(Tee(a, Tee(collector, other), b))
    assert found is collector
    assert rest.sinks == (a, other, b)


def test_reassigning_the_sink_between_cycles():
    """None -> collector -> Tee(collector, ListSink) -> None."""
    name = "uniform_2x2x2"
    straight = start(RUNS[name]())
    straight.run()
    full = ListSink()
    run(RUNS[name](), trace=full)

    engine = start(RUNS[name]())
    collector, sink = MetricsCollector(window_cycles=16), ListSink()
    engine.run_for(10)
    engine.trace = collector
    engine.run_for(15)
    engine.trace = Tee(collector, sink)
    engine.run_for(20)
    engine.trace = None
    engine.run()
    assert engine.stats == straight.stats
    assert dumps(snapshot_engine(engine)) == dumps(snapshot_engine(straight))
    assert sink.events == [e for e in full.events if 25 <= e.cycle < 45]
    assert sink.events
    # The collector saw cycles 10..44, directly fed throughout: the same
    # state as one fed those cycles' events through ``emit``.
    windowed = MetricsCollector(window_cycles=16)
    for event in full.events:
        if 10 <= event.cycle < 45:
            windowed.emit(event)
    assert _state_text(collector) == _state_text(windowed)
