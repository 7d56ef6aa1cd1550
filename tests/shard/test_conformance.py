"""Bit-identity conformance: sharded runs versus the serial oracle.

Every observable stream -- ``SimStats.asdict()`` (dict key order
included, via JSON rendering), trace event sequences, metrics-collector
state, and the committed golden bytes -- must be *identical* for every
shard count. These tests run the same workload serially and sharded and
compare exactly; any divergence is a correctness bug in the lookahead
protocol, not a tolerance question.
"""

import collections
import json
import os

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.shard import ShardedRun, run_sharded
from repro.sim.trace import ListSink

CONFIG_2x2x2 = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)


def _uniform_run(arbitration):
    from repro.traffic.batch import BatchSpec
    from repro.traffic.patterns import UniformRandom

    pattern = UniformRandom((2, 2, 2))
    return ShardedRun(
        config=CONFIG_2x2x2,
        spec=BatchSpec(
            pattern, packets_per_source=4, cores_per_chip=2, seed=11
        ),
        arbitration=arbitration,
        weight_patterns=(pattern,) if arbitration == "iw" else (),
    )


def _tornado_run(arbitration):
    from repro.traffic.batch import BatchSpec
    from repro.traffic.patterns import Tornado

    pattern = Tornado((2, 2, 2))
    return ShardedRun(
        config=CONFIG_2x2x2,
        spec=BatchSpec(
            pattern, packets_per_source=4, cores_per_chip=2, seed=12
        ),
        arbitration=arbitration,
        weight_patterns=(pattern,) if arbitration == "iw" else (),
    )


def _demand_run(arbitration):
    from repro.traffic.demand import DemandMatrix, DemandSchedule, DemandSpec

    base = DemandMatrix.hotspot(
        (2, 2, 2), rate=0.3, hotspots=1, hot_fraction=0.6, seed=21
    )
    shifted = DemandMatrix.uniform((2, 2, 2), 0.2)
    return ShardedRun(
        config=CONFIG_2x2x2,
        spec=DemandSpec(
            demand=DemandSchedule(epochs=((0, base), (24, shifted))),
            cores_per_chip=2,
            mode="open",
            duration_cycles=48,
            seed=22,
        ),
        arbitration=arbitration,
    )


def _fault_set():
    from repro.faults import FaultSet, FaultSpec
    from repro.faults.model import failable_channels

    machine = Machine(CONFIG_2x2x2)
    torus = failable_channels(machine)
    return FaultSet(
        specs=(
            FaultSpec(kind="link", channel=torus[1], down_cycle=10),
            FaultSpec(
                kind="link",
                channel=torus[len(torus) // 2],
                down_cycle=16,
                up_cycle=36,
            ),
        ),
        shape=(2, 2, 2),
    )


def _faulted_uniform_run(arbitration, mode="reroute"):
    from repro.faults import FaultPolicy

    run = _uniform_run(arbitration)
    return ShardedRun(
        config=run.config,
        spec=run.spec,
        arbitration=run.arbitration,
        weight_patterns=run.weight_patterns,
        fault_set=_fault_set(),
        fault_policy=FaultPolicy(mode=mode) if mode != "reroute" else None,
    )


def _faulted_demand_run(arbitration):
    run = _demand_run(arbitration)
    return ShardedRun(
        config=run.config,
        spec=run.spec,
        arbitration=run.arbitration,
        fault_set=_fault_set(),
    )


WORKLOADS = {
    "uniform-rr": lambda: _uniform_run("rr"),
    "uniform-age": lambda: _uniform_run("age"),
    "uniform-iw": lambda: _uniform_run("iw"),
    "tornado-rr": lambda: _tornado_run("rr"),
    "tornado-age": lambda: _tornado_run("age"),
    "tornado-iw": lambda: _tornado_run("iw"),
    "demand-rr": lambda: _demand_run("rr"),
    "demand-age": lambda: _demand_run("age"),
    "demand-iw": lambda: _demand_run("iw"),
    "uniform-rr-faulted": lambda: _faulted_uniform_run("rr"),
    "uniform-iw-faulted": lambda: _faulted_uniform_run("iw"),
    "uniform-rr-dropping": lambda: _faulted_uniform_run("rr", mode="drop"),
    "demand-rr-faulted": lambda: _faulted_demand_run("rr"),
}

_serial_memo = {}


def _serial(name):
    """Serial oracle for one workload (memoized: stats JSON + events)."""
    if name not in _serial_memo:
        sink = ListSink()
        stats = run_sharded(WORKLOADS[name](), 1, trace=sink)
        _serial_memo[name] = (
            json.dumps(stats.asdict(), sort_keys=False),
            list(sink.events),
        )
    return _serial_memo[name]


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stats_and_trace_bit_identical(name, shards):
    serial_stats, serial_events = _serial(name)
    sink = ListSink()
    stats = run_sharded(WORKLOADS[name](), shards, trace=sink)
    # JSON text comparison pins dict *key order*, not just values.
    assert json.dumps(stats.asdict(), sort_keys=False) == serial_stats
    assert sink.events == serial_events


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", ["uniform-rr", "uniform-rr-faulted", "demand-rr"])
def test_metrics_collector_state_identical(name, shards):
    # The serial engine feeds its collector directly; the hub feeds the
    # merged event stream through ``emit``.
    serial = MetricsCollector(window_cycles=16)
    run_sharded(WORKLOADS[name](), 1, trace=serial)
    sharded = MetricsCollector(window_cycles=16)
    run_sharded(WORKLOADS[name](), shards, trace=sharded)
    assert json.dumps(sharded.state()) == json.dumps(serial.state())
    end = serial.last_cycle
    assert sharded.summary(end) == serial.summary(end)


@pytest.mark.parametrize("mode", ["reroute", "drop"])
def test_cycle_0_reroutes_of_a_degraded_start_reach_the_trace_once(
    mode, monkeypatch
):
    """Packets whose routes cross a link already down are re-routed (or
    dropped) as they are enqueued, before cycle 0 runs. A sharded run
    enqueues while the hub starts it, and those records and counts must
    come out once, ahead of everything else, as the serial run's do.
    (The stock generator routes around the failed set, so nothing is
    re-routed at enqueue: generate on a healthy computer to get some.)"""
    from repro.core.routing import RouteComputer
    from repro.faults import FaultPolicy, FaultSet, FaultSpec
    from repro.faults.model import failable_channels
    from repro.sim import simulator

    machine = Machine(CONFIG_2x2x2)
    healthy = _uniform_run("rr")
    generate = simulator.generate_workload
    crossed = collections.Counter(
        channel
        for packet in generate(healthy, machine, RouteComputer(machine))
        for channel, _vc in packet.route.hops
        if channel in set(failable_channels(machine))
    )
    run = ShardedRun(
        config=healthy.config,
        spec=healthy.spec,
        fault_set=FaultSet(
            specs=tuple(
                FaultSpec(kind="link", channel=channel, down_cycle=0)
                for channel, _count in crossed.most_common(2)
            ),
            shape=(2, 2, 2),
        ),
        fault_policy=FaultPolicy(mode=mode),
    )
    monkeypatch.setattr(
        simulator, "generate_workload",
        lambda run, machine, _: generate(run, machine, RouteComputer(machine)),
    )
    streams = {}
    for shards in (1, 2, 4):
        sink = ListSink()
        stats = run_sharded(run, shards, trace=sink)
        streams[shards] = json.dumps(stats.asdict()), sink.events
    stats = json.loads(streams[1][0])
    at_enqueue = [e for e in streams[1][1] if e.kind in ("reroute", "drop")]
    assert at_enqueue and {e.kind for e in at_enqueue} == {mode}
    assert stats["rerouted" if mode == "reroute" else "dropped"] == len(at_enqueue)
    assert streams[1][1][: len(at_enqueue)] == at_enqueue
    assert streams[2] == streams[1] and streams[4] == streams[1]


@pytest.mark.parametrize("shards", [2, 4])
def test_goldens_byte_identical_under_sharding(shards):
    from repro.sim.goldens import (
        SHARDABLE_GOLDEN_NAMES,
        committed_golden_path,
        render_golden,
    )

    for name in SHARDABLE_GOLDEN_NAMES:
        committed = committed_golden_path(name).read_text()
        assert render_golden(name, shards=shards) == committed, name


def test_pingpong_golden_rejects_sharding():
    from repro.sim.goldens import write_golden
    import io

    with pytest.raises(ValueError, match="cannot run sharded"):
        write_golden("pingpong_2x2x2", io.StringIO(), shards=2)


def test_larger_machine_8_shards():
    """4x4x4 at the maximum shard count, cross-shard channels on every
    axis."""
    from repro.traffic.batch import BatchSpec
    from repro.traffic.patterns import UniformRandom

    run = ShardedRun(
        config=MachineConfig(shape=(4, 4, 4), endpoints_per_chip=2),
        spec=BatchSpec(
            UniformRandom((4, 4, 4)),
            packets_per_source=2,
            cores_per_chip=2,
            seed=33,
        ),
    )
    serial = run_sharded(run, 1)
    for shards in (2, 8):
        stats = run_sharded(run, shards)
        assert json.dumps(stats.asdict()) == json.dumps(serial.asdict())
