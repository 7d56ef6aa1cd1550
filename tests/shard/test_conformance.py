"""Sharded runs where the differential harness has no row for them.

Every row's stats and untraced checkpoint bytes are checked at its
shard counts by ``tests/integration/test_differential.py``. What stays
here: a degraded start whose enqueue-time reroutes a stock generator
never makes.
"""

import collections
import dataclasses
import json

import pytest

from repro.core.machine import Machine
from repro.sim.shard import run_sharded
from repro.sim.trace import ListSink

from tests.integration.test_differential import ROWS


@pytest.mark.parametrize("mode", ["reroute", "drop"])
def test_cycle_0_reroutes_of_a_degraded_start_reach_the_trace_once(
    mode, monkeypatch
):
    """Packets whose routes cross a link already down are re-routed (or
    dropped) as they are enqueued, before cycle 0 runs: the serial trace
    records each once, ahead of everything else. A sharded run enqueues
    while the hub starts it, and those counts must come out once, as
    the serial run's do. (The stock generator routes around the failed
    set, so nothing is re-routed at enqueue: generate on a healthy
    computer to get some.)"""
    from repro.core.routing import RouteComputer
    from repro.faults import FaultPolicy, FaultSet, FaultSpec
    from repro.faults.model import failable_channels
    from repro.sim import simulator

    healthy = ROWS["shard-uniform-rr"].run
    machine = Machine(healthy.config)
    generate = simulator.generate_workload
    crossed = collections.Counter(
        channel
        for packet in generate(healthy, machine, RouteComputer(machine))
        for channel, _vc in packet.route.hops
        if channel in set(failable_channels(machine))
    )
    run = dataclasses.replace(
        healthy,
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
    sink = ListSink()
    serial = json.dumps(run_sharded(run, 1, trace=sink).asdict())
    stats = json.loads(serial)
    at_enqueue = [e for e in sink.events if e.kind in ("reroute", "drop")]
    assert at_enqueue and {e.kind for e in at_enqueue} == {mode}
    assert stats["rerouted" if mode == "reroute" else "dropped"] == len(at_enqueue)
    assert sink.events[: len(at_enqueue)] == at_enqueue
    for shards in (2, 4):
        assert json.dumps(run_sharded(run, shards).asdict()) == serial

