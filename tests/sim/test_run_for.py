"""Regression tests for ``Engine.run_for``.

Three contracts pinned here:

* ``stats.end_cycle`` is updated on *every* return path (it was once
  only set by :meth:`run`, so mid-run snapshots reported a stale span);
* splitting a run -- ``run_for(n)`` then ``run_for(m)`` -- is bitwise
  identical to ``run_for(n + m)``: same stats, same trace, same
  per-packet outcomes. The timing wheel makes scheduling state richer
  than a flat heap, so pausing and resuming must not perturb it;
* ``run(max_cycles)`` stops at the budget and raises if work remains.
"""

import random

import pytest

from repro.core.geometry import all_coords
from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.sim.trace import ListSink


def build_workload(machine, routes, seed=11, count=48):
    """A seeded uniform workload as a list of enqueue-ready packets."""
    rng = random.Random(seed)
    chips = list(all_coords(machine.config.shape))
    packets = []
    per_source_release = {}
    for pid in range(count):
        src_chip = rng.choice(chips)
        dst_chip = rng.choice(chips)
        src = machine.ep_id[(src_chip, rng.randrange(2))]
        dst = machine.ep_id[(dst_chip, rng.randrange(2))]
        if src == dst:
            continue
        choice = routes.random_choice(rng, src_chip, dst_chip)
        route = routes.compute(src, dst, choice)
        release = per_source_release.get(src, 0) + rng.randrange(3)
        per_source_release[src] = release
        packets.append(Packet(pid, route, release_cycle=release))
    return packets


def fresh_engine(machine, routes, trace=None, seed=11):
    engine = Engine(machine, keep_packet_latencies=True, trace=trace)
    for packet in build_workload(machine, routes, seed=seed):
        engine.enqueue(packet)
    return engine


class TestEndCycle:
    def test_set_on_budget_exhaustion(self, tiny_machine, tiny_routes):
        engine = fresh_engine(tiny_machine, tiny_routes)
        stats = engine.run_for(3)
        assert stats.end_cycle == engine.cycle == 3

    def test_set_on_early_drain(self, tiny_machine, tiny_routes):
        engine = fresh_engine(tiny_machine, tiny_routes)
        stats = engine.run_for(1_000_000)
        assert stats.delivered == stats.injected
        assert engine.cycle < 1_000_000
        assert stats.end_cycle == engine.cycle

    def test_set_when_nothing_to_do(self, tiny_machine):
        engine = Engine(tiny_machine)
        stats = engine.run_for(5)
        assert stats.end_cycle == engine.cycle == 0

    def test_tracks_successive_calls(self, tiny_machine, tiny_routes):
        engine = fresh_engine(tiny_machine, tiny_routes)
        for _ in range(4):
            stats = engine.run_for(2)
            assert stats.end_cycle == engine.cycle


class TestSplitRunEquivalence:
    def test_split_matches_single_run(self, tiny_machine, tiny_routes):
        for n, m in ((1, 7), (5, 5), (13, 200)):
            sink_a, sink_b = ListSink(), ListSink()
            split = fresh_engine(tiny_machine, tiny_routes, trace=sink_a)
            single = fresh_engine(tiny_machine, tiny_routes, trace=sink_b)
            split.run_for(n)
            split.run_for(m)
            single.run_for(n + m)
            assert split.cycle == single.cycle
            # Dataclass equality: every counter, per-source tally,
            # per-channel flit/busy map, and retained latency list.
            assert split.stats == single.stats
            assert sink_a.events == sink_b.events
            assert split.buffered_packets() == single.buffered_packets()

    def test_split_run_to_completion(self, tiny_machine, tiny_routes):
        sink_a, sink_b = ListSink(), ListSink()
        split = fresh_engine(tiny_machine, tiny_routes, trace=sink_a)
        single = fresh_engine(tiny_machine, tiny_routes, trace=sink_b)
        # Same stop condition as run(): trailing credit returns after the
        # last delivery still advance the cycle count.
        while split._queued or split._in_network or split._events.pending:
            split.run_for(3)
        single.run()
        assert split.stats == single.stats
        assert sink_a.events == sink_b.events


class TestRunBudget:
    def test_over_budget_run_raises_at_the_budget(self, tiny_machine, tiny_routes):
        engine = fresh_engine(tiny_machine, tiny_routes)
        with pytest.raises(
            RuntimeError,
            match=r"simulation exceeded 3 cycles with \d+ packets outstanding",
        ):
            engine.run(max_cycles=3)
        assert engine.cycle == 3
        # The budget is not sticky: a larger one finishes the same run.
        single = fresh_engine(tiny_machine, tiny_routes)
        assert engine.run().asdict() == single.run().asdict()
