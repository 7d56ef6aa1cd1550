"""Regression tests for ``run_for``, the engine's and the sharded engine's.

Three contracts pinned here, the split-run ones at 1, 2 and 4 shards
(whatever :func:`~repro.sim.simulator.start` returns is driven the same
way):

* ``stats.end_cycle`` is updated on *every* return path (it was once
  only set by :meth:`run`, so mid-run snapshots reported a stale span);
* splitting a run -- ``run_for(n)`` then ``run_for(m)`` -- is bitwise
  identical to ``run_for(n + m)``: same stats, same trace, same
  per-packet outcomes. The timing wheel makes scheduling state richer
  than a flat heap, so pausing and resuming must not perturb it;
* ``run(max_cycles)`` stops at the budget and raises if work remains.
"""

import json
import random

import pytest

from repro.core.geometry import all_coords
from repro.sim.checkpoint import dumps, snapshot_engine
from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.sim.simulator import RunSpec, start
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
    engine = Engine(machine, trace=trace)
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
            # Dataclass equality: every counter, per-source tally and
            # per-channel flit/busy map; per-packet latencies are the
            # deliver events' ``lat``.
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


#: A described run (so it can be cut over shards): drains at cycle 110.
DESCRIBED = RunSpec.from_params(
    {"kind": "batch", "shape": [4, 2, 2], "cores": 2, "batch": 16, "seed": 3}
)


@pytest.mark.parametrize("shards", [1, 2, 4])
class TestSplitRunAtAnyShardCount:
    """``run_for(a); run_for(b)`` == ``run_for(a + b)`` == ``run()``, on
    the clock, the stats JSON, the trace and the snapshot bytes -- and all
    of them the serial engine's."""

    @staticmethod
    def observed(shards, drive):
        sink = ListSink()
        engine = start(DESCRIBED, trace=sink, shards=shards)
        try:
            drive(engine)
            return (
                engine.cycle,
                engine.drained,
                json.dumps(engine.stats.asdict()),
                sink.events,
                dumps(snapshot_engine(engine)),
            )
        finally:
            engine.close()

    # 12 is the lookahead of this machine: splits on, inside and across
    # window boundaries, and one past the drain.
    @pytest.mark.parametrize("a,b", [(1, 7), (12, 12), (13, 50), (5, 31), (90, 500)])
    def test_split_matches_single_run(self, shards, a, b):
        split = self.observed(shards, lambda e: (e.run_for(a), e.run_for(b)))
        single = self.observed(shards, lambda e: e.run_for(a + b))
        assert split == single
        assert single == self.observed(1, lambda e: e.run_for(a + b))
        assert single[0] == min(a + b, 110)
        assert json.loads(single[2])["end_cycle"] == single[0]

    def test_split_run_to_completion(self, shards):
        def in_slices(engine):
            while not engine.drained:
                engine.run_for(7)

        sliced = self.observed(shards, in_slices)
        assert sliced == self.observed(shards, lambda e: e.run())
        assert sliced == self.observed(1, lambda e: e.run())
        assert sliced[:2] == (110, True)

    def test_run_for_returns_the_stats_of_that_cycle(self, shards):
        engine = start(DESCRIBED, shards=shards)
        try:
            for _ in range(4):
                stats = engine.run_for(9)
                assert stats.end_cycle == engine.cycle
            assert engine.run_for(0).asdict() == stats.asdict()
        finally:
            engine.close()

    def test_over_budget_run_raises_at_the_budget(self, shards):
        engine = start(DESCRIBED, shards=shards)
        try:
            with pytest.raises(
                RuntimeError,
                match=r"simulation exceeded 30 cycles with \d+ packets outstanding",
            ):
                engine.run(max_cycles=30)
            assert engine.cycle == 30
            # The budget is not sticky: a larger one finishes the same run.
            finished = json.dumps(engine.run().asdict())
        finally:
            engine.close()
        assert finished == self.observed(1, lambda e: e.run())[2]
