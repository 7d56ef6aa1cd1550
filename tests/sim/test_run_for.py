"""Regression tests for ``run_for``, the engine's and the sharded engine's.

Two contracts pinned here, the sharded ones at 1, 2 and 4 shards
(whatever :func:`~repro.sim.simulator.start` returns is driven the same
way):

* ``stats.end_cycle`` is updated on *every* return path (it was once
  only set by :meth:`run`, so mid-run snapshots reported a stale span);
* ``run(max_cycles)`` stops at the budget and raises if work remains.

That splitting a run -- ``run_for(n)`` then ``run_for(m)`` -- is bitwise
identical to ``run_for(n + m)`` (same stats, trace bytes and snapshot:
the timing wheel's scheduling state survives the pause) is the
differential harness's ``split`` leg, against the serial oracle: serial
runs cut at 25 and 50, and the described row cut around its lookahead at
2 and 4 shards.
"""

import json
import random

import pytest

from repro.core.geometry import all_coords
from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.sim.simulator import run, start

from tests.integration.test_differential import ROWS


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
DESCRIBED = ROWS["described"].run


@pytest.mark.parametrize("shards", [1, 2, 4])
class TestSplitRunAtAnyShardCount:
    """What a split leaves the caller: the stats of the cycle it stopped
    at, and a budget that stops it exactly there."""

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
        assert finished == json.dumps(run(DESCRIBED).asdict())
