"""Property-based tests for the simulation engine.

Random small workloads over random machines: every packet is delivered,
all credits return, buffers drain, and accounting balances.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.engine import Engine
from repro.sim.packet import Packet

_CACHE = {}


def setup_for(shape, scheme):
    key = (shape, scheme)
    if key not in _CACHE:
        machine = Machine(
            MachineConfig(
                shape=shape,
                endpoints_per_chip=2,
                vc_scheme=scheme,
                torus_latency=3,
                torus_buffer_flits=8,
            )
        )
        _CACHE[key] = (machine, RouteComputer(machine))
    return _CACHE[key]


@st.composite
def workload(draw):
    shape = draw(st.sampled_from([(2, 2, 2), (3, 2, 2), (4, 2, 1)]))
    scheme = draw(st.sampled_from(["anton", "baseline"]))
    seed = draw(st.integers(min_value=0, max_value=9999))
    count = draw(st.integers(min_value=1, max_value=60))
    size = draw(st.sampled_from([1, 2]))
    return shape, scheme, seed, count, size


class TestEngineConservation:
    @given(workload())
    @settings(max_examples=25)
    def test_everything_delivered_and_drained(self, case):
        shape, scheme, seed, count, size = case
        machine, routes = setup_for(shape, scheme)
        rng = random.Random(seed)
        from repro.core.geometry import all_coords

        chips = list(all_coords(shape))
        engine = Engine(machine)
        release = 0
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
            engine.enqueue(
                Packet(pid, route, size_flits=size, release_cycle=release)
            )
        stats = engine.run()
        assert stats.delivered == stats.injected
        assert engine.buffered_packets() == 0
        for cid, vcs in enumerate(machine.channel_vcs):
            for vc in range(vcs):
                assert engine.credits_outstanding(cid, vc) == 0

    @given(workload())
    @settings(max_examples=15)
    def test_flit_accounting_balances(self, case):
        shape, scheme, seed, count, size = case
        machine, routes = setup_for(shape, scheme)
        rng = random.Random(seed)
        from repro.core.geometry import all_coords

        chips = list(all_coords(shape))
        engine = Engine(machine)
        expected_flits = 0
        for pid in range(count):
            src_chip = rng.choice(chips)
            dst_chip = rng.choice(chips)
            src = machine.ep_id[(src_chip, 0)]
            dst = machine.ep_id[(dst_chip, 1)]
            if src == dst:
                continue
            choice = routes.random_choice(rng, src_chip, dst_chip)
            route = routes.compute(src, dst, choice)
            engine.enqueue(Packet(pid, route, size_flits=size))
            expected_flits += size * len(route.hops)
        stats = engine.run()
        assert sum(stats.channel_flits.values()) == expected_flits
