"""Topology-conformance properties, over every registered topology.

These are the invariants a :class:`~repro.core.topology.Topology`
implementation must uphold to plug into the engine, in property form:

* routes are valid and minimal in inter-node hops;
* each ring dimension's dateline is crossed at most once per route, and
  a line dimension's (degenerate) dateline is *never* crossed -- the
  mechanical form of the mesh claim that the escape VC is unreachable
  via rule 1;
* credits, buffers, and delivery counts conserve on random workloads;
* identical runs are bitwise identical (full serialized engine state).

The suite draws its cases from ``topology_strategies``; a topology added
to the registry without a shapes entry there fails the coverage pin
below, so future topologies inherit every property here for free.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import all_coords
from repro.core.machine import ChannelKind
from repro.core.routing import validate_route
from repro.core.topology import TOPOLOGY_NAMES
from repro.sim.checkpoint import dumps, snapshot_engine
from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.sim.simulator import build_batch_engine
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import UniformRandom

from .topology_strategies import (
    SUITE_SHAPES,
    TOPOLOGY_CASES,
    endpoint_pair,
    machine_for,
    topology_cases,
)


def test_every_registered_topology_is_in_the_suite():
    """Adding a topology without suite shapes is a hard failure."""
    assert set(SUITE_SHAPES) == set(TOPOLOGY_NAMES)
    for name in TOPOLOGY_NAMES:
        assert SUITE_SHAPES[name], f"no suite shapes for topology {name!r}"


def _random_route(machine, routes, case):
    _name, _shape, _scheme, src_chip, dst_chip, src_ep, dst_ep, seed = case
    src = machine.ep_id[(src_chip, src_ep)]
    dst = machine.ep_id[(dst_chip, dst_ep)]
    rng = random.Random(seed)
    choice = routes.random_choice(rng, src_chip, dst_chip)
    return routes.compute(src, dst, choice)


class TestRouteProperties:
    @given(endpoint_pair(schemes=("anton", "baseline")))
    def test_routes_valid_and_minimal(self, case):
        name, shape, scheme = case[0], case[1], case[2]
        machine, routes = machine_for(name, shape, scheme)
        route = _random_route(machine, routes, case)
        validate_route(machine, route)
        assert route.internode_hops == machine.topology.hops(case[3], case[4])

    @given(endpoint_pair())
    def test_dateline_crossed_at_most_once_and_never_on_lines(self, case):
        name, shape = case[0], case[1]
        machine, routes = machine_for(name, shape)
        topology = machine.topology
        route = _random_route(machine, routes, case)
        crossings = [0, 0, 0]
        for channel_id, _vc in route.hops:
            if machine.channel_kind[channel_id] != ChannelKind.TORUS:
                continue
            src_comp = machine.components[machine.channel_src[channel_id]]
            dst_comp = machine.components[machine.channel_dst[channel_id]]
            direction, _slice = src_comp.detail
            dim = direction.dim
            if topology.crossing_step(
                dim, src_comp.chip[dim], dst_comp.chip[dim]
            ):
                crossings[dim] += 1
        for dim in range(3):
            if topology.wraps(dim):
                assert crossings[dim] <= 1
            else:
                # The degenerate dateline: a line is never wrapped, so
                # rule-1 VC promotion is unreachable by construction.
                assert crossings[dim] == 0


@st.composite
def conservation_case(draw):
    name, shape = draw(topology_cases)
    seed = draw(st.integers(min_value=0, max_value=9999))
    count = draw(st.integers(min_value=1, max_value=40))
    size = draw(st.sampled_from([1, 2]))
    return name, shape, seed, count, size


class TestConservation:
    @given(conservation_case())
    @settings(max_examples=25)
    def test_credits_and_buffers_conserve(self, case):
        name, shape, seed, count, size = case
        machine, routes = machine_for(name, shape)
        rng = random.Random(seed)
        chips = list(all_coords(machine.config.shape))
        engine = Engine(machine)
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


@st.composite
def batch_case(draw):
    name, shape = draw(topology_cases)
    seed = draw(st.integers(min_value=0, max_value=999))
    batch = draw(st.integers(min_value=1, max_value=4))
    arbitration = draw(st.sampled_from(["rr", "age"]))
    return name, shape, seed, batch, arbitration


class TestBitwiseDeterminism:
    @given(batch_case())
    @settings(max_examples=15)
    def test_identical_runs_are_bitwise_identical(self, case):
        name, shape, seed, batch, arbitration = case
        machine, routes = machine_for(name, shape)
        pattern = UniformRandom(machine.config.shape)
        spec = BatchSpec(
            pattern, packets_per_source=batch, cores_per_chip=2, seed=seed
        )

        def run_once():
            engine = build_batch_engine(
                machine, routes, spec, arbitration=arbitration
            )
            engine.run()
            return dumps(snapshot_engine(engine))

        assert run_once() == run_once()
