"""Property-based tests for the analytic load computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.traffic.loads import compute_loads
from repro.traffic.patterns import (
    NHopNeighbor,
    ReverseTornado,
    Tornado,
    UniformRandom,
)

_CACHE = {}


def setup_for(shape):
    if shape not in _CACHE:
        machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        _CACHE[shape] = (machine, RouteComputer(machine))
    return _CACHE[shape]


@st.composite
def load_case(draw):
    shape = draw(st.sampled_from([(2, 2, 2), (3, 2, 2), (4, 2, 1)]))
    pattern_kind = draw(st.sampled_from(["uniform", "1hop", "tornado", "reverse"]))
    cores = draw(st.integers(min_value=1, max_value=2))
    return shape, pattern_kind, cores


def make_pattern(kind, shape):
    if kind == "uniform":
        return UniformRandom(shape)
    if kind == "1hop":
        return NHopNeighbor(shape, 1)
    if kind == "tornado":
        return Tornado(shape)
    return ReverseTornado(shape)


class TestLoadInvariants:
    @given(load_case())
    @settings(max_examples=20)
    def test_flow_conservation(self, case):
        shape, kind, cores = case
        machine, routes = setup_for(shape)
        pattern = make_pattern(kind, shape)
        table = compute_loads(machine, routes, pattern, cores)
        # Every source injects one packet per round.
        injected = sum(
            load
            for cid, load in table.channel_load.items()
            if machine.channel_kind[cid] == ChannelKind.EP_TO_ROUTER
        )
        ejected = sum(
            load
            for cid, load in table.channel_load.items()
            if machine.channel_kind[cid] == ChannelKind.ROUTER_TO_EP
        )
        active = cores * machine.config.num_chips
        assert injected == pytest.approx(active)
        assert ejected == pytest.approx(active)

    @given(load_case())
    @settings(max_examples=20)
    def test_arbiter_and_vc_loads_consistent(self, case):
        shape, kind, cores = case
        machine, routes = setup_for(shape)
        pattern = make_pattern(kind, shape)
        table = compute_loads(machine, routes, pattern, cores)
        for oc, per_input in table.arbiter_load.items():
            assert sum(per_input) == pytest.approx(table.channel_load[oc])
        for cid, per_vc in table.vc_load.items():
            assert sum(per_vc) == pytest.approx(table.channel_load[cid])

    @given(load_case())
    @settings(max_examples=10)
    def test_symmetry_path_exact(self, case):
        shape, kind, cores = case
        machine, routes = setup_for(shape)
        pattern = make_pattern(kind, shape)
        if not pattern.node_symmetric:
            return
        fast = compute_loads(machine, routes, pattern, cores, use_symmetry=True)
        slow = compute_loads(machine, routes, pattern, cores, use_symmetry=False)
        keys = set(fast.channel_load) | set(slow.channel_load)
        for key in keys:
            assert fast.channel_load.get(key, 0.0) == pytest.approx(
                slow.channel_load.get(key, 0.0)
            )

    @given(load_case())
    @settings(max_examples=15)
    def test_loads_nonnegative_and_mean_hops_consistent(self, case):
        shape, kind, cores = case
        machine, routes = setup_for(shape)
        pattern = make_pattern(kind, shape)
        table = compute_loads(machine, routes, pattern, cores)
        assert all(load >= 0 for load in table.channel_load.values())
        torus_total = sum(
            load
            for cid, load in table.channel_load.items()
            if machine.channel_kind[cid] == ChannelKind.TORUS
        )
        active = cores * machine.config.num_chips
        assert torus_total == pytest.approx(active * pattern.mean_hops())
