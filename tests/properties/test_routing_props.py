"""Property-based tests for route construction."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import all_coords, torus_hops
from repro.core.machine import ChannelGroup, Machine, MachineConfig, group_of
from repro.core.routing import ALL_DIM_ORDERS, RouteChoice, RouteComputer, validate_route

_MACHINES = {}


def machine_for(shape, scheme="anton"):
    key = (shape, scheme)
    if key not in _MACHINES:
        _MACHINES[key] = Machine(
            MachineConfig(shape=shape, endpoints_per_chip=2, vc_scheme=scheme)
        )
    return _MACHINES[key]


_ROUTERS = {}


def routes_for(shape, scheme="anton"):
    key = (shape, scheme)
    if key not in _ROUTERS:
        _ROUTERS[key] = RouteComputer(machine_for(shape, scheme))
    return _ROUTERS[key]


shapes = st.sampled_from([(2, 2, 2), (3, 3, 3), (4, 2, 3), (5, 2, 2), (4, 4, 1)])


@st.composite
def route_case(draw):
    shape = draw(shapes)
    coords = list(all_coords(shape))
    src_chip = draw(st.sampled_from(coords))
    dst_chip = draw(st.sampled_from(coords))
    src_ep = draw(st.integers(min_value=0, max_value=1))
    dst_ep = draw(st.integers(min_value=0, max_value=1))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    scheme = draw(st.sampled_from(["anton", "baseline"]))
    return shape, src_chip, dst_chip, src_ep, dst_ep, seed, scheme


class TestRouteProperties:
    @given(route_case())
    def test_random_routes_are_valid(self, case):
        shape, src_chip, dst_chip, src_ep, dst_ep, seed, scheme = case
        machine = machine_for(shape, scheme)
        routes = routes_for(shape, scheme)
        src = machine.ep_id[(src_chip, src_ep)]
        dst = machine.ep_id[(dst_chip, dst_ep)]
        if src == dst:
            return
        rng = random.Random(seed)
        choice = routes.random_choice(rng, src_chip, dst_chip)
        route = routes.compute(src, dst, choice)
        validate_route(machine, route)

    @given(route_case())
    def test_internode_hops_minimal(self, case):
        shape, src_chip, dst_chip, src_ep, dst_ep, seed, scheme = case
        machine = machine_for(shape, scheme)
        routes = routes_for(shape, scheme)
        src = machine.ep_id[(src_chip, src_ep)]
        dst = machine.ep_id[(dst_chip, dst_ep)]
        if src == dst:
            return
        rng = random.Random(seed)
        choice = routes.random_choice(rng, src_chip, dst_chip)
        route = routes.compute(src, dst, choice)
        assert route.internode_hops == torus_hops(src_chip, dst_chip, shape)

    @given(route_case())
    def test_vc_bounds_per_scheme(self, case):
        shape, src_chip, dst_chip, src_ep, dst_ep, seed, scheme = case
        machine = machine_for(shape, scheme)
        routes = routes_for(shape, scheme)
        src = machine.ep_id[(src_chip, src_ep)]
        dst = machine.ep_id[(dst_chip, dst_ep)]
        if src == dst:
            return
        rng = random.Random(seed)
        choice = routes.random_choice(rng, src_chip, dst_chip)
        route = routes.compute(src, dst, choice)
        t_limit = 4 if scheme == "anton" else 6
        for channel_id, vc in route.hops:
            group = group_of(machine.channel_kind[channel_id])
            if group == ChannelGroup.T:
                assert vc < t_limit
            elif group == ChannelGroup.M:
                assert vc < 4

    @given(route_case())
    def test_deterministic_for_fixed_choice(self, case):
        shape, src_chip, dst_chip, src_ep, dst_ep, seed, scheme = case
        machine = machine_for(shape, scheme)
        routes = routes_for(shape, scheme)
        src = machine.ep_id[(src_chip, src_ep)]
        dst = machine.ep_id[(dst_chip, dst_ep)]
        if src == dst:
            return
        for dim_order in ALL_DIM_ORDERS[:2]:
            choice = RouteChoice(dim_order=dim_order)
            assert routes.compute(src, dst, choice).hops == routes.compute(
                src, dst, choice
            ).hops

    @given(route_case())
    def test_all_choices_give_valid_routes(self, case):
        shape, src_chip, dst_chip, src_ep, dst_ep, _seed, scheme = case
        machine = machine_for(shape, scheme)
        routes = routes_for(shape, scheme)
        src = machine.ep_id[(src_chip, src_ep)]
        dst = machine.ep_id[(dst_chip, dst_ep)]
        if src == dst:
            return
        total = 0.0
        for choice, prob in routes.all_choices(src_chip, dst_chip):
            validate_route(machine, routes.compute(src, dst, choice))
            total += prob
        assert abs(total - 1.0) < 1e-9
