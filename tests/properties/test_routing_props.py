"""Property-based tests for route construction."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import all_coords, torus_hops
from repro.core.machine import (
    ChannelGroup,
    ComponentKind,
    Machine,
    MachineConfig,
    group_of,
)
from repro.core.routing import (
    ALL_DIM_ORDERS,
    Route,
    RouteChoice,
    RouteComputer,
    Unroutable,
    validate_route,
)
from repro.faults.model import failable_channels
from repro.faults.routing import FaultAwareRouteComputer
from repro.sim.engine import Engine

from .topology_strategies import TOPOLOGY_CASES
from .topology_strategies import machine_for as topology_machine

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


def assert_one_representation(machine, route, moved=False):
    """``route.hops`` decodes ``route.slots`` pair for pair, the route is
    a walk of ``machine``, and the route its hops make is the route."""
    bits = machine.vc_bits
    assert route.vc_bits == bits
    hops = route.hops
    assert len(hops) == len(route.slots)
    for (channel, vc), slot in zip(hops, route.slots):
        assert type(channel) is int and type(vc) is int
        assert 0 <= vc < machine.channel_vcs[channel]
        assert (channel << bits) | vc == slot
    assert route.channels() == tuple(channel for channel, _vc in hops)
    validate_route(machine, route, moved=moved)
    rebuilt = Route.from_hops(
        machine, route.src, route.dst, route.choice, hops,
        route.internode_hops, route.via,
    )
    assert rebuilt == route


#: Where a route may start: an endpoint (``compute``), or a router or a
#: channel adapter (``compute_plan``, a fault-aware ``compute_reroute``).
START_KINDS = (
    ComponentKind.ENDPOINT, ComponentKind.ROUTER, ComponentKind.CHANNEL_ADAPTER,
)


class TestSlotsAndHopsAgree:
    """Every way a route is made -- on torus, mesh and chiplet, healthy
    and around a failed link, from an endpoint, a router or an adapter,
    one leg or a detour -- stores slots its hops decode exactly."""

    @given(
        st.sampled_from(TOPOLOGY_CASES),
        st.sampled_from(["anton", "baseline"]),
        st.sampled_from(START_KINDS),
        st.booleans(),
        st.integers(min_value=0, max_value=9999),
    )
    def test_every_made_route(self, case, scheme, start_kind, faulted, seed):
        machine, healthy = topology_machine(*case, scheme)
        rng = random.Random(seed)
        starts = [c.cid for c in machine.components if c.kind == start_kind]
        endpoints = [c.cid for c in machine.endpoints()]
        start = rng.choice(starts)
        dst = rng.choice([cid for cid in endpoints if cid != start])
        src_chip = machine.components[start].chip
        dst_chip = machine.components[dst].chip
        traffic_class = 0
        if faulted:
            computer = FaultAwareRouteComputer(
                machine, [rng.choice(failable_channels(machine))]
            )
        else:
            computer = healthy
        try:
            if start_kind == ComponentKind.ENDPOINT:
                route = computer.compute(
                    start, dst, computer.random_choice(rng, src_chip, dst_chip)
                )
            elif faulted:
                route = computer.compute_reroute(start, dst, traffic_class)
            else:
                chips = sorted(all_coords(machine.config.shape))
                via = rng.choice(chips)
                order = rng.choice(ALL_DIM_ORDERS)
                legs = ((dst_chip, RouteChoice(order, rng.randrange(2))),)
                if via not in (src_chip, dst_chip):
                    legs = ((via, RouteChoice(order)),) + legs
                route = computer.compute_plan(start, dst, legs, traffic_class)
        except Unroutable:
            return
        assert_one_representation(machine, route)

    def test_a_spliced_route(self, tiny_machine, monkeypatch):
        """The route a mid-run fault splices onto a stranded packet: the
        holding slot, then the fault-aware tail."""
        from tests.faults.test_engine import _mid_run_faults, _run

        spliced = []
        splice = Engine._splice_route

        def record(engine, packet, *args):
            splice(engine, packet, *args)
            spliced.append(packet.route)

        monkeypatch.setattr(Engine, "_splice_route", record)
        stats, _events = _run(tiny_machine, _mid_run_faults(tiny_machine), "reroute")
        assert stats.rerouted and spliced
        for route in spliced:
            assert_one_representation(tiny_machine, route, moved=True)
