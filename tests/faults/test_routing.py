"""Tests for fault-aware route resolution: the escalation stages, the
pass-through guarantee, and mid-route rerouting."""

import pytest

from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.core.routing import RouteChoice, RouteComputer, Unroutable
from repro.faults import FaultAwareRouteComputer, FaultSpec, failable_channels


def _torus_between(machine, src_chip, dst_chip):
    """All torus channel ids from src_chip to dst_chip (both slices)."""
    return [
        cid
        for cid, (src, dst, kind) in enumerate(
            zip(machine.channel_src, machine.channel_dst, machine.channel_kind)
        )
        if kind == ChannelKind.TORUS
        and machine.components[src].chip == src_chip
        and machine.components[dst].chip == dst_chip
    ]


class TestPassThrough:
    def test_no_faults_returns_identical_cached_routes(self, tiny_machine):
        base = RouteComputer(tiny_machine)
        aware = FaultAwareRouteComputer(tiny_machine)
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 1, 0), 0)]
        choice = RouteChoice()
        assert aware.compute(src, dst, choice).hops == base.compute(
            src, dst, choice
        ).hops
        # And the fault-aware computer's own cache is shared with the
        # base path: the same Route object comes back every time.
        assert aware.compute(src, dst, choice) is aware.compute(src, dst, choice)

    def test_clearing_faults_restores_pass_through(self, tiny_machine):
        aware = FaultAwareRouteComputer(tiny_machine)
        torus = failable_channels(tiny_machine)
        aware.set_failed((torus[0],))
        assert aware.failed == {torus[0]}
        aware.set_failed(())
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 0, 0), 0)]
        route = aware.compute(src, dst, RouteChoice())
        assert aware.route_clear(route)


class TestRepick:
    def test_single_torus_failure_resolves_all_routes(self, odd_machine):
        torus = failable_channels(odd_machine)
        aware = FaultAwareRouteComputer(odd_machine, (torus[0],))
        for (src_chip, si), src in odd_machine.ep_id.items():
            for (dst_chip, di), dst in odd_machine.ep_id.items():
                if src == dst:
                    continue
                route = aware.compute(src, dst, RouteChoice())
                assert aware.route_clear(route), (src_chip, dst_chip)
        # Any single torus failure is absorbed without leaving the
        # existing legal choice set (slice re-pick suffices).
        stages = set(aware.resolution_counts) - {"primary", "repick"}
        assert not stages, aware.resolution_counts

    def test_requested_slice_preferred(self, tiny_machine):
        # Fail slice 0's torus link on the requested path; the re-pick
        # should land on slice 1 of the same geometry, not a detour.
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 0, 0), 0)]
        base = RouteComputer(tiny_machine)
        primary = base.compute(src, dst, RouteChoice())
        torus_hops = [
            cid
            for cid, _vc in primary.hops
            if tiny_machine.channel_kind[cid] == ChannelKind.TORUS
        ]
        aware = FaultAwareRouteComputer(tiny_machine, (torus_hops[0],))
        route = aware.compute(src, dst, RouteChoice())
        assert aware.route_clear(route)
        assert aware.resolution_counts["repick"] == 1


class TestNonMinimal:
    def test_long_way_around_the_ring(self):
        # 4x1x1: block the minimal X+ hop out of chip 0 on both slices;
        # the resolver must go the long way around (monotone, 3 hops).
        machine = Machine(MachineConfig(shape=(4, 1, 1), endpoints_per_chip=1))
        blocked = _torus_between(machine, (0, 0, 0), (1, 0, 0))
        assert len(blocked) == 2  # one per slice
        aware = FaultAwareRouteComputer(machine, blocked)
        src = machine.ep_id[((0, 0, 0), 0)]
        dst = machine.ep_id[((1, 0, 0), 0)]
        route = aware.compute(src, dst, RouteChoice())
        assert aware.route_clear(route)
        assert aware.resolution_counts["nonminimal"] == 1
        # The non-minimal route is monotone the other way: 3 torus hops.
        torus_hops = [
            cid
            for cid, _vc in route.hops
            if machine.channel_kind[cid] == ChannelKind.TORUS
        ]
        assert len(torus_hops) == 3

    def test_vc_promotion_invariant_holds_nonminimal(self):
        # A monotone non-minimal traversal still crosses the dateline at
        # most once, so VCs stay within the promotion bound.
        machine = Machine(MachineConfig(shape=(4, 1, 1), endpoints_per_chip=1))
        blocked = _torus_between(machine, (0, 0, 0), (1, 0, 0))
        aware = FaultAwareRouteComputer(machine, blocked)
        route = aware.compute(
            machine.ep_id[((0, 0, 0), 0)],
            machine.ep_id[((1, 0, 0), 0)],
            RouteChoice(),
        )
        assert max(vc for _cid, vc in route.hops) <= 3


class TestDetour:
    def test_two_phase_plan_route(self, tiny_machine):
        # Drive the detour machinery directly: a 2-leg plan through an
        # intermediate chip yields a stitched route with `via` set.
        aware = FaultAwareRouteComputer(tiny_machine)
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 1, 1), 0)]
        legs = (
            ((1, 0, 0), RouteChoice()),
            ((1, 1, 1), RouteChoice()),
        )
        route = aware.compute_plan(src, dst, legs)
        assert route.via == (1, 0, 0)
        assert route.hops[0][0] != route.hops[-1][0]
        # Each leg restarts the VC allocator: VCs stay in bounds.
        assert max(vc for _cid, vc in route.hops) <= 3

    def test_detour_plans_nearest_first(self, tiny_machine):
        aware = FaultAwareRouteComputer(tiny_machine)
        plans = list(aware._detour_plans((0, 0, 0), (1, 1, 1), 0))
        assert plans
        vias = [legs[0][0] for legs in plans]
        # Every via is distinct from both ends, and plans come sorted by
        # total torus distance (nearest intermediates first).
        assert (0, 0, 0) not in vias and (1, 1, 1) not in vias


class TestUnroutable:
    def test_dead_destination_chip(self, odd_machine):
        spec = FaultSpec(kind="node", chip=(1, 1, 1))
        aware = FaultAwareRouteComputer(odd_machine)
        aware.set_failed(spec.channels_on(odd_machine))
        src = odd_machine.ep_id[((0, 0, 0), 0)]
        dst = odd_machine.ep_id[((1, 1, 1), 0)]
        with pytest.raises(Unroutable) as excinfo:
            aware.compute(src, dst, RouteChoice())
        assert excinfo.value.src == src
        assert excinfo.value.dst == dst
        # The unroutable verdict is cached; a second request raises too.
        with pytest.raises(Unroutable):
            aware.compute(src, dst, RouteChoice())

    def test_routes_past_dead_chip_survive(self, odd_machine):
        spec = FaultSpec(kind="node", chip=(1, 1, 1))
        aware = FaultAwareRouteComputer(odd_machine)
        aware.set_failed(spec.channels_on(odd_machine))
        src = odd_machine.ep_id[((0, 0, 0), 0)]
        dst = odd_machine.ep_id[((2, 2, 2), 0)]
        route = aware.compute(src, dst, RouteChoice())
        assert aware.route_clear(route)


class TestReroute:
    def test_reroute_from_mid_route_router(self, tiny_machine):
        base = RouteComputer(tiny_machine)
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 1, 0), 0)]
        primary = base.compute(src, dst, RouteChoice())
        # Fail the last torus hop of the primary route, then reroute
        # from the component that would have been holding the packet.
        torus_positions = [
            i
            for i, (cid, _vc) in enumerate(primary.hops)
            if tiny_machine.channel_kind[cid] == ChannelKind.TORUS
        ]
        blocked_idx = torus_positions[-1]
        blocked_cid = primary.hops[blocked_idx][0]
        holder = tiny_machine.channel_dst[primary.hops[blocked_idx - 1][0]]
        aware = FaultAwareRouteComputer(tiny_machine, (blocked_cid,))
        tail = aware.compute_reroute(holder, dst)
        assert aware.route_clear(tail)
        assert tail.hops
        # The reroute is cached.
        assert aware.compute_reroute(holder, dst) is tail

    def test_reroute_unroutable_dead_chip(self, odd_machine):
        spec = FaultSpec(kind="node", chip=(2, 0, 0))
        aware = FaultAwareRouteComputer(odd_machine)
        aware.set_failed(spec.channels_on(odd_machine))
        dst = odd_machine.ep_id[((2, 0, 0), 0)]
        start = next(
            comp.cid
            for comp in odd_machine.components
            if comp.chip == (0, 0, 0) and comp.kind.name == "ROUTER"
        )
        with pytest.raises(Unroutable):
            aware.compute_reroute(start, dst)
