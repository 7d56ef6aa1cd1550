"""Tests for full route construction (inter-node + on-chip + VCs)."""

import dataclasses
import hashlib
import itertools
import pickle
import random
import sys

import pytest

from repro.core.chip import default_floorplan
from repro.core.geometry import Dim, MeshDirection, XP, XM, YP, YM, ZP
from repro.core.onchip import ANTON_DIRECTION_ORDER
from repro.core.machine import (
    ChannelGroup,
    ChannelKind,
    Machine,
    MachineConfig,
    group_of,
)
from repro.core.routing import (
    ALL_DIM_ORDERS,
    Route,
    RouteChoice,
    RouteComputer,
    validate_route,
)


class TestRouteChoice:
    def test_default_valid(self):
        RouteChoice()

    def test_bad_dim_order(self):
        with pytest.raises(ValueError):
            RouteChoice(dim_order=(Dim.X, Dim.X, Dim.Y))

    def test_bad_slice(self):
        with pytest.raises(ValueError):
            RouteChoice(slice_index=2)

    def test_six_dim_orders(self):
        assert len(ALL_DIM_ORDERS) == 6


class TestPaperExampleRoutes:
    """The two through-route examples of Section 2.4."""

    def test_y_through_single_router(self, small_machine, small_routes):
        # A packet traveling Y- through an intermediate chip must visit
        # exactly one router there: Y0+ -> R(0,2) -> Y0-.
        src = small_machine.ep_id[((0, 2, 0), 0)]
        dst = small_machine.ep_id[((0, 0, 0), 0)]
        choice = RouteChoice(
            dim_order=(Dim.Y, Dim.X, Dim.Z), slice_index=0, deltas=(0, -2, 0)
        )
        route = small_routes.compute(src, dst, choice)
        mid_chip = (0, 1, 0)
        routers_visited = set()
        for channel_id, _vc in route.hops:
            for comp_id in (
                small_machine.channel_src[channel_id],
                small_machine.channel_dst[channel_id],
            ):
                comp = small_machine.components[comp_id]
                if comp.chip == mid_chip and comp.kind.name == "ROUTER":
                    routers_visited.add(comp_id)
        assert len(routers_visited) == 1
        router = small_machine.components[routers_visited.pop()]
        assert router.detail == (0, 2)  # the paper's R_{0,2}

    def test_x_through_uses_skip_channel(self, small_machine, small_routes):
        # X+ through traffic on slice 1: X1- -> R(3,0) -> skip -> R(0,0) -> X1+.
        src = small_machine.ep_id[((0, 0, 0), 0)]
        dst = small_machine.ep_id[((2, 0, 0), 0)]
        choice = RouteChoice(dim_order=(Dim.X, Dim.Y, Dim.Z), slice_index=1)
        route = small_routes.compute(src, dst, choice)
        skip_hops = [
            (channel_id, vc)
            for channel_id, vc in route.hops
            if small_machine.channel_kind[channel_id] == ChannelKind.SKIP
        ]
        assert len(skip_hops) == 1
        skip = skip_hops[0][0]
        head = small_machine.components[small_machine.channel_src[skip]]
        assert head.chip == (1, 0, 0)
        assert head.detail == (3, 0)
        assert small_machine.components[small_machine.channel_dst[skip]].detail == (0, 0)


class TestRouteStructure:
    def test_starts_and_ends_at_endpoints(self, tiny_machine, tiny_routes):
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 1, 1), 1)]
        route = tiny_routes.compute(src, dst, RouteChoice())
        validate_route(tiny_machine, route)

    def test_internode_hops_match_distance(self, odd_machine, odd_routes):
        from repro.core.geometry import all_coords, torus_hops

        src = odd_machine.ep_id[((0, 0, 0), 0)]
        for dst_chip in all_coords((3, 3, 3)):
            dst = odd_machine.ep_id[(dst_chip, 0)]
            if dst == src:
                continue
            route = odd_routes.compute(src, dst, RouteChoice())
            assert route.internode_hops == torus_hops(
                (0, 0, 0), dst_chip, (3, 3, 3)
            )

    def test_same_chip_route_stays_on_chip(self, tiny_machine, tiny_routes):
        src = tiny_machine.ep_id[((1, 0, 1), 0)]
        dst = tiny_machine.ep_id[((1, 0, 1), 1)]
        route = tiny_routes.compute(src, dst, RouteChoice())
        assert route.internode_hops == 0
        for channel_id, _vc in route.hops:
            src_comp = tiny_machine.channel_src[channel_id]
            assert tiny_machine.components[src_comp].chip == (1, 0, 1)
            assert tiny_machine.channel_kind[channel_id] in (
                ChannelKind.MESH,
                ChannelKind.EP_TO_ROUTER,
                ChannelKind.ROUTER_TO_EP,
            )

    def test_same_chip_route_uses_vc_zero(self, tiny_machine, tiny_routes):
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((0, 0, 0), 1)]
        route = tiny_routes.compute(src, dst, RouteChoice())
        for _channel_id, vc in route.hops:
            assert vc == 0

    def test_slice_pinning(self, small_machine, small_routes):
        # All torus hops of one packet use the chosen slice.
        src = small_machine.ep_id[((0, 0, 0), 0)]
        dst = small_machine.ep_id[((2, 3, 1), 0)]
        for slice_index in (0, 1):
            route = small_routes.compute(
                src, dst, RouteChoice(slice_index=slice_index)
            )
            for channel_id, _vc in route.hops:
                if small_machine.channel_kind[channel_id] == ChannelKind.TORUS:
                    _direction, used_slice = small_machine.components[
                        small_machine.channel_src[channel_id]
                    ].detail
                    assert used_slice == slice_index

    def test_dimension_order_respected(self, small_machine, small_routes):
        src = small_machine.ep_id[((0, 0, 0), 0)]
        dst = small_machine.ep_id[((1, 1, 1), 0)]
        for dim_order in ALL_DIM_ORDERS:
            route = small_routes.compute(src, dst, RouteChoice(dim_order=dim_order))
            dims_in_route = []
            for channel_id, _vc in route.hops:
                if small_machine.channel_kind[channel_id] == ChannelKind.TORUS:
                    direction, _s = small_machine.components[
                        small_machine.channel_src[channel_id]
                    ].detail
                    if not dims_in_route or dims_in_route[-1] != direction.dim:
                        dims_in_route.append(direction.dim)
            expected = [d for d in dim_order]
            assert dims_in_route == expected


class TestVcAssignment:
    def test_vc_promotion_on_dateline(self, small_machine, small_routes):
        # Traveling X- from x=0 crosses the dateline immediately: the
        # crossing torus channel and everything after use VC >= 1.
        src = small_machine.ep_id[((0, 0, 0), 0)]
        dst = small_machine.ep_id[((3, 0, 0), 0)]
        route = small_routes.compute(
            src, dst, RouteChoice(deltas=(-1, 0, 0))
        )
        torus_vcs = [
            vc
            for channel_id, vc in route.hops
            if small_machine.channel_kind[channel_id] == ChannelKind.TORUS
        ]
        assert torus_vcs == [1]

    def test_no_dateline_no_promotion_until_turn(self, small_machine, small_routes):
        src = small_machine.ep_id[((0, 0, 0), 0)]
        dst = small_machine.ep_id[((1, 0, 0), 0)]
        route = small_routes.compute(src, dst, RouteChoice(deltas=(1, 0, 0)))
        torus_vcs = [
            vc
            for channel_id, vc in route.hops
            if small_machine.channel_kind[channel_id] == ChannelKind.TORUS
        ]
        assert torus_vcs == [0]
        # Final mesh hops (after the dimension finished) are promoted.
        final_mesh_vcs = [
            vc
            for channel_id, vc in route.hops
            if small_machine.channel_kind[channel_id] == ChannelKind.MESH
        ]
        if final_mesh_vcs:
            assert final_mesh_vcs[-1] == 1

    def test_vc_never_exceeds_three(self, small_machine, small_routes):
        import random

        rng = random.Random(11)
        for _ in range(100):
            src_chip = tuple(rng.randrange(4) for _ in range(3))
            dst_chip = tuple(rng.randrange(4) for _ in range(3))
            src = small_machine.ep_id[(src_chip, rng.randrange(4))]
            dst = small_machine.ep_id[(dst_chip, rng.randrange(4))]
            if src == dst:
                continue
            choice = small_routes.random_choice(rng, src_chip, dst_chip)
            route = small_routes.compute(src, dst, choice)
            for channel_id, vc in route.hops:
                if group_of(small_machine.channel_kind[channel_id]) != ChannelGroup.E:
                    assert 0 <= vc <= 3

    def test_baseline_scheme_uses_six_t_vcs(self):
        machine = Machine(
            MachineConfig(shape=(3, 3, 3), endpoints_per_chip=1, vc_scheme="baseline")
        )
        routes = RouteComputer(machine)
        src = machine.ep_id[((0, 0, 0), 0)]
        dst = machine.ep_id[((2, 2, 2), 0)]
        # Travel 3 dims, crossing the dateline in each: deltas of -1 from 0.
        route = routes.compute(src, dst, RouteChoice(deltas=(-1, -1, -1)))
        torus_vcs = [
            vc
            for channel_id, vc in route.hops
            if machine.channel_kind[channel_id] == ChannelKind.TORUS
        ]
        assert torus_vcs == [1, 3, 5]


class TestChoices:
    def test_all_choices_probabilities_sum_to_one(self, small_machine, small_routes):
        total = sum(
            prob for _c, prob in small_routes.all_choices((0, 0, 0), (2, 1, 3))
        )
        assert total == pytest.approx(1.0)

    def test_tie_breaks_enumerated(self, small_machine, small_routes):
        # Distance 2 on a radix-4 ring is half way: two minimal options
        # per tied dimension.
        choices = list(small_routes.all_choices((0, 0, 0), (2, 0, 0)))
        assert len(choices) == 6 * 2 * 2  # orders x slices x X tie

    def test_random_choice_minimal(self, small_machine, small_routes):
        import random

        rng = random.Random(3)
        for _ in range(50):
            choice = small_routes.random_choice(rng, (0, 0, 0), (2, 3, 1))
            assert choice.deltas[0] in (2, -2)
            assert choice.deltas[1] == -1
            assert choice.deltas[2] == 1

    def test_non_minimal_delta_rejected(self, small_machine, small_routes):
        src = small_machine.ep_id[((0, 0, 0), 0)]
        dst = small_machine.ep_id[((1, 0, 0), 0)]
        with pytest.raises(
            ValueError, match=r"^delta -3 is not legal for dimension X$"
        ):
            small_routes.compute(src, dst, RouteChoice(deltas=(-3, 0, 0)))


class TestCaching:
    def test_same_choice_returns_same_object(self, tiny_machine, tiny_routes):
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 0, 0), 0)]
        choice = RouteChoice()
        route_a = tiny_routes.compute(src, dst, choice)
        route_b = tiny_routes.compute(src, dst, choice)
        assert route_a is route_b

    def test_non_endpoint_rejected(self, tiny_machine, tiny_routes):
        router = tiny_machine.router_id[((0, 0, 0), (0, 0))]
        endpoint = tiny_machine.ep_id[((0, 0, 0), 0)]
        with pytest.raises(ValueError):
            tiny_routes.compute(router, endpoint, RouteChoice())


# --- pinned routes -----------------------------------------------------------
#
# The route builder's oracle is the bytes of the builder it replaced, not
# a second builder kept beside it: PINNED_ROUTE_DIGESTS was printed at
# commit 3eb7088 (the hop-by-hop graph walk) by
#
#     PYTHONPATH=src:. python -c "import json; \
#         from tests.core.test_routing import route_digests; \
#         print(json.dumps(route_digests(), indent=4))"
#
# and every case below must reproduce it. A digest is the SHA-256 of
# repr((src, dst, hops, internode_hops, via)) over the case's routes in
# enumeration order; every route also passes validate_route.

#: (topology, shape, endpoints per chip, endpoint pairs sampled -- None for
#: every ordered pair). The exhaustive machines keep one endpoint per chip
#: so the table costs seconds; the sampled ones spread four over four routers.
PINNED_MACHINES = (
    ("torus", (3, 3, 3), 1, None),
    ("torus", (4, 2, 2), 1, None),
    ("torus", (8, 2, 2), 4, 40),
    ("torus", (4, 4, 2), 4, 40),
    ("mesh", (4, 4), 1, None),
    ("chiplet", (3, 3), 1, None),
)
VC_SCHEMES = ("anton", "baseline", "unsafe-single")
#: Not the Anton order, and not a dimension order either.
OTHER_DIRECTION_ORDER = (
    MeshDirection.UP,
    MeshDirection.VP,
    MeshDirection.UM,
    MeshDirection.VM,
)


def _digest(machine, routes):
    sha = hashlib.sha256()
    for route in routes:
        validate_route(machine, route)
        sha.update(
            repr(
                (route.src, route.dst, route.hops, route.internode_hops, route.via)
            ).encode()
        )
    return sha.hexdigest()


def _endpoint_routes(machine, routes, sample, traffic_class):
    """Every ``all_choices`` choice of every (or ``sample`` seeded) pairs."""
    endpoints = [component.cid for component in machine.endpoints()]
    if sample is None:
        pairs = itertools.permutations(endpoints, 2)
    else:
        rng = random.Random(2014)
        pairs = [tuple(rng.sample(endpoints, 2)) for _ in range(sample)]
    for src, dst in pairs:
        src_chip = machine.components[src].chip
        dst_chip = machine.components[dst].chip
        for choice, _prob in routes.all_choices(src_chip, dst_chip):
            yield routes.compute(src, dst, choice, traffic_class)


def _plan_routes(machine, routes, traffic_class, count=60):
    """Seeded ``compute_plan`` calls the way fault resolution makes them.

    Starts are drawn over every component (endpoints, routers and channel
    adapters); each draws a single-leg plan under every monotone
    displacement of its chip pair (the long way round included) and a
    two-leg detour through a third chip with unpinned displacements.
    """
    rng = random.Random(1405)
    topology = machine.topology
    endpoints = [component.cid for component in machine.endpoints()]
    chips = sorted({component.chip for component in machine.components})
    for _ in range(count):
        start = rng.randrange(len(machine.components))
        dst = rng.choice(endpoints)
        via = rng.choice(chips)
        slice_index = rng.randrange(2)
        orders = [rng.choice(ALL_DIM_ORDERS) for _ in range(2)]
        src_chip = machine.components[start].chip
        dst_chip = machine.components[dst].chip
        if start == dst:
            continue
        for deltas in itertools.product(
            *(topology.monotone_deltas(src_chip[d], dst_chip[d], d) for d in range(3))
        ):
            choice = RouteChoice(orders[0], slice_index, tuple(deltas))
            yield routes.compute_plan(
                start, dst, ((dst_chip, choice),), traffic_class
            )
        if via not in (src_chip, dst_chip):
            legs = (
                (via, RouteChoice(orders[0], slice_index)),
                (dst_chip, RouteChoice(orders[1], slice_index)),
            )
            yield routes.compute_plan(start, dst, legs, traffic_class)


def _pinned_cases():
    """``(case name, arguments of _case_digest)`` of every pinned case."""
    for topology, shape, endpoints, sample in PINNED_MACHINES:
        machine = f"{topology}-{'x'.join(map(str, shape))}"
        for vc_scheme in VC_SCHEMES:
            for traffic_class in (0, 1):
                for kind in ("pairs", "plans"):
                    yield (
                        f"{machine}-{vc_scheme}-class{traffic_class}-{kind}",
                        (topology, shape, endpoints, sample)
                        + (vc_scheme, traffic_class, kind),
                    )
    yield (
        "torus-4x4x2-anton-class0-other-direction-order",
        ("torus", (4, 4, 2), 4, 40, "anton", 0, "other-direction-order"),
    )


def _case_digest(topology, shape, endpoints, sample, vc_scheme, traffic_class, kind):
    machine = Machine(
        MachineConfig(
            shape=shape,
            topology=topology,
            endpoints_per_chip=endpoints,
            vc_scheme=vc_scheme,
            num_classes=2,
        )
    )
    if kind == "plans":
        computer = RouteComputer(machine, allow_nonminimal=True)
        routes = _plan_routes(machine, computer, traffic_class)
    else:
        order = ANTON_DIRECTION_ORDER if kind == "pairs" else OTHER_DIRECTION_ORDER
        computer = RouteComputer(machine, direction_order=order)
        routes = _endpoint_routes(machine, computer, sample, traffic_class)
    return _digest(machine, routes)


def route_digests():
    """The table, recomputed (what the command above prints)."""
    return {name: _case_digest(*args) for name, args in _pinned_cases()}


PINNED_ROUTE_DIGESTS = {
    "torus-3x3x3-anton-class0-pairs":
        "0f46011089f7a2833baca20020cc70c3867bf3b3f145ee6e23d3e9d74742af58",
    "torus-3x3x3-anton-class0-plans":
        "492798f0547de382975aa01e42242169161e3ab073e603ec19f6d98234c48688",
    "torus-3x3x3-anton-class1-pairs":
        "0b107c7cf106208c608f5ea45ac8a812c0f86ce6ca2469afb6593709e6824b56",
    "torus-3x3x3-anton-class1-plans":
        "8513a93709aabdd67a0f56b1827b45b584598e436212f0875a78cc3b3f93a24f",
    "torus-3x3x3-baseline-class0-pairs":
        "f013a7764fa7270dec0d660a7451341a67f24084dc708ce6d696342394c33847",
    "torus-3x3x3-baseline-class0-plans":
        "e213efc021f0c9740b1110d60f3f141782681371233e5873cb64b123ebdc737a",
    "torus-3x3x3-baseline-class1-pairs":
        "c7d0d8c8c8e09029ff3fc51968dda33f868c378716bede2a8d89b5d6145efc81",
    "torus-3x3x3-baseline-class1-plans":
        "dcd9055a93f2e0bb394a896a9bfbf7115a157e4e9c52b43f4079dad6709b1729",
    "torus-3x3x3-unsafe-single-class0-pairs":
        "d027976962ce9f00099ceaac34508fea645676023ca7a66b8994d0ae53c79a9d",
    "torus-3x3x3-unsafe-single-class0-plans":
        "5c5258338bb4eedfe6234a015308d946fde28442fbfba738070cae311ef77b0d",
    "torus-3x3x3-unsafe-single-class1-pairs":
        "6ada12d216ab156e36b7566711ee38fb6ffc7c98bd9a2ecad9386b1f0ed4d942",
    "torus-3x3x3-unsafe-single-class1-plans":
        "d6d97ffada809ddb5505e1215aa7dbe2dc68fe8464fe087cf344b0540aa7cddf",
    "torus-4x2x2-anton-class0-pairs":
        "7ac2c9703219c4e159ad6b0a54a9e903f1dc846aafebf77a481be2910a629525",
    "torus-4x2x2-anton-class0-plans":
        "c6a3466fa07b0e48651b7e28a3a78ae7c1c9c10bf8e5a35b7c5550f825f8fcfd",
    "torus-4x2x2-anton-class1-pairs":
        "35bf3e0e71f96c8e685317dfeb92def01681c6dfdd30769ce69fa1321a449942",
    "torus-4x2x2-anton-class1-plans":
        "5052f68892607e8f466f56cafe004dc97e998db189116cd1c0bd9403155c2694",
    "torus-4x2x2-baseline-class0-pairs":
        "fff7ac59df51bbf2bedb94d8c2cbc13f562e0ae0eacd8183446ff89891c1c5eb",
    "torus-4x2x2-baseline-class0-plans":
        "2b1e8e5a157ea14277bcd053c9da3ef1c571037775afee926245ad1581abe914",
    "torus-4x2x2-baseline-class1-pairs":
        "0ac61e16b40af504802439a47ddceb06e3dc565976e381d9133244f649fbad71",
    "torus-4x2x2-baseline-class1-plans":
        "c952f19d79aa8bcea9835d8e34ee70619438a898711be32343a0a1bd65408679",
    "torus-4x2x2-unsafe-single-class0-pairs":
        "7944b961816c628cfb07150e7c7c5b07783376e163180cb0c64a40855187256b",
    "torus-4x2x2-unsafe-single-class0-plans":
        "46e0a00f2d2c5cc432a552e683a1cd5696a4de6b8bea434ec43af3fea93daa1d",
    "torus-4x2x2-unsafe-single-class1-pairs":
        "2dabf72bc21782caa686a364b2b24fc0f006e267dd504ea9b677d38e457b80d9",
    "torus-4x2x2-unsafe-single-class1-plans":
        "9eafe67eb1035a4757854ba787aa990cbe8c1b117610455062885ceae604c28b",
    "torus-8x2x2-anton-class0-pairs":
        "5540913a91a2ca756b1e8550bd06ef458337fcc0aa83b9f76d9d984cad9c68ba",
    "torus-8x2x2-anton-class0-plans":
        "56afb76f4e436fb73397ccfb33e550c4057f1add3d03ff58ff302c3ab6808229",
    "torus-8x2x2-anton-class1-pairs":
        "b6d6aacf295e50c9b18956eda258a7cdaafba26c6df9849c94b15cebaa18cc85",
    "torus-8x2x2-anton-class1-plans":
        "d6afe511185e6743cbdb80b1f33707edf89885f4225b726cdfbda55032c89858",
    "torus-8x2x2-baseline-class0-pairs":
        "04c9d71e9e5cac355f4ee12639cd61e4cabaecacd4b719afc9ac1298dbecc11e",
    "torus-8x2x2-baseline-class0-plans":
        "38609a13ea7b3cb00b799bf7b03feb45ba39c4643cc164c05b0246d70c16689b",
    "torus-8x2x2-baseline-class1-pairs":
        "1a0d05268c2d774aae6f56cd3b5c13f7f8f0e9e69aa9b9e5830901b9f4299e1f",
    "torus-8x2x2-baseline-class1-plans":
        "cc396a1dbbea3478712e119abfcb7c23f296eb35eae5282496898b493e3877d5",
    "torus-8x2x2-unsafe-single-class0-pairs":
        "8c4b6da3d012b1848e987e8342c1b92d118e3aebac2cef17e681103bdfcd6ece",
    "torus-8x2x2-unsafe-single-class0-plans":
        "c3f856d9c311cb2ea765f194704996c623f6e0fdfb3e7ccdf46d33c406c093be",
    "torus-8x2x2-unsafe-single-class1-pairs":
        "409c2691170738131827c1c7e66e6da7bb11a4bf13a980476dde78c58bf2d5f3",
    "torus-8x2x2-unsafe-single-class1-plans":
        "665bd8286c2e37dfa42347d190f917a8f76d57b5704d43f1cd95e977265a9bf5",
    "torus-4x4x2-anton-class0-pairs":
        "cbba9673baaf871372ff4a39d9c4cd9056a593821e654ff75ee2348e4e0714f6",
    "torus-4x4x2-anton-class0-plans":
        "4e1c8aeccb50c30db9fe66e8912f0e7255a6bbab3ff1bb37da062be6172c22a6",
    "torus-4x4x2-anton-class1-pairs":
        "e2059fb9e85c16fa7722e73f889046dda4cc6f8a56984c1e24681fa197e5dbda",
    "torus-4x4x2-anton-class1-plans":
        "d54ced8b3529aa56a6f6ca5141ac282f7d8ecfca714f18833f45cb99bc501a42",
    "torus-4x4x2-baseline-class0-pairs":
        "f4213562ecf41224ff54977024330f56f0ef779b28baa2f84c4846053d6b5ca8",
    "torus-4x4x2-baseline-class0-plans":
        "5a242d6c998409d5cdefef640ce4d20b97fc3431c7db22b606c8ed288b9f2956",
    "torus-4x4x2-baseline-class1-pairs":
        "146bc256b83ae2c1e976fe15436398e459d69e027464227e10f24976f63cfb91",
    "torus-4x4x2-baseline-class1-plans":
        "09ff81322f096df0d35dc77c3db1907947a6bb92fc86e7801ddb0bcbaa6ae28c",
    "torus-4x4x2-unsafe-single-class0-pairs":
        "e041ce34dbec6c3d6ae1187928e2de80abd452be0d268f64cd2f00e5eb1a06ee",
    "torus-4x4x2-unsafe-single-class0-plans":
        "43791c90aab2122daefb5ea3dbbe3696b2bdc19994f2f61ff2d64c76b26fabfe",
    "torus-4x4x2-unsafe-single-class1-pairs":
        "c12e45df034d6784a10ac70009de9130bb034f5aee5ea1ef675a8ace794f8c9d",
    "torus-4x4x2-unsafe-single-class1-plans":
        "8a92b880948fc0f7cd0e451e3d8a929bbd9337a93a3e4a1b26aa724cfb69ca1d",
    "mesh-4x4-anton-class0-pairs":
        "5ace8f47aa9b10c81bf1a94d9962043b25c4ed9a60b90a84db2eaa37071fa2a5",
    "mesh-4x4-anton-class0-plans":
        "5bf8307af06f7b603ed9a8117ee802a328d212db836089a9003a12794db7b07d",
    "mesh-4x4-anton-class1-pairs":
        "a4b8345366bcdd297182b49ba4a3346326fabd6ec9bf8c81c100cd988c85ec53",
    "mesh-4x4-anton-class1-plans":
        "dac6bcb4357d0a2f3c7643f4b5a4e844935479bb4c0b9880eabdb13e10c2ada4",
    "mesh-4x4-baseline-class0-pairs":
        "cc951c8a435fc366a0fd52c8aed3ff4865c96855168ac82bdcb0c7de348c3897",
    "mesh-4x4-baseline-class0-plans":
        "e263890bc0b5ae3991f3f426a037bba7b7ebd775c582d59a57c48b86a9b4706b",
    "mesh-4x4-baseline-class1-pairs":
        "48c6786f943565d4d8254be9e82e1ba96fe87f6d4d42c56e06a085d16b865634",
    "mesh-4x4-baseline-class1-plans":
        "67a2e2442edd6cb57bbbf1aa782ad07dcd80ea624acb09aae067d8fd3bbb94e6",
    "mesh-4x4-unsafe-single-class0-pairs":
        "9ebaa74d2fbcd23106512d68d4e3ecc805fb8e6833e32591199a98ce3addef9e",
    "mesh-4x4-unsafe-single-class0-plans":
        "f2453fe54ddbc1e57f52abfd51341dc59365d0f2b1876a40d7f0d346ed4ca54c",
    "mesh-4x4-unsafe-single-class1-pairs":
        "c6c80df1f0a3c3a168087bf3845327646957cba426c69beaf7e48f784409b34d",
    "mesh-4x4-unsafe-single-class1-plans":
        "8e88d635934570b0b74c6db0c6c7caff37c8198848808be7368b4cc958c290b8",
    "chiplet-3x3-anton-class0-pairs":
        "393637b90b7f47bfdbe029444093b5c5a3cb89572b8ab9c19f3b36ed3eabbc1a",
    "chiplet-3x3-anton-class0-plans":
        "6b81d852ec8b7531a2b9d2ab8069b392ed483809391ca6a8d82293cb2acab909",
    "chiplet-3x3-anton-class1-pairs":
        "466b5682705b696a3ad3e42743adfe19c1a5b9aed20d90cfb0c11dbeead0e69f",
    "chiplet-3x3-anton-class1-plans":
        "c86056943d44bd96a73379f69caadbc387bc8ece46d52e4bb847704bd656c51d",
    "chiplet-3x3-baseline-class0-pairs":
        "96786f449d62fc8bb71ce5585537fa9bf4a1951bfd645e3b6edc0098ff7abd4a",
    "chiplet-3x3-baseline-class0-plans":
        "07e1a557e8e6d61c41fc4b698d30ba54f22addda84856620280db9d43cec20c2",
    "chiplet-3x3-baseline-class1-pairs":
        "901279f20e55c7abf0b0151a217caff7f590db01752ad5a277fd85836015753b",
    "chiplet-3x3-baseline-class1-plans":
        "df9ffb8315e569518ade007b418492c89c1e13e0410a3c81afea4d245755a774",
    "chiplet-3x3-unsafe-single-class0-pairs":
        "0b1f6355171f446ece15cbf2958735b9ea5b37874127a4c398b046f8663db59d",
    "chiplet-3x3-unsafe-single-class0-plans":
        "e8cb0efca3babff23dd608df1c85b298250db09263d88352a83e6d2ebd530094",
    "chiplet-3x3-unsafe-single-class1-pairs":
        "9abb4b275a95097684e77be6e0abbcb7dd8c58e3e7c3f09ce56950230b20a33a",
    "chiplet-3x3-unsafe-single-class1-plans":
        "2dd2dc5fa34425a899904461dd449df631ac8cc9c72342214749bd2b985861ec",
    "torus-4x4x2-anton-class0-other-direction-order":
        "46b3173a3534da182033fa1c9ec4260b9c8e5f51a735357819d28e833d74b9f9",
}


class TestPinnedRoutes:
    def test_table_names_every_case(self):
        assert list(PINNED_ROUTE_DIGESTS) == [name for name, _ in _pinned_cases()]

    @pytest.mark.parametrize(
        "name, args", _pinned_cases(), ids=[name for name, _ in _pinned_cases()]
    )
    def test_routes_are_the_walks_bytes(self, name, args):
        assert _case_digest(*args) == PINNED_ROUTE_DIGESTS[name]


class TestBuilderErrors:
    """Same exception type and message as the walk, for every refusal
    (an illegal pinned delta: ``test_non_minimal_delta_rejected`` above)."""

    def test_empty_plan(self, tiny_machine, tiny_routes):
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 0, 0), 0)]
        with pytest.raises(
            ValueError, match=r"^route plan needs at least one leg$"
        ):
            tiny_routes.compute_plan(src, dst, ())

    def test_final_leg_misses_the_destination_chip(self, tiny_machine, tiny_routes):
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 0, 0), 0)]
        with pytest.raises(
            ValueError,
            match=r"^final leg targets \(0, 1, 0\), destination is on \(1, 0, 0\)$",
        ):
            tiny_routes.compute_plan(src, dst, (((0, 1, 0), RouteChoice()),))

    def test_non_endpoint_destination(self, tiny_machine, tiny_routes):
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        router = tiny_machine.router_id[((1, 0, 0), (0, 0))]
        with pytest.raises(ValueError, match=r"^routes connect endpoint adapters$"):
            tiny_routes.compute(src, router, RouteChoice())
        with pytest.raises(ValueError, match=r"^routes end at endpoint adapters$"):
            tiny_routes.compute_plan(src, router, (((1, 0, 0), RouteChoice()),))

    def test_missing_skip_channel_fails_only_on_a_through_chip(self):
        plan = dataclasses.replace(default_floorplan(num_endpoints=1), skip_channels=())
        machine = Machine(
            MachineConfig(shape=(4, 4, 1), endpoints_per_chip=1), floorplan=plan
        )
        routes = RouteComputer(machine)
        src = machine.ep_id[((0, 0, 0), 0)]
        # One X step and a two-step Y traverse cross no X through chip.
        for dst_chip in ((1, 0, 0), (3, 0, 0), (0, 2, 0), (1, 2, 0)):
            for slice_index in (0, 1):
                validate_route(
                    machine,
                    routes.compute(
                        src,
                        machine.ep_id[(dst_chip, 0)],
                        RouteChoice(slice_index=slice_index),
                    ),
                )
        with pytest.raises(
            AssertionError,
            match=r"^no skip channel between \(3, 3\) and \(0, 3\) "
            r"for X\+ through traffic$",
        ):
            routes.compute(src, machine.ep_id[((2, 0, 0), 0)], RouteChoice())
        with pytest.raises(
            AssertionError,
            match=r"^no skip channel between \(0, 0\) and \(3, 0\) "
            r"for X- through traffic$",
        ):
            routes.compute(
                src,
                machine.ep_id[((2, 0, 0), 0)],
                RouteChoice(slice_index=1, deltas=(-2, 0, 0)),
            )


class TestRouteFootprint:
    """A route is one 4-byte slot a hop and a fixed head: a paper-scale
    batch (8x8x8, millions of packets) holds one route per packet, so
    what a route costs per hop is what a batch costs per packet."""

    def test_a_route_costs_its_slots(self):
        machine = Machine(MachineConfig(shape=(8, 8, 8), endpoints_per_chip=2))
        routes = RouteComputer(machine)
        rng = random.Random(512)
        endpoints = [component.cid for component in machine.endpoints()]
        for _ in range(300):
            src, dst = rng.sample(endpoints, 2)
            route = routes.compute(src, dst, routes.random_choice(
                rng, machine.components[src].chip, machine.components[dst].chip
            ))
            assert route.slots.itemsize == 4
            assert (
                sys.getsizeof(route) + sys.getsizeof(route.slots)
                <= 4 * len(route.slots) + 200
            )
        assert not hasattr(route, "__dict__")
        assert "hops" not in Route.__slots__
        assert pickle.loads(pickle.dumps(route)) == route
