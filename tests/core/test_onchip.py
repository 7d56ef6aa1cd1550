"""Tests for direction-order on-chip routing."""

import itertools

import pytest

from repro.core.deadlock import find_cycle
from repro.core.geometry import MESH_DIRECTIONS, MeshDirection
from repro.core.onchip import (
    ANTON_DIRECTION_ORDER,
    all_direction_orders,
    direction_order_name,
    mesh_route,
    mesh_route_coords,
    mesh_route_links,
    turn_pairs,
    validate_direction_order,
)


class TestValidation:
    def test_anton_order_valid(self):
        assert validate_direction_order(ANTON_DIRECTION_ORDER) == (
            MeshDirection.VM,
            MeshDirection.UP,
            MeshDirection.UM,
            MeshDirection.VP,
        )

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            validate_direction_order(
                (MeshDirection.UP, MeshDirection.UP, MeshDirection.VM, MeshDirection.VP)
            )

    def test_short_rejected(self):
        with pytest.raises(ValueError):
            validate_direction_order((MeshDirection.UP, MeshDirection.UM))

    def test_twenty_four_orders(self):
        assert len(list(all_direction_orders())) == 24


class TestMeshRoute:
    def test_same_node_empty(self):
        assert mesh_route((1, 2), (1, 2)) == []

    def test_minimal_length(self):
        for order in all_direction_orders():
            for src in itertools.product(range(4), repeat=2):
                for dst in itertools.product(range(4), repeat=2):
                    route = mesh_route(src, dst, order)
                    manhattan = abs(dst[0] - src[0]) + abs(dst[1] - src[1])
                    assert len(route) == manhattan

    def test_route_reaches_destination(self):
        for order in all_direction_orders():
            coords = mesh_route_coords((0, 0), (3, 2), order)
            assert coords[-1] == (3, 2)

    def test_direction_order_respected(self):
        # Once the route moves past a direction in the order, it never
        # returns to an earlier one.
        for order in all_direction_orders():
            route = mesh_route((3, 3), (0, 0), order)
            positions = [order.index(step) for step in route]
            assert positions == sorted(positions)

    def test_anton_order_example(self):
        # From (0,0) to (3,3) with V-,U+,U-,V+: U+ hops then V+ hops.
        route = mesh_route((0, 0), (3, 3), ANTON_DIRECTION_ORDER)
        assert route == [MeshDirection.UP] * 3 + [MeshDirection.VP] * 3

    def test_anton_order_v_minus_first(self):
        route = mesh_route((0, 3), (3, 0), ANTON_DIRECTION_ORDER)
        assert route == [MeshDirection.VM] * 3 + [MeshDirection.UP] * 3

    def test_links_match_coords(self):
        links = mesh_route_links((0, 0), (2, 1))
        assert links[0][0] == (0, 0)
        assert links[-1][1] == (2, 1)
        for (a, b), (c, _d) in zip(links, links[1:]):
            assert b == c


class TestTurnPairs:
    def test_six_turn_pairs(self):
        assert len(turn_pairs(ANTON_DIRECTION_ORDER)) == 6

    def test_turns_are_forward_only(self):
        order = ANTON_DIRECTION_ORDER
        for earlier, later in turn_pairs(order):
            assert order.index(earlier) < order.index(later)

    def test_turn_relation_acyclic(self):
        # The permitted-turn relation must form a DAG (this is why a
        # single VC suffices inside the mesh).
        for order in all_direction_orders():
            assert find_cycle(turn_pairs(order)) is None


class TestNaming:
    def test_name_roundtrip(self):
        assert direction_order_name(ANTON_DIRECTION_ORDER) == "V-,U+,U-,V+"
