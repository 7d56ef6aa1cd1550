"""Tests for the dependency-graph deadlock checker (Section 2.5).

These are the mechanical verification of the paper's central
deadlock-freedom claims: the promotion scheme is acyclic with 4 VCs, the
baseline with 6, and a single VC without datelines is cyclic.
"""

import pytest

from repro.core import deadlock
from repro.core.machine import Machine, MachineConfig, group_of
from repro.core.routing import RouteComputer


def _analyze(shape, scheme, endpoints=1):
    machine = Machine(
        MachineConfig(shape=shape, endpoints_per_chip=endpoints, vc_scheme=scheme)
    )
    return deadlock.analyze(machine, RouteComputer(machine)), machine


def _edges(machine, routes, endpoints_per_chip=None):
    """The dependency edge set, read off the routes without the checker."""
    return {
        edge
        for route in deadlock.enumerate_routes(machine, routes, endpoints_per_chip)
        for edge in deadlock.route_dependency_edges(machine, route)
    }


class TestAntonScheme:
    def test_odd_radix_deadlock_free(self):
        report, _m = _analyze((3, 3, 3), "anton")
        assert report.deadlock_free
        assert report.cycle is None

    def test_even_radix_deadlock_free(self):
        # Even radix exercises the half-way tie-breaks (both minimal
        # directions enumerated).
        report, _m = _analyze((4, 2, 2), "anton")
        assert report.deadlock_free

    def test_mixed_radix_deadlock_free(self):
        report, _m = _analyze((4, 3, 2), "anton")
        assert report.deadlock_free

    def test_uses_exactly_four_vcs(self):
        report, _m = _analyze((3, 3, 3), "anton")
        assert report.t_vcs_used == {0, 1, 2, 3}
        assert report.m_vcs_used == {0, 1, 2, 3}

    def test_multiple_endpoints_per_chip(self):
        report, _m = _analyze((2, 2, 2), "anton", endpoints=3)
        assert report.deadlock_free

    def test_degenerate_dimensions(self):
        # Radix-1 and radix-2 dimensions are structural corner cases.
        for shape in ((4, 1, 1), (2, 2, 1), (3, 1, 2)):
            report, _m = _analyze(shape, "anton")
            assert report.deadlock_free, shape


class TestBaselineScheme:
    def test_deadlock_free(self):
        report, _m = _analyze((3, 3, 3), "baseline")
        assert report.deadlock_free

    def test_uses_six_t_vcs(self):
        report, _m = _analyze((3, 3, 3), "baseline")
        assert report.t_vcs_used == {0, 1, 2, 3, 4, 5}

    def test_anton_uses_one_third_fewer_t_vcs(self):
        anton, _m = _analyze((3, 3, 3), "anton")
        baseline, _m2 = _analyze((3, 3, 3), "baseline")
        saved = len(baseline.t_vcs_used) - len(anton.t_vcs_used)
        assert saved / len(baseline.t_vcs_used) == pytest.approx(1 / 3)


class TestUnsafeScheme:
    def test_single_vc_is_cyclic(self):
        # Rings of radix >= 3 with one VC form dependency cycles.
        report, machine = _analyze((4, 2, 2), "unsafe-single")
        assert not report.deadlock_free
        assert report.cycle

    def test_cycle_is_reportable(self):
        report, machine = _analyze((4, 2, 2), "unsafe-single")
        text = deadlock.describe_cycle(machine, report.cycle)
        assert "=>" in text

    def test_cycle_edges_exist_in_graph(self):
        report, machine = _analyze((4, 1, 1), "unsafe-single")
        edges = _edges(machine, RouteComputer(machine))
        cycle = report.cycle
        assert cycle and len(set(cycle)) == len(cycle)
        for here, after in zip(cycle, cycle[1:] + cycle[:1]):
            assert (here, after) in edges


class TestGraphConstruction:
    def test_endpoint_links_excluded(self, tiny_machine, tiny_routes):
        from repro.core.machine import ChannelGroup

        for edge in _edges(tiny_machine, tiny_routes, 1):
            for channel_id, _vc in edge:
                group = group_of(tiny_machine.channel_kind[channel_id])
                assert group != ChannelGroup.E

    def test_route_count_matches_enumeration(self, tiny_machine, tiny_routes):
        routes = list(
            deadlock.enumerate_routes(tiny_machine, tiny_routes, endpoints_per_chip=1)
        )
        report = deadlock.analyze(tiny_machine, tiny_routes, endpoints_per_chip=1)
        assert report.routes == len(routes) > 0

    def test_report_counts_the_edge_set(self, tiny_machine, tiny_routes):
        edges = _edges(tiny_machine, tiny_routes, 1)
        report = deadlock.analyze(tiny_machine, tiny_routes, endpoints_per_chip=1)
        assert report.edges == len(edges) > 0
        assert report.nodes == len({node for edge in edges for node in edge})
        assert report.t_vcs_used | report.m_vcs_used == {
            vc for edge in edges for _cid, vc in edge
        }


class TestFindCycle:
    def test_cycle_follows_first_seen_edge_order(self):
        # Two cycles through 0; the first-seen successor is walked first.
        assert deadlock.find_cycle([(0, 1), (0, 2), (1, 0), (2, 0)]) == [0, 1]
        assert deadlock.find_cycle([(0, 2), (0, 1), (1, 0), (2, 0)]) == [0, 2]
