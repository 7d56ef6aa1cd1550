"""Ablation: route randomization balances channel load (Section 2.3).

Anton 2 randomizes each packet's dimension order and torus slice. This
test quantifies what that buys: restricting routing to a single fixed
dimension order and slice concentrates load (the idle slice alone doubles
the peak torus-channel load) and skews the on-chip mesh.
"""

import pytest

from repro.core.machine import ChannelKind
from repro.core.routing import RouteChoice, RouteComputer
from repro.traffic.loads import compute_loads
from repro.traffic.patterns import UniformRandom


class FixedRouteComputer(RouteComputer):
    """Oblivious router with randomization disabled: always XYZ order,
    slice 0, positive tie-breaks."""

    def all_choices(self, src_chip, dst_chip):
        yield RouteChoice(), 1.0


class TestRandomizationAblation:
    @pytest.fixture(scope="class")
    def tables(self, small_machine):
        pattern = UniformRandom((4, 4, 4))
        randomized = compute_loads(
            small_machine, RouteComputer(small_machine), pattern, cores_per_chip=2
        )
        fixed = compute_loads(
            small_machine,
            FixedRouteComputer(small_machine),
            pattern,
            cores_per_chip=2,
        )
        return randomized, fixed

    def test_fixed_routing_doubles_peak_torus_load(self, small_machine, tables):
        randomized, fixed = tables
        # Slice randomization alone halves the per-channel load; fixing
        # the slice at least doubles the peak.
        assert fixed.max_torus_load(small_machine) >= 2 * randomized.max_torus_load(
            small_machine
        ) * 0.99

    def test_fixed_routing_idles_one_slice(self, small_machine, tables):
        _randomized, fixed = tables
        slice1_load = 0.0
        for cid, load in fixed.channel_load.items():
            if small_machine.channel_kind[cid] == ChannelKind.TORUS:
                _direction, slice_index = small_machine.components[
                    small_machine.channel_src[cid]
                ].detail
                if slice_index == 1:
                    slice1_load += load
        assert slice1_load == 0.0

    def test_randomization_balances_mesh(self, small_machine, tables):
        randomized, fixed = tables

        def max_mesh(table):
            return table.max_load(small_machine, ChannelKind.MESH)

        assert max_mesh(fixed) > max_mesh(randomized)

    def test_total_torus_work_unchanged(self, small_machine, tables):
        # Randomization moves load around; it does not change the total
        # (minimal routes have fixed hop counts).
        randomized, fixed = tables

        def total(table):
            return sum(
                load
                for cid, load in table.channel_load.items()
                if small_machine.channel_kind[cid] == ChannelKind.TORUS
            )

        assert total(fixed) == pytest.approx(total(randomized))
