"""Regression tests for the engine's exact fixed-point channel timing.

The torus derating ratio the throughput experiments hinge on
(288 / 89.6 Gb/s = 45/14 cycles per flit) is not representable in binary
floating point, so the engine carries all channel timing in integer
ticks: 1 cycle = 14 ticks on a default machine, one torus flit = 45
ticks. These tests pin the behavior the old float code could only
approximate -- arrival cycles at exact serialization boundaries
(formerly guarded by an epsilon-ceil hack in ``_depart``) and zero
cumulative drift over a million-cycle saturated run.
"""

from fractions import Fraction

import pytest

from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.core.routing import RouteChoice, RouteComputer
from repro.sim.engine import Engine, arrival_cycle, serialization_end_ticks
from repro.sim.packet import Packet
from repro.sim.simulator import RunSpec, run
from repro.sim.trace import ListSink
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import UniformRandom

#: Ticks per cycle on any default machine (LCM of mesh 1 and torus 14).
TPC = 14
#: Ticks one flit occupies a derated torus channel (45/14 cycles).
TORUS_FLIT_TICKS = 45


class TestArrivalCycleBoundaries:
    """Unit tests for the integer expression that replaced the
    epsilon-guarded float expression ``-int(-(end - 1e-6)) - 1``
    (a *floor*, since ``int()`` truncates toward zero): the latency
    pipeline counts from ``floor(end) - 1``, with a serialization ending
    exactly on a cycle boundary attributed to the cycle it closes."""

    @pytest.mark.parametrize(
        "end_ticks, base",
        [
            (1, -1),  # first tick of cycle 0
            (14, -1),  # exactly on the cycle-0/1 boundary: closes cycle 0
            (15, 0),  # one tick past the boundary
            (42, 1),  # 3 mesh flits: boundary again
            (45, 2),  # one torus flit finishes during cycle 3
            (90, 5),  # two torus flits: mid-cycle
            (630, 43),  # 14 torus flits = exactly 45 cycles: boundary
            (631, 44),
        ],
    )
    def test_boundary_cases_at_14_ticks_per_cycle(self, end_ticks, base):
        # Granted at cycle 0 (every end here is past tick 0): latency 12
        # is far above the clamp, latency 1 meets it on the short ends.
        assert arrival_cycle(end_ticks, TPC, latency=12, now=0) == base + 12
        assert arrival_cycle(end_ticks, TPC, latency=1, now=0) == max(base + 1, 1)

    @pytest.mark.parametrize("end_cycle", [1, 2, 3, 10, 1_000_000])
    @pytest.mark.parametrize("tpc", [1, 2, 14, 630])
    def test_integer_boundary_closes_the_cycle_it_ends(self, end_cycle, tpc):
        # A serialization ending exactly on a cycle boundary belongs to
        # the cycle it closes -- the case the old epsilon hack guarded,
        # and the one float drift could flip by a cycle.
        assert arrival_cycle(end_cycle * tpc, tpc, latency=12, now=0) == end_cycle + 10

    def test_matches_seed_float_expression_where_float_was_correct(self):
        # The original engine computed the arrival cycle from a float
        # serialization end as -int(-(end - 1e-6)) - 1 + latency. For
        # every end the float code represented accurately (error below
        # the epsilon -- a single rational division is), the integer
        # expression must agree exactly. What it *removes* is the drift
        # of accumulated sums, where the float result was noise.
        for end_ticks in range(1, 2000):
            end = end_ticks / TPC  # one rounding, error ~1e-15 << 1e-6
            seed_arrival = -int(-(end - 0.000001)) - 1 + 12
            assert arrival_cycle(end_ticks, TPC, latency=12, now=0) == seed_arrival

    @pytest.mark.parametrize("now", [0, 1, 7, 1_000_000])
    def test_latency_one_hop_arrives_the_cycle_after_its_grant(self, now):
        # An idle on-chip or endpoint channel: latency 1, one 14-tick flit.
        one_flit = serialization_end_ticks(0, now * TPC, 1, TPC)
        two_flits = serialization_end_ticks(0, now * TPC, 2, TPC)
        # One flit ends on the next cycle boundary, which the expression
        # attributes to the grant cycle itself; the clamp moves it on.
        assert (one_flit - 1) // TPC - 1 + 1 == now
        assert arrival_cycle(one_flit, TPC, latency=1, now=now) == now + 1
        # Two flits reach now + 1 without the clamp, three go past it.
        assert arrival_cycle(two_flits, TPC, latency=1, now=now) == now + 1
        assert arrival_cycle(two_flits + TPC, TPC, latency=1, now=now) == now + 2

    def test_never_before_the_cycle_after_the_grant(self):
        for end_ticks in range(1, 5 * TPC):
            assert arrival_cycle(end_ticks, TPC, latency=1, now=4) >= 5


class TestSerializationStart:
    def test_idle_channel_starts_now(self):
        assert serialization_end_ticks(0, 5 * TPC, 1, TORUS_FLIT_TICKS) == (
            5 * TPC + TORUS_FLIT_TICKS
        )

    def test_busy_channel_continues_mid_cycle(self):
        # free_at mid-cycle in the future: back-to-back packets serialize
        # gaplessly from the previous packet's last tick.
        free_at = 3 * TPC + 3
        end = serialization_end_ticks(free_at, 2 * TPC, 2, TORUS_FLIT_TICKS)
        assert end == free_at + 2 * TORUS_FLIT_TICKS

    def test_stale_free_at_does_not_reach_back_in_time(self):
        end = serialization_end_ticks(10, 6 * TPC, 1, TORUS_FLIT_TICKS)
        assert end == 6 * TPC + TORUS_FLIT_TICKS


def _derated_machine(**overrides):
    config = MachineConfig(
        shape=(2, 1, 1),
        endpoints_per_chip=1,
        onchip_buffer_flits=64,
        torus_buffer_flits=128,
        **overrides,
    )
    machine = Machine(config)
    return machine, RouteComputer(machine)


def _one_channel_route(machine, routes):
    """A fixed route crossing exactly one +X torus channel on slice 0."""
    src = machine.ep_id[((0, 0, 0), 0)]
    dst = machine.ep_id[((1, 0, 0), 0)]
    route = routes.compute(src, dst, RouteChoice(deltas=(1, 0, 0), slice_index=0))
    (torus_cid,) = [
        cid
        for cid, _vc in route.hops
        if machine.channel_kind[cid] == ChannelKind.TORUS
    ]
    return route, torus_cid


def _run_saturated(machine, route, count, size_flits=1):
    engine = Engine(machine)
    for pid in range(count):
        engine.enqueue(Packet(pid, route, size_flits=size_flits))
    stats = engine.run()
    return engine, stats


class TestBackToBackDeratedChannel:
    """Engine-level boundary regressions: a saturated 45/14 torus channel
    delivers on the exact integer schedule the rational arithmetic
    predicts, with no epsilon and no drift."""

    def test_serialization_is_gapless_and_exact(self):
        machine, routes = _derated_machine()
        route, torus_cid = _one_channel_route(machine, routes)
        count = 29  # two 14-packet LCM periods plus one
        reference, _ = _run_saturated(machine, route, 1)
        start_tick = reference._channel_free_at[torus_cid] - TORUS_FLIT_TICKS
        assert start_tick % TPC == 0  # idle channel: start on a boundary
        engine, stats = _run_saturated(machine, route, count)
        # Back-to-back packets extend the free horizon by exactly 45
        # ticks per flit from the very first grant: zero accumulated gap.
        assert (
            engine._channel_free_at[torus_cid]
            == start_tick + count * TORUS_FLIT_TICKS
        )
        assert stats.channel_busy_ticks[torus_cid] == count * TORUS_FLIT_TICKS

    def test_delivery_schedule_matches_exact_arithmetic(self):
        machine, routes = _derated_machine()
        route, _ = _one_channel_route(machine, routes)
        count = 43  # three LCM periods plus one
        engine = Engine(machine)
        packets = [Packet(pid, route) for pid in range(count)]
        for packet in packets:
            engine.enqueue(packet)
        engine.run()
        cycles = [packet.deliver_cycle for packet in packets]
        assert cycles == sorted(cycles)
        deltas = [b - a for a, b in zip(cycles, cycles[1:])]
        # Consecutive single-flit packets on a 45/14 channel arrive 3 or
        # 4 cycles apart (floor differences of a 45/14-tick ramp) ...
        assert set(deltas) <= {3, 4}
        # ... every 14-packet window advances *exactly* 45 cycles (the
        # LCM period, 630 ticks), independent of phase -- the old float
        # accumulation could flip a boundary anywhere in the run ...
        for k in range(count - TPC):
            assert cycles[k + TPC] - cycles[k] == 45
        # ... and each window contains exactly eleven 3s and three 4s.
        for k in range(len(deltas) - TPC + 1):
            window = deltas[k : k + TPC]
            assert window.count(3) == 11 and window.count(4) == 3

    def test_exact_carried_rate(self):
        machine, routes = _derated_machine()
        route, torus_cid = _one_channel_route(machine, routes)
        _, stats = _run_saturated(machine, route, 50)
        carried = Fraction(
            stats.channel_flits[torus_cid] * stats.ticks_per_cycle,
            stats.channel_busy_ticks[torus_cid],
        )
        assert carried == Fraction(TPC, TORUS_FLIT_TICKS)


class TestOneFlitOnChipHop:
    def test_mesh_depart_to_arrive_is_exactly_one_cycle(self):
        # Every one-flit crossing of a mesh channel (latency 1) in a
        # traced 2x2x2 run: the arrival lands the cycle after the grant,
        # as arrival_cycle says, whatever the channel's backlog.
        machine = Machine(MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2))
        spec = BatchSpec(UniformRandom((2, 2, 2)), 16, cores_per_chip=2, seed=5)
        sink = ListSink()
        run(RunSpec(machine.config, spec), machine=machine, trace=sink)
        mesh = {
            cid
            for cid, kind in enumerate(machine.channel_kind)
            if kind == ChannelKind.MESH
        }
        departs = {
            (e.pid, e.channel): e.cycle
            for e in sink.events
            if e.kind == "depart" and e.channel in mesh and e.get("flits") == 1
        }
        arrives = {
            (e.pid, e.channel): e.cycle
            for e in sink.events
            if e.kind == "arrive" and (e.pid, e.channel) in departs
        }
        assert len(departs) > 50 and arrives.keys() == departs.keys()
        assert all(arrives[key] == departs[key] + 1 for key in departs)


@pytest.mark.slow
class TestMillionCycleDrift:
    def test_long_run_has_zero_cumulative_drift(self):
        """A >= 1M-cycle saturated run carries exactly 14/45 flits/cycle.

        320,000 flits through one 45/14 channel occupy exactly
        14,400,000 ticks (~1.03M cycles). The float accumulation this
        engine used to perform provably cannot represent that sum, so
        this is the regression fence against timing state ever going
        back to floating point.
        """
        machine, routes = _derated_machine()
        route, torus_cid = _one_channel_route(machine, routes)
        count, size = 20_000, 16
        flits = count * size
        reference, _ = _run_saturated(machine, route, 1, size_flits=size)
        start_tick = (
            reference._channel_free_at[torus_cid] - size * TORUS_FLIT_TICKS
        )
        engine, stats = _run_saturated(machine, route, count, size_flits=size)
        assert stats.end_cycle > 1_000_000
        # Gapless serialization for the whole run, to the exact tick.
        assert stats.channel_busy_ticks[torus_cid] == flits * TORUS_FLIT_TICKS
        assert (
            engine._channel_free_at[torus_cid]
            == start_tick + flits * TORUS_FLIT_TICKS
        )
        carried = Fraction(
            stats.channel_flits[torus_cid] * stats.ticks_per_cycle,
            stats.channel_busy_ticks[torus_cid],
        )
        assert carried == Fraction(TPC, TORUS_FLIT_TICKS)
        # The float loop this replaced drifts: summing 45/14 once per
        # flit neither hits the exact rational total nor stays stable.
        acc, per_flit = 0.0, 45 / 14
        for _ in range(flits):
            acc += per_flit
        assert Fraction(acc) != Fraction(flits * TORUS_FLIT_TICKS, TPC)
