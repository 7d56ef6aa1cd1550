"""Tests for the cycle-level simulation engine."""

import pytest

from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.core.routing import RouteChoice, RouteComputer
from repro.sim.engine import DeadlockError, Engine
from repro.sim.packet import Packet


def make_packet(machine, routes, src_key, dst_key, pid=0, **kwargs):
    src = machine.ep_id[src_key]
    dst = machine.ep_id[dst_key]
    choice = kwargs.pop("choice", RouteChoice())
    route = routes.compute(src, dst, choice)
    return Packet(pid, route, **kwargs)


class TestSinglePacket:
    def test_delivery(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        packet = make_packet(tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 0), 0))
        engine.enqueue(packet)
        stats = engine.run()
        assert packet.delivered
        assert stats.delivered == stats.injected == 1

    def test_latency_deterministic(self, tiny_machine, tiny_routes):
        latencies = []
        for _ in range(2):
            engine = Engine(tiny_machine)
            packet = make_packet(
                tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 1, 0), 1)
            )
            engine.enqueue(packet)
            engine.run()
            latencies.append(packet.network_latency)
        assert latencies[0] == latencies[1]

    def test_latency_includes_torus_delay(self, tiny_machine, tiny_routes):
        # One inter-node hop must cost at least the torus channel latency.
        engine = Engine(tiny_machine)
        packet = make_packet(tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 0), 0))
        engine.enqueue(packet)
        engine.run()
        assert packet.network_latency >= tiny_machine.config.torus_latency

    def test_same_chip_faster_than_internode(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        local = make_packet(
            tiny_machine, tiny_routes, ((0, 0, 0), 0), ((0, 0, 0), 1), pid=0
        )
        engine.enqueue(local)
        engine.run()
        engine2 = Engine(tiny_machine)
        remote = make_packet(
            tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 1, 1), 0), pid=1
        )
        engine2.enqueue(remote)
        engine2.run()
        assert local.network_latency < remote.network_latency

    def test_release_cycle_respected(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        packet = make_packet(
            tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 0), 0),
            release_cycle=100,
        )
        engine.enqueue(packet)
        engine.run()
        assert packet.inject_cycle >= 100


class TestEnqueueValidation:
    def test_release_order_enforced(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        late = make_packet(
            tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 0), 0),
            pid=0, release_cycle=10,
        )
        early = make_packet(
            tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 0), 0),
            pid=1, release_cycle=5,
        )
        engine.enqueue(late)
        with pytest.raises(ValueError):
            engine.enqueue(early)

    def test_non_endpoint_source_rejected(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        packet = make_packet(tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 0), 0))
        # Forge a route starting at a router.
        class Fake:
            src = tiny_machine.router_id[((0, 0, 0), (0, 0))]
            hops = packet.route.hops

        packet.route = Fake()
        with pytest.raises(ValueError):
            engine.enqueue(packet)


class TestBandwidth:
    def test_torus_serialization_limits_throughput(self, tiny_machine, tiny_routes):
        """N packets over one torus channel take at least N x 3.2 cycles."""
        machine = tiny_machine
        routes = tiny_routes
        engine = Engine(machine)
        count = 50
        choice = RouteChoice(deltas=(1, 0, 0), slice_index=0)
        for pid in range(count):
            engine.enqueue(
                make_packet(
                    machine, routes, ((0, 0, 0), 0), ((1, 0, 0), 0),
                    pid=pid, choice=choice,
                )
            )
        stats = engine.run()
        expected = count * machine.config.torus_cycles_per_flit
        assert stats.last_delivery_cycle >= expected * 0.95

    def test_mesh_channel_one_flit_per_cycle(self, tiny_machine, tiny_routes):
        # Same-chip traffic between two endpoints on one router chain:
        # delivery rate bounded by one packet per cycle.
        engine = Engine(tiny_machine)
        count = 30
        for pid in range(count):
            engine.enqueue(
                make_packet(
                    tiny_machine, tiny_routes, ((0, 0, 0), 0), ((0, 0, 0), 1),
                    pid=pid,
                )
            )
        stats = engine.run()
        assert stats.last_delivery_cycle >= count

    def test_channel_flit_accounting(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        packet = make_packet(tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 0), 0))
        engine.enqueue(packet)
        stats = engine.run()
        # Every hop of the route recorded exactly one flit.
        for channel_id, _vc in packet.route.hops:
            assert stats.channel_flits[channel_id] == 1


class TestTwoFlitPackets:
    def test_double_occupancy(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        count = 20
        for pid in range(count):
            engine.enqueue(
                make_packet(
                    tiny_machine, tiny_routes, ((0, 0, 0), 0), ((0, 0, 0), 1),
                    pid=pid, size_flits=2,
                )
            )
        stats = engine.run()
        # Two-flit packets need two cycles per mesh channel.
        assert stats.last_delivery_cycle >= 2 * count


class TestCredits:
    def test_all_credits_returned_after_drain(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        for pid in range(40):
            engine.enqueue(
                make_packet(
                    tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 1, 0), 0),
                    pid=pid,
                )
            )
        engine.run()
        for cid, vcs in enumerate(tiny_machine.channel_vcs):
            for vc in range(vcs):
                assert engine.credits_outstanding(cid, vc) == 0

    def test_no_buffered_packets_after_run(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        engine.enqueue(
            make_packet(tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 1), 1))
        )
        engine.run()
        assert engine.buffered_packets() == 0


class TestGuards:
    def test_max_cycles(self, tiny_machine, tiny_routes):
        engine = Engine(tiny_machine)
        engine.enqueue(
            make_packet(
                tiny_machine, tiny_routes, ((0, 0, 0), 0), ((1, 0, 0), 0),
                release_cycle=10_000,
            )
        )
        with pytest.raises(RuntimeError):
            engine.run(max_cycles=100)

    @staticmethod
    def _ring_jam_engine(scheme):
        """All eight nodes of a radix-8 X ring send half way around on one
        slice with one-flit buffers: with a single VC and no datelines the
        ring wedges (every buffer holds a through packet waiting for the
        next link); with the promotion scheme the dateline breaks it."""
        config = MachineConfig(
            shape=(8, 1, 1),
            endpoints_per_chip=1,
            vc_scheme=scheme,
            onchip_buffer_flits=1,
            torus_buffer_flits=1,
            torus_latency=1,
        )
        machine = Machine(config)
        routes = RouteComputer(machine)
        engine = Engine(machine, watchdog_cycles=2_000)
        pid = 0
        for x in range(8):
            src = machine.ep_id[((x, 0, 0), 0)]
            dst = machine.ep_id[(((x + 4) % 8, 0, 0), 0)]
            choice = RouteChoice(deltas=(4, 0, 0), slice_index=0)
            route = routes.compute(src, dst, choice)
            for _ in range(50):
                engine.enqueue(Packet(pid, route))
                pid += 1
        return engine

    def test_deadlock_watchdog_fires_on_unsafe_vcs(self):
        engine = self._ring_jam_engine("unsafe-single")
        with pytest.raises(DeadlockError):
            engine.run()

    def test_run_for_deadlock_watchdog_fires_on_unsafe_vcs(self):
        # run_for must not silently burn the caller's whole cycle budget
        # on a wedged network: same watchdog as run().
        engine = self._ring_jam_engine("unsafe-single")
        with pytest.raises(DeadlockError):
            engine.run_for(1_000_000)
        # The watchdog fired within its window, not at the budget.
        assert engine.cycle < 100_000

    def test_run_for_completes_workload_with_anton_vcs(self):
        engine = self._ring_jam_engine("anton")
        stats = engine.run_for(1_000_000)
        assert stats.delivered == stats.injected == 8 * 50

    def test_anton_vcs_complete_same_workload(self):
        engine = self._ring_jam_engine("anton")
        stats = engine.run()
        assert stats.delivered == stats.injected == 8 * 50

    def test_baseline_vcs_complete_same_workload(self):
        engine = self._ring_jam_engine("baseline")
        stats = engine.run()
        assert stats.delivered == stats.injected == 8 * 50
