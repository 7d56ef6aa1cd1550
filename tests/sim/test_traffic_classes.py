"""Tests for the two hardware traffic classes (request and reply).

Separate classes exist to break protocol deadlock (Section 2.1); each
class owns its own set of VCs on every channel. The experiments drive a
single class, but the machinery must support both.
"""

import pytest

from repro.core.machine import ChannelGroup, Machine, MachineConfig, group_of
from repro.core.routing import RouteChoice, RouteComputer
from repro.sim.engine import Engine
from repro.sim.packet import Packet
from repro.traffic.batch import BatchSpec, generate_batch
from repro.traffic.patterns import UniformRandom


@pytest.fixture(scope="module")
def two_class_machine():
    return Machine(
        MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2, num_classes=2)
    )


@pytest.fixture(scope="module")
def two_class_routes(two_class_machine):
    return RouteComputer(two_class_machine)


class TestVcPartitioning:
    def test_channel_vc_counts_doubled(self, two_class_machine):
        for kind, vcs in zip(
            two_class_machine.channel_kind, two_class_machine.channel_vcs
        ):
            if group_of(kind) == ChannelGroup.E:
                assert vcs == 2
            else:
                assert vcs == 8

    def test_class_one_routes_use_upper_vcs(
        self, two_class_machine, two_class_routes
    ):
        src = two_class_machine.ep_id[((0, 0, 0), 0)]
        dst = two_class_machine.ep_id[((1, 1, 0), 0)]
        request = two_class_routes.compute(src, dst, RouteChoice(), traffic_class=0)
        reply = two_class_routes.compute(src, dst, RouteChoice(), traffic_class=1)
        for (channel_id, req_vc), (_cid2, rep_vc) in zip(request.hops, reply.hops):
            if group_of(two_class_machine.channel_kind[channel_id]) == ChannelGroup.E:
                assert rep_vc == req_vc + 1
            else:
                assert rep_vc == req_vc + 4

    def test_classes_never_share_vcs(self, two_class_machine, two_class_routes):
        src = two_class_machine.ep_id[((0, 0, 0), 0)]
        dst = two_class_machine.ep_id[((1, 1, 1), 1)]
        request = two_class_routes.compute(src, dst, RouteChoice(), traffic_class=0)
        reply = two_class_routes.compute(src, dst, RouteChoice(), traffic_class=1)
        for (channel_id, req_vc), (_c, rep_vc) in zip(request.hops, reply.hops):
            if group_of(two_class_machine.channel_kind[channel_id]) != ChannelGroup.E:
                assert req_vc < 4 <= rep_vc


class TestClassOutOfRange:
    """A class the machine does not have is refused where routes are made
    (it used to come back as VCs past the buffers, and die mid-run)."""

    MESSAGE = r"^traffic class 3 is out of range: the machine has num_classes=1$"

    def test_compute_and_compute_plan_reject_it(self, tiny_machine):
        routes = RouteComputer(tiny_machine)
        src = tiny_machine.ep_id[((0, 0, 0), 0)]
        dst = tiny_machine.ep_id[((1, 1, 0), 0)]
        with pytest.raises(ValueError, match=self.MESSAGE):
            routes.compute(src, dst, RouteChoice(), traffic_class=3)
        with pytest.raises(ValueError, match=self.MESSAGE):
            routes.compute_plan(
                src, dst, (((1, 1, 0), RouteChoice()),), traffic_class=3
            )
        with pytest.raises(ValueError, match="traffic class -1 is out of range"):
            routes.compute(src, dst, RouteChoice(), traffic_class=-1)

    def test_generate_batch_rejects_it(self, tiny_machine):
        spec = BatchSpec(
            UniformRandom((2, 2, 2)),
            packets_per_source=2,
            cores_per_chip=2,
            seed=1,
            traffic_class=3,
        )
        with pytest.raises(ValueError, match=self.MESSAGE):
            generate_batch(tiny_machine, RouteComputer(tiny_machine), spec)

    def test_the_bound_is_the_machines_num_classes(
        self, two_class_machine, two_class_routes
    ):
        src = two_class_machine.ep_id[((0, 0, 0), 0)]
        dst = two_class_machine.ep_id[((1, 1, 0), 0)]
        with pytest.raises(ValueError, match="traffic class 2 is out of range"):
            two_class_routes.compute(src, dst, RouteChoice(), traffic_class=2)


class TestMixedClassTraffic:
    def test_both_classes_deliver(self, two_class_machine, two_class_routes):
        engine = Engine(two_class_machine)
        pid = 0
        for traffic_class in (0, 1):
            for x in range(2):
                src = two_class_machine.ep_id[((x, 0, 0), 0)]
                dst = two_class_machine.ep_id[(((x + 1) % 2, 1, 1), 1)]
                route = two_class_routes.compute(
                    src, dst, RouteChoice(), traffic_class
                )
                for _ in range(10):
                    engine.enqueue(Packet(pid, route, traffic_class=traffic_class))
                    pid += 1
        stats = engine.run()
        assert stats.delivered == pid

    def test_class_isolation_under_backpressure(
        self, two_class_machine, two_class_routes
    ):
        """Saturating class 0 must not stop class 1 (separate VCs and
        credits); both finish."""
        engine = Engine(two_class_machine)
        src = two_class_machine.ep_id[((0, 0, 0), 0)]
        dst = two_class_machine.ep_id[((1, 0, 0), 0)]
        choice = RouteChoice(deltas=(1, 0, 0))
        pid = 0
        heavy = two_class_routes.compute(src, dst, choice, 0)
        light = two_class_routes.compute(src, dst, choice, 1)
        for _ in range(80):
            engine.enqueue(Packet(pid, heavy, traffic_class=0))
            pid += 1
        engine.enqueue(Packet(pid, light, traffic_class=1))
        stats = engine.run()
        assert stats.delivered == 81
