"""Tests for simulation statistics."""

import json

import pytest

from repro.core.routing import RouteChoice
from repro.sim.metrics import StreamingQuantile
from repro.sim.packet import Packet
from repro.sim.stats import SimStats


@pytest.fixture()
def delivered_packet(tiny_machine, tiny_routes):
    src = tiny_machine.ep_id[((0, 0, 0), 0)]
    dst = tiny_machine.ep_id[((1, 0, 0), 0)]
    route = tiny_routes.compute(src, dst, RouteChoice())
    packet = Packet(0, route)
    packet.inject_cycle = 5
    packet.deliver_cycle = 30
    return packet


class TestRecording:
    def test_delivery_updates_counters(self, delivered_packet):
        stats = SimStats()
        stats.record_injection(delivered_packet)
        stats.record_delivery(delivered_packet)
        assert stats.injected == 1
        assert stats.delivered == 1
        assert stats.last_delivery_cycle == 30
        assert stats.delivered_per_source[delivered_packet.src] == 1
        assert stats.source_finish_cycle[delivered_packet.src] == 30

    def test_latency_accumulation(self, delivered_packet):
        stats = SimStats()
        stats.record_delivery(delivered_packet)
        assert stats.mean_latency == 30  # release 0 -> deliver 30
        assert stats.mean_network_latency == 25

    def test_channel_use(self):
        stats = SimStats()
        stats.record_channel_use(7, 2)
        stats.record_channel_use(7, 1)
        assert stats.channel_flits[7] == 3


class TestMetrics:
    def test_mean_latency_requires_deliveries(self):
        with pytest.raises(ValueError):
            SimStats().mean_latency

    def test_throughput(self, delivered_packet):
        stats = SimStats()
        stats.record_delivery(delivered_packet)
        assert stats.throughput_packets_per_cycle() == pytest.approx(1 / 30)

    def test_throughput_no_deliveries(self):
        assert SimStats().throughput_packets_per_cycle() == 0.0

    def test_finish_spread(self):
        stats = SimStats()
        stats.source_finish_cycle = {1: 100, 2: 50}
        assert stats.finish_spread() == pytest.approx(0.5)

    def test_finish_spread_empty(self):
        assert SimStats().finish_spread() is None

    def test_service_counts_sorted(self):
        stats = SimStats()
        stats.delivered_per_source.update({1: 5, 2: 2, 3: 9})
        assert stats.service_counts() == [2, 5, 9]

    def test_min_max_service_ratio(self):
        stats = SimStats()
        stats.delivered_per_source.update({1: 5, 2: 10})
        assert stats.min_max_service_ratio() == pytest.approx(0.5)


def _populated_stats(delivered_packet, with_estimator=False):
    stats = SimStats(ticks_per_cycle=14)
    if with_estimator:
        stats.latency_estimator = StreamingQuantile()
    stats.record_injection(delivered_packet)
    stats.record_delivery(delivered_packet)
    stats.record_channel_use(7, 2, busy_ticks=90)
    stats.end_cycle = 40
    return stats


class TestRoundTrip:
    """Regression: asdict()/from_dict() must restore *behavior*, not just
    values -- the counter dicts were silently coming back as plain dicts,
    turning reads of untouched ids into KeyErrors."""

    def test_round_trip_restores_defaultdict_behavior(self, delivered_packet):
        stats = _populated_stats(delivered_packet)
        revived = SimStats.from_dict(stats.asdict())
        # Reading an id never touched must yield 0, exactly like a live run.
        assert revived.delivered_per_source[999] == 0
        assert revived.channel_flits[999] == 0
        assert revived.channel_busy_ticks[999] == 0
        # And an id that was touched keeps its value.
        assert revived.channel_flits[7] == 2
        assert revived.channel_busy_ticks[7] == 90

    def test_round_trip_preserves_values(self, delivered_packet):
        stats = _populated_stats(delivered_packet)
        assert SimStats.from_dict(stats.asdict()).asdict() == stats.asdict()

    def test_json_round_trip_restores_int_keys(self, delivered_packet):
        stats = _populated_stats(delivered_packet)
        revived = SimStats.from_dict(json.loads(json.dumps(stats.asdict())))
        assert revived.asdict() == stats.asdict()
        assert all(
            isinstance(key, int) for key in revived.delivered_per_source
        )
        assert all(isinstance(key, int) for key in revived.source_finish_cycle)

    def test_estimator_survives_round_trip(self, delivered_packet):
        stats = _populated_stats(delivered_packet, with_estimator=True)
        revived = SimStats.from_dict(json.loads(json.dumps(stats.asdict())))
        assert revived.latency_estimator == stats.latency_estimator
        assert revived.latency_quantiles() == stats.latency_quantiles()

    def test_asdict_does_not_alias_live_dicts(self, delivered_packet):
        stats = _populated_stats(delivered_packet)
        snapshot = stats.asdict()
        stats.record_channel_use(7, 5, busy_ticks=10)
        assert snapshot["channel_flits"][7] == 2


class TestMerge:
    def test_merge_folds_counters_and_dicts(self, delivered_packet):
        a = _populated_stats(delivered_packet)
        b = _populated_stats(delivered_packet)
        b.record_channel_use(8, 1, busy_ticks=45)
        b.source_finish_cycle[delivered_packet.src] = 99
        a.merge(b)
        assert a.injected == 2 and a.delivered == 2
        assert a.channel_flits[7] == 4
        assert a.channel_busy_ticks[8] == 45
        # Latest finish wins.
        assert a.source_finish_cycle[delivered_packet.src] == 99
        assert a.end_cycle == 40

    def test_merge_rejects_timebase_mismatch(self, delivered_packet):
        a = _populated_stats(delivered_packet)
        b = SimStats(ticks_per_cycle=7)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_combines_estimators(self, delivered_packet):
        a = _populated_stats(delivered_packet, with_estimator=True)
        b = _populated_stats(delivered_packet, with_estimator=True)
        b.latency_estimator.add_many([100, 200])
        a.merge(b)
        assert a.latency_estimator.count == 4

    def test_merge_adopts_other_estimator_without_aliasing(
        self, delivered_packet
    ):
        a = _populated_stats(delivered_packet)
        b = _populated_stats(delivered_packet, with_estimator=True)
        a.merge(b)
        assert a.latency_estimator == b.latency_estimator
        a.latency_estimator.add(1_000_000)
        assert a.latency_estimator != b.latency_estimator
