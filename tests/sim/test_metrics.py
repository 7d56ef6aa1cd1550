"""Tests for the streaming metric reducers."""

import math

import pytest

from repro.sim.metrics import (
    ChannelBusyWindows,
    MetricsCollector,
    StreamingQuantile,
    VcOccupancyHistogram,
)
from repro.sim.simulator import RunSpec, run
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import UniformRandom


def nearest_rank(samples, q):
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestStreamingQuantile:
    def test_exact_on_small_samples(self):
        est = StreamingQuantile()
        samples = [5, 1, 9, 9, 3, 7, 2, 8, 4, 6]
        est.add_many(samples)
        for q in (0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert est.quantile(q) == nearest_rank(samples, q)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            StreamingQuantile().quantile(0.5)

    def test_empty_estimator_reports_no_quantiles(self):
        # A zero-sample estimator (a faulted run that delivered nothing)
        # reports an empty dict; only the singular accessor raises.
        assert StreamingQuantile().quantiles() == {}
        assert StreamingQuantile().quantiles((0.5, 0.99)) == {}

    def test_invalid_q_rejected(self):
        est = StreamingQuantile()
        est.add(1)
        with pytest.raises(ValueError):
            est.quantile(0.0)
        with pytest.raises(ValueError):
            est.quantile(1.5)

    def test_memory_bound_enforced(self):
        est = StreamingQuantile(max_bins=8)
        est.add_many(range(1000))
        assert len(est._bins) <= 8
        assert est.count == 1000
        # Width grew to the minimal power of two covering 1000 distinct
        # values in 8 bins.
        assert est.width == 128

    def test_compacted_quantiles_bounded_by_width(self):
        est = StreamingQuantile(max_bins=8)
        samples = list(range(1000))
        est.add_many(samples)
        for q in (0.25, 0.5, 0.95):
            exact = nearest_rank(samples, q)
            approx = est.quantile(q)
            # The bin's lower edge is within one bin width below the
            # exact order statistic.
            assert approx <= exact < approx + 2 * est.width

    def test_order_invariance_after_compaction(self):
        samples = list(range(300))
        forward, backward = StreamingQuantile(max_bins=16), StreamingQuantile(max_bins=16)
        forward.add_many(samples)
        backward.add_many(reversed(samples))
        assert forward == backward

    def test_merge_matches_combined_feed(self):
        a, b, combined = (StreamingQuantile() for _ in range(3))
        a.add_many([1, 2, 3, 50])
        b.add_many([4, 5, 60, 70])
        combined.add_many([1, 2, 3, 50, 4, 5, 60, 70])
        a.merge(b)
        assert a == combined

    def test_state_round_trip(self):
        est = StreamingQuantile(max_bins=8)
        est.add_many(range(100))
        revived = StreamingQuantile.from_state(est.state())
        assert revived == est
        assert revived.quantiles() == est.quantiles()

    def test_rejects_degenerate_max_bins(self):
        with pytest.raises(ValueError):
            StreamingQuantile(max_bins=1)


class TestChannelBusyWindows:
    def test_series_and_totals(self):
        busy = ChannelBusyWindows(window_cycles=10)
        busy.add(3, 0, 14)
        busy.add(3, 9, 14)
        busy.add(3, 25, 45)
        busy.add(7, 4, 28)
        assert busy.series(3) == [28, 0, 45]
        assert busy.series(7) == [28]
        assert busy.series(99) == []
        assert busy.totals() == {3: 73, 7: 28}

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            ChannelBusyWindows(window_cycles=0)


class TestVcOccupancyHistogram:
    def test_residency_accounting(self):
        hist = VcOccupancyHistogram()
        # Buffer (5, 1): empty 0-10, one packet 10-14, two 14-20, one 20-30.
        hist.move(5, 1, 10, 1)
        hist.move(5, 1, 14, 1)
        hist.move(5, 1, 20, -1)
        hist.finalize(30)
        assert hist.histogram(5, 1) == {0: 10, 1: 14, 2: 6}
        # Total residency covers the whole observed span.
        assert sum(hist.histogram(5, 1).values()) == 30

    def test_untouched_buffer_absent(self):
        hist = VcOccupancyHistogram()
        hist.finalize(100)
        assert hist.histogram(0, 0) == {}

    def test_state_round_trip(self):
        hist = VcOccupancyHistogram()
        for channel, vc, cycle, step in [
            (5, 1, 0, 1), (3, 0, 4, 1), (5, 1, 9, -1), (3, 0, 9, -1), (7, 2, 12, 1)
        ]:
            hist.move(channel, vc, cycle, step)
        revived = VcOccupancyHistogram.from_state(hist.state())
        assert revived.state() == hist.state()
        for each in (hist, revived):
            each.move(7, 2, 20, -1)
            each.finalize(30)
        assert revived.state() == hist.state()
        assert [key for key, _ in hist.state()["since"]] == [[5, 1], [3, 0], [7, 2]]
        assert [key for key, _ in hist.state()["hist"]] == [[3, 0], [5, 1], [7, 2]]

    @pytest.mark.parametrize("field, value", [
        ("since", [[[3, 0], 4], [[5, 1], 9]]),
        ("hist", [[[9, 9], [[0, 4]]]]),
    ])
    def test_from_state_refuses_rows_that_disagree(self, field, value):
        hist = VcOccupancyHistogram()
        hist.move(5, 1, 0, 1)
        hist.move(3, 0, 4, 1)
        state = dict(hist.state(), **{field: value})
        with pytest.raises(ValueError):
            VcOccupancyHistogram.from_state(state)


class TestMetricsCollectorEndToEnd:
    @pytest.fixture(scope="class")
    def run(self, tiny_machine, tiny_routes):
        collector = MetricsCollector(window_cycles=16)
        spec = BatchSpec(
            UniformRandom(tiny_machine.config.shape),
            packets_per_source=4,
            cores_per_chip=2,
            seed=2,
        )
        stats = run(
            RunSpec(tiny_machine.config, spec), machine=tiny_machine,
            trace=collector, route_computer=tiny_routes, latency_quantiles=True,
        )
        return collector.summary(stats.end_cycle), stats

    def test_delivered_matches_stats(self, run):
        summary, stats = run
        assert summary.delivered == stats.delivered

    def test_busy_ticks_match_engine_accounting(self, run):
        summary, stats = run
        # The trace-derived totals must agree with the engine's own exact
        # integer accounting, channel by channel.
        assert summary.channel_busy_ticks == {
            cid: ticks
            for cid, ticks in sorted(stats.channel_busy_ticks.items())
            if ticks
        }
        for channel, series in summary.busy_windows.items():
            assert sum(series) == summary.channel_busy_ticks[channel]

    def test_quantiles_match_stats_estimator(self, run):
        summary, stats = run
        # Collector (trace-fed) and SimStats (delivery-fed) estimators see
        # the same latencies.
        assert summary.latency_quantiles == stats.latency_quantiles()
        p50, p95, p99 = (
            summary.latency_quantiles[q] for q in (0.5, 0.95, 0.99)
        )
        assert p50 <= p95 <= p99

    def test_occupancy_time_is_conserved(self, run):
        summary, _ = run
        assert summary.vc_occupancy
        for (channel, vc), histogram in summary.vc_occupancy.items():
            assert all(level >= 0 for level in histogram)
            assert all(cycles > 0 for cycles in histogram.values())

    def test_summary_is_picklable(self, run):
        import pickle

        summary, _ = run
        assert pickle.loads(pickle.dumps(summary)) == summary
