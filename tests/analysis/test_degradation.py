"""Tests for the degraded-machine throughput/fairness harness."""

import pickle

import pytest

from repro.analysis.degradation import degradation_sweep, measure_degraded_point
from repro.faults import FaultPolicy, FaultSet, sample_link_faults
from repro.sim import simulator
from repro.sim.simulator import RunSpec
from repro.traffic import loads
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import UniformRandom


def _point(machine, k, seed=3, arbitration="rr"):
    """A degraded point is its run: the fault set and policy ride on it."""
    pattern = UniformRandom(machine.config.shape)
    return RunSpec(
        machine.config,
        BatchSpec(pattern, 8, cores_per_chip=2, seed=7),
        arbitration,
        fault_set=sample_link_faults(machine, k, seed=seed),
        fault_policy=FaultPolicy(),
    )


class TestMeasureDegradedPoint:
    def test_healthy_point_full_delivery(self, tiny_machine):
        result = measure_degraded_point(_point(tiny_machine, 0))
        assert result.failed_links == 0
        assert result.delivered == 8 * 8 * 2  # chips x batch x cores
        assert result.dropped == 0
        assert result.unroutable == 0
        assert result.normalized_throughput > 0
        # With zero faults the degraded and healthy ideal bounds agree
        # (up to float summation order: the degraded path accumulates
        # loads exhaustively, the healthy one by translation symmetry).
        assert result.normalized_throughput == pytest.approx(
            result.throughput_vs_healthy_ideal
        )

    def test_degraded_point_delivers_batch(self, tiny_machine):
        result = measure_degraded_point(_point(tiny_machine, 2))
        assert result.failed_links == 2
        assert result.delivered == 8 * 8 * 2
        assert result.dropped == 0
        # Fewer surviving channels -> the degraded ideal bound is never
        # tighter than the healthy one.
        assert (
            result.normalized_throughput >= result.throughput_vs_healthy_ideal
        )

    def test_fault_json_round_trips_through_result(self, tiny_machine):
        point = _point(tiny_machine, 1)
        result = measure_degraded_point(point)
        assert FaultSet.from_json(result.fault_json) == point.fault_set
        assert len(point.fault_set) == 1

    def test_point_is_picklable(self, tiny_machine):
        point = _point(tiny_machine, 1)
        clone = pickle.loads(pickle.dumps(point))
        assert clone.config == point.config
        assert clone.fault_set == point.fault_set
        assert clone.spec.pattern.name == point.spec.pattern.name
        assert clone.fault_policy == point.fault_policy

    def test_measurement_is_deterministic(self, tiny_machine):
        point = _point(tiny_machine, 2, arbitration="iw")
        a = measure_degraded_point(point)
        b = measure_degraded_point(point)
        assert a.completion_cycles == b.completion_cycles
        assert a.normalized_throughput == b.normalized_throughput
        assert a.finish_spread == b.finish_spread


class TestDegradationSweep:
    def test_sweep_spans_zero_to_max(self, tiny_machine):
        points = degradation_sweep(
            tiny_machine,
            UniformRandom((2, 2, 2)),
            batch_size=8,
            cores_per_chip=2,
            max_failed=2,
            arbitration="rr",
            fault_seed=3,
            seed=7,
        )
        assert [p.failed_links for p in points] == [0, 1, 2]
        for p in points:
            assert p.delivered == 8 * 8 * 2
            assert p.policy == "reroute"

    def test_sweep_reproducible(self, tiny_machine):
        kwargs = dict(
            batch_size=8,
            cores_per_chip=2,
            max_failed=1,
            arbitration="rr",
            fault_seed=3,
            seed=7,
        )
        a = degradation_sweep(tiny_machine, UniformRandom((2, 2, 2)), **kwargs)
        b = degradation_sweep(tiny_machine, UniformRandom((2, 2, 2)), **kwargs)
        assert [p.fault_json for p in a] == [p.fault_json for p in b]
        assert [p.completion_cycles for p in a] == [
            p.completion_cycles for p in b
        ]


class TestWhatPointsShare:
    """The healthy machine and its load table are the memo's; a degraded
    table is its failed set's."""

    def _counted(self, monkeypatch):
        calls, original = [], loads.compute_loads

        def counted(machine, route_computer, *args, **kwargs):
            calls.append(frozenset(getattr(route_computer, "failed", ())))
            return original(machine, route_computer, *args, **kwargs)

        monkeypatch.setattr(loads, "compute_loads", counted)
        return calls

    def test_sweep_enumerates_the_healthy_table_once(
        self, tiny_machine, monkeypatch
    ):
        monkeypatch.setattr(simulator, "_MEMO", {})
        calls = self._counted(monkeypatch)
        degradation_sweep(
            tiny_machine, UniformRandom((2, 2, 2)), batch_size=4,
            cores_per_chip=2, max_failed=2, arbitration="iw", fault_seed=3,
        )
        # One degraded enumeration per point (on the fault-aware computer,
        # k=0's included) and the healthy normalizer once, not per point.
        assert len(calls) == 3 + 1
        assert simulator.shared_machine(tiny_machine.config)[0] is tiny_machine

    def test_faulted_points_keep_tables_by_failed_set_and_no_runtime(
        self, tiny_machine, monkeypatch
    ):
        from repro.faults.routing import FaultAwareRouteComputer
        from repro.faults.runtime import FaultRuntime

        monkeypatch.setattr(simulator, "_MEMO", {})
        healthy = UniformRandom((2, 2, 2))
        simulator.loads_of(*simulator.shared_machine(tiny_machine.config), [healthy], 2)
        before = dict(simulator._MEMO)
        calls = self._counted(monkeypatch)
        a = measure_degraded_point(_point(tiny_machine, 1, seed=3, arbitration="iw"))
        b = measure_degraded_point(_point(tiny_machine, 1, seed=5, arbitration="iw"))
        assert a.fault_json != b.fault_json
        # Each point enumerated its own degraded loads; the healthy
        # normalizer was resident. The memo gained one degraded table per
        # failed set, and a point measured again enumerates nothing.
        assert len(calls) == 2 and calls[0] != calls[1] and all(calls)
        gained = [key for key in simulator._MEMO if key not in before]
        assert sorted(key[4] for key in gained) == sorted(calls)
        assert all(key[:2] == ("loads", True) for key in gained)
        assert measure_degraded_point(
            _point(tiny_machine, 1, seed=3, arbitration="iw")
        ).delivered == a.delivered
        assert len(calls) == 2

        def reachable(value):
            yield value
            if isinstance(value, (tuple, list)):
                for item in value:
                    yield from reachable(item)

        assert not any(
            isinstance(item, (FaultAwareRouteComputer, FaultRuntime))
            for entry in simulator._MEMO.items()
            for item in reachable(entry)
        )
