"""Demand-matrix workloads: generators, schedules, and conservation laws.

The conservation tests pin the workload subsystem's accounting
invariants: every generated packet is eventually delivered or dropped
(healthy runs drop nothing), and paced open-loop injection never offers
more than the matrix row sums -- a *hard* bound, per source, by
construction of the credit accumulator.
"""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import all_coords
from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.faults import FaultPolicy, FaultRuntime, FaultSet, FaultSpec
from repro.faults.model import failable_channels
from repro.sim.simulator import RunSpec, run
from repro.sim.sweep import SweepPoint, run_sweep
from repro.sim.trace import JsonlTraceWriter
from repro.traffic.demand import (
    DemandMatrix,
    DemandMatrixPattern,
    DemandSchedule,
    DemandSpec,
    as_schedule,
    generate_demand,
    measure_demand_point,
)
from repro.traffic.loads import active_endpoints

SHAPE = (2, 2, 2)

_CACHE = {}


def setup():
    if "m" not in _CACHE:
        machine = Machine(MachineConfig(shape=SHAPE, endpoints_per_chip=2))
        _CACHE["m"] = (machine, RouteComputer(machine))
    return _CACHE["m"]


class TestDemandMatrix:
    def test_rejects_wrong_dimensions(self):
        with pytest.raises(ValueError, match="8x8"):
            DemandMatrix(shape=SHAPE, rates=((0.0,),))

    def test_rejects_negative_and_nonfinite(self):
        n = 8
        rates = [[0.0] * n for _ in range(n)]
        rates[0][1] = -0.1
        with pytest.raises(ValueError, match=">= 0"):
            DemandMatrix(shape=SHAPE, rates=rates)
        rates[0][1] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            DemandMatrix(shape=SHAPE, rates=rates)

    @pytest.mark.parametrize(
        "shape,rates,message",
        [
            ([2, 2, 2], None, "rates must be a list of rows"),
            ([2, 2, 2], [0.0] * 8, "rates must be a list of rows"),
            ("abc", [], r"shape must be 3 positive ints, got 'abc'"),
            ([2, 2], [], "shape must be 3 positive ints"),
            ([2, 0, 2], [], "shape must be 3 positive ints"),
            ([2, True, 2], [], "shape must be 3 positive ints"),
            ([2, 2, 2], [[[0.0]] * 8] * 8, r"rates must be numbers, got \[0\.0\]"),
            ([2, 2, 2], [[True] * 8] * 8, "rates must be numbers, got True"),
            ([2, 2, 2], [["0.5"] * 8] * 8, "rates must be numbers, got '0.5'"),
        ],
    )
    def test_malformed_file_is_refused_by_name(self, shape, rates, message):
        doc = json.dumps({"shape": shape, "rates": rates})
        with pytest.raises(ValueError, match=f"^{message}"):
            DemandMatrix.from_json(doc)

    def test_the_command_prints_one_line_and_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.json"
        path.write_text(json.dumps({"shape": [2, 2, 2], "rates": [[True] * 8] * 8}))
        argv = ["demand", "--shape", "2x2x2", "--generator", "file"]
        assert main(argv + ["--matrix-file", str(path)]) == 1
        assert capsys.readouterr().err == "error: rates must be numbers, got True\n"

    def test_uniform_rows_sum_to_rate_off_diagonal(self):
        matrix = DemandMatrix.uniform(SHAPE, rate=0.4)
        for i, row in enumerate(matrix.rates):
            assert row[i] == 0.0
            assert math.isclose(sum(row), 0.4)

    def test_hotspot_rows_sum_to_rate(self):
        matrix = DemandMatrix.hotspot(
            SHAPE, rate=0.5, hotspots=2, hot_fraction=0.7, seed=3
        )
        for i, row in enumerate(matrix.rates):
            assert row[i] == 0.0
            assert math.isclose(sum(row), 0.5)

    def test_hotspot_concentrates_hot_fraction(self):
        matrix = DemandMatrix.hotspot(
            SHAPE, rate=1.0, hotspots=1, hot_fraction=0.8, seed=0
        )
        # Exactly one column receives the 0.8 share from every non-hot row.
        hot_cols = [
            j
            for j in range(8)
            if sum(matrix.rates[i][j] for i in range(8)) > 1.0
        ]
        assert len(hot_cols) == 1

    def test_generators_are_seed_deterministic(self):
        for maker in (
            lambda s: DemandMatrix.hotspot(SHAPE, 0.3, seed=s),
            lambda s: DemandMatrix.skewed(SHAPE, 0.3, exponent=1.5, seed=s),
            lambda s: DemandMatrix.permutation(SHAPE, seed=s),
        ):
            assert maker(7).rates == maker(7).rates
            assert maker(7).rates != maker(8).rates

    def test_skewed_rows_sum_to_rate(self):
        matrix = DemandMatrix.skewed(SHAPE, rate=0.25, exponent=2.0, seed=1)
        for row in matrix.rates:
            assert math.isclose(sum(row), 0.25)

    def test_permutation_is_one_hot_derangement(self):
        matrix = DemandMatrix.permutation(SHAPE, rate=0.9, seed=4)
        cols = []
        for i, row in enumerate(matrix.rates):
            nonzero = [j for j, v in enumerate(row) if v > 0]
            assert nonzero != [i]
            assert len(nonzero) == 1
            assert row[nonzero[0]] == 0.9
            cols.append(nonzero[0])
        assert sorted(cols) == list(range(8))

    def test_from_mapping_round_trip(self):
        nodes = list(all_coords(SHAPE))
        mapping = {nodes[i]: nodes[(i + 1) % 8] for i in range(8)}
        matrix = DemandMatrix.from_mapping(SHAPE, mapping, rate=0.5)
        index = matrix.node_index()
        for src, dst in mapping.items():
            assert matrix.rates[index[src]][index[dst]] == 0.5
        with pytest.raises(ValueError, match="permutation"):
            DemandMatrix.from_mapping(SHAPE, {nodes[0]: nodes[1]})

    def test_json_round_trip(self):
        matrix = DemandMatrix.hotspot(SHAPE, 0.3, seed=2)
        again = DemandMatrix.from_json(matrix.to_json())
        assert again == matrix

    def test_scaled(self):
        matrix = DemandMatrix.uniform(SHAPE, rate=0.4)
        assert math.isclose(matrix.scaled(0.5).row_sum(0), 0.2)
        with pytest.raises(ValueError):
            matrix.scaled(-1.0)


class TestDemandSchedule:
    def test_validation(self):
        base = DemandMatrix.uniform(SHAPE, 0.2)
        with pytest.raises(ValueError, match="start at cycle 0"):
            DemandSchedule(epochs=((5, base),))
        with pytest.raises(ValueError, match="strictly increase"):
            DemandSchedule(epochs=((0, base), (0, base)))
        other = DemandMatrix.uniform((2, 2, 1), 0.2)
        with pytest.raises(ValueError, match="one shape"):
            DemandSchedule(epochs=((0, base), (10, other)))

    def test_matrix_at_and_spans(self):
        a = DemandMatrix.uniform(SHAPE, 0.1)
        b = DemandMatrix.uniform(SHAPE, 0.2)
        sched = DemandSchedule.from_matrices([a, b], epoch_length=32)
        assert sched.matrix_at(0) is a
        assert sched.matrix_at(31) is a
        assert sched.matrix_at(32) is b
        assert sched.spans(48) == [(0, 32, 0), (32, 48, 1)]
        assert sched.spans(16) == [(0, 16, 0)]

    def test_as_schedule(self):
        matrix = DemandMatrix.uniform(SHAPE, 0.1)
        assert as_schedule(matrix).epochs == ((0, matrix),)
        with pytest.raises(TypeError):
            as_schedule("nope")


class TestDemandMatrixPattern:
    def test_destinations_are_normalized_rows(self):
        matrix = DemandMatrix.hotspot(SHAPE, 0.5, seed=1)
        pattern = DemandMatrixPattern(matrix)
        assert not pattern.node_symmetric
        for src in matrix.nodes():
            probs = [p for _dst, p in pattern.destinations(src)]
            assert math.isclose(sum(probs), 1.0)

    def test_zero_row_cannot_sample(self):
        import random

        rates = [[0.0] * 8 for _ in range(8)]
        rates[1][0] = 1.0
        pattern = DemandMatrixPattern(DemandMatrix(shape=SHAPE, rates=rates))
        with pytest.raises(ValueError, match="zero demand"):
            pattern.sample(random.Random(0), (0, 0, 0))


def open_spec(injection="paced", rate=0.4, seed=0, duration=48):
    base = DemandMatrix.hotspot(SHAPE, rate=rate, seed=3)
    shifted = DemandMatrix.hotspot(SHAPE, rate=rate, hotspots=2, seed=4)
    return DemandSpec(
        demand=DemandSchedule(epochs=((0, base), (duration // 2, shifted))),
        cores_per_chip=2,
        mode="open",
        duration_cycles=duration,
        injection=injection,
        seed=seed,
    )


class TestGenerateDemand:
    def test_deterministic(self):
        machine, routes = setup()
        spec = open_spec(injection="bernoulli", seed=11)
        a = generate_demand(machine, routes, spec)
        b = generate_demand(machine, routes, spec)
        assert [
            (p.pid, p.release_cycle, p.route.hops) for p in a
        ] == [(p.pid, p.release_cycle, p.route.hops) for p in b]

    def test_closed_counts_match_row_sums(self):
        machine, routes = setup()
        matrix = DemandMatrix.hotspot(SHAPE, rate=0.5, seed=5)
        spec = DemandSpec(
            demand=matrix, cores_per_chip=2, mode="closed", packets_scale=6.0
        )
        packets = generate_demand(machine, routes, spec)
        index = matrix.node_index()
        per_source = {}
        for packet in packets:
            assert packet.release_cycle == 0
            per_source[packet.route.src] = (
                per_source.get(packet.route.src, 0) + 1
            )
        for src in active_endpoints(machine, 2):
            chip = machine.components[src].chip
            expected = int(round(6.0 * matrix.row_sum(index[chip])))
            assert per_source.get(src, 0) == expected

    def test_paced_offered_load_never_exceeds_row_sums(self):
        machine, routes = setup()
        spec = open_spec(injection="paced", rate=0.7, duration=64)
        packets = generate_demand(machine, routes, spec)
        schedule = spec.schedule
        index = schedule.epochs[0][1].node_index()
        per_source = {}
        for packet in packets:
            per_source[packet.route.src] = (
                per_source.get(packet.route.src, 0) + 1
            )
        for src in active_endpoints(machine, 2):
            chip = machine.components[src].chip
            budget = sum(
                (end - start)
                * min(1.0, schedule.epochs[k][1].row_sum(index[chip]))
                for start, end, k in schedule.spans(64)
            )
            assert per_source.get(src, 0) <= budget + 1e-9

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.05, max_value=1.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_paced_bound_holds_for_any_rate(self, seed, rate):
        machine, routes = setup()
        matrix = DemandMatrix.hotspot(SHAPE, rate=rate, seed=seed % 97)
        spec = DemandSpec(
            demand=matrix,
            cores_per_chip=2,
            mode="open",
            duration_cycles=40,
            injection="paced",
            seed=seed,
        )
        packets = generate_demand(machine, routes, spec)
        cap = 40 * min(1.0, rate)
        per_source = {}
        for packet in packets:
            per_source[packet.route.src] = (
                per_source.get(packet.route.src, 0) + 1
            )
        assert all(n <= cap + 1e-9 for n in per_source.values())

    def test_release_cycles_respect_epoch_spans(self):
        machine, routes = setup()
        spec = open_spec(injection="bernoulli", duration=48)
        packets = generate_demand(machine, routes, spec)
        assert packets
        assert all(0 <= p.release_cycle < 48 for p in packets)

    def test_shape_mismatch_rejected(self):
        machine, routes = setup()
        spec = DemandSpec(
            demand=DemandMatrix.uniform((2, 2, 1), 0.2),
            cores_per_chip=2,
            mode="open",
            duration_cycles=16,
        )
        with pytest.raises(ValueError, match="does not match machine"):
            generate_demand(machine, routes, spec)


class TestConservation:
    """generated == delivered + dropped, healthy and faulted."""

    def test_healthy_closed_loop_conserves_packets(self):
        machine, routes = setup()
        matrix = DemandMatrix.hotspot(SHAPE, rate=0.5, seed=6)
        spec = DemandSpec(
            demand=matrix, cores_per_chip=2, mode="closed", packets_scale=8.0
        )
        generated = len(generate_demand(machine, routes, spec))
        stats = run(RunSpec(machine.config, spec), machine=machine)
        assert stats.injected == generated
        assert stats.dropped == 0
        assert stats.delivered == generated

    def test_healthy_open_loop_conserves_packets(self):
        machine, routes = setup()
        spec = open_spec(injection="bernoulli", rate=0.5, seed=2)
        generated = len(generate_demand(machine, routes, spec))
        stats = run(RunSpec(machine.config, spec), machine=machine)
        assert stats.injected == generated
        assert stats.delivered + stats.dropped == generated
        assert stats.dropped == 0

    @pytest.mark.parametrize("policy", ["reroute", "drop", "retry"])
    def test_faulted_runs_conserve_packets(self, policy):
        machine, _routes = setup()
        torus = failable_channels(machine)
        fault_set = FaultSet(
            specs=(
                FaultSpec(kind="link", channel=torus[1], down_cycle=4),
                FaultSpec(
                    kind="link",
                    channel=torus[len(torus) // 3],
                    down_cycle=10,
                    up_cycle=30,
                ),
            ),
            shape=SHAPE,
        )
        runtime = FaultRuntime(
            machine,
            fault_set,
            policy=FaultPolicy(mode=policy, max_retries=3),
        )
        spec = open_spec(injection="bernoulli", rate=0.5, seed=9)
        generated = len(
            generate_demand(machine, runtime.route_computer, spec)
        )
        stats = run(
            RunSpec(machine.config, spec), machine=machine,
            route_computer=runtime.route_computer, faults=runtime,
        )
        # Drops can happen at the source (never injected) and retries
        # re-inject, so ``injected`` counts injection *attempts*:
        # generated minus source drops plus re-injections. Every
        # generated packet is still accounted for exactly once as
        # delivered or dropped.
        assert stats.delivered + stats.dropped == generated
        assert stats.injected - stats.retried <= generated
        assert stats.delivered <= stats.injected


class TestDemandRun:
    def test_trace_bytes_are_deterministic(self):
        machine, _routes = setup()

        def trace_bytes():
            stream = io.StringIO()
            writer = JsonlTraceWriter(stream, meta={"run": "demand-test"})
            run(
                RunSpec(machine.config, open_spec(seed=5)), machine=machine,
                trace=writer,
            )
            writer.flush()
            return stream.getvalue()

        first = trace_bytes()
        assert first == trace_bytes()
        assert '"ev":"inject"' in first.replace(" ", "")

    def test_iw_arbitration_runs(self):
        machine, _routes = setup()
        matrix = DemandMatrix.hotspot(SHAPE, rate=0.4, seed=8)
        spec = DemandSpec(
            demand=matrix, cores_per_chip=2, mode="closed", packets_scale=4.0
        )
        stats = run(RunSpec(machine.config, spec, "iw"), machine=machine)
        assert stats.delivered == stats.injected > 0


class TestSweepIntegration:
    def test_measure_demand_point_via_run_sweep(self):
        spec = DemandSpec(
            demand=DemandMatrix.hotspot(SHAPE, rate=0.4, seed=1),
            cores_per_chip=2,
            mode="open",
            duration_cycles=32,
            injection="paced",
            seed=3,
        )
        # The point is its run; its result is labelled by the schedule.
        point = RunSpec(MachineConfig(shape=SHAPE, endpoints_per_chip=2), spec)
        points = [
            SweepPoint(
                label="demand-sweep",
                fn=measure_demand_point,
                kwargs={"point": point},
            )
        ]
        serial = run_sweep(points, max_workers=1)
        parallel = run_sweep(points, max_workers=2)
        assert serial[0].error is None and parallel[0].error is None
        assert serial[0].value == parallel[0].value
        result = serial[0].value
        assert result.generated == result.delivered + result.dropped
        assert result.offered_rate <= spec.schedule.epochs[0][1].max_row_sum()
        assert result.label == spec.schedule.name
        assert json.loads(json.dumps(result.__dict__))  # plain-data result

    def test_demand_point_runs_on_the_shared_machine(self, monkeypatch):
        from repro.sim import simulator

        config = MachineConfig(shape=SHAPE, endpoints_per_chip=2)
        shared, _ = simulator.shared_machine(config)
        built = []
        monkeypatch.setattr(
            Machine, "__init__", lambda *args, **kwargs: built.append(args)
        )
        spec = DemandSpec(
            demand=DemandMatrix.uniform(SHAPE, 0.2), cores_per_chip=2,
            mode="closed", packets_scale=4.0,
        )
        engines = []
        build = simulator.build

        def recording_build(run, machine, *args, **kwargs):
            engines.append(machine)
            return build(run, machine, *args, **kwargs)

        monkeypatch.setattr(simulator, "build", recording_build)
        result = measure_demand_point(RunSpec(config, spec, "iw"))
        assert result.delivered == result.generated > 0
        assert built == [] and engines == [shared]
