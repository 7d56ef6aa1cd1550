"""Tests for the throughput experiment harnesses."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import throughput
from repro.analysis.throughput import (
    BatchPoint,
    blend_sweep,
    measure_batch_point,
    measure_run,
    throughput_vs_batch_size,
)
from repro.core.chip import default_floorplan
from repro.core.geometry import all_coords
from repro.core.machine import Machine, MachineConfig
from repro.core.onchip import MeshDirection
from repro.core.routing import RouteComputer
from repro.sim import simulator
from repro.sim.checkpoint import canonical
from repro.sim.simulator import RunSpec
from repro.traffic import loads
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import (
    Blend,
    FixedPermutation,
    ReverseTornado,
    Tornado,
    UniformRandom,
)


def _measure(machine, routes, pattern, batch_size, arbitration, **kwargs):
    spec = BatchSpec(pattern, batch_size, cores_per_chip=2)
    return measure_run(
        RunSpec(machine.config, spec, arbitration),
        machine=machine, route_computer=routes, **kwargs,
    )


class TestMeasureRun:
    def test_returns_sane_point(self, tiny_machine, tiny_routes):
        pattern = UniformRandom((2, 2, 2))
        point = _measure(tiny_machine, tiny_routes, pattern, 8, "rr")
        assert point.pattern == "uniform"
        assert point.arbitration == "rr"
        assert 0 < point.normalized_throughput <= 1.5
        assert point.completion_cycles > 0

    def test_iw_defaults_weights_to_pattern(self, tiny_machine, tiny_routes):
        pattern = Tornado((2, 2, 2))
        point = _measure(tiny_machine, tiny_routes, pattern, 8, "iw")
        assert point.arbitration == "iw"

    def test_label_override(self, tiny_machine, tiny_routes):
        pattern = UniformRandom((2, 2, 2))
        point = _measure(
            tiny_machine, tiny_routes, pattern, 4, "rr", label="none"
        )
        assert point.arbitration == "none"


class TestSweeps:
    def test_batch_size_sweep_structure(self, tiny_machine, tiny_routes):
        pattern = UniformRandom((2, 2, 2))
        points = throughput_vs_batch_size(
            tiny_machine, tiny_routes, [pattern], batch_sizes=(4, 8),
            cores_per_chip=2,
        )
        assert len(points) == 2 * 2  # sizes x (rr, iw)
        assert {p.arbitration for p in points} == {"rr", "iw"}
        assert {p.batch_size for p in points} == {4, 8}

    def test_blend_sweep_structure(self, tiny_machine, tiny_routes):
        points = blend_sweep(
            tiny_machine, tiny_routes,
            Tornado((2, 2, 2)), ReverseTornado((2, 2, 2)),
            fractions=(1.0, 0.0), batch_size=6, cores_per_chip=2,
        )
        assert len(points) == 2 * 4
        labels = {p.arbitration for p in points}
        assert labels == {"none", "forward", "reverse", "both"}

    def test_blend_sweep_pattern_names_carry_fraction(
        self, tiny_machine, tiny_routes
    ):
        points = blend_sweep(
            tiny_machine, tiny_routes,
            Tornado((2, 2, 2)), ReverseTornado((2, 2, 2)),
            fractions=(0.5,), batch_size=4, cores_per_chip=2,
        )
        assert all(p.pattern.startswith("0.50") for p in points)


def _ring_shift(shape, step):
    kx = shape[0]
    return {
        (x, y, z): ((x + step) % kx, y, z) for x, y, z in all_coords(shape)
    }


class TestCacheKeysAreContent:
    """The simulator's memo keys on what a pattern *is*, not its name."""

    SHAPE = (5, 1, 1)

    def _ideal(self, point_spec):
        result = measure_batch_point(point_spec)
        return result.normalized_throughput * result.completion_cycles

    def test_same_named_permutations_get_their_own_loads(self, monkeypatch):
        config = MachineConfig(shape=self.SHAPE, endpoints_per_chip=1)
        near = FixedPermutation(self.SHAPE, _ring_shift(self.SHAPE, 1))
        far = FixedPermutation(self.SHAPE, _ring_shift(self.SHAPE, 2))
        assert near.name == far.name == "permutation"
        ideals = {}
        for key, pattern in (("near", near), ("far", far)):
            for arbitration in ("rr", "iw"):
                ideals[key, arbitration] = self._ideal(BatchPoint(
                    config=config, pattern=pattern, batch_size=4,
                    cores_per_chip=1, arbitration=arbitration,
                ))
        # Two hops load every link twice as much as one.
        assert ideals["far", "rr"] == pytest.approx(2 * ideals["near", "rr"])
        assert ideals["far", "iw"] == ideals["far", "rr"]
        # And each agrees with a run prepared on an empty memo.
        point = BatchPoint(
            config=config, pattern=far, batch_size=4, cores_per_chip=1,
            arbitration="iw",
        )
        cached = measure_batch_point(point)
        monkeypatch.setattr(simulator, "_MEMO", {})
        machine = Machine(config)
        direct = measure_run(
            point.run, machine=machine, route_computer=RouteComputer(machine)
        )
        assert cached.normalized_throughput == direct.normalized_throughput
        assert cached.completion_cycles == direct.completion_cycles

    def test_blends_closer_than_two_decimals_are_distinct_keys(
        self, monkeypatch
    ):
        monkeypatch.setattr(simulator, "_MEMO", {})
        shape = (2, 2, 2)
        parts = [Tornado(shape), ReverseTornado(shape)]
        a = Blend(parts, [0.501, 0.499])
        b = Blend(parts, [0.504, 0.496])
        assert a.name == b.name
        pair = simulator.shared_machine(
            MachineConfig(shape=shape, endpoints_per_chip=2)
        )
        (for_a,) = simulator.loads_of(*pair, [a], 2)
        (for_b,) = simulator.loads_of(*pair, [b], 2)
        (again,) = simulator.loads_of(*pair, [Blend(parts, [0.501, 0.499])], 2)
        assert for_b is not for_a and again is for_a
        assert len([key for key in simulator._MEMO if key[0] == "loads"]) == 2


class TestCampaignSetupHappensOnce:
    """The parent prepares; forked workers inherit; nothing is rebuilt."""

    def test_parent_holds_the_callers_machine_and_the_tables(self, monkeypatch):
        monkeypatch.setattr(simulator, "_MEMO", {})
        shape = (3, 2, 1)
        machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        routes = RouteComputer(machine)
        patterns = [UniformRandom(shape), Tornado(shape)]

        def count_calls(owner, name):
            """Pids of the processes that called ``owner.name``."""
            pids, original = [], getattr(owner, name)

            def counted(*args, **kwargs):
                pids.append(os.getpid())
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
            return pids

        built = count_calls(Machine, "__init__")
        enumerated = count_calls(loads, "compute_loads")

        def campaign():
            return throughput_vs_batch_size(
                machine, routes, patterns, batch_sizes=(2, 4),
                cores_per_chip=2, max_workers=2,
            )

        first = campaign()
        assert simulator.shared_machine(machine.config) == (machine, routes)
        assert [key for key in simulator._MEMO if key[0] == "machine"] == [
            ("machine", machine.config)
        ]
        assert {key[3] for key in simulator._MEMO if key[0] == "loads"} == {
            (canonical(pattern),) for pattern in patterns
        }
        assert [key[3] for key in simulator._MEMO if key[0] == "tables"] == [
            (canonical(patterns[0]),)
        ]
        assert enumerated == [os.getpid()] * len(patterns)
        second = campaign()
        assert built == [] and len(enumerated) == len(patterns)
        assert [dataclasses.replace(p, wall_seconds=0) for p in first] == [
            dataclasses.replace(p, wall_seconds=0) for p in second
        ]

    def test_a_campaign_refuses_a_pair_its_config_does_not_describe(
        self, monkeypatch
    ):
        # It used to decline the pair without a word and measure the
        # stock one: a reordered router's campaign reported the Anton
        # order's cycle counts.
        monkeypatch.setattr(simulator, "_MEMO", {})
        shape = (2, 2, 2)
        config = MachineConfig(shape=shape, endpoints_per_chip=2)
        plan = default_floorplan(num_endpoints=2)
        moved = dataclasses.replace(
            plan, endpoint_router=tuple(reversed(plan.endpoint_router))
        )
        custom = Machine(config, floorplan=moved)
        stock = Machine(config)
        reordered = RouteComputer(stock, direction_order=(
            MeshDirection.VM, MeshDirection.UM, MeshDirection.VP, MeshDirection.UP,
        ))
        monkeypatch.setattr(
            throughput, "run_sweep", lambda *args, **kwargs: pytest.fail("a point ran")
        )
        pattern = UniformRandom(shape)
        for machine, routes in (
            (custom, RouteComputer(custom)),
            (stock, reordered),
            (stock, RouteComputer(stock, allow_nonminimal=True)),
            (stock, RouteComputer(Machine(config))),
        ):
            with pytest.raises(ValueError, match="takes the pair itself"):
                throughput_vs_batch_size(machine, routes, [pattern], (2,), 2)
            with pytest.raises(ValueError, match="takes the pair itself"):
                blend_sweep(
                    machine, routes, pattern, Tornado(shape), (0.5,), 2, 2
                )
        assert simulator._MEMO == {}
        # measure_run does take it, and measures it.
        point = measure_run(
            RunSpec(config, BatchSpec(pattern, 4, 2), "iw"),
            machine=stock, route_computer=reordered,
        )
        assert point.completion_cycles > 0 and simulator._MEMO == {}
        # The stock pair is adopted: the campaign runs on the caller's.
        routes = RouteComputer(stock)
        simulator.share_machine(stock, routes)
        assert simulator.shared_machine(config) == (stock, routes)


_SPAWN_SCRIPT = textwrap.dedent(
    """
    import dataclasses, multiprocessing

    def fields(point):
        out = dataclasses.asdict(point)
        del out["wall_seconds"]
        return out

    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        from repro.analysis.throughput import (
            BatchPoint, measure_batch_point, run_batch_points,
        )
        from repro.core.machine import MachineConfig
        from repro.traffic.patterns import Tornado, UniformRandom

        shape = (2, 2, 2)
        config = MachineConfig(shape=shape, endpoints_per_chip=2)
        points = [
            BatchPoint(
                config=config, pattern=pattern, batch_size=8,
                cores_per_chip=2, arbitration=arbitration,
                weight_patterns=(UniformRandom(shape),), seed=5,
                collect_metrics=True,
            )
            for pattern in (UniformRandom(shape), Tornado(shape))
            for arbitration in ("rr", "iw")
        ]
        fanned = run_batch_points(points, max_workers=2)
        serial = [measure_batch_point(point) for point in points]
        assert [fields(p) for p in fanned] == [fields(p) for p in serial]
        print("spawn == serial")
    """
)


def test_parallel_campaign_matches_serial_under_spawn(tmp_path):
    """Nothing a pool worker needs may reach it only through fork."""
    script = tmp_path / "spawn_campaign.py"
    script.write_text(_SPAWN_SCRIPT)
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "spawn == serial"
