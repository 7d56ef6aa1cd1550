"""Engine-throughput microbenchmark: the repo's perf-regression anchor.

Measures the cycle-level engine's raw scheduling throughput -- simulated
cycles per wall-clock second, scheduler events per second, and delivered
packets per second -- on three canonical configurations chosen to pin the
three hot paths:

* ``uniform_4x4x2_sat`` -- uniform random batch at saturation with
  round-robin arbitration: the SA1/SA2 arbitration scan and the
  credit/arrival event path (the acceptance config for engine perf work);
* ``tornado_4x4x1_iw`` -- tornado with inverse-weighted arbitration at
  both stages: the weight-table arbiter path under sustained torus
  serialization;
* ``faulted_4x4x2_reroute`` -- uniform batch with two scheduled mid-run
  link faults under the reroute policy: the fault gates on the hot path
  plus the sweep/re-route machinery;
* ``uniform_8x8x8_sat`` -- the same saturation workload at full Anton 2
  machine scale (512 nodes): the widest active set, where the
  per-cycle scan over components dominates;
* ``demand_4x4x2_hotspot`` -- an open-loop two-epoch hotspot demand
  matrix: staggered release cycles keep the source queues live across
  the whole run, exercising the wake/injection path the all-at-cycle-0
  batch configs never stress.

Because the engine is bit-deterministic, every run of a config simulates
*exactly* the same cycles and events; only the wall time varies. Each
config is run ``--repeat`` times and the fastest run is kept (the usual
microbenchmark convention: minimum wall time has the least scheduler
noise).

Usage::

    python benchmarks/bench_engine_throughput.py --out BENCH_engine.json
    python benchmarks/bench_engine_throughput.py --check BENCH_engine.json

``--check`` re-measures and soft-gates against a committed baseline:
exit status 2 (and a GitHub-annotation-formatted warning) if any config's
cycles/sec *or* events/sec fell more than ``--tolerance`` (default 30%)
below the baseline. CI runs this as a non-blocking perf-smoke job.

``--sharded`` adds a ``configs_sharded`` section measuring
``uniform_8x8x8_sat`` decomposed over the conservative-lookahead shard
runner (:mod:`repro.sim.shard`) at shard counts 1/2/4. Every entry,
the ``shards=1`` anchor included, reports the *whole call* a caller
holding a ``Machine`` pays (``wall_s``) and its named terms:
``generate_s`` (workload generation), ``spawn_s`` (engine builds: worker
start through the last ``ready``), their sum ``setup_s``, and
``windows_s`` (the run itself: barrier loop through final stats merge).
``speedup_vs_serial`` compares whole calls; ``window_speedup_vs_serial``
compares only the phase that scales with cores. Every sharded run is
verified bit-identical to the serial anchor before its rate is
reported. The section records ``cpu_count``: shard workers are OS
processes, so nothing speeds up unless the host has as many cores as
shards. The gate for this section is structural and soft -- on a
>= 4-core host, 4 shards must deliver >= 3x the serial whole-call rate;
hosts with fewer cores (like some CI runners) compare only against
their own committed baseline numbers.

"events" counts scheduler work items: every departure schedules one
arrival and (directly or at delivery) one credit return, so a run
processes ``2 * total_departs`` timing-wheel events, where
``total_departs = sum(channel_flits) / size_flits``. The count is derived
from the (deterministic) run statistics rather than a hot-loop counter,
so measuring it costs nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.engine import Engine
from repro.sim.simulator import arbiter_builder_for, make_vc_weight_tables, make_weight_tables
from repro.sim.stats import SimStats
from repro.traffic.batch import BatchSpec, generate_batch

BENCH_SCHEMA_VERSION = 1

#: Default committed-baseline location (repo root).
DEFAULT_BASELINE = "BENCH_engine.json"


def _uniform_4x4x2_sat() -> Tuple[Callable[[], Engine], List]:
    from repro.traffic.patterns import UniformRandom

    machine = Machine(MachineConfig(shape=(4, 4, 2), endpoints_per_chip=2))
    routes = RouteComputer(machine)
    spec = BatchSpec(
        UniformRandom((4, 4, 2)), packets_per_source=64, cores_per_chip=2, seed=1
    )
    packets = generate_batch(machine, routes, spec)
    return (lambda: Engine(machine)), packets


def _tornado_4x4x1_iw() -> Tuple[Callable[[], Engine], List]:
    from repro.traffic.patterns import Tornado

    machine = Machine(MachineConfig(shape=(4, 4, 1), endpoints_per_chip=2))
    routes = RouteComputer(machine)
    pattern = Tornado((4, 4, 1))
    spec = BatchSpec(pattern, packets_per_source=64, cores_per_chip=2, seed=2)
    packets = generate_batch(machine, routes, spec)
    weight_tables = make_weight_tables(machine, routes, [pattern], 2)
    vc_weight_tables = make_vc_weight_tables(machine, routes, [pattern], 2)
    builder = arbiter_builder_for("iw", weight_tables)
    vc_builder = arbiter_builder_for("iw", vc_weight_tables)
    return (
        lambda: Engine(machine, arbiter_builder=builder, vc_arbiter_builder=vc_builder)
    ), packets


def _faulted_4x4x2_reroute() -> Tuple[Callable[[], Engine], List]:
    from repro.faults import FaultRuntime, FaultSet, FaultSpec
    from repro.faults.model import failable_channels
    from repro.traffic.patterns import UniformRandom

    machine = Machine(MachineConfig(shape=(4, 4, 2), endpoints_per_chip=2))
    torus = failable_channels(machine)
    fault_set = FaultSet(
        specs=(
            FaultSpec(kind="link", channel=torus[3], down_cycle=40),
            FaultSpec(
                kind="link",
                channel=torus[len(torus) // 2],
                down_cycle=80,
                up_cycle=160,
            ),
        ),
        shape=(4, 4, 2),
        note="engine-throughput bench",
    )

    def build() -> Engine:
        # The runtime holds mutable per-run state (the fault-aware route
        # cache), so each repetition gets a fresh one.
        runtime = FaultRuntime(machine, fault_set)
        return Engine(machine, faults=runtime)

    probe = FaultRuntime(machine, fault_set)
    routes = probe.route_computer
    spec = BatchSpec(
        UniformRandom((4, 4, 2)), packets_per_source=48, cores_per_chip=2, seed=3
    )
    packets = generate_batch(machine, routes, spec)
    return build, packets


def _uniform_8x8x8_sat() -> Tuple[Callable[[], Engine], List]:
    from repro.traffic.patterns import UniformRandom

    machine = Machine(MachineConfig(shape=(8, 8, 8), endpoints_per_chip=2))
    routes = RouteComputer(machine)
    spec = BatchSpec(
        UniformRandom((8, 8, 8)), packets_per_source=8, cores_per_chip=2, seed=4
    )
    packets = generate_batch(machine, routes, spec)
    return (lambda: Engine(machine)), packets


def _uniform_mesh_6x6_sat() -> Tuple[Callable[[], Engine], List]:
    from repro.traffic.patterns import UniformRandom

    machine = Machine(
        MachineConfig(shape=(6, 6), endpoints_per_chip=2, topology="mesh")
    )
    routes = RouteComputer(machine)
    spec = BatchSpec(
        UniformRandom(machine.config.shape),
        packets_per_source=32,
        cores_per_chip=2,
        seed=6,
    )
    packets = generate_batch(machine, routes, spec)
    return (lambda: Engine(machine)), packets


def _demand_4x4x2_hotspot() -> Tuple[Callable[[], Engine], List]:
    from repro.traffic.demand import (
        DemandMatrix,
        DemandSchedule,
        DemandSpec,
        generate_demand,
    )

    machine = Machine(MachineConfig(shape=(4, 4, 2), endpoints_per_chip=2))
    routes = RouteComputer(machine)
    matrices = [
        DemandMatrix.hotspot(
            (4, 4, 2), rate=0.6, hotspots=2, hot_fraction=0.6, seed=k
        )
        for k in range(2)
    ]
    spec = DemandSpec(
        demand=DemandSchedule.from_matrices(matrices, 64),
        cores_per_chip=2,
        mode="open",
        duration_cycles=128,
        injection="bernoulli",
        seed=5,
    )
    packets = generate_demand(machine, routes, spec)
    return (lambda: Engine(machine)), packets


#: name -> (workload factory, human description). Factories are called
#: once; each repetition re-clones packets into a fresh engine.
CONFIGS: Dict[str, Tuple[Callable, str]] = {
    "uniform_4x4x2_sat": (
        _uniform_4x4x2_sat,
        "uniform batch x64, 4x4x2, rr (saturation; the acceptance config)",
    ),
    "tornado_4x4x1_iw": (
        _tornado_4x4x1_iw,
        "tornado batch x64, 4x4x1, inverse-weighted both stages",
    ),
    "faulted_4x4x2_reroute": (
        _faulted_4x4x2_reroute,
        "uniform batch x48, 4x4x2, 2 scheduled link faults, reroute policy",
    ),
    "uniform_8x8x8_sat": (
        _uniform_8x8x8_sat,
        "uniform batch x8, 8x8x8 (512 nodes), rr (full machine scale)",
    ),
    "demand_4x4x2_hotspot": (
        _demand_4x4x2_hotspot,
        "open-loop hotspot demand r0.6, 2 epochs x64 cycles, 4x4x2, rr",
    ),
    # Absent from BENCH_engine.json on purpose: check_against ignores
    # configs present on only one side, so this leg measures the mesh
    # topology without perturbing the committed torus baseline.
    "uniform_mesh_6x6_sat": (
        _uniform_mesh_6x6_sat,
        "uniform batch x32, 6x6 standalone mesh, rr (line-dimension leg)",
    ),
}


def _clone_packets(packets: List) -> List:
    """Fresh Packet objects for one repetition (engines mutate packets)."""
    from repro.sim.packet import Packet

    clones = []
    for p in packets:
        clone = Packet(
            p.pid,
            p.route,
            size_flits=p.size_flits,
            pattern=p.pattern,
            traffic_class=p.traffic_class,
            release_cycle=p.release_cycle,
        )
        clones.append(clone)
    return clones


def _scheduler_events(stats: SimStats, size_flits: int = 1) -> int:
    total_departs = sum(stats.channel_flits.values()) // size_flits
    return 2 * total_departs


def run_config(name: str, repeat: int = 3) -> dict:
    """Measure one config; returns its result record (deterministic
    counts, minimum wall time over ``repeat`` runs)."""
    factory, description = CONFIGS[name]
    make_engine, packets = factory()
    best_wall: Optional[float] = None
    stats: Optional[SimStats] = None
    for _ in range(repeat):
        engine = make_engine()
        batch = _clone_packets(packets)
        start = time.perf_counter()
        for packet in batch:
            engine.enqueue(packet)
        run_stats = engine.run()
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
        stats = run_stats
    assert stats is not None and best_wall is not None
    events = _scheduler_events(stats)
    return {
        "description": description,
        "cycles": stats.end_cycle,
        "delivered": stats.delivered,
        "events": events,
        "wall_s": round(best_wall, 6),
        "cycles_per_s": round(stats.end_cycle / best_wall, 1),
        "events_per_s": round(events / best_wall, 1),
        "packets_per_s": round(stats.delivered / best_wall, 1),
    }


#: Shard counts measured by the sharded section (1 is the serial anchor).
SHARDED_COUNTS = (1, 2, 4)


def _timed_serial(run, machine: Machine) -> Tuple[SimStats, dict]:
    """What ``run_sharded(run, 1)`` does for a healthy rr batch (route
    computer, generate, build, run), timed stage by stage under the
    sharded runner's term names."""
    from repro.sim.simulator import build

    t_start = time.perf_counter()
    routes = RouteComputer(machine)
    packets = generate_batch(machine, routes, run.spec)
    t_generated = time.perf_counter()
    engine = build(run, machine, routes, packets=packets)
    t_built = time.perf_counter()
    stats = engine.run()
    return stats, {
        "generate_s": t_generated - t_start,
        "spawn_s": t_built - t_generated,
        "setup_s": t_built - t_start,
        "windows_s": time.perf_counter() - t_built,
    }


def run_sharded_config(repeat: int = 3, transport: str = "process") -> dict:
    """Measure ``uniform_8x8x8_sat`` decomposed over the shard runner.

    Every shard count is timed over one boundary: the whole call, from a
    built ``Machine`` to merged stats (``wall_s``, fastest of ``repeat``),
    with that run's ``timings`` terms beside it. ``cycles_per_s`` and
    ``speedup_vs_serial`` are whole-call figures -- what a caller gets;
    the ``window_*`` pair isolates the phase that scales with cores.
    ``cpu_count`` is recorded alongside: shard workers time-slice on a
    host with fewer cores than shards. Every sharded run is also checked
    bit-identical to the serial anchor -- a throughput number from a
    divergent simulation would be meaningless.
    """
    from repro.sim.shard import ShardedRun, run_sharded
    from repro.traffic.patterns import UniformRandom

    config = MachineConfig(shape=(8, 8, 8), endpoints_per_chip=2)
    spec = BatchSpec(
        UniformRandom((8, 8, 8)), packets_per_source=8, cores_per_chip=2, seed=4
    )
    machine = Machine(config)
    run = ShardedRun(config=config, spec=spec)

    entries: Dict[str, dict] = {}
    serial: Optional[dict] = None
    serial_dict: Optional[dict] = None
    for shards in SHARDED_COUNTS:
        best: Optional[dict] = None
        stats = None
        for _ in range(repeat):
            start = time.perf_counter()
            if shards == 1:
                stats, timings = _timed_serial(run, machine)
            else:
                timings = {}
                stats = run_sharded(
                    run, shards, machine=machine,
                    transport=transport, timings=timings,
                )
            timings["wall_s"] = time.perf_counter() - start
            if best is None or timings["wall_s"] < best["wall_s"]:
                best = timings
        assert stats is not None and best is not None
        if shards == 1:
            serial, serial_dict = best, stats.asdict()
        elif stats.asdict() != serial_dict:
            raise RuntimeError(
                f"sharded run (shards={shards}) diverged from the serial "
                f"oracle; refusing to report throughput for a wrong answer"
            )
        entries[str(shards)] = {
            "cycles": stats.end_cycle,
            "delivered": stats.delivered,
            **{term: round(best[term], 6) for term in sorted(best)},
            "cycles_per_s": round(stats.end_cycle / best["wall_s"], 1),
            "window_cycles_per_s": round(
                stats.end_cycle / best["windows_s"], 1
            ),
            "speedup_vs_serial": round(serial["wall_s"] / best["wall_s"], 3),
            "window_speedup_vs_serial": round(
                serial["windows_s"] / best["windows_s"], 3
            ),
        }
    return {
        "description": (
            "uniform batch x8, 8x8x8, rr, sharded over the conservative-"
            "lookahead runner (whole-call wall and its terms; shards=1 is "
            "the serial anchor)"
        ),
        "transport": transport,
        "cpu_count": os.cpu_count(),
        "shards": entries,
    }


def run_all(
    repeat: int = 3,
    configs: Optional[List[str]] = None,
    sharded: bool = False,
) -> dict:
    names = configs or list(CONFIGS)
    results = {name: run_config(name, repeat) for name in names}
    out = {
        "schema": BENCH_SCHEMA_VERSION,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "repeat": repeat,
        "configs": results,
    }
    if sharded:
        out["configs_sharded"] = {
            "uniform_8x8x8_sat_sharded": run_sharded_config(repeat=repeat)
        }
    return out


def _rate_drops(
    label: str, base: dict, new: dict, metrics, tolerance: float
) -> List[str]:
    """One message per ``(metric, unit)`` rate in ``new`` that fell more
    than ``tolerance`` below ``base`` (a rate missing on either side is
    skipped)."""
    problems = []
    for metric, unit in metrics:
        base_rate = base.get(metric)
        new_rate = new.get(metric)
        if base_rate is None or new_rate is None:
            continue
        if new_rate < (1.0 - tolerance) * base_rate:
            problems.append(
                f"{label}: {new_rate:,.0f} {unit} is "
                f"{100 * (1 - new_rate / base_rate):.0f}% below the "
                f"baseline {base_rate:,.0f} {unit} "
                f"(tolerance {100 * tolerance:.0f}%)"
            )
    return problems


def check_against(baseline: dict, fresh: dict, tolerance: float) -> List[str]:
    """Compare a fresh measurement against a committed baseline.

    Returns a list of regression messages (empty = within tolerance).
    Configs present in only one of the two are ignored: adding a config
    must not fail the gate retroactively.
    """
    problems = []
    for name, base in baseline.get("configs", {}).items():
        new = fresh.get("configs", {}).get(name)
        if new is None:
            continue
        metrics = (("cycles_per_s", "cycles/s"), ("events_per_s", "events/s"))
        problems.extend(_rate_drops(name, base, new, metrics, tolerance))
    problems.extend(_check_sharded(baseline, fresh, tolerance))
    return problems


def _check_sharded(baseline: dict, fresh: dict, tolerance: float) -> List[str]:
    """Soft-gate the sharded section (when both sides measured it).

    Two kinds of message: per-shard-count regression against the
    committed baseline (same factor tolerance as the scalar configs) of
    both the whole-call rate -- which catches setup creeping back in --
    and the window-phase rate, and a structural check encoding the
    acceptance target -- on a host with at least 4 cores, 4 shards
    should deliver >= 3x the serial whole-call rate. Hosts with fewer
    cores than shards skip the structural check: workers time-slice
    there, so the ratio measures scheduler overhead, not the
    decomposition.
    """
    problems: List[str] = []
    for name, base in baseline.get("configs_sharded", {}).items():
        new = fresh.get("configs_sharded", {}).get(name)
        if new is None:
            continue
        for count, base_rec in base.get("shards", {}).items():
            new_rec = new.get("shards", {}).get(count)
            if new_rec is None:
                continue
            metrics = (
                ("cycles_per_s", "whole-call cycles/s"),
                ("window_cycles_per_s", "window-phase cycles/s"),
            )
            problems.extend(_rate_drops(
                f"{name}[shards={count}]", base_rec, new_rec, metrics, tolerance
            ))
        cores = new.get("cpu_count") or 0
        four = new.get("shards", {}).get("4")
        if cores >= 4 and four is not None and four["speedup_vs_serial"] < 3.0:
            problems.append(
                f"{name}: 4-shard whole-call speedup is "
                f"{four['speedup_vs_serial']:.2f}x on a {cores}-core host "
                f"(target >= 3x)"
            )
    return problems


def _format_table(result: dict) -> str:
    lines = [
        f"{'config':26s} {'cycles':>8s} {'wall_s':>8s} "
        f"{'cycles/s':>10s} {'events/s':>10s} {'packets/s':>10s}"
    ]
    for name, rec in result["configs"].items():
        lines.append(
            f"{name:26s} {rec['cycles']:8d} {rec['wall_s']:8.3f} "
            f"{rec['cycles_per_s']:10,.0f} {rec['events_per_s']:10,.0f} "
            f"{rec['packets_per_s']:10,.0f}"
        )
    for name, rec in result.get("configs_sharded", {}).items():
        lines.append(
            f"{name} (whole call, {rec['cpu_count']} cpu(s), "
            f"{rec['transport']} transport):"
        )
        for count, sub in rec["shards"].items():
            lines.append(
                f"  shards={count:3s} {sub['cycles']:8d} {sub['wall_s']:8.3f} "
                f"{sub['cycles_per_s']:10,.0f}  "
                f"speedup {sub['speedup_vs_serial']:.2f}x  = generate "
                f"{sub['generate_s']:.3f} + spawn {sub['spawn_s']:.3f} + "
                f"windows {sub['windows_s']:.3f} s "
                f"(window speedup {sub['window_speedup_vs_serial']:.2f}x)"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write results JSON here")
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="soft-gate against a committed baseline JSON (exit 2 on regression)",
    )
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--configs", nargs="+", choices=list(CONFIGS), default=None
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional cycles/sec drop before the gate trips",
    )
    parser.add_argument(
        "--soft",
        action="store_true",
        help="report regressions (warnings) but always exit 0 -- for CI "
        "runners whose wall-clock noise exceeds the tolerance",
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="also measure the uniform_8x8x8_sat_sharded section "
        "(shard counts 1/2/4 over the conservative-lookahead runner; "
        "slow -- spawns worker processes per shard count)",
    )
    args = parser.parse_args(argv)

    result = run_all(
        repeat=args.repeat, configs=args.configs, sharded=args.sharded
    )
    print(_format_table(result))

    if args.out:
        with open(args.out, "w") as stream:
            json.dump(result, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)

    if args.check:
        with open(args.check) as stream:
            baseline = json.load(stream)
        problems = check_against(baseline, result, args.tolerance)
        if problems:
            for problem in problems:
                # GitHub Actions annotation format; harmless elsewhere.
                print(f"::warning title=perf regression::{problem}")
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 0 if args.soft else 2
        print(f"within {100 * args.tolerance:.0f}% of {args.check}: ok")
    return 0


# --- pytest entry point (smoke: one fast config, sanity thresholds) ----------


def test_engine_throughput_smoke(report):
    result = run_all(repeat=1, configs=["uniform_4x4x2_sat"])
    rec = result["configs"]["uniform_4x4x2_sat"]
    # Deterministic counts: the run always simulates the same cycles.
    assert rec["delivered"] == 4096
    assert rec["cycles"] > 0 and rec["events"] > 0
    report("engine_throughput_smoke", _format_table(result))


if __name__ == "__main__":
    sys.exit(main())
