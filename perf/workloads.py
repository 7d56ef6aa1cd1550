"""The seven ledger workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
timed :meth:`repeat` (the unit ``cpu_s`` is the median of), optionally
checks itself against a cross-path :meth:`twin`, and in the traced pass
adds the per-layer metrics of the layers it leans on via :meth:`layers`.
Sizes are set so a repeat costs roughly 1-4.5 CPU-s on the bench host and
three to ten of them fit in the benchmark's run length; ``quick`` shrinks
every workload for the smoke test.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.analysis.throughput import BatchPoint, measure_batch_point, throughput_vs_batch_size
from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.faults import FaultRuntime, FaultSet, FaultSpec
from repro.faults.model import failable_channels
from repro.serve.client import ServeClient, ServeError
from repro.serve.session import Session
from repro.sim.checkpoint import (
    load_checkpoint,
    restore_engine,
    run_with_checkpoints,
    save_checkpoint,
)
from repro.sim.metrics import MetricsCollector
from repro.sim.shard import ShardedRun, run_sharded
from repro.sim.simulator import (
    build_batch_engine,
    make_vc_weight_tables,
    make_weight_tables,
    run_batch_sharded,
)
from repro.sim.stats import SimStats
from repro.sim.sweep import SweepPoint, run_sweep
from repro.sim.trace import JsonlTraceWriter, Tee
from repro.traffic.batch import BatchSpec, generate_batch
from repro.traffic.demand import (
    DemandMatrix,
    DemandSchedule,
    DemandSpec,
    build_demand_engine,
    generate_demand,
)
from repro.traffic.loads import compute_loads
from repro.traffic.patterns import Tornado, UniformRandom, pattern_factories

import probes
from measure import Meter, Timed, digest, percentile


@dataclasses.dataclass
class Outcome:
    """What one repeat produced: its digest, size and failed operations."""

    digest: str
    #: Simulated cycles covered (the numerator of ``sim_cycles_per_cpu_s``).
    cycles: int
    attempted: int
    failures: List[str]
    stats: Optional[SimStats] = None


@dataclasses.dataclass
class TraceContext:
    """What the traced pass hands to :meth:`Workload.layers`."""

    meter: Meter
    seed: int
    quick: bool
    #: The untraced reference repeat (its result is an :class:`Outcome`)
    #: and the twin run, if the workload has one.
    repeat: Timed
    twin: Optional[Timed]
    #: Checks made while probing append what failed here.
    failures: List[str]


def sim_outcome(stats: SimStats, generated: int) -> Outcome:
    """Digest a single simulation and check flit conservation."""
    failures = []
    if stats.delivered + stats.dropped != generated:
        failures.append(
            f"conservation: delivered {stats.delivered} + dropped "
            f"{stats.dropped} != generated {generated}"
        )
    return Outcome(digest(stats.asdict()), stats.end_cycle, 1, failures, stats)


def slice_metrics(engine, slice_cycles: int = 16) -> Dict[str, float]:
    """Host CPU per simulated cycle over fixed ``run_for`` slices."""
    costs = []
    while not engine.drained:
        before = engine.cycle
        cpu0 = time.process_time()
        engine.run_for(slice_cycles)
        cost = time.process_time() - cpu0
        if engine.cycle > before:
            costs.append(cost / (engine.cycle - before) * 1e6)
    return {
        "sim.engine.slice_us_per_cycle.p50": percentile(costs, 0.5),
        "sim.engine.slice_us_per_cycle.p95": percentile(costs, 0.95),
    }


class Workload:
    """Interface of a ledger workload (see the module docstring)."""

    def setup(self, seed: int, quick: bool, meter: Meter, scratch: str) -> None:
        raise NotImplementedError

    def repeat(self) -> Outcome:
        raise NotImplementedError

    def twin(self) -> Optional[str]:
        """Digest of the same work on the reference path, if there is one."""
        return None

    def layers(self, ctx: TraceContext) -> Dict[str, float]:
        return {}

    def request_spans(self) -> List[tuple]:
        """(name, perf_counter start, end) of operations the last repeat
        timed itself, to be filed under its span."""
        return []

    def teardown(self) -> None:
        pass


# --- torus512_sat / _fast / _shard2 -------------------------------------------------


class TorusSat(Workload):
    """Uniform-random batch on the full 8x8x8 machine, round-robin.

    ``path`` picks how the identical simulated work is executed:
    ``"engine"`` builds and runs the engine in-process on its default
    (scalar) loop; ``"fastpath"`` does the same with ``REPRO_FASTPATH=1``
    in the environment and passes no ``use_fastpath`` argument, so the
    row survives the flag's removal (it then equals the anchor);
    ``"shard2"`` goes through ``run_batch_sharded`` with two worker
    processes, whole call timed.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def setup(self, seed, quick, meter, scratch):
        if self.path == "fastpath":
            os.environ["REPRO_FASTPATH"] = "1"
        shape = (4, 4, 2) if quick else (8, 8, 8)
        self.machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        self.routes = RouteComputer(self.machine)
        self.spec = BatchSpec(
            UniformRandom(shape), packets_per_source=2 if quick else 4,
            cores_per_chip=2, seed=seed,
        )
        # Warm-up generation: fills the route cache every repeat then hits.
        self.generated = len(generate_batch(self.machine, self.routes, self.spec))

    def fresh_engine(self):
        return build_batch_engine(self.machine, self.routes, self.spec)

    def repeat(self):
        if self.path == "shard2":
            stats = run_batch_sharded(
                self.machine, self.spec, shards=2, transport="process"
            )
        else:
            stats = self.fresh_engine().run()
        return sim_outcome(stats, self.generated)

    def twin(self):
        if self.path == "engine":
            return None  # this *is* the reference path
        saved = os.environ.pop("REPRO_FASTPATH", None)
        try:
            return digest(self.fresh_engine().run().asdict())
        finally:
            if saved is not None:
                os.environ["REPRO_FASTPATH"] = saved

    def layers(self, ctx):
        out = {"traffic.batch.packets": self.generated}
        if self.path == "shard2":
            run = ShardedRun(config=self.machine.config, spec=self.spec)
            timings: Dict[str, float] = {}
            run_sharded(run, 2, machine=self.machine, timings=timings)
            # Back to back with a direct run, so both see the same host.
            anchor_cpu = ctx.meter.timed(
                lambda: run_sharded(run, 1, machine=self.machine)
            ).cpu
            direct_cpu = ctx.meter.timed(self.twin).cpu
            out.update({
                "sim.shard.setup_s": timings["setup_s"],
                "sim.shard.windows_s": timings["windows_s"],
                "sim.shard.wall_s": ctx.repeat.wall,
                "sim.shard.cpu_overhead_ratio":
                    ctx.repeat.cpu / ctx.twin.cpu,
                "sim.shard.wall_speedup": ctx.twin.wall / ctx.repeat.wall,
                "sim.shard.anchor_overhead_ratio": anchor_cpu / direct_cpu,
            })
            return out
        out.update(slice_metrics(self.fresh_engine()))
        if self.path == "fastpath":
            # Scalar / fast CPU of back-to-back pairs in this process, so
            # both sides of each ratio see the same host phase.
            pairs = [(ctx.twin, ctx.repeat)] + [
                (ctx.meter.timed(self.twin), ctx.meter.timed(self.repeat))
                for _ in range(0 if ctx.quick else 2)
            ]
            out["sim.fastpath.speedup"] = statistics.median(
                scalar.cpu / fast.cpu for scalar, fast in pairs
            )
        else:
            out.update(probes.routing(self.machine, ctx.seed, 200 if ctx.quick else 2000))
            out.update(probes.cli(ctx.meter))
        return out


# --- tornado_iw ---------------------------------------------------------------------


class TornadoIw(Workload):
    """Tornado on a narrow 8x2x2 machine, inverse-weighted SA1 + SA2."""

    def setup(self, seed, quick, meter, scratch):
        shape = (4, 2, 2) if quick else (8, 2, 2)
        cores = 4
        self.machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=cores))
        self.routes = RouteComputer(self.machine)
        pattern = Tornado(shape)
        self.spec = BatchSpec(
            pattern, packets_per_source=8 if quick else 32,
            cores_per_chip=cores, seed=seed,
        )
        loads = [compute_loads(self.machine, self.routes, pattern, cores)]
        self.weights = make_weight_tables(
            self.machine, self.routes, [pattern], cores, load_tables=loads
        )
        self.vc_weights = make_vc_weight_tables(
            self.machine, self.routes, [pattern], cores, load_tables=loads
        )
        self.generated = len(generate_batch(self.machine, self.routes, self.spec))

    def fresh_engine(self, trace=None):
        return build_batch_engine(
            self.machine, self.routes, self.spec, arbitration="iw",
            weight_tables=self.weights, vc_weight_tables=self.vc_weights,
            trace=trace,
        )

    def repeat(self):
        return sim_outcome(self.fresh_engine().run(), self.generated)

    def layers(self, ctx):
        out = {"traffic.batch.packets": self.generated}
        out.update(slice_metrics(self.fresh_engine()))
        out.update(probes.arbiters(ctx.seed, 10_000 if ctx.quick else 100_000))
        with open(os.devnull, "w") as sink:
            trace = Tee(JsonlTraceWriter(sink), MetricsCollector())
            traced = ctx.meter.timed(lambda: self.fresh_engine(trace=trace).run())
        out["sim.trace.overhead_ratio"] = traced.cpu / ctx.repeat.cpu
        return out


# --- demand_faulted_ckpt ------------------------------------------------------------


class DemandFaultedCkpt(Workload):
    """Open-loop hotspot demand, two scheduled link faults, a mid-run
    checkpoint round trip and periodic checkpoints to the drain."""

    EPOCHS = 2
    CHECKPOINT_EVERY = 256

    def setup(self, seed, quick, meter, scratch):
        shape = (4, 4, 2)
        epoch_cycles = 16 if quick else 48
        self.duration = self.EPOCHS * epoch_cycles
        self.machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
        # The matrices are part of the workload, not of the sample: where
        # the hotspots sit moves the drain time (428-699 cycles over ten
        # seeds), which would make cycles per CPU-s a function of the seed.
        # The seed draws the injections, the routes and the fault sites.
        matrices = [
            DemandMatrix.hotspot(
                shape, rate=0.6, hotspots=2, hot_fraction=0.6, seed=epoch
            )
            for epoch in range(self.EPOCHS)
        ]
        self.spec = DemandSpec(
            demand=DemandSchedule.from_matrices(matrices, epoch_cycles),
            cores_per_chip=2, mode="open", duration_cycles=self.duration,
            injection="bernoulli", seed=seed,
        )
        first, second = random.Random(seed).sample(failable_channels(self.machine), 2)
        self.fault_set = FaultSet(
            specs=(
                FaultSpec(kind="link", channel=first, down_cycle=self.duration // 4),
                FaultSpec(
                    kind="link", channel=second,
                    down_cycle=self.duration // 2, up_cycle=self.duration,
                ),
            ),
            shape=shape,
            note="perf ledger",
        )
        self.path = os.path.join(scratch, "demand.ckpt")
        self.checkpoint_bytes = 0
        warm = FaultRuntime(self.machine, self.fault_set)
        self.generated = len(
            generate_demand(self.machine, warm.route_computer, self.spec)
        )

    def fresh_engine(self):
        # The runtime holds per-run state (the fault-aware route cache).
        faults = FaultRuntime(self.machine, self.fault_set)
        return build_demand_engine(
            self.machine, faults.route_computer, self.spec, faults=faults
        )

    def repeat(self):
        engine = self.fresh_engine()
        engine.run_for(self.duration // 2)
        save_checkpoint(engine, self.path)
        self.checkpoint_bytes = os.path.getsize(self.path)
        resumed = restore_engine(load_checkpoint(self.path), machine=self.machine)
        stats = run_with_checkpoints(resumed, self.path, self.CHECKPOINT_EVERY)
        os.unlink(self.path)
        return sim_outcome(stats, self.generated)

    def twin(self):
        return digest(self.fresh_engine().run().asdict())

    def layers(self, ctx):
        out = {
            "traffic.demand.packets": self.generated,
            "sim.checkpoint.bytes": self.checkpoint_bytes,
        }
        out.update(slice_metrics(self.fresh_engine()))
        out.update(probes.wheel(ctx.seed, 10_000 if ctx.quick else 100_000))
        return out


# --- fig9_campaign ------------------------------------------------------------------


def _points_digest(points) -> str:
    return digest([
        [p.pattern, p.arbitration, p.batch_size, p.normalized_throughput,
         p.finish_spread, p.completion_cycles]
        for p in points
    ])


class Fig9Campaign(Workload):
    """Figure 9 at bench scale through the sweep runner, two workers."""

    CORES = 4

    def setup(self, seed, quick, meter, scratch):
        shape = (4, 2, 2) if quick else (8, 2, 2)
        self.seed = seed
        self.machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=self.CORES))
        self.routes = RouteComputer(self.machine)
        factories = pattern_factories(shape)
        self.patterns = [factories["uniform"](), factories["2hop"]()]
        self.batches = (2, 4) if quick else (4, 8)
        self.workers = min(2, os.cpu_count() or 1)

    def campaign(self, workers: int):
        return throughput_vs_batch_size(
            self.machine, self.routes, self.patterns, self.batches, self.CORES,
            seed=self.seed, max_workers=workers,
        )

    def repeat(self):
        points = self.campaign(self.workers)
        failures = [
            f"sweep point {index} returned no result"
            for index, point in enumerate(points) if point is None
        ]
        done = [point for point in points if point is not None]
        return Outcome(
            _points_digest(done), sum(p.completion_cycles for p in done),
            len(points), failures,
        )

    def layers(self, ctx):
        # The same points through the sweep runner's own entry point, to
        # read per-point wall; then once more on one worker as the
        # serial reference for spawn overhead and the digest cross-check
        # (a whole repeat's CPU, which is why it is not an every-run twin).
        sweep = [
            SweepPoint(
                label=f"{pattern.name}/{arbitration}/b{batch}",
                fn=measure_batch_point,
                kwargs={"point": BatchPoint(
                    config=self.machine.config, pattern=pattern,
                    batch_size=batch, cores_per_chip=self.CORES,
                    arbitration=arbitration,
                    weight_patterns=(self.patterns[0],), seed=self.seed,
                )},
            )
            for pattern in self.patterns
            for batch in self.batches
            for arbitration in ("rr", "iw")
        ]
        fanned = ctx.meter.timed(lambda: run_sweep(sweep, max_workers=self.workers))
        serial = ctx.meter.timed(lambda: run_sweep(sweep, max_workers=1))
        for workers, leg in ((self.workers, fanned), (1, serial)):
            if _points_digest([r.value for r in leg.result]) != ctx.repeat.result.digest:
                ctx.failures.append(
                    f"run_sweep at max_workers={workers} differs from the repeat"
                )
        point_walls = [r.wall_seconds for r in fanned.result]
        return {
            "sim.sweep.point_s.p50": percentile(point_walls, 0.5),
            "sim.sweep.point_s.max": max(point_walls),
            "sim.sweep.spawn_overhead_s": fanned.cpu - serial.cpu,
            "sim.sweep.parallel_efficiency":
                serial.wall / (self.workers * fanned.wall),
            "sim.sweep.wall_s": ctx.repeat.wall,
        }


# --- serve_closed_loop --------------------------------------------------------------


class ServeClosedLoop(Workload):
    """``python -m repro serve`` driven by one client process over a
    closed loop: one request in flight on each of ``nproc`` connections."""

    STEPS = 6
    STEP_CYCLES = 16
    ORACLE_SESSIONS = 8
    #: Requests behind the traced pass's percentiles: 20 beyond p99.
    SAMPLE_REQUESTS = 2000

    def __init__(self) -> None:
        self.server: Optional[subprocess.Popen] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.clients: List[ServeClient] = []
        #: (request type, perf_counter start, end) of every request sent.
        self.requests: List[tuple] = []
        self.rounds = 0
        #: Seconds inside repeats: server CPU, this process's CPU, wall.
        self.server_cpu = 0.0
        self.client_cpu = 0.0
        self.loop_wall = 0.0

    def setup(self, seed, quick, meter, scratch):
        self.seed = seed
        self.meter = meter
        self.sessions = 2 if quick else 5  # per connection and repeat
        self.connections = min(2, os.cpu_count() or 1)
        self.loop = asyncio.new_event_loop()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        meter.track(self.server.pid)
        line = self.server.stdout.readline()
        match = re.search(r"listening on (\S+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"serve did not announce its port: {line!r}")
        host, port = match.group(1), int(match.group(2))
        self.clients = self._gather([
            ServeClient.connect(host, port) for _ in range(self.connections)
        ])

    def _gather(self, coros: list) -> list:
        async def together():
            return await asyncio.gather(*coros)

        return self.loop.run_until_complete(together())

    def session_workload(self, connection: int, index: int) -> dict:
        return {
            "kind": "batch", "shape": [2, 2, 2], "endpoints": 2, "cores": 2,
            "pattern": "uniform", "batch": 16,
            "seed": self.seed * 100_003 + connection * 1009 + index,
        }

    async def _connection(self, connection: int, finals: dict, errors: list) -> int:
        client = self.clients[connection]
        advanced = 0

        async def call(rtype: str, coro):
            start = time.perf_counter()
            try:
                return await coro
            except ServeError as exc:
                errors.append(f"{rtype} on connection {connection}: {exc}")
                return {}
            finally:
                self.requests.append((rtype, start, time.perf_counter()))

        for index in range(self.sessions):
            sid = f"r{self.rounds}c{connection}s{index}"
            await call("create", client.create(
                self.session_workload(connection, index), session=sid
            ))
            for _ in range(self.STEPS):
                reply = await call("step", client.step(sid, self.STEP_CYCLES))
                advanced += reply.get("advanced", 0)
            snapshot = await call("snapshot", client.snapshot(sid))
            stats = await call("stats", client.stats(sid))
            await call("close", client.close_session(sid))
            finals[(connection, index)] = (
                stats.get("stats"), snapshot.get("checkpoint")
            )
        return advanced

    def repeat(self):
        finals: dict = {}
        errors: List[str] = []
        sent = len(self.requests)
        server0, client0 = self.meter.live_cpu(), time.process_time()
        wall0 = time.perf_counter()
        advanced = self._gather([
            self._connection(c, finals, errors) for c in range(self.connections)
        ])
        self.server_cpu += self.meter.live_cpu() - server0
        self.client_cpu += time.process_time() - client0
        self.loop_wall += time.perf_counter() - wall0
        self.rounds += 1
        self.finals = finals
        self.last_round = self.requests[sent:]
        return Outcome(
            digest([finals[key][0] for key in sorted(finals)]),
            sum(advanced), len(self.requests) - sent, errors,
        )

    def request_spans(self):
        return [
            (f"serve.client.{rtype}", start, end)
            for rtype, start, end in self.last_round
        ]

    def twin(self):
        """The last repeat's digest with the sampled sessions' results
        replaced by an in-process ``Session`` oracle (no wire, no server):
        it equals the repeat's exactly when every sampled session matches."""
        expected = {key: stats for key, (stats, _) in self.finals.items()}
        keys = sorted(expected)
        sampled = random.Random(self.seed).sample(
            keys, min(self.ORACLE_SESSIONS, len(keys))
        )
        for connection, index in sampled:
            live = Session.create("oracle", self.session_workload(connection, index))
            for _ in range(self.STEPS):
                self.loop.run_until_complete(live.advance(self.STEP_CYCLES))
            if live.snapshot_text() != self.finals[(connection, index)][1]:
                return f"snapshot of session {(connection, index)} differs from the oracle"
            # As the wire delivers it: JSON turns int keys into strings.
            expected[(connection, index)] = json.loads(
                json.dumps(live.stats_payload()["stats"])
            )
        return digest([expected[key] for key in keys])

    def layers(self, ctx):
        wanted = self.SAMPLE_REQUESTS // 10 if ctx.quick else self.SAMPLE_REQUESTS
        while len(self.requests) < wanted:
            extra = self.repeat()
            ctx.failures.extend(extra.failures)
            if extra.digest != ctx.repeat.result.digest:
                ctx.failures.append(f"sampling round digest {extra.digest} differs")
        walls = [end - start for _, start, end in self.requests]
        by_type: Dict[str, List[float]] = {}
        for rtype, start, end in self.requests:
            by_type.setdefault(rtype, []).append(end - start)
        server = self.loop.run_until_complete(self.clients[0].server_stats())
        server_p99_ms = server["latency_us"]["p99"] / 1e3
        out = {
            "serve.requests": len(walls),
            "serve.req_p50_ms": percentile(walls, 0.5) * 1e3,
            "serve.req_p99_ms": percentile(walls, 0.99) * 1e3,
            "serve.req_per_s": len(walls) / self.loop_wall,
            "serve.server_cpu_ms_per_req": self.server_cpu / len(walls) * 1e3,
            "serve.client.cpu_ms_per_req": self.client_cpu / len(walls) * 1e3,
            "serve.server.cpu_share":
                self.server_cpu / (self.server_cpu + self.client_cpu),
            "serve.server.dispatch_p50_ms": server["latency_us"]["p50"] / 1e3,
            "serve.server.dispatch_p99_ms": server_p99_ms,
            "serve.client_server_gap": percentile(walls, 0.99) * 1e3 / server_p99_ms,
        }
        for rtype, values in by_type.items():
            out[f"serve.req_ms.{rtype}.p50"] = percentile(values, 0.5) * 1e3
        sample = Session.create("probe", self.session_workload(0, 0))
        out.update(probes.protocol(sample.stats_payload(), 200 if ctx.quick else 2000))
        out.update(probes.session(
            [self.session_workload(0, i) for i in range(3 if ctx.quick else 10)],
            self.STEPS, self.STEP_CYCLES,
        ))
        return out

    def teardown(self):
        async def close_all():
            for client in self.clients:
                await client.close()

        try:
            if self.loop is not None:
                self.loop.run_until_complete(close_all())
                self.loop.close()
        finally:
            if self.server is not None:
                self.meter.untrack(self.server.pid)
                self.server.terminate()
                try:
                    self.server.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
                self.server.stdout.close()


WORKLOADS = {
    "torus512_sat": lambda: TorusSat("engine"),
    "torus512_sat_fast": lambda: TorusSat("fastpath"),
    "torus512_sat_shard2": lambda: TorusSat("shard2"),
    "tornado_iw": TornadoIw,
    "demand_faulted_ckpt": DemandFaultedCkpt,
    "fig9_campaign": Fig9Campaign,
    "serve_closed_loop": ServeClosedLoop,
}
