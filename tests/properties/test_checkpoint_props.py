"""Bitwise resume-equivalence of checkpointed simulations.

The checkpoint contract (:mod:`repro.sim.checkpoint`): for any workload
and any checkpoint cycle, ``run(n) -> save -> restore -> run(m)`` is
byte-identical to the uninterrupted ``run(n + m)`` -- the JSONL trace
bytes and the serialized stats dict, not merely the summary numbers.
Hypothesis drives the workload (pattern, arbitration policy, seed,
healthy or faulted machine) and, crucially, the checkpoint cycle: the
split point is drawn as a fraction of the uninterrupted run's length, so
checkpoints land in warm-up, saturation, and drain phases alike. The
split may also *change path*: each side draws a shard count, and where
the shard runner accepts the drawn run that side goes through it -- the
checkpoint is one format, whoever wrote it and whoever reads it.
"""

import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbiters.bank import FixedPriorityBank
from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.faults import FaultPolicy, FaultRuntime, FaultSet, FaultSpec
from repro.sim.checkpoint import (
    dumps,
    loads,
    restore_engine,
    snapshot_engine,
)
from repro.sim import simulator
from repro.sim.simulator import RunSpec, run, start
from repro.sim.trace import JsonlTraceWriter
from repro.traffic.batch import BatchSpec
from repro.traffic.demand import (
    DemandMatrix,
    DemandMatrixPattern,
    DemandSchedule,
    DemandSpec,
)
from repro.traffic.patterns import BitComplement, Tornado, UniformRandom

SHAPE = (2, 2, 2)

PATTERNS = {
    "uniform": UniformRandom,
    "tornado": Tornado,
    "bitcomp": BitComplement,
    # A demand matrix viewed as a pattern: closed-loop demand through the
    # ordinary batch machinery.
    "demand": lambda shape: DemandMatrixPattern(
        DemandMatrix.hotspot(
            shape, rate=0.5, hotspots=1, hot_fraction=0.6, seed=9
        )
    ),
}

_MACHINE_CACHE = {}


def shared_machine():
    # One elaborated machine per process: engines never mutate it.
    if "m" not in _MACHINE_CACHE:
        machine = Machine(MachineConfig(shape=SHAPE, endpoints_per_chip=2))
        _MACHINE_CACHE["m"] = (machine, RouteComputer(machine))
    return _MACHINE_CACHE["m"]


FAULT_SET = FaultSet(
    specs=(
        FaultSpec(kind="link", channel=640, down_cycle=0, up_cycle=45),
        FaultSpec(kind="link", channel=656, down_cycle=12, up_cycle=None),
    ),
    shape=SHAPE,
)


def build(pattern_kind, arbitration, seed, batch, faulted, policy, writer):
    machine, healthy_routes = shared_machine()
    pattern = PATTERNS[pattern_kind](SHAPE)
    runtime = None
    routes = healthy_routes
    if faulted:
        runtime = FaultRuntime(
            machine,
            FAULT_SET,
            policy=FaultPolicy(mode=policy, max_retries=3),
        )
        routes = runtime.route_computer
    spec = BatchSpec(
        pattern, packets_per_source=batch, cores_per_chip=2, seed=seed
    )
    engine = simulator.build(
        RunSpec(
            machine.config, spec, arbitration if arbitration != "fixed" else "rr"
        ),
        machine, routes, runtime, trace=writer,
    )
    if arbitration == "fixed":
        # The builder does not expose fixed priority; swap it in at cycle 0.
        rows = machine.engine_rows
        engine.arbiters = FixedPriorityBank(rows.arbiter_sites)
        engine.vc_arbiters = FixedPriorityBank(rows.vc_arbiter_sites)
    return engine


def batch_runspec(pattern_kind, arbitration, seed, batch, faulted, policy):
    """The run :func:`build` assembles by hand, as a description -- or
    ``None`` where the shard runner would refuse it (``fixed`` is not a
    policy a description can name; ``retry`` re-injects across shards)."""
    if arbitration == "fixed" or (faulted and policy == "retry"):
        return None
    machine, _ = shared_machine()
    pattern = PATTERNS[pattern_kind](SHAPE)
    return RunSpec(
        machine.config,
        BatchSpec(pattern, packets_per_source=batch, cores_per_chip=2, seed=seed),
        arbitration,
        (pattern,) if arbitration == "iw" else (),
        fault_set=FAULT_SET if faulted else None,
        fault_policy=(
            FaultPolicy(mode=policy, max_retries=3) if faulted else None
        ),
    )


def demand_spec(seed, mseed, injection, mode):
    # Three hotspot epochs with shifting hot nodes: any split past cycle
    # 20 has at least one epoch boundary behind it and (before cycle 40)
    # one still ahead in the pre-generated schedule.
    matrices = [
        DemandMatrix.hotspot(
            SHAPE, rate=0.35, hotspots=1, hot_fraction=0.6, seed=mseed + k
        )
        for k in range(3)
    ]
    return DemandSpec(
        demand=DemandSchedule.from_matrices(matrices, 20),
        cores_per_chip=2,
        mode=mode,
        duration_cycles=60 if mode == "open" else 0,
        packets_scale=8.0,
        injection=injection,
        seed=seed,
    )


def build_demand_case(seed, mseed, injection, arbitration, mode, writer):
    machine, routes = shared_machine()
    spec = demand_spec(seed, mseed, injection, mode)
    return simulator.build(
        RunSpec(machine.config, spec, arbitration), machine, routes, trace=writer
    )


def demand_runspec(seed, mseed, injection, arbitration, mode):
    machine, _ = shared_machine()
    return RunSpec(
        machine.config, demand_spec(seed, mseed, injection, mode), arbitration
    )


def run_uninterrupted(params, build_fn=build):
    stream = io.StringIO()
    writer = JsonlTraceWriter(stream, meta={"run": "prop"})
    engine = build_fn(*params, writer)
    stats = engine.run()
    writer.flush()
    return stream.getvalue(), json.dumps(stats.asdict())


def run_split(
    params, split_cycle, build_fn=build, runspec=None, shards=(1, 1)
):
    """Head and tail of a run split at ``split_cycle`` by a checkpoint.

    ``shards`` is the shard count on each side; a side other than 1 goes
    through the shard runner on ``runspec``, the
    description of the run ``build_fn`` assembles by hand.
    """
    machine, _ = shared_machine()
    write_shards, read_shards = shards if runspec is not None else (1, 1)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "ck.json")
        # Phase 1: run to the checkpoint cycle and snapshot through the
        # full canonical text round trip.
        stream = io.StringIO()
        writer = JsonlTraceWriter(stream, meta={"run": "prop"})
        if write_shards == 1:
            engine = build_fn(*params, writer)
        else:
            engine = start(runspec, machine, writer, shards=write_shards)
        engine.run_for(split_cycle)
        writer.flush()
        data = loads(dumps(snapshot_engine(engine)))
        engine.close()
        head = stream.getvalue()
        assert len(head.encode("utf-8")) == data["trace"]["bytes_written"]
        # Phase 2: restore into a fresh engine ("new process") with a
        # new writer on the interrupted trace, which the restore rewinds
        # to the checkpoint, and run to completion.
        resumed = JsonlTraceWriter(
            stream, meta={"run": "prop"}, owns_stream=True
        )
        if read_shards == 1:
            stats = restore_engine(data, trace=resumed).run()
        else:
            with open(path, "w") as handle:
                handle.write(dumps(data))
            stats = run(
                runspec, read_shards, machine=machine, trace=resumed,
                checkpoint_path=path, checkpoint_every=1 << 30,
            )
        resumed.flush()
    return stream.getvalue(), json.dumps(stats.asdict())


shard_counts = st.tuples(
    st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4])
)


@st.composite
def checkpoint_case(draw):
    pattern = draw(st.sampled_from(sorted(PATTERNS)))
    arbitration = draw(st.sampled_from(["rr", "age", "iw", "fixed"]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    batch = draw(st.integers(min_value=2, max_value=10))
    faulted = draw(st.booleans())
    policy = draw(st.sampled_from(["reroute", "retry", "drop"]))
    split_fraction = draw(st.floats(min_value=0.05, max_value=0.95))
    shards = draw(shard_counts)
    return (
        (pattern, arbitration, seed, batch, faulted, policy),
        split_fraction,
        shards,
    )


class TestResumeEquivalence:
    @given(checkpoint_case())
    @settings(max_examples=20, deadline=None)
    def test_checkpoint_resume_is_bitwise(self, case):
        params, split_fraction, shards = case
        full_trace, full_stats = run_uninterrupted(params)
        end_cycle = json.loads(full_stats)["end_cycle"]
        # At least one cycle before the end so the resumed engine has
        # real work left; at least cycle 1 so phase 1 does something.
        split_cycle = min(
            max(1, int(split_fraction * end_cycle)), end_cycle - 1
        )
        split_trace, split_stats = run_split(
            params, split_cycle, runspec=batch_runspec(*params), shards=shards
        )
        assert split_trace == full_trace
        assert split_stats == full_stats

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(["reroute", "retry"]),
        st.integers(min_value=5, max_value=40),
    )
    @settings(max_examples=10, deadline=None)
    def test_faulted_split_with_retries_in_flight(self, seed, policy, split):
        # Deterministic faulted workload, checkpointed inside the outage
        # window where retries/reroutes are live in the wheel.
        params = ("uniform", "rr", seed, 8, True, policy)
        full_trace, full_stats = run_uninterrupted(params)
        end_cycle = json.loads(full_stats)["end_cycle"]
        split_cycle = min(split, end_cycle - 1)
        split_trace, split_stats = run_split(params, split_cycle)
        assert split_trace == full_trace
        assert split_stats == full_stats

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_double_split_is_bitwise(self, seed):
        # Two checkpoints in one run: save at n, resume, save again at
        # n + k from the *restored* engine, resume again.
        params = ("uniform", "iw", seed, 6, False, "reroute")
        full_trace, full_stats = run_uninterrupted(params)
        end_cycle = json.loads(full_stats)["end_cycle"]
        first = max(1, end_cycle // 3)
        second = max(first + 1, 2 * end_cycle // 3)

        stream = io.StringIO()
        writer = JsonlTraceWriter(stream, meta={"run": "prop"})
        engine = build(*params, writer)
        engine.run_for(first)
        writer.flush()
        data = loads(dumps(snapshot_engine(engine)))

        mid_writer = JsonlTraceWriter(
            stream, meta={"run": "prop"}, owns_stream=True
        )
        restored = restore_engine(data, trace=mid_writer)
        restored.run_for(second - first)
        mid_writer.flush()
        data2 = loads(dumps(snapshot_engine(restored)))

        tail_writer = JsonlTraceWriter(
            stream, meta={"run": "prop"}, owns_stream=True
        )
        final = restore_engine(data2, trace=tail_writer)
        stats = final.run()
        tail_writer.flush()

        assert stream.getvalue() == full_trace
        assert json.dumps(stats.asdict()) == full_stats


class TestDemandResumeEquivalence:
    """Evolving demand-matrix workloads hold the same bitwise resume
    contract: the pre-generated schedule lives entirely in the
    checkpointed source queues, so no extra workload state is needed."""

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=50),
        st.sampled_from(["bernoulli", "paced"]),
        st.sampled_from(["rr", "age", "iw"]),
        st.sampled_from(["open", "closed"]),
        st.floats(min_value=0.05, max_value=0.95),
        shard_counts,
    )
    @settings(max_examples=10, deadline=None)
    def test_evolving_demand_split_is_bitwise(
        self, seed, mseed, injection, arbitration, mode, frac, shards
    ):
        params = (seed, mseed, injection, arbitration, mode)
        full_trace, full_stats = run_uninterrupted(
            params, build_fn=build_demand_case
        )
        end_cycle = json.loads(full_stats)["end_cycle"]
        split_cycle = min(max(1, int(frac * end_cycle)), end_cycle - 1)
        split_trace, split_stats = run_split(
            params,
            split_cycle,
            build_fn=build_demand_case,
            runspec=demand_runspec(*params),
            shards=shards,
        )
        assert split_trace == full_trace
        assert split_stats == full_stats

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_split_inside_second_epoch(self, seed):
        # Pin the checkpoint inside the middle epoch (cycles 20-39): the
        # resume then crosses the remaining epoch boundary at cycle 40,
        # the exact hand-off the schedule resolution must preserve.
        params = (seed, 7, "bernoulli", "rr", "open")
        full_trace, full_stats = run_uninterrupted(
            params, build_fn=build_demand_case
        )
        end_cycle = json.loads(full_stats)["end_cycle"]
        split_cycle = min(25, end_cycle - 1)
        split_trace, split_stats = run_split(
            params, split_cycle, build_fn=build_demand_case
        )
        assert split_trace == full_trace
        assert split_stats == full_stats
