"""High-level simulation facade: wiring machines, arbiters, and workloads.

This is the main entry point for running experiments:

    machine = Machine(MachineConfig(shape=(4, 4, 4), endpoints_per_chip=4))
    rc = RouteComputer(machine)
    spec = BatchSpec(UniformRandom(machine.config.shape), 64, cores_per_chip=4)
    stats = run_batch(machine, rc, spec, arbitration="iw",
                      weight_patterns=[UniformRandom(machine.config.shape)])

The ``arbitration`` argument selects the policy at every router and
adapter output:

* ``"rr"`` -- round-robin (the paper's gray baseline curves);
* ``"age"`` -- age-based (the heavy-weight EoS reference);
* ``"iw"`` -- inverse-weighted, programmed from analytically computed
  loads of one or more traffic patterns (the paper's black curves).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arbiters.age_based import AgeBasedArbiter
from repro.arbiters.base import Arbiter
from repro.arbiters.inverse_weighted import InverseWeightedArbiter
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.arbiters.weights import WeightTable, compute_inverse_weights
from repro.core.machine import Machine
from repro.core.routing import RouteComputer

from .engine import ArbiterBuilder, Engine
from .stats import SimStats

#: Default inverse-weight width, matching the Figure 6 example hardware.
DEFAULT_WEIGHT_BITS = 5


def make_weight_tables(
    machine: Machine,
    route_computer: RouteComputer,
    patterns: Sequence["TrafficPattern"],
    cores_per_chip: int,
    dst_endpoint_mode: str = "same_index",
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    load_tables: Optional[Sequence["LoadTable"]] = None,
) -> Dict[int, WeightTable]:
    """Program inverse-weight tables for every arbitration site.

    This is the offline flow of Section 3.2: compute per-input loads for
    each traffic pattern, then quantize their inverses into the per-site
    weight memories. ``load_tables`` may be passed to reuse
    already-computed loads.
    """
    # Imported here (not at module top) to avoid a circular import:
    # repro.traffic generates Packet objects and so imports repro.sim.
    from repro.traffic.loads import compute_loads, merge_arbiter_loads

    if load_tables is None:
        load_tables = [
            compute_loads(
                machine, route_computer, pattern, cores_per_chip, dst_endpoint_mode
            )
            for pattern in patterns
        ]
    merged = merge_arbiter_loads(machine, load_tables)
    return {
        oc: compute_inverse_weights(matrix, weight_bits=weight_bits)
        for oc, matrix in merged.items()
    }


def make_vc_weight_tables(
    machine: Machine,
    route_computer: RouteComputer,
    patterns: Sequence["TrafficPattern"],
    cores_per_chip: int,
    dst_endpoint_mode: str = "same_index",
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    load_tables: Optional[Sequence["LoadTable"]] = None,
) -> Dict[int, WeightTable]:
    """Program inverse-weight tables for the SA1 (VC selection) stage.

    Equality of service must hold at *every* arbitration point
    (Section 3.1), and the per-input VC selection is one: dateline
    geography makes per-VC loads uneven (sources beyond a dateline travel
    on promoted VCs), so an unweighted SA1 would re-introduce exactly the
    source bias the output arbiters remove.
    """
    from repro.traffic.loads import compute_loads, merge_vc_loads

    if load_tables is None:
        load_tables = [
            compute_loads(
                machine, route_computer, pattern, cores_per_chip, dst_endpoint_mode
            )
            for pattern in patterns
        ]
    merged = merge_vc_loads(machine, load_tables)
    return {
        cid: compute_inverse_weights(matrix, weight_bits=weight_bits)
        for cid, matrix in merged.items()
    }


def program_weight_tables(
    machine: Machine,
    route_computer: RouteComputer,
    patterns: Sequence["TrafficPattern"],
    cores_per_chip: int,
    dst_endpoint_mode: str = "same_index",
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    load_tables: Optional[Sequence["LoadTable"]] = None,
) -> Tuple[Dict[int, WeightTable], Dict[int, WeightTable]]:
    """One weight set for both arbitration stages: ``(SA2, SA1)`` tables.

    The loads of each pattern are computed once (or taken from
    ``load_tables``) and shared by :func:`make_weight_tables` and
    :func:`make_vc_weight_tables`.
    """
    from repro.traffic.loads import compute_loads

    if load_tables is None:
        load_tables = [
            compute_loads(
                machine, route_computer, pattern, cores_per_chip, dst_endpoint_mode
            )
            for pattern in patterns
        ]
    args = (machine, route_computer, patterns, cores_per_chip, dst_endpoint_mode)
    return (
        make_weight_tables(*args, weight_bits, load_tables=load_tables),
        make_vc_weight_tables(*args, weight_bits, load_tables=load_tables),
    )


def arbiter_builder_for(
    arbitration: str,
    weight_tables: Optional[Dict[int, WeightTable]] = None,
    num_patterns: int = 1,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
) -> ArbiterBuilder:
    """Build the per-site arbiter factory for an arbitration policy.

    Used for both arbitration stages: SA2 sites are keyed by output
    channel id with per-input-port weights, SA1 sites by input channel id
    with per-VC weights.
    """
    if arbitration == "rr":
        return lambda num_inputs, site: RoundRobinArbiter(num_inputs)
    if arbitration == "age":
        return lambda num_inputs, site: AgeBasedArbiter(num_inputs)
    if arbitration == "iw":
        if weight_tables is None:
            raise ValueError("inverse-weighted arbitration requires weight tables")

        def build(num_inputs: int, site: int) -> Arbiter:
            table = weight_tables.get(site)
            if table is None:
                # No modeled traffic ever crosses this output; any packets
                # that do show up are handled with equal (maximal) weights.
                table = compute_inverse_weights(
                    [[0.0] * num_patterns] * num_inputs, weight_bits=weight_bits
                )
            return InverseWeightedArbiter(table.inverse_weights, table.weight_bits)

        return build
    raise ValueError(f"unknown arbitration policy {arbitration!r}")


def build_batch_engine(
    machine: Machine,
    route_computer: RouteComputer,
    spec: "BatchSpec",
    arbitration: str = "rr",
    weight_patterns: Optional[Sequence["TrafficPattern"]] = None,
    weight_tables: Optional[Dict[int, WeightTable]] = None,
    vc_weight_tables: Optional[Dict[int, WeightTable]] = None,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    keep_packet_latencies: bool = False,
    trace=None,
    latency_quantiles: bool = False,
    faults=None,
    packets: Optional[Sequence["Packet"]] = None,
) -> Engine:
    """Construct a cycle-0 engine with a full batch enqueued.

    This is :func:`run_batch` minus the run: arbiters programmed, sinks
    attached, every generated packet in its source queue. Exposed so the
    checkpoint tooling (``repro checkpoint save``, the crash-resume
    tests) can build the exact engine a batch experiment would run.

    ``packets`` replaces generation: the engine enqueues exactly these
    (already generated from ``spec``, in generation order) instead of
    calling :func:`~repro.traffic.batch.generate_batch`. The sharded
    runner generates once and hands each shard the packets whose source
    it owns, global packet ids and RNG draws intact.
    """
    from repro.traffic.batch import generate_batch

    num_patterns = 1
    if arbitration == "iw":
        if weight_tables is None or vc_weight_tables is None:
            if weight_patterns is None:
                raise ValueError(
                    "iw arbitration needs weight_patterns or weight tables"
                )
            programmed = program_weight_tables(
                machine,
                route_computer,
                weight_patterns,
                spec.cores_per_chip,
                spec.dst_endpoint_mode,
                weight_bits,
            )
            if weight_tables is None:
                weight_tables = programmed[0]
            if vc_weight_tables is None:
                vc_weight_tables = programmed[1]
        for table in weight_tables.values():
            num_patterns = table.num_patterns
            break
    builder = arbiter_builder_for(arbitration, weight_tables, num_patterns, weight_bits)
    vc_builder = arbiter_builder_for(
        arbitration, vc_weight_tables, num_patterns, weight_bits
    )
    engine = Engine(
        machine,
        arbiter_builder=builder,
        vc_arbiter_builder=vc_builder,
        keep_packet_latencies=keep_packet_latencies,
        trace=trace,
        latency_quantiles=latency_quantiles,
        faults=faults,
    )
    if packets is None:
        packets = generate_batch(machine, route_computer, spec)
    for packet in packets:
        engine.enqueue(packet)
    return engine


def run_batch(
    machine: Machine,
    route_computer: RouteComputer,
    spec: "BatchSpec",
    arbitration: str = "rr",
    weight_patterns: Optional[Sequence["TrafficPattern"]] = None,
    weight_tables: Optional[Dict[int, WeightTable]] = None,
    vc_weight_tables: Optional[Dict[int, WeightTable]] = None,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    max_cycles: int = 10_000_000,
    keep_packet_latencies: bool = False,
    trace=None,
    latency_quantiles: bool = False,
    faults=None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
) -> SimStats:
    """Run one batch experiment and return its statistics.

    For ``arbitration="iw"``, either ``weight_tables``/``vc_weight_tables``
    (pre-programmed) or ``weight_patterns`` (programmed here from analytic
    loads) must be given. Inverse weighting is applied at both
    arbitration stages (output ports and per-input VC selection).

    ``trace`` attaches a structured-event sink (:mod:`repro.sim.trace`);
    ``latency_quantiles`` enables the streaming p50/p95/p99 estimator on
    the returned stats (:mod:`repro.sim.metrics`). Both are pure
    observers: results are bitwise-identical with or without them.

    ``faults`` attaches a :class:`repro.faults.FaultRuntime` (failed
    channels, mid-run schedule, stranded-packet policy). Pass its
    fault-aware computer as ``route_computer`` too so generated routes
    avoid the initially failed channels.

    ``checkpoint_path`` with ``checkpoint_every > 0`` enables periodic
    checkpointing (:mod:`repro.sim.checkpoint`): a snapshot is written
    every ``checkpoint_every`` cycles and removed on completion, so an
    *existing* file always marks an interrupted run and is resumed from
    -- the results are bitwise-identical to a never-interrupted run.
    When ``trace`` is a :class:`~repro.sim.metrics.MetricsCollector`, the
    checkpointed collector contents are revived into it on resume.
    """
    def build() -> Engine:
        return build_batch_engine(
            machine,
            route_computer,
            spec,
            arbitration=arbitration,
            weight_patterns=weight_patterns,
            weight_tables=weight_tables,
            vc_weight_tables=vc_weight_tables,
            weight_bits=weight_bits,
            keep_packet_latencies=keep_packet_latencies,
            trace=trace,
            latency_quantiles=latency_quantiles,
            faults=faults,
        )

    return run_engine(
        build,
        trace=trace,
        max_cycles=max_cycles,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        machine=machine,
    )


def run_batch_sharded(
    machine: Machine,
    spec: "BatchSpec",
    shards: int = 1,
    arbitration: str = "rr",
    weight_patterns: Optional[Sequence["TrafficPattern"]] = None,
    weight_bits: int = DEFAULT_WEIGHT_BITS,
    fault_set=None,
    fault_policy=None,
    max_cycles: int = 10_000_000,
    trace=None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    transport: str = "process",
) -> SimStats:
    """Run a batch experiment decomposed over ``shards`` torus sub-boxes.

    Results (stats, trace events, checkpoint bytes) are bit-identical to
    :func:`run_batch` on the same workload for every shard count;
    ``shards=1`` *is* the serial path. Unlike :func:`run_batch`, fault
    injection is specified by ``fault_set``/``fault_policy`` rather than
    a pre-built runtime, because each shard of a faulted run builds its
    own deterministic fault-aware route computer. See
    :mod:`repro.sim.shard` for the synchronization protocol.
    """
    from .shard import ShardedRun, run_sharded

    run = ShardedRun(
        config=machine.config,
        spec=spec,
        arbitration=arbitration,
        weight_patterns=(
            tuple(weight_patterns) if weight_patterns is not None else ()
        ),
        weight_bits=weight_bits,
        fault_set=fault_set,
        fault_policy=fault_policy,
    )
    return run_sharded(
        run,
        shards,
        machine=machine,
        trace=trace,
        max_cycles=max_cycles,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        transport=transport,
    )


def run_engine(
    build_engine_fn,
    trace=None,
    max_cycles: int = 10_000_000,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
    machine: Optional[Machine] = None,
) -> SimStats:
    """Run a freshly built (or checkpoint-resumed) engine to completion.

    The workload-agnostic core of :func:`run_batch`, shared with the
    demand-matrix runner (:func:`repro.traffic.demand.run_demand`):
    ``build_engine_fn`` constructs the cycle-0 engine, and the
    checkpoint/resume contract is identical -- an existing
    ``checkpoint_path`` marks an interrupted run and is resumed for a
    result bitwise-identical to a never-interrupted run.
    """
    if checkpoint_path and checkpoint_every > 0:
        from .checkpoint import (
            load_checkpoint,
            restore_engine,
            run_with_checkpoints,
        )
        from .metrics import MetricsCollector

        if os.path.exists(checkpoint_path):
            data = load_checkpoint(checkpoint_path)
            engine = restore_engine(data, machine=machine, trace=trace)
            collector_state = data["trace"]["collector"]
            if collector_state is not None and isinstance(trace, MetricsCollector):
                trace.restore_state(collector_state)
        else:
            engine = build_engine_fn()
        stats = run_with_checkpoints(
            engine, checkpoint_path, checkpoint_every, max_cycles=max_cycles
        )
        if os.path.exists(checkpoint_path):
            os.unlink(checkpoint_path)
    else:
        engine = build_engine_fn()
        stats = engine.run(max_cycles=max_cycles)
    if trace is not None:
        trace.flush()
    return stats


def run_single_packet(
    machine: Machine,
    route_computer: RouteComputer,
    src_endpoint: int,
    dst_endpoint: int,
    choice=None,
    size_flits: int = 1,
) -> int:
    """Inject one packet into an idle network; returns its latency in cycles.

    Used by the latency-versus-hops experiment (Figure 11): in an idle
    network the measured latency is pure pipeline and channel delay.
    """
    from repro.core.routing import RouteChoice
    from repro.sim.packet import Packet

    if choice is None:
        choice = RouteChoice()
    route = route_computer.compute(src_endpoint, dst_endpoint, choice)
    engine = Engine(machine)
    packet = Packet(0, route, size_flits=size_flits)
    engine.enqueue(packet)
    engine.run()
    return packet.network_latency
