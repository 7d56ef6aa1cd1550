"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands map onto the reproduction's main entry points:

* ``info``       -- machine summary and Figure 2 packaging census
* ``route``      -- print every hop (and VC) of one unified-network route
* ``search``     -- the Section 2.4 direction-order routing search
* ``deadlock``   -- the Section 2.5 dependency-graph verification
* ``throughput`` -- one batch-throughput measurement point
* ``trace``      -- run one batch with structured event tracing, writing
  a JSONL trace (also regenerates the golden conformance traces)
* ``demand``     -- run a demand-matrix workload (seeded hotspot/skew/
  permutation/adversarial generators, multi-epoch rate evolution,
  open- or closed-loop injection)
* ``replay``     -- re-simulate a recorded JSONL trace; a faithful
  replay is byte-identical to the input (``--verify`` enforces it)
* ``faults``     -- sample, validate, and run fault sets (degraded
  topologies): ``faults sample`` / ``faults validate`` / ``faults run``
* ``profile``    -- cProfile the engine hot path over one seeded batch,
  printing a deterministic top-N call-count table
* ``latency``    -- the Figure 11/12 latency model
* ``area``       -- Tables 1 and 2 from the area model
* ``energy``     -- the Figure 13 energy curves

Every command exits 0 on success; operational failures (bad arguments
reaching a model, unroutable requests, invalid fault files) print a
one-line error to stderr and exit 1 rather than dumping a traceback
(argparse usage errors keep their conventional exit code 2).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.core.geometry import Dim
from repro.core.machine import Machine, MachineConfig
from repro.core.packaging import Packaging
from repro.core.routing import RouteChoice, RouteComputer


def parse_shape(text: str):
    """Parse '8x2x2' (or '4x4' for a two-axis topology) into a shape tuple."""
    parts = text.lower().split("x")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"shape must be KxKxK (torus) or KxK (mesh/chiplet), got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def parse_endpoint(text: str):
    """Parse 'x,y,z:e' into (chip coordinate, endpoint index)."""
    try:
        chip_text, _, ep_text = text.partition(":")
        chip = tuple(int(c) for c in chip_text.split(","))
        endpoint = int(ep_text) if ep_text else 0
        if len(chip) != 3:
            raise ValueError
        return chip, endpoint
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"endpoint must be 'x,y,z:e', got {text!r}"
        )


def _machine(args) -> Machine:
    return Machine(
        MachineConfig(
            shape=args.shape,
            endpoints_per_chip=args.endpoints,
            topology=getattr(args, "topology", "torus"),
        )
    )


#: ``repro demand`` flags that are, verbatim, keys of the parameter
#: form's ``demand`` sub-dict (``--hot-fraction`` is ``hot_fraction``).
DEMAND_KEYS = (
    "generator", "rate", "matrix_seed", "hotspots", "hot_fraction",
    "skew_exponent", "restarts", "steps", "epochs", "epoch_length", "mode",
    "duration", "scale", "injection",
)


def _read_json(path: str):
    import json
    import pathlib

    return json.loads(pathlib.Path(path).read_text())


def _fault_file(args):
    """The command's fault file, decoded (``None`` when it was given
    none), with the machine flags settled by the one rule: an explicit
    ``--shape``/``--topology`` wins, then what the file records -- a
    fault set is bound to the machine it was drawn for -- then the
    command's own default.
    """
    faults, file_shape, file_topology = None, None, "torus"
    if args.fault_file is not None:
        # Here, not above: a run without a fault file never imports
        # repro.faults (the perf ledger's cli.run_small_s watches).
        from repro.faults import FaultSet

        faults = _read_json(args.fault_file)
        recorded = FaultSet.from_dict(faults)
        file_shape, file_topology = recorded.shape, recorded.topology
    args.shape = args.shape or file_shape or args.shape_default
    args.topology = args.topology or file_topology
    if args.shape is None:
        raise ValueError(
            f"{args.fault_file} records no machine shape; pass --shape"
        )
    return faults


def _run_params(args, kind: str = "batch") -> dict:
    """A command line as the parameter form of its run (DESIGN.md
    section 17): the same mapping a serve ``create`` request carries."""
    faults = _fault_file(args) if "fault_file" in args else None
    params = {
        "kind": kind,
        "topology": args.topology,
        "shape": list(args.shape),
        "endpoints": args.endpoints,
    }
    if faults is not None:
        params["faults"] = faults
        if "policy" in args:
            params["policy"] = {"mode": args.policy, "retries": args.retries}
    if kind == "idle":
        return params
    params.update(cores=args.cores, arbitration=args.arbitration, seed=args.seed)
    if kind == "batch":
        params.update(pattern=args.pattern, batch=args.batch)
        return params
    params["demand"] = {key: getattr(args, key) for key in DEMAND_KEYS}
    if args.matrix_file is not None:
        if args.generator != "file":
            raise ValueError(
                f"--matrix-file is only read by --generator file, not "
                f"--generator {args.generator}"
            )
        params["demand"]["matrix"] = _read_json(args.matrix_file)
    return params


def _runspec(args, kind: str = "batch"):
    """``(params, RunSpec, machine)`` of a command line; a fault file is
    validated against the machine before anything runs."""
    from repro.sim.simulator import RunSpec, shared_machine

    params = _run_params(args, kind)
    runspec = RunSpec.from_params(params)
    machine = shared_machine(runspec.config)[0]
    if runspec.fault_set is not None:
        runspec.fault_set.validate(machine)
    return params, runspec, machine


#: Literal mirror of :data:`repro.traffic.patterns.PATTERN_NAMES` --
#: keeping the parser import-free costs a tuple; a test pins the sync.
PATTERN_CHOICES = ("uniform", "1hop", "2hop", "tornado", "reverse-tornado")

#: Literal mirror of :data:`repro.core.topology.TOPOLOGY_NAMES` (same
#: import-free-parser rationale; a test pins the sync).
TOPOLOGY_CHOICES = ("torus", "mesh", "chiplet")


def _checkpoint_every(args) -> int:
    """Cycles between a ``--checkpoint`` run's saves (``0``: no file, no
    saves); a cadence that would save nothing is refused by name."""
    if not args.checkpoint:
        return 0
    if args.checkpoint_every < 1:
        raise ValueError(
            f"--checkpoint-every must be at least 1 with --checkpoint, "
            f"got {args.checkpoint_every}"
        )
    return args.checkpoint_every


def _batch_end_record(stats, events_written: int, faulted: bool) -> dict:
    """The trailing ``"ev":"end"`` summary record of a batch trace.

    Faulted runs carry the extra ``dropped`` counter (the ``repro faults
    run`` format); healthy runs match ``repro trace``.
    """
    record = {
        "ev": "end",
        "cyc": stats.end_cycle,
        "injected": stats.injected,
        "delivered": stats.delivered,
    }
    if faulted:
        record["dropped"] = stats.dropped
    record["events"] = events_written
    return record


@contextlib.contextmanager
def _trace_sink(path: Optional[str], meta: Optional[dict] = None):
    """The JSONL writer on ``path`` -- ``-`` is stdout, ``None`` no sink --
    with header ``meta``, or without one header-free, to extend a trace
    that must already be there.

    A regular file is opened without cutting it and is the writer's own:
    whether the run resumes, and so rewinds into what an interrupted one
    left there, is the simulator's to decide, and a writer that is not
    rewound cuts the file at its first write (see
    :class:`~repro.sim.trace.JsonlTraceWriter`). Stdout, a FIFO or a
    ``/dev/fd`` path is only ever written to.
    """
    import os

    from repro.sim.trace import JsonlTraceWriter

    header = meta is not None
    if path is None:
        yield None
    elif path == "-":
        yield JsonlTraceWriter(sys.stdout, meta=meta, header=header)
    else:
        owned = os.path.isfile(path) or not header
        with open(path, "r+" if owned else "w") as stream:
            yield JsonlTraceWriter(
                stream, meta=meta, header=header, owns_stream=owned
            )


def cmd_info(args) -> int:
    machine = _machine(args)
    print(machine.describe())
    print(Packaging(machine.config.shape).summary())
    return 0


def cmd_route(args) -> int:
    machine = _machine(args)
    ends = []
    for flag, (chip, index) in (("--src", args.src), ("--dst", args.dst)):
        if (chip, 0) not in machine.ep_id:
            raise ValueError(
                f"{flag} chip {chip} is outside the shape {machine.config.shape}"
            )
        if (chip, index) not in machine.ep_id:
            raise ValueError(
                f"{flag} endpoint {index} is out of range: --endpoints "
                f"{args.endpoints} numbers them 0..{args.endpoints - 1}"
            )
        ends.append(machine.ep_id[(chip, index)])
    order = tuple(Dim[c] for c in args.order.upper())
    choice = RouteChoice(dim_order=order, slice_index=args.slice)
    route = RouteComputer(machine).compute(*ends, choice)
    print(
        f"{route.internode_hops} inter-node hops, {len(route.hops)} channel hops:"
    )
    for channel_id, vc in route.hops:
        src = machine.components[machine.channel_src[channel_id]]
        dst = machine.components[machine.channel_dst[channel_id]]
        print(
            f"  {machine.channel_kind[channel_id].name:13s} "
            f"{str(src):>20s} -> {str(dst):<20s} vc={vc}"
        )
    return 0


def cmd_search(args) -> int:
    from repro.core.onchip import ANTON_DIRECTION_ORDER, direction_order_name
    from repro.core.route_search import search_direction_orders

    result = search_direction_orders()
    best = [r.name for r in result.best_orders]
    print(f"minimal worst-case mesh load: {result.best.worst_load:.1f} torus channels")
    print(f"optimal direction orders ({len(best)}): {', '.join(best)}")
    anton = direction_order_name(ANTON_DIRECTION_ORDER)
    print(f"paper's {anton} optimal: {anton in best}")
    return 0


def _default_validation_shape(topology: str):
    """Small per-topology default shape for the verification commands."""
    return {"torus": (3, 3, 3), "mesh": (3, 3), "chiplet": (2, 2)}[topology]


def cmd_deadlock(args) -> int:
    from repro.core import deadlock

    shape = args.shape or _default_validation_shape(args.topology)
    machine = Machine(
        MachineConfig(
            shape=shape,
            endpoints_per_chip=1,
            vc_scheme=args.scheme,
            topology=args.topology,
        )
    )
    report = deadlock.analyze(machine, RouteComputer(machine))
    print(
        f"scheme={args.scheme} topology={args.topology} "
        f"shape={machine.topology.shape_str()}: "
        f"deadlock_free={report.deadlock_free} "
        f"T-VCs={sorted(report.t_vcs_used)} M-VCs={sorted(report.m_vcs_used)} "
        f"routes={report.routes}"
    )
    if report.cycle:
        print("cycle:", deadlock.describe_cycle(machine, report.cycle))
    return 0 if report.deadlock_free == (args.scheme != "unsafe-single") else 1


def cmd_throughput(args) -> int:
    from repro.analysis.throughput import measure_run

    _, runspec, _ = _runspec(args)
    point = measure_run(runspec)
    print(
        f"{point.pattern} / {args.arbitration}: normalized throughput "
        f"{point.normalized_throughput:.3f}, finish spread "
        f"{point.finish_spread:.3f}, {point.completion_cycles} cycles "
        f"({point.wall_seconds:.1f}s wall)"
    )
    return 0


def cmd_run(args) -> int:
    """One batch experiment, optionally sharded across worker processes."""
    import time

    from repro.sim.simulator import run

    every = _checkpoint_every(args)
    _, runspec, machine = _runspec(args)
    start = time.perf_counter()
    stats = run(
        runspec,
        args.shards,
        machine=machine,
        checkpoint_path=args.checkpoint,
        checkpoint_every=every,
    )
    wall = time.perf_counter() - start
    extra = (
        f", {stats.dropped} dropped, {stats.rerouted} rerouted"
        if runspec.fault_set is not None
        else ""
    )
    print(
        f"{runspec.spec.pattern.name} / {args.arbitration} / shards={args.shards}: "
        f"{stats.delivered} of {stats.injected} delivered{extra} in "
        f"{stats.end_cycle} cycles "
        f"({stats.end_cycle / wall:,.0f} cycles/s, {wall:.2f}s wall)"
    )
    return 0


def cmd_trace(args) -> int:
    from repro.sim.goldens import GOLDEN_NAMES, write_golden
    from repro.sim.metrics import MetricsCollector
    from repro.sim.simulator import run, trace_header
    from repro.sim.trace import Tee

    if args.list_goldens:
        for name in GOLDEN_NAMES:
            print(name)
        return 0
    if args.golden is not None:
        if args.golden not in GOLDEN_NAMES:
            print(
                f"unknown golden trace {args.golden!r}; "
                f"known: {', '.join(GOLDEN_NAMES)}",
                file=sys.stderr,
            )
            return 2
        with (
            contextlib.nullcontext(sys.stdout)
            if args.out == "-"
            else open(args.out, "w")
        ) as stream:
            events = write_golden(args.golden, stream)
        if args.out != "-":
            print(f"{args.golden}: {events} events -> {args.out}", file=sys.stderr)
        return 0

    params, runspec, machine = _runspec(args)
    pattern = runspec.spec.pattern
    collector = MetricsCollector(window_cycles=args.window)
    with _trace_sink(
        args.out, trace_header(params, runspec, machine)
    ) as writer:
        stats = run(runspec, machine=machine, trace=Tee(writer, collector))
        writer.write_record(
            _batch_end_record(stats, writer.events_written, faulted=False)
        )
    summary = collector.summary(stats.end_cycle)
    quantiles = summary.latency_quantiles
    print(
        f"{pattern.name} / {args.arbitration}: {writer.events_written} events, "
        f"{stats.delivered} packets in {stats.end_cycle} cycles; "
        f"latency p50={quantiles[0.5]} p95={quantiles[0.95]} "
        f"p99={quantiles[0.99]} cycles",
        file=sys.stderr,
    )
    return 0


def _run_checkpointed(args, kind: str):
    """``(RunSpec, stats)`` of ``repro demand`` / ``repro faults run``:
    the command line's run under ``--trace/--checkpoint``, whose
    contract is ``repro run``'s -- a checkpoint of this run at the path
    is picked up, trace included; anything else there is refused."""
    from repro.sim.simulator import run, trace_header

    every = _checkpoint_every(args)
    params, runspec, machine = _runspec(args, kind)
    with _trace_sink(
        args.trace, trace_header(params, runspec, machine)
    ) as writer:
        stats = run(
            runspec,
            machine=machine,
            trace=writer,
            checkpoint_path=args.checkpoint,
            checkpoint_every=every,
        )
        if writer is not None:
            writer.write_record(
                _batch_end_record(
                    stats,
                    writer.events_written,
                    faulted=runspec.fault_set is not None,
                )
            )
    return runspec, stats


def cmd_demand(args) -> int:
    runspec, stats = _run_checkpointed(args, "demand")
    out = sys.stderr if args.trace == "-" else sys.stdout
    dropped = (
        f", {stats.dropped} dropped" if runspec.fault_set is not None else ""
    )
    print(
        f"{runspec.spec.schedule.name} / {args.arbitration} ({args.mode}): "
        f"{stats.injected} injected, {stats.delivered} delivered{dropped} "
        f"in {stats.end_cycle} cycles",
        file=out,
    )
    return 0


def cmd_replay(args) -> int:
    import io
    import pathlib

    from repro.traffic.replay import replay_trace

    text = pathlib.Path(args.trace_file).read_text()
    if text and not text.endswith("\n"):
        text += "\n"
    buffer = io.StringIO()
    stats, workload, events = replay_trace(
        text.splitlines(), out_stream=buffer, arbitration=args.arbitration
    )
    policy = args.arbitration or workload.arbitration or "rr"
    replayed = buffer.getvalue()
    if args.trace is not None:
        if args.trace == "-":
            sys.stdout.write(replayed)
        else:
            with open(args.trace, "w") as stream:
                stream.write(replayed)
    identical = replayed == text
    out = sys.stderr if args.trace == "-" else sys.stdout
    print(
        f"replayed {events} events / {stats.delivered} packets in "
        f"{stats.end_cycle} cycles ({policy}); round-trip "
        f"{'byte-identical' if identical else 'DIVERGED'}",
        file=out,
    )
    if args.verify and not identical:
        print(
            "error: replay is not byte-identical to the input",
            file=sys.stderr,
        )
        return 1
    return 0


#: CLI names for failable channel kinds (``repro faults sample --kinds``).
FAULT_KIND_NAMES = ("torus", "mesh", "skip", "rca", "car")


def _fault_kinds(names):
    from repro.core.machine import ChannelKind

    mapping = {
        "torus": ChannelKind.TORUS,
        "mesh": ChannelKind.MESH,
        "skip": ChannelKind.SKIP,
        "rca": ChannelKind.ROUTER_TO_CA,
        "car": ChannelKind.CA_TO_ROUTER,
    }
    return tuple(mapping[name] for name in names)


def cmd_faults_sample(args) -> int:
    from repro.faults import sample_link_faults

    machine = _machine(args)
    fault_set = sample_link_faults(
        machine,
        args.k,
        seed=args.seed,
        kinds=_fault_kinds(args.kinds),
        down_cycle=args.down,
        up_cycle=args.up,
        note=args.note,
    )
    text = fault_set.to_json(indent=2)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as stream:
            stream.write(text + "\n")
        print(
            f"{len(fault_set)} link fault(s) on {'x'.join(map(str, args.shape))} "
            f"(seed {args.seed}) -> {args.out}",
            file=sys.stderr,
        )
    return 0


def _validate_topology(args) -> int:
    """Mechanical deadlock-freedom proof for one registered topology.

    ``repro faults validate --topology NAME`` (no fault file) runs the
    full bar every shipped topology must clear: the healthy machine's
    (channel, VC) dependency graph is acyclic, and it stays acyclic --
    with no pair unroutable -- under every possible single inter-node
    link failure.
    """
    from repro.core import deadlock
    from repro.faults.verify import verify_single_link_failures

    shape = args.shape or _default_validation_shape(args.topology)
    machine = Machine(
        MachineConfig(shape=shape, endpoints_per_chip=1, topology=args.topology)
    )
    report = deadlock.analyze(machine, RouteComputer(machine))
    print(
        f"topology={args.topology} shape={machine.topology.shape_str()}: "
        f"healthy dependency graph "
        f"{'acyclic (deadlock-free)' if report.deadlock_free else 'CYCLIC'} "
        f"over {report.routes} routes "
        f"(T-VCs={sorted(report.t_vcs_used)} M-VCs={sorted(report.m_vcs_used)})"
    )
    if not report.deadlock_free:
        print("cycle:", deadlock.describe_cycle(machine, report.cycle),
              file=sys.stderr)
        return 1
    sweep = verify_single_link_failures(machine)
    dead = sum(sweep.unroutable.values())
    print(
        f"single-link sweep: {sweep.checked} inter-node link failure(s), "
        f"{'all degraded graphs acyclic' if sweep.all_acyclic else 'CYCLIC: ' + str(sweep.cyclic)}, "
        f"{dead} unroutable request(s), "
        f"{len(sweep.escalations)} link(s) needed escalation beyond re-pick"
    )
    return 0 if sweep.all_acyclic and not dead else 1


def cmd_faults_validate(args) -> int:
    from repro.faults import FaultAwareRouteComputer, degraded_report

    if args.fault_file is None:
        args.topology = args.topology or "torus"
        return _validate_topology(args)
    _, runspec, machine = _runspec(args, "idle")
    fault_set = runspec.fault_set
    failed = fault_set.all_channels(machine)
    print(
        f"{len(fault_set)} fault spec(s), {len(failed)} distinct failed "
        f"channel(s) on shape {machine.topology.shape_str()}: valid"
    )
    status = 0
    if args.check_routes:
        from repro.core.deadlock import enumerate_routes

        computer = FaultAwareRouteComputer(machine)
        computer.set_failed(failed)
        list(enumerate_routes(machine, computer, skip_unroutable=True))
        stages = ", ".join(
            f"{stage}={count}"
            for stage, count in sorted(computer.resolution_counts.items())
        )
        unroutable = computer.resolution_counts.get("unroutable", 0)
        print(f"route resolution: {stages or 'all primary'}")
        if unroutable:
            print(f"error: {unroutable} route request(s) unroutable",
                  file=sys.stderr)
            status = 1
    if args.check_deadlock:
        report = degraded_report(machine, fault_set)
        print(
            f"degraded dependency graph: "
            f"{'acyclic (deadlock-free)' if report.deadlock_free else 'CYCLIC'} "
            f"over {report.routes} routes"
        )
        if not report.deadlock_free:
            status = 1
    return status


def cmd_faults_run(args) -> int:
    runspec, stats = _run_checkpointed(args, "batch")
    out = sys.stderr if args.trace == "-" else sys.stdout
    print(
        f"{runspec.spec.pattern.name} / {args.arbitration} / "
        f"policy={args.policy}: "
        f"{stats.delivered} delivered, {stats.dropped} dropped, "
        f"{stats.rerouted} rerouted, {stats.retried} retried "
        f"({stats.fault_events} fault events) in {stats.end_cycle} cycles",
        file=out,
    )
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve import PROTOCOL_VERSION, SessionConfig, SimServer

    config = SessionConfig(
        quantum_cycles=args.quantum,
        backpressure=args.backpressure,
        metrics_every=args.metrics_every,
    )

    async def main() -> None:
        server = SimServer(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            session_config=config,
        )
        await server.start()
        print(
            f"repro-serve listening on {server.host}:{server.port} "
            f"(proto {PROTOCOL_VERSION}, max {args.max_sessions} sessions)",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def cmd_loadtest(args) -> int:
    import asyncio
    import json
    import pathlib

    from repro.serve import LoadTestSpec, run_loadtest

    spec = LoadTestSpec(
        sessions=args.sessions,
        connections=args.connections,
        steps=args.steps,
        step_cycles=args.step_cycles,
        arrival_spread_s=args.spread,
        seed=args.seed,
    )
    report = asyncio.run(run_loadtest(spec, host=args.host, port=args.port))

    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}", file=sys.stderr)

    client_q = report["client_latency_us"]
    server_q = report["server"]["latency_us"]
    print(
        f"{report['completed']}/{report['sessions']} sessions completed "
        f"({report['failed']} failed), peak {report['peak_live_sessions']} "
        f"live, {report['requests']} requests in {report['duration_s']}s "
        f"({report['requests_per_s']}/s)"
    )
    print(
        f"latency us  client p50/p95/p99 {client_q['p50']}/{client_q['p95']}"
        f"/{client_q['p99']}  server p50/p95/p99 {server_q['p50']}"
        f"/{server_q['p95']}/{server_q['p99']}"
    )
    if report.get("first_error"):
        print(f"first error: {report['first_error']}", file=sys.stderr)

    # The two floors are absolute: no session fails, and every one of
    # them is live at once while the creation barrier holds.
    broken = []
    if report["failed"]:
        broken.append(f"{report['failed']} sessions failed")
    if report["peak_live_sessions"] < report["sessions"]:
        broken.append(
            f"peak_live_sessions {report['peak_live_sessions']} < "
            f"sessions {report['sessions']}"
        )
    if broken:
        print(f"loadtest floor broken: {'; '.join(broken)}", file=sys.stderr)
        return 1
    return 0


def cmd_checkpoint_save(args) -> int:
    from repro.sim.checkpoint import save_checkpoint
    from repro.sim.simulator import reject_unshardable, start, trace_header

    if args.cycles < 0:
        raise ValueError(f"--cycles must not be negative, got {args.cycles}")
    params, runspec, machine = _runspec(args)
    if args.shards != 1:
        # Refused before --trace is opened: a refusal leaves no file.
        reject_unshardable(
            runspec.config, runspec.fault_policy, traced=args.trace is not None
        )
    header = trace_header(params, runspec, machine)
    # The same bytes at args.out, and nothing else, at any --shards: the
    # one file resumes under any shard count.
    with _trace_sink(args.trace, header) as writer, contextlib.closing(
        start(runspec, machine, writer, shards=args.shards)
    ) as engine:
        stats = engine.run_for(args.cycles)
        if writer is not None:
            writer.flush()
        save_checkpoint(engine, args.out)
    print(
        f"checkpoint at cycle {engine.cycle}: {stats.delivered} of "
        f"{stats.injected} injected packets delivered -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_checkpoint_restore(args) -> int:
    from repro.sim.checkpoint import load_checkpoint, restore_engine

    data = load_checkpoint(args.checkpoint_file)
    with _trace_sink(args.trace) as writer:
        # The restore cuts the trace file back to the snapshot.
        engine = restore_engine(data, trace=writer)
        stats = engine.run()
        if writer is not None:
            writer.write_record(
                _batch_end_record(
                    stats,
                    writer.events_written,
                    faulted=data.get("faults") is not None,
                )
            )
    print(
        f"resumed from cycle {data.get('cycle')}: {stats.delivered} "
        f"delivered in {stats.end_cycle} cycles",
        file=sys.stderr,
    )
    return 0


def cmd_checkpoint_info(args) -> int:
    from repro.sim.checkpoint import checkpoint_info, load_checkpoint

    info = checkpoint_info(load_checkpoint(args.checkpoint_file))
    for key, value in info.items():
        print(f"{key}: {value}")
    return 0


def _profile_rows(table):
    """A cProfile call table (``pstats.Stats(...).stats``) as deterministic
    rows.

    Rows are ``(ncalls, 'dir/file.py:func', tottime)`` with call counts
    summed per qualified function name, sorted by descending count then
    name. Call counts are a pure function of the seeded simulation, so
    the table is diffable across runs.
    """
    merged = {}
    for (filename, _lineno, funcname), (
        _cc,
        ncalls,
        tottime,
        _cumtime,
        _callers,
    ) in table.items():
        # Qualify by the last two path components: 'sim/engine.py'
        # disambiguates the repo's several routing.py / __init__.py.
        parts = filename.replace("\\", "/").rsplit("/", 2)
        where = "/".join(parts[-2:]) if len(parts) > 1 else filename
        if where == "~" or where.startswith("<"):
            where = "<builtin>"
        entry = merged.setdefault(f"{where}:{funcname}", [0, 0.0])
        entry[0] += ncalls
        entry[1] += tottime
    rows = [
        (ncalls, name, tottime)
        for name, (ncalls, tottime) in merged.items()
    ]
    rows.sort(key=lambda row: (-row[0], row[1]))
    return rows


def cmd_profile(args) -> int:
    """Profile the engine hot path over one seeded batch run.

    The table is deterministic for a given workload: rows are call
    counts (a pure function of the seeded simulation, not of machine
    speed), sorted by descending count then name. Wall-clock and
    per-function times go to the trailing summary line only, so output
    can be diffed across runs and machines.
    """
    import cProfile
    import pstats

    from repro.sim.simulator import run

    if args.top < 0:
        raise ValueError(f"--top must not be negative, got {args.top}")
    _, runspec, machine = _runspec(args)
    pattern = runspec.spec.pattern
    profiler = cProfile.Profile()
    stats = profiler.runcall(run, runspec, machine=machine)
    rows = _profile_rows(pstats.Stats(profiler).stats)
    total_calls = sum(row[0] for row in rows)

    print(
        f"profiled {pattern.name} batch x{args.batch} on "
        f"{'x'.join(str(r) for r in args.shape)} / {args.arbitration}: "
        f"{stats.delivered} packets, {stats.end_cycle} cycles"
    )
    print(f"{'ncalls':>12}  function")
    for ncalls, name, _tottime in rows[: args.top]:
        print(f"{ncalls:>12,}  {name}")
    print(f"-- {total_calls:,} calls across {len(rows)} functions")
    # Wall time varies run to run; keep it off stdout so the table can
    # be diffed byte-for-byte.
    wall = sum(tottime for _n, _f, tottime in rows)
    print(f"({wall:.2f}s profiled time)", file=sys.stderr)
    return 0


def cmd_latency(args) -> int:
    from repro.models.latency import (
        LatencyModel,
        aggregate_breakdown,
        latency_vs_hops,
        linear_fit,
        minimum_internode_route,
        network_fraction,
    )

    machine = _machine(args)
    routes = RouteComputer(machine)
    model = LatencyModel()
    latencies = latency_vs_hops(machine, routes, model, max_pairs_per_distance=8)
    intercept, slope = linear_fit(latencies)
    for hops in sorted(latencies):
        print(f"  {hops} hops: {latencies[hops]:.1f} ns")
    print(f"fit: {intercept:.1f} ns + {slope:.1f} ns/hop (paper: 80.7 + 39.1)")
    route = minimum_internode_route(machine, routes)
    items = model.route_breakdown(machine, route)
    total = sum(ns for _l, ns in items)
    print(f"minimum inter-node latency: {total:.1f} ns "
          f"(network {network_fraction(items) * 100:.0f}%)")
    for label, ns in aggregate_breakdown(items):
        print(f"  {label:14s} {ns:6.2f} ns")
    return 0


def cmd_area(args) -> int:
    from repro.models.area import AreaModel, CATEGORIES

    model = AreaModel()
    print("Table 1 (% of die):")
    for component, pct in model.table1().items():
        print(f"  {component:10s} {pct:5.2f}")
    print("Table 2 (% of network area):")
    table = model.table2()
    for category in CATEGORIES:
        print(f"  {category:14s} {table[category]['Total']:5.1f}")
    return 0


def cmd_energy(args) -> int:
    from repro.models.energy import EnergyModel, energy_curve

    model = EnergyModel()
    rates = (0.1, 0.25, 0.5, 0.75, 0.9)
    for pattern in ("zeros", "ones", "random"):
        curve = energy_curve(model, pattern, rates)
        values = "  ".join(f"{rate:.2f}:{energy:6.1f}" for rate, energy in curve)
        print(f"{pattern:7s} pJ/flit  {values}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Anton 2 unified-network reproduction (ISCA 2014)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One declaration per flag family; what differs between commands
    # (defaults) is an argument, so the table in
    # tests/integration/test_cli_parser_contract.py pins every row.
    def add_topology_arg(p, default="torus"):
        p.add_argument(
            "--topology",
            default=default,
            choices=list(TOPOLOGY_CHOICES),
            help="inter-node topology (default: torus, or the fault "
                 "file's; mesh and chiplet take KxK shapes)",
        )

    def add_machine_args(p, endpoints=4, shape=(4, 4, 4), fault_file=False):
        # On a command that takes a fault file --shape/--topology default
        # to None, "not given": the file's machine fills them in before
        # the command's own default does (_fault_file).
        p.add_argument(
            "--shape", type=parse_shape, default=None if fault_file else shape,
            help="machine shape: KxKxK, or KxK for mesh and chiplet"
                 + (" (default: the fault file's)" if fault_file else ""),
        )
        p.add_argument("--endpoints", type=int, default=endpoints)
        add_topology_arg(p, None if fault_file else "torus")
        p.set_defaults(shape_default=shape)

    def add_engine_args(p, cores=2, arbitration="rr"):
        p.add_argument("--cores", type=int, default=cores)
        p.add_argument(
            "--arbitration", default=arbitration, choices=["rr", "age", "iw"]
        )
        p.add_argument("--seed", type=int, default=0,
                       help="workload (injection/route sampling) seed")

    def add_batch_args(p, batch, cores=2, arbitration="rr"):
        p.add_argument(
            "--pattern", default="uniform", choices=list(PATTERN_CHOICES)
        )
        p.add_argument("--batch", type=int, default=batch)
        add_engine_args(p, cores, arbitration)

    def add_fault_args(p, positional=False):
        if positional:
            p.add_argument("fault_file", help="fault-set JSON file")
        else:
            p.add_argument("--fault-file", default=None,
                           help="fault-set JSON file to run degraded")
        p.add_argument("--policy", default="reroute",
                       choices=["reroute", "drop", "retry"],
                       help="fault policy (retry is refused by --shards > 1)")
        p.add_argument("--retries", type=int, default=4,
                       help="retry budget for --policy retry (default: 4)")

    def add_checkpoint_args(p):
        p.add_argument("--checkpoint", default=None,
                       help="periodic engine snapshot file: an interrupted "
                            "run made again picks itself up from it")
        p.add_argument("--checkpoint-every", type=int, default=64,
                       help="cycles between snapshots (default: 64)")

    p = sub.add_parser("info", help="machine and packaging summary")
    add_machine_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("route", help="print one route hop by hop")
    add_machine_args(p)
    p.add_argument("--src", type=parse_endpoint, required=True)
    p.add_argument("--dst", type=parse_endpoint, required=True)
    p.add_argument("--order", default="XYZ", choices=["XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"])
    p.add_argument("--slice", type=int, default=0, choices=[0, 1])
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("search", help="Section 2.4 routing search")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("deadlock", help="Section 2.5 dependency check")
    p.add_argument("--shape", type=parse_shape, default=None,
                   help="machine shape (default: 3x3x3 torus, 3x3 mesh, "
                        "2x2 chiplet)")
    p.add_argument(
        "--scheme", default="anton", choices=["anton", "baseline", "unsafe-single"]
    )
    add_topology_arg(p)
    p.set_defaults(func=cmd_deadlock)

    p = sub.add_parser("throughput", help="one batch-throughput point")
    add_machine_args(p)
    add_batch_args(p, batch=64, cores=4, arbitration="iw")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser(
        "run",
        help="run one batch, optionally sharded across worker processes",
    )
    add_machine_args(p, endpoints=2, fault_file=True)
    add_batch_args(p, batch=8)
    p.add_argument("--shards", type=int, default=1,
                   help="spatial shard count (1, 2, 4, or 8; results are "
                        "bit-identical across counts)")
    add_fault_args(p)
    add_checkpoint_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "trace", help="write a structured JSONL event trace of one batch run"
    )
    add_machine_args(p, endpoints=2)
    add_batch_args(p, batch=4)
    p.add_argument("--window", type=int, default=256,
                   help="busy-tick window grain in cycles (default: 256)")
    p.add_argument("--out", default="-",
                   help="output JSONL path ('-' for stdout)")
    p.add_argument("--golden", default=None,
                   help="regenerate one canonical golden trace by name")
    p.add_argument("--list-goldens", action="store_true",
                   help="list canonical golden trace names and exit")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "demand",
        help="run a demand-matrix workload (seeded generators, rate epochs)",
    )
    add_machine_args(p, endpoints=2, fault_file=True)
    p.add_argument(
        "--generator",
        default="hotspot",
        choices=[
            "uniform", "hotspot", "skew", "permutation", "adversarial", "file",
        ],
        help="demand-matrix generator (default: hotspot)",
    )
    p.add_argument("--rate", type=float, default=0.25,
                   help="per-source row-sum rate in packets/cycle "
                        "(default: 0.25)")
    p.add_argument("--hotspots", type=int, default=1,
                   help="hot node count for --generator hotspot")
    p.add_argument("--hot-fraction", type=float, default=0.5,
                   help="rate fraction aimed at the hot nodes")
    p.add_argument("--skew-exponent", type=float, default=1.0,
                   help="Zipf exponent for --generator skew")
    p.add_argument("--matrix-seed", type=int, default=0,
                   help="matrix-generation seed (epoch k uses seed + k)")
    p.add_argument("--matrix-file", default=None,
                   help="demand-matrix JSON file for --generator file")
    p.add_argument("--restarts", type=int, default=3,
                   help="adversarial search restarts (default: 3)")
    p.add_argument("--steps", type=int, default=60,
                   help="adversarial hill-climb steps per restart")
    p.add_argument("--epochs", type=int, default=1,
                   help="number of piecewise-constant rate epochs")
    p.add_argument("--epoch-length", type=int, default=64,
                   help="cycles per epoch when --epochs > 1 (default: 64)")
    p.add_argument("--mode", default="open", choices=["open", "closed"])
    p.add_argument("--duration", type=int, default=256,
                   help="open-loop injection window in cycles (default: 256)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="closed-loop packets per unit row sum (default: 1)")
    p.add_argument("--injection", default="bernoulli",
                   choices=["bernoulli", "paced"])
    add_engine_args(p)
    p.add_argument("--trace", default=None,
                   help="write a JSONL event trace ('-' for stdout)")
    add_checkpoint_args(p)
    add_fault_args(p)
    p.set_defaults(func=cmd_demand)

    p = sub.add_parser(
        "replay", help="re-simulate a recorded JSONL trace byte-for-byte"
    )
    p.add_argument("trace_file", help="JSONL trace to replay")
    p.add_argument("--trace", default=None,
                   help="write the replayed trace ('-' for stdout)")
    p.add_argument("--arbitration", default=None,
                   choices=["rr", "age", "iw"],
                   help="override the trace header's arbitration policy")
    p.add_argument("--verify", action="store_true",
                   help="exit 1 unless the replay is byte-identical")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "serve",
        help="serve concurrent simulation sessions over NDJSON/TCP",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7777,
                   help="TCP port (0 picks an ephemeral port; default 7777)")
    p.add_argument("--max-sessions", type=int, default=1024,
                   help="session table cap: a create past it is refused "
                        "(default: 1024)")
    p.add_argument("--quantum", type=int, default=256,
                   help="cycles per session scheduling quantum (default: 256)")
    p.add_argument("--backpressure", default="drop-oldest",
                   choices=["drop-oldest", "pause"],
                   help="policy when a subscriber's outbound queue fills")
    p.add_argument("--metrics-every", type=int, default=0,
                   help="default metrics-stream cadence in cycles "
                        "(0: only per-subscriber cadences)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadtest",
        help="drive many concurrent sessions; report latency quantiles",
    )
    p.add_argument("--host", default=None,
                   help="external server host (default: in-process server)")
    p.add_argument("--port", type=int, default=None,
                   help="external server port")
    p.add_argument("--sessions", type=int, default=500)
    p.add_argument("--connections", type=int, default=16,
                   help="pooled client connections (default: 16)")
    p.add_argument("--steps", type=int, default=2,
                   help="step requests per session (default: 2)")
    p.add_argument("--step-cycles", type=int, default=64)
    p.add_argument("--spread", type=float, default=0.25,
                   help="seeded arrival spread in seconds (default: 0.25)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="write the JSON report here")
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser(
        "faults", help="sample, validate, and run degraded-topology fault sets"
    )
    fsub = p.add_subparsers(dest="faults_command", required=True)

    fp = fsub.add_parser("sample", help="draw a seeded random fault set")
    add_machine_args(fp, endpoints=2)
    fp.add_argument("-k", type=int, default=1, help="number of link faults")
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument(
        "--kinds",
        nargs="+",
        default=["torus"],
        choices=FAULT_KIND_NAMES,
        help="channel kinds eligible to fail (default: torus)",
    )
    fp.add_argument("--down", type=int, default=0,
                    help="cycle the links fail (0: before the run)")
    fp.add_argument("--up", type=int, default=None,
                    help="cycle the links recover (default: never)")
    fp.add_argument("--note", default="", help="free-form note stored in the set")
    fp.add_argument("--out", default="-",
                    help="output JSON path ('-' for stdout)")
    fp.set_defaults(func=cmd_faults_sample)

    fp = fsub.add_parser(
        "validate",
        help="check a fault set against a machine, or (with no fault "
             "file) mechanically verify a topology's deadlock freedom",
    )
    fp.add_argument("fault_file", nargs="?", default=None,
                    help="fault-set JSON file; omit to run the topology "
                         "deadlock + single-link-failure verification")
    add_machine_args(fp, endpoints=2, shape=None, fault_file=True)
    fp.add_argument("--check-routes", action="store_true",
                    help="resolve every degraded route; fail on unroutable")
    fp.add_argument("--check-deadlock", action="store_true",
                    help="verify the degraded dependency graph is acyclic")
    fp.set_defaults(func=cmd_faults_validate)

    fp = fsub.add_parser("run", help="run one batch on the degraded machine")
    add_fault_args(fp, positional=True)
    add_machine_args(fp, endpoints=2, shape=None, fault_file=True)
    add_batch_args(fp, batch=8)
    fp.add_argument("--trace", default=None,
                    help="also write a JSONL event trace ('-' for stdout)")
    add_checkpoint_args(fp)
    fp.set_defaults(func=cmd_faults_run)

    p = sub.add_parser(
        "checkpoint", help="save, resume, and inspect engine snapshots"
    )
    csub = p.add_subparsers(dest="checkpoint_command", required=True)

    cp = csub.add_parser("save", help="run a batch N cycles, then snapshot")
    add_machine_args(cp, endpoints=2)
    add_batch_args(cp, batch=4)
    cp.add_argument("--cycles", type=int, required=True,
                    help="cycles to run before snapshotting")
    cp.add_argument("--trace", default=None,
                    help="also write the partial JSONL event trace")
    cp.add_argument("--out", default="checkpoint.json",
                    help="snapshot output path (default: checkpoint.json)")
    cp.add_argument("--shards", type=int, default=1,
                    help="spatial shard count (the --out bytes do not "
                         "change with it; refused with --trace)")
    cp.set_defaults(func=cmd_checkpoint_save)

    cp = csub.add_parser("restore", help="resume a snapshot to completion")
    cp.add_argument("checkpoint_file", help="snapshot written by 'save'")
    cp.add_argument("--trace", default=None,
                    help="trace file to truncate to the snapshot and extend")
    cp.set_defaults(func=cmd_checkpoint_restore)

    cp = csub.add_parser("info", help="print a snapshot summary")
    cp.add_argument("checkpoint_file", help="snapshot written by 'save'")
    cp.set_defaults(func=cmd_checkpoint_info)

    p = sub.add_parser(
        "profile", help="profile the engine hot path over one seeded batch"
    )
    add_machine_args(p)
    add_batch_args(p, batch=32, cores=4)
    p.add_argument("--top", type=int, default=25,
                   help="rows in the hot-function table (default: 25)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("latency", help="Figure 11/12 latency model")
    add_machine_args(p, endpoints=2)
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("area", help="Tables 1 and 2")
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("energy", help="Figure 13 energy curves")
    p.set_defaults(func=cmd_energy)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # Operational failures (bad fault files, unroutable requests,
        # missing paths) become a one-line diagnostic and exit code 1;
        # anything else is a genuine bug and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
