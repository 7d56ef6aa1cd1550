"""One workload, inside the fresh interpreter ``run.py`` starts for it.

``run.py`` launches this file with ``PYTHONHASHSEED=0`` and
``PYTHONPATH=src`` and reads the single JSON object printed last. The
untraced pass (``--trace 0``) times repeats for ``--seconds`` and checks
their outputs; the traced pass (``--trace 1``) measures the layers: one
reference repeat, one repeat under span wrappers, the workload's own
probes, and one repeat under cProfile for the host-time shares.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Optional

from measure import Calibrator, Meter

#: Fewest timed repeats whatever ``--seconds`` says (one with --quick).
#: About five fit on a quiet host; the floor is lower so that a slow host
#: cannot push the driver's 158 runs past its time cap.
MIN_REPEATS = 3


def check(outcomes: list, twin: Optional[str]) -> List[str]:
    """Everything that went wrong: failed operations inside repeats,
    repeats that disagree, and a cross-path twin that disagrees."""
    failures = [note for outcome in outcomes for note in outcome.failures]
    for index, outcome in enumerate(outcomes[1:], start=1):
        if outcome.digest != outcomes[0].digest:
            failures.append(
                f"repeat {index} digest {outcome.digest} != repeat 0 "
                f"{outcomes[0].digest}"
            )
    if twin is not None and twin != outcomes[0].digest:
        failures.append(f"cross-path twin {twin} != {outcomes[0].digest}")
    return failures


def verdict(outcomes: list, twin: Optional[str], failures: List[str]) -> dict:
    attempted = sum(outcome.attempted for outcome in outcomes) + (twin is not None)
    return {
        "digest": outcomes[0].digest,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
    }


def timed_pass(workload, meter: Meter, host: Calibrator, args, scratch: str) -> dict:
    workload.setup(args.seed, args.quick, meter, scratch)
    # Process-tree CPU since exec (interpreter start and imports included,
    # the calibration loops not), and the host's slowdown across it.
    setup = {
        "setup_s": meter.cpu() - host.spent,
        "setup_slowdown": host.slowdown_since_last(),
    }
    if args.phase == "setup":
        return setup
    min_repeats = 1 if args.quick else MIN_REPEATS
    repeats = []
    slowdowns = []
    started = time.perf_counter()
    while True:
        # One calibration after each repeat: it closes that repeat's
        # bracket and opens the next one's.
        repeats.append(meter.timed(workload.repeat))
        slowdowns.append(host.slowdown_since_last())
        elapsed = time.perf_counter() - started
        # Stop when one more repeat (with its calibration) would overrun.
        if len(repeats) >= min_repeats and elapsed * (1 + 1 / len(repeats)) > args.seconds:
            break
    peak_rss_mb = meter.peak_rss_mb()
    outcomes = [r.result for r in repeats]
    twin = workload.twin()
    result = verdict(outcomes, twin, check(outcomes, twin))
    result.update(setup)
    result.update({
        "cpu_s": [r.cpu for r in repeats],
        "slowdown": slowdowns,
        "wall_s": [r.wall for r in repeats],
        "cycles": outcomes[0].cycles,
        "peak_rss_mb": peak_rss_mb,
    })
    return result


def span_metrics(tracer, outcome, repeat_cpu: float) -> Dict[str, float]:
    """Per-layer metrics read off the spans of setup (-1) and repeat 0."""
    setup, repeat = -1, 0
    spans = {
        "core.machine.build_s": ("core.machine.build", setup),
        "traffic.loads.compute_s": ("traffic.loads.compute", setup),
        "arbiters.weights.program_s": ("arbiters.weights.program", setup),
        "traffic.batch.generate_s": ("traffic.batch.generate", repeat),
        "traffic.demand.generate_s": ("traffic.demand.generate", repeat),
        "faults.runtime.build_s": ("faults.runtime.build", repeat),
        "sim.engine.build_s": ("sim.engine.build", repeat),
        "sim.engine.run_s": ("sim.engine.run", repeat),
    }
    # A layer this process never called has no span and gets no metric.
    out = {
        metric: tracer.cpu(name, phase)
        for metric, (name, phase) in spans.items()
        if tracer.count(name, phase)
    }
    run_s = out.get("sim.engine.run_s")
    packets, enqueue_cpu = tracer.calls("sim.engine.enqueue", repeat)
    if packets:
        out["sim.engine.enqueue_us_per_packet"] = enqueue_cpu / packets * 1e6
    stats = outcome.stats
    if stats is not None:
        # Every departure schedules one arrival and one credit return.
        events = 2 * sum(stats.channel_flits.values())
        out.update({
            "sim.engine.end_cycle": stats.end_cycle,
            "sim.engine.events": events,
            "sim.engine.delivered": stats.delivered,
        })
        if "faults.runtime.build_s" in out:
            out["faults.rerouted"] = stats.rerouted
            out["faults.dropped"] = stats.dropped
        if run_s:
            out["sim.engine.us_per_cycle"] = run_s / stats.end_cycle * 1e6
            out["sim.engine.us_per_event"] = run_s / events * 1e6
    saves = tracer.count("sim.checkpoint.save", repeat)
    if saves:
        for name in ("snapshot", "dumps", "loads", "restore"):
            span = f"sim.checkpoint.{name}"
            out[f"{span}_ms"] = (
                tracer.cpu(span, repeat) / tracer.count(span, repeat) * 1e3
            )
        out["sim.checkpoint.saves"] = saves
        out["sim.checkpoint.share"] = sum(
            tracer.cpu(f"sim.checkpoint.{name}", repeat)
            for name in ("save", "load", "restore")
        ) / repeat_cpu
    return out


def traced_pass(workload, meter: Meter, args, scratch: str) -> dict:
    from tracing import Tracer, host_shares
    from workloads import TraceContext

    tracer = Tracer(args.workload)
    tracer.install()
    with tracer.span("setup"):
        workload.setup(args.seed, args.quick, meter, scratch)
    tracer.uninstall()

    # Per-layer times are raw; the slowdown across the two repeats they
    # come from is recorded beside them so a reader can tell a slow
    # layer from a slow hour.
    host = Calibrator()
    reference = meter.timed(workload.repeat)

    def traced_repeat():
        with tracer.span("repeat") as span:
            outcome = workload.repeat()
        for name, start, end in workload.request_spans():
            tracer.add(name, start, end, span["id"])
        return outcome

    tracer.install()
    tracer.repeat = 0
    traced = meter.timed(traced_repeat)
    tracer.uninstall()
    host_slowdown = host.slowdown_since_last()

    twin = meter.timed(workload.twin)
    outcomes = [reference.result, traced.result]
    failures = check(outcomes, twin.result)
    context = TraceContext(
        meter=meter, seed=args.seed, quick=args.quick, repeat=reference,
        twin=None if twin.result is None else twin, failures=failures,
    )
    layers = span_metrics(tracer, traced.result, traced.cpu)
    layers.update(workload.layers(context))

    # Last, so the profiler's slowdown touches no other measurement.
    profile = cProfile.Profile()
    gc.collect()
    profile.enable()
    profiled = workload.repeat()
    profile.disable()
    outcomes.append(profiled)
    failures.extend(check([reference.result, profiled], None))
    layers.update(host_shares(profile))
    layers["trace_overhead_ratio"] = traced.cpu / reference.cpu
    layers["host_slowdown"] = host_slowdown
    # The repeat under span wrappers: the whole the span times are parts of.
    layers["repeat_cpu_s"] = traced.cpu
    layers["repeat_wall_s"] = traced.wall

    trace_file = os.path.join(args.out, f"trace-{args.workload}.jsonl")
    tracer.write(trace_file)
    result = verdict(outcomes, twin.result, failures)
    result.update({"layers": layers, "trace_file": trace_file})
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--phase", choices=("setup", "full"), default="full")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True, help="directory for traces and scratch files")
    args = parser.parse_args(argv)

    meter = Meter()
    # Only the untraced pass calibrates (its two bounded times). The
    # first sample precedes the heavy imports: set-up's slowdown is the
    # mean of this one and the one after it.
    host = None if args.trace else Calibrator()
    from workloads import WORKLOADS

    scratch = os.path.join(args.out, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            result = traced_pass(workload, meter, args, scratch)
        else:
            result = timed_pass(workload, meter, host, args, scratch)
    finally:
        try:
            workload.teardown()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
