"""Standalone layer probes: one layer's public calls on seeded inputs.

Each probe returns per-layer metrics by their ledger names. They run in
the traced pass only, after the workload's own repeats, and each probe
runs in exactly one workload, the one that leans on its layer most (see
``Workload.layers`` in ``workloads.py``), so a metric has one value in
the ledger.
"""

from __future__ import annotations

import asyncio
import heapq
import random
import subprocess
import sys
import time
from typing import Callable, Dict, List

from repro.arbiters.age_based import AgeBasedArbiter
from repro.arbiters.base import SimpleRequest
from repro.arbiters.inverse_weighted import InverseWeightedArbiter
from repro.arbiters.round_robin import RoundRobinArbiter
from repro.arbiters.weights import compute_inverse_weights
from repro.core.routing import RouteComputer
from repro.serve.protocol import decode_frame, encode_frame, reply_ok
from repro.serve.session import Session
from repro.sim.wheel import TimingWheel

from measure import Meter, percentile


def _cpu_of(fn: Callable[[], object]) -> float:
    cpu0 = time.process_time()
    fn()
    return time.process_time() - cpu0


def routing(machine, seed: int, pairs: int) -> Dict[str, float]:
    """Cold and cached ``RouteComputer.compute`` over seeded pairs."""
    rng = random.Random(seed)
    routes = RouteComputer(machine)
    endpoints = sorted(machine.ep_id.values())
    calls = []
    for _ in range(pairs):
        src, dst = rng.sample(endpoints, 2)
        choice = routes.random_choice(
            rng, machine.components[src].chip, machine.components[dst].chip
        )
        calls.append((src, dst, choice))

    def sweep() -> None:
        compute = routes.compute
        for src, dst, choice in calls:
            compute(src, dst, choice)

    cold = _cpu_of(sweep)
    warm = _cpu_of(sweep)
    return {
        "core.routing.compute_us": cold / pairs * 1e6,
        "core.routing.cached_us": warm / pairs * 1e6,
    }


def arbiters(seed: int, vectors: int) -> Dict[str, float]:
    """``arbitrate()`` over seeded 6-input request vectors, per policy."""
    inputs = 6
    rng = random.Random(seed)
    requests = [
        tuple(
            SimpleRequest(pattern=0, inject_cycle=rng.randrange(1 << 16))
            if rng.random() < 0.6 else None
            for _ in range(inputs)
        )
        for _ in range(vectors)
    ]
    table = compute_inverse_weights(
        [[rng.uniform(0.1, 1.0)] for _ in range(inputs)]
    )
    policies = {
        "rr": RoundRobinArbiter(inputs),
        "iw": InverseWeightedArbiter(table.inverse_weights, table.weight_bits),
        "age": AgeBasedArbiter(inputs),
    }
    out = {}
    for name, arbiter in policies.items():
        def sweep(arbitrate=arbiter.arbitrate) -> None:
            for vector in requests:
                arbitrate(vector)

        out[f"arbiters.{name}.grant_ns"] = _cpu_of(sweep) / vectors * 1e9
    return out


def wheel(seed: int, events: int) -> Dict[str, float]:
    """Push + drain on a standalone ``TimingWheel``.

    Nine in ten events land inside the horizon (bucket append), the rest
    overflow to the heap, which the caller drains as the engine does.
    """
    rng = random.Random(seed)
    timing = TimingWheel(64)
    size = timing.size
    deltas = [
        rng.randrange(1, size) if rng.random() < 0.9 else rng.randrange(size, 4 * size)
        for _ in range(events)
    ]
    per_cycle = 8

    def churn() -> None:
        now = 0
        taken = 0
        index = 0
        overflow = timing.overflow
        while taken < events:
            for delta in deltas[index:index + per_cycle]:
                timing.push(now + delta, now, (delta,))
            index += per_cycle
            now += 1
            taken += len(timing.take_due(now))
            while overflow and overflow[0][0] <= now:
                heapq.heappop(overflow)
                timing.pending -= 1
                taken += 1

    return {"sim.wheel.push_take_ns": _cpu_of(churn) / events * 1e9}


def protocol(stats_payload: dict, frames: int) -> Dict[str, float]:
    """Encode/decode of one realistic reply frame (a ``stats`` reply)."""
    frame = reply_ok(1, stats_payload)
    line = encode_frame(frame)
    encode = _cpu_of(lambda: [encode_frame(frame) for _ in range(frames)])
    decode = _cpu_of(lambda: [decode_frame(line) for _ in range(frames)])
    return {
        "serve.protocol.encode_us": encode / frames * 1e6,
        "serve.protocol.decode_us": decode / frames * 1e6,
    }


def session(workloads: List[dict], steps: int, step_cycles: int) -> Dict[str, float]:
    """The serve session's own calls with no wire: create/step/stats/snapshot."""
    costs: Dict[str, List[float]] = {"create": [], "step": [], "stats": [], "snapshot": []}
    loop = asyncio.new_event_loop()
    try:
        for index, workload in enumerate(workloads):
            cpu0 = time.process_time()
            live = Session.create(f"probe{index}", workload)
            costs["create"].append(time.process_time() - cpu0)
            for _ in range(steps):
                costs["step"].append(_cpu_of(
                    lambda: loop.run_until_complete(live.advance(step_cycles))
                ))
            costs["snapshot"].append(_cpu_of(live.snapshot_text))
            costs["stats"].append(_cpu_of(live.stats_payload))
    finally:
        loop.close()
    return {
        f"serve.session.{name}_ms": percentile(values, 0.5) * 1e3
        for name, values in costs.items()
    }


def cli(meter: Meter) -> Dict[str, float]:
    """Fresh-interpreter cost of ``import repro`` and of a tiny CLI run."""

    def child_cpu(argv: List[str]) -> float:
        cpu0 = meter.cpu()
        subprocess.run(
            [sys.executable] + argv, check=True, stdout=subprocess.DEVNULL,
            timeout=60,
        )
        return meter.cpu() - cpu0

    return {
        "cli.import_s": child_cpu(["-c", "import repro"]),
        "cli.run_small_s": child_cpu(
            ["-m", "repro", "run", "--shape", "2x2x2", "--batch", "8"]
        ),
    }
