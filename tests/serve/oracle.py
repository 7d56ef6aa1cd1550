"""Serial oracles for the serve conformance tests.

The serving path's acceptance bar is byte-identity against the direct
runners: a workload driven over the wire (in quanta, across evictions)
must produce the same stats dict, the same metrics snapshot, and the
same checkpoint text as one uninterrupted ``run()`` of the engine the
direct :func:`~repro.sim.simulator.run_batch` /
:func:`~repro.traffic.demand.run_demand` call would build. The helpers
here build and run exactly that engine.
"""

import json

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.sim.checkpoint import dumps as checkpoint_dumps
from repro.sim.checkpoint import snapshot_engine
from repro.sim.metrics import MetricsCollector


def canon(obj) -> str:
    """Canonical text of a JSON payload (compact, insertion-ordered)."""
    return json.dumps(obj, separators=(",", ":"))


def oracle_engine(workload, window_cycles=256):
    """Build the direct-runner engine for a serve workload spec.

    Mirrors ``Session.create``: same builders, same arbiter programming,
    same seeds -- but traced by a bare collector (the checkpoint trace
    section ignores the session's extra stream buffer, so the bytes must
    still agree). Returns ``(engine, collector)`` without running.
    """
    workload = dict(workload)
    shape = tuple(workload.get("shape", (2, 2, 2)))
    endpoints = int(workload.get("endpoints", 2))
    cores = int(workload.get("cores", 2))
    arbitration = workload.get("arbitration", "rr")
    seed = int(workload.get("seed", 0))
    machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=endpoints))
    routes = RouteComputer(machine)

    faults = None
    if workload.get("faults") is not None or "policy" in workload:
        from repro.faults import FaultPolicy, FaultRuntime, FaultSet

        if workload.get("faults") is not None:
            fault_set = FaultSet.from_json(json.dumps(workload["faults"]))
        else:
            fault_set = FaultSet(shape=shape)
        pol = workload.get("policy") or {}
        policy = FaultPolicy(
            mode=pol.get("mode", "reroute"),
            max_retries=int(pol.get("retries", 4)),
        )
        faults = FaultRuntime(machine, fault_set, policy=policy)
        routes = faults.route_computer

    collector = MetricsCollector(window_cycles=window_cycles)
    kind = workload.get("kind", "idle")
    if kind == "batch":
        from repro.sim.simulator import build_batch_engine
        from repro.traffic.batch import BatchSpec
        from repro.traffic.patterns import pattern_factories

        pattern = pattern_factories(shape)[workload.get("pattern", "uniform")]()
        spec = BatchSpec(
            pattern=pattern,
            packets_per_source=int(workload.get("batch", 8)),
            cores_per_chip=cores,
            seed=seed,
        )
        engine = build_batch_engine(
            machine,
            routes,
            spec,
            arbitration=arbitration,
            weight_patterns=[pattern] if arbitration == "iw" else None,
            trace=collector,
            faults=faults,
        )
    elif kind == "demand":
        from repro.traffic.demand import DemandSpec, build_demand_engine

        spec = DemandSpec.from_params(
            workload.get("demand") or {}, shape, cores, seed, machine, routes
        )
        engine = build_demand_engine(
            machine,
            routes,
            spec,
            arbitration=arbitration,
            trace=collector,
            faults=faults,
        )
    else:
        raise ValueError(f"no oracle for workload kind {kind!r}")
    return engine, collector


def oracle_artifacts(workload):
    """Run a workload serially; return its canonical observable bytes."""
    engine, collector = oracle_engine(workload)
    engine.run()
    return {
        "stats": canon(engine.stats.asdict()),
        "metrics": canon(collector.snapshot()),
        "checkpoint": checkpoint_dumps(snapshot_engine(engine)),
    }


def session_artifacts(session):
    """The same three observables, read off a (drained) served session."""
    payload = session.stats_payload()
    return {
        "stats": canon(payload["stats"]),
        "metrics": canon(payload["metrics"]),
        "checkpoint": session.snapshot_text(),
    }
