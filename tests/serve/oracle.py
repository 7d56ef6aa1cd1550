"""Serial oracles for the serve conformance tests.

The serving path's acceptance bar is byte-identity against the direct
runner: a workload driven over the wire (in quanta, across resumes)
must produce the same stats dict, the same metrics snapshot, and the
same checkpoint text as one uninterrupted
``run(RunSpec.from_params(workload))``. The helpers here start and run
exactly that engine.
"""

import json

from repro.sim.checkpoint import dumps as checkpoint_dumps
from repro.sim.checkpoint import snapshot_engine
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import RunSpec, start


def canon(obj) -> str:
    """Canonical text of a JSON payload (compact, insertion-ordered)."""
    return json.dumps(obj, separators=(",", ":"))


def oracle_artifacts(workload, window_cycles=256):
    """Run a serve workload directly; return its canonical observable
    bytes. The engine is the one :func:`~repro.sim.simulator.run` starts
    for the workload's decoded run, traced by a bare collector (the
    checkpoint's trace section ignores the session's extra stream
    buffer, so the bytes must still agree)."""
    collector = MetricsCollector(window_cycles=window_cycles)
    engine = start(RunSpec.from_params(workload), trace=collector)
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
