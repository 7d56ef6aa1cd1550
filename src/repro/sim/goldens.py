"""Canonical golden-trace runs: the engine-semantics conformance suite.

Each run here is small, deterministic, and chosen to cover a distinct
slice of engine behavior:

* ``uniform_2x2x2`` -- uniform random batch on the smallest full machine
  with round-robin arbitration: exercises both slices, VC promotion at
  datelines, and multi-hop contention;
* ``tornado_4x1x1`` -- tornado on a radix-4 X ring with inverse-weighted
  arbitration at both stages: exercises the weight-table path and
  sustained torus serialization at the exact 45/14 rate;
* ``faulted_2x2x2`` -- uniform batch with two scheduled mid-run
  torus-link failures (one recovering) under the reroute policy:
  exercises the fault sweep, in-place rerouting, and the fault/reroute
  trace events;
* ``pingpong_2x2x2`` -- the Section 4.3 counted-write ping-pong:
  exercises the delivery hook, reply injection, and an idle network's
  pure pipeline latency;
* ``demand_2x2x2`` -- an open-loop seeded-hotspot demand matrix whose
  rates shift at an epoch boundary mid-run: exercises the demand-matrix
  workload generator, paced Bernoulli injection, and piecewise-constant
  rate evolution;
* ``mesh_4x4`` -- uniform random batch on a standalone 2D mesh
  (``topology="mesh"``): exercises line-dimension routing where the
  dateline is degenerate and the escape VC is never entered via
  crossing;
* ``chiplet_2x2`` -- uniform batch with inverse-weighted arbitration on
  a 2x2 chiplet grid (``topology="chiplet"``): exercises interposer
  channel timing (3/2 cycles per flit, so ``ticks_per_cycle`` is 2, not
  14) and the exhaustive -- non-translation-symmetric -- analytic load
  path feeding the weight tables.

Golden headers carry machine-readable run metadata (``arb``, ``cores``,
and for batch runs ``pattern``/``batch``/``seed``) so ``repro replay``
can reconstruct the engine configuration from the trace alone.

With the exact fixed-point timebase a run's trace is a pure function of
its spec, so the JSONL rendering of these runs is committed under
``tests/golden/`` and *byte*-compared on every CI run. Any change to
arbitration order, credit return, serialization timing, or the trace
schema shows up as a readable JSONL diff instead of a silent drift in
downstream figures. Regenerate after an intentional semantics change
with::

    python -m repro trace --golden <name> --out tests/golden/<name>.jsonl
"""

from __future__ import annotations

import io
import pathlib
from typing import IO, Dict

from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer

from .endpoints import PingPongDriver
from .simulator import RunSpec, header_params, run, shared_machine
from .trace import JsonlTraceWriter

#: Repo-relative directory holding the committed golden artifacts.
GOLDEN_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "tests" / "golden"
)


def _run_golden(writer: JsonlTraceWriter, runspec: RunSpec, shards: int) -> None:
    """Run ``runspec`` into ``writer`` and append the end record.

    The sharded runner is bit-identical to the serial path, so a golden
    regenerated under --shards N must byte-match the committed serial
    artifact; CI relies on exactly that.
    """
    stats = run(runspec, shards, trace=writer)
    record = {
        "ev": "end",
        "cyc": stats.end_cycle,
        "injected": stats.injected,
        "delivered": stats.delivered,
    }
    if runspec.fault_set is not None:
        record["dropped"] = stats.dropped
        record["rerouted"] = stats.rerouted
    record["events"] = writer.events_written
    writer.write_record(record)


def _demand_2x2x2() -> RunSpec:
    """Open-loop demand-matrix golden: a seeded hotspot matrix whose
    rates, hotspot count, and skew all shift at the cycle-32 epoch
    boundary, pinning the paced-injection schedule and the epoch
    hand-off semantics."""
    from repro.traffic.demand import DemandMatrix, DemandSchedule, DemandSpec

    config = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
    base = DemandMatrix.hotspot(
        (2, 2, 2), rate=0.25, hotspots=1, hot_fraction=0.6, seed=11
    )
    shifted = DemandMatrix.hotspot(
        (2, 2, 2), rate=0.35, hotspots=2, hot_fraction=0.5, seed=12
    )
    spec = DemandSpec(
        demand=DemandSchedule(epochs=((0, base), (32, shifted))),
        cores_per_chip=2,
        mode="open",
        duration_cycles=64,
        seed=7,
    )
    return RunSpec(config, spec)


def _run_pingpong_2x2x2(writer: JsonlTraceWriter, shards: int = 1) -> None:
    # Never sharded (SHARDABLE_GOLDEN_NAMES): the delivery hook re-injects
    # at the replying endpoint, which may live in another shard.
    machine = Machine(MachineConfig(shape=(2, 2, 2), endpoints_per_chip=1))
    routes = RouteComputer(machine)
    driver = PingPongDriver(
        machine,
        routes,
        endpoint_a=machine.ep_id[((0, 0, 0), 0)],
        endpoint_b=machine.ep_id[((1, 1, 1), 0)],
        rounds=3,
        software_overhead_cycles=20,
        trace=writer,
    )
    result = driver.run()
    writer.write_record(
        {
            "ev": "end",
            "round_trips": result.round_trips,
            "total_cycles": result.total_cycles,
            "events": writer.events_written,
        }
    )


#: Name -> trace-header metadata. The header pins the run in the trace
#: (a golden file is self-describing) and, read back as the parameter
#: form (:func:`~repro.sim.simulator.header_params`), *is* the run --
#: except for the hand-built ones below.
_GOLDEN_HEADERS = {
    "uniform_2x2x2": {
        "name": "uniform_2x2x2",
        "shape": [2, 2, 2],
        "endpoints": 2,
        "arb": "rr",
        "cores": 2,
        "pattern": "uniform",
        "batch": 2,
        "seed": 5,
        "workload": "batch uniform x2 rr seed5",
    },
    "tornado_4x1x1": {
        "name": "tornado_4x1x1",
        "shape": [4, 1, 1],
        "endpoints": 1,
        "arb": "iw",
        "cores": 1,
        "pattern": "tornado",
        "batch": 4,
        "seed": 3,
        "workload": "batch tornado x4 iw seed3",
    },
    "faulted_2x2x2": {
        "name": "faulted_2x2x2",
        "shape": [2, 2, 2],
        "endpoints": 2,
        "arb": "rr",
        "cores": 2,
        "pattern": "uniform",
        "batch": 4,
        "seed": 5,
        "workload": "batch uniform x4 rr seed5 faults2 reroute",
    },
    "pingpong_2x2x2": {
        "name": "pingpong_2x2x2",
        "shape": [2, 2, 2],
        "endpoints": 1,
        "arb": "rr",
        "cores": 1,
        "workload": "pingpong corner-to-corner rounds3 overhead20",
    },
    "demand_2x2x2": {
        "name": "demand_2x2x2",
        "shape": [2, 2, 2],
        "endpoints": 2,
        "arb": "rr",
        "cores": 2,
        "workload": "demand hotspot 2-epoch open dur64 seed7",
    },
    "mesh_4x4": {
        "name": "mesh_4x4",
        "topology": "mesh",
        "shape": [4, 4],
        "endpoints": 1,
        "arb": "rr",
        "cores": 1,
        "pattern": "uniform",
        "batch": 2,
        "seed": 5,
        "workload": "batch uniform x2 rr seed5 topology=mesh",
    },
    "chiplet_2x2": {
        "name": "chiplet_2x2",
        "topology": "chiplet",
        "shape": [2, 2],
        "endpoints": 2,
        "arb": "iw",
        "cores": 2,
        "pattern": "uniform",
        "batch": 3,
        "seed": 9,
        "workload": "batch uniform x3 iw seed9 topology=chiplet",
    },
}

#: Run parameters a header does not spell. The faulted golden's set --
#: two scheduled torus-link failures (the first and the middle failable
#: channel of the 2x2x2 machine), one of which recovers, under the
#: default reroute policy -- pins the fault sweep's re-disposition
#: semantics: fault/reroute event ordering, credit return for swept
#: buffers, and the deterministic fault timeline.
_GOLDEN_EXTRA_PARAMS = {
    "faulted_2x2x2": {
        "faults": {
            "version": 1,
            "shape": [2, 2, 2],
            "note": "golden faulted run",
            "faults": [
                {"kind": "link", "channel": 640, "down": 12},
                {"kind": "link", "channel": 688, "down": 20, "up": 40},
            ],
        },
    },
}

#: The golden that is no run at all: a delivery-hook driver. (The demand
#: golden is a run no parameter form expresses: a two-epoch schedule whose
#: every generator parameter shifts.)
_HAND_BUILT = {"pingpong_2x2x2": _run_pingpong_2x2x2}

GOLDEN_NAMES = tuple(_GOLDEN_HEADERS)

#: Goldens that can be regenerated through the sharded runner. Pingpong
#: is driven by a delivery hook that re-injects at the replying
#: endpoint, which may live in another shard, so it stays serial; the
#: mesh/chiplet goldens stay serial because the shard partitioner is
#: torus-only (it rejects other topologies with a ValueError).
SHARDABLE_GOLDEN_NAMES = (
    "uniform_2x2x2",
    "tornado_4x1x1",
    "faulted_2x2x2",
    "demand_2x2x2",
)


def golden_runspec(name: str) -> RunSpec:
    """The run a golden pins: its header read back as the parameter form
    (:func:`~repro.sim.simulator.header_params`), or the hand-built
    demand run. The pingpong golden is a driver, not a run, and is
    refused."""
    if name == "demand_2x2x2":
        return _demand_2x2x2()
    if name not in _GOLDEN_HEADERS or name in _HAND_BUILT:
        raise ValueError(f"golden trace {name!r} is not described by a RunSpec")
    params = dict(
        header_params(_GOLDEN_HEADERS[name]), **_GOLDEN_EXTRA_PARAMS.get(name, {})
    )
    return RunSpec.from_params(params)


def write_golden(name: str, stream: IO[str], shards: int = 1) -> int:
    """Run one canonical spec, streaming its JSONL trace; returns the
    number of events written.

    ``shards > 1`` routes the run through the conservative-lookahead
    shard runner (:mod:`repro.sim.shard`); the output must byte-match
    the serial rendering -- CI regenerates goldens under ``--shards 2``
    and ``--shards 4`` and diffs against the committed files.
    """
    if name not in _GOLDEN_HEADERS:
        raise ValueError(
            f"unknown golden trace {name!r}; known: {', '.join(GOLDEN_NAMES)}"
        )
    if shards > 1 and name not in SHARDABLE_GOLDEN_NAMES:
        raise ValueError(
            f"golden trace {name!r} cannot run sharded; shardable: "
            f"{', '.join(SHARDABLE_GOLDEN_NAMES)}"
        )
    meta = dict(_GOLDEN_HEADERS[name])
    meta["tpc"] = shared_machine(
        MachineConfig(
            shape=tuple(meta["shape"]),
            endpoints_per_chip=meta["endpoints"],
            topology=meta.get("topology", "torus"),
        )
    )[0].ticks_per_cycle
    writer = JsonlTraceWriter(stream, meta=meta)
    if name in _HAND_BUILT:
        _HAND_BUILT[name](writer, shards)
    else:
        _run_golden(writer, golden_runspec(name), shards)
    writer.flush()
    return writer.events_written


def render_golden(name: str, shards: int = 1) -> str:
    """One canonical run's full JSONL text (for byte comparison)."""
    buffer = io.StringIO()
    write_golden(name, buffer, shards=shards)
    return buffer.getvalue()


def committed_golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.jsonl"


def check_goldens(shards: int = 1) -> Dict[str, bool]:
    """Regenerate every golden and compare against the committed bytes.

    With ``shards > 1`` only the shardable goldens are regenerated (and
    they are still compared against the *serial* committed bytes --
    sharding must not change a single byte).
    """
    names = SHARDABLE_GOLDEN_NAMES if shards > 1 else GOLDEN_NAMES
    results: Dict[str, bool] = {}
    for name in names:
        path = committed_golden_path(name)
        results[name] = (
            path.exists()
            and path.read_text() == render_golden(name, shards=shards)
        )
    return results
