"""Every surface that can describe a run simulates the same run.

One :class:`~repro.sim.simulator.RunSpec` per row; the library runner is
the reference, and each other way of saying the same thing -- the shard
runner, four CLI commands, a serve session stepped to drain -- must
report the same statistics (the full ``SimStats.asdict()`` where the
surface exposes it, every field it prints where it does not). Batch
rows: {healthy, one static link fault} x {rr, iw} on a 4x2x2 torus, and
the healthy pair on a 4x4 mesh; the faulted ones also run with
``--shape``/``--topology`` left to the fault file. Demand rows: one
parameter mapping decoded by the library, spelled as ``repro demand``
flags, and sent as a serve workload -- open and closed loop, torus and
mesh, multi-epoch, one faulted without ``--shape``. The seed of the
ROADMAP's differential harness; the pairwise oracle suites stay until
it grows.
"""

import asyncio
import json
import re

import pytest

from repro.cli import main
from repro.core.machine import Machine, MachineConfig
from repro.faults import FaultSet, FaultSpec
from repro.faults.model import failable_channels
from repro.serve.session import Session
from repro.sim.simulator import RunSpec, run
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import pattern_factories

PATTERN, BATCH, CORES, ENDPOINTS, SEED = "uniform", 8, 2, 2, 0

ROWS = [
    pytest.param(topology, shape, faulted, arbitration,
                 id=f"{topology}-{'faulted' if faulted else 'healthy'}-{arbitration}")
    for topology, shape, fault_options in (
        ("torus", (4, 2, 2), (False, True)),
        ("mesh", (4, 4), (False,)),
    )
    for faulted in fault_options
    for arbitration in ("rr", "iw")
]


_WALL = re.compile(r"\([\d,]+ cycles/s, [\d.]+s wall\)")


def _ints(pattern: str, text: str) -> tuple:
    match = re.search(pattern, text)
    assert match, f"{pattern!r} not found in {text!r}"
    return tuple(int(group) for group in match.groups())


@pytest.mark.parametrize("topology,shape,faulted,arbitration", ROWS)
def test_surfaces_agree(topology, shape, faulted, arbitration, tmp_path, capsys):
    config = MachineConfig(
        shape=shape, endpoints_per_chip=ENDPOINTS, topology=topology
    )
    machine = Machine(config)
    fault_set = None
    if faulted:
        # Down before cycle 0: the degraded machine has no translation
        # symmetry, which is what the iw row turns on.
        fault_set = FaultSet(
            specs=(
                FaultSpec(
                    kind="link",
                    channel=failable_channels(machine)[0],
                    down_cycle=0,
                ),
            ),
            shape=config.shape,
        )
    spec = RunSpec(
        config,
        BatchSpec(
            pattern_factories(config.shape)[PATTERN](),
            packets_per_source=BATCH,
            cores_per_chip=CORES,
            seed=SEED,
        ),
        arbitration,
        fault_set=fault_set,
    )

    # --- the library, serial and sharded ---------------------------------------
    stats = run(spec)
    reference = json.dumps(stats.asdict())
    assert stats.delivered == stats.injected > 0
    if topology == "torus":
        sharded = run(spec, shards=2)
        assert json.dumps(sharded.asdict()) == reference

    # --- the CLI ----------------------------------------------------------------
    shape_text = "x".join(str(k) for k in shape)
    machine_args = [
        "--topology", topology, "--shape", shape_text,
        "--endpoints", str(ENDPOINTS),
    ]
    batch_args = [
        "--pattern", PATTERN, "--batch", str(BATCH), "--cores", str(CORES),
        "--seed", str(SEED), "--arbitration", arbitration,
    ]
    fault_args = []
    if faulted:
        fault_file = tmp_path / "faults.json"
        fault_file.write_text(fault_set.to_json())
        fault_args = ["--fault-file", str(fault_file)]

    assert main(["run"] + machine_args + batch_args + fault_args) == 0
    out = capsys.readouterr().out
    assert _ints(r"(\d+) of (\d+) delivered", out) == (
        stats.delivered, stats.injected
    )
    assert _ints(r"in (\d+) cycles", out) == (stats.end_cycle,)
    if faulted:
        assert _ints(r"(\d+) dropped, (\d+) rerouted", out) == (
            stats.dropped, stats.rerouted
        )
        # The file records its machine: the same run without saying it twice.
        assert main(
            ["run", "--endpoints", str(ENDPOINTS)] + batch_args + fault_args
        ) == 0
        assert _WALL.sub("", capsys.readouterr().out) == _WALL.sub("", out)
        assert main(
            ["faults", "run", str(fault_file), "--endpoints", str(ENDPOINTS)]
            + batch_args
        ) == 0
        out = capsys.readouterr().out
        assert _ints(
            r"(\d+) delivered, (\d+) dropped, (\d+) rerouted, (\d+) retried "
            r"\((\d+) fault events\) in (\d+) cycles",
            out,
        ) == (
            stats.delivered, stats.dropped, stats.rerouted, stats.retried,
            stats.fault_events, stats.end_cycle,
        )
    else:
        # `trace` and `profile` take no fault file.
        trace_file = tmp_path / "run.jsonl"
        assert main(
            ["trace"] + machine_args + batch_args + ["--out", str(trace_file)]
        ) == 0
        capsys.readouterr()
        end = json.loads(trace_file.read_text().splitlines()[-1])
        assert (end["ev"], end["cyc"], end["injected"], end["delivered"]) == (
            "end", stats.end_cycle, stats.injected, stats.delivered
        )
        assert main(["profile"] + machine_args + batch_args) == 0
        out = capsys.readouterr().out
        assert _ints(r": (\d+) packets, (\d+) cycles", out) == (
            stats.delivered, stats.end_cycle
        )

    # --- a serve session, stepped to drain ----------------------------------------
    workload = {
        "kind": "batch", "topology": topology, "shape": list(shape),
        "endpoints": ENDPOINTS, "cores": CORES, "pattern": PATTERN,
        "batch": BATCH, "seed": SEED, "arbitration": arbitration,
    }
    if faulted:
        workload["faults"] = json.loads(fault_set.to_json())
    session = Session.create("surfaces", workload)
    while not session.drained:
        asyncio.run(session.advance(16))
    assert json.dumps(session.stats_payload()["stats"]) == reference


#: One static link fault on the 4x2x2 torus, as its wire object.
FAULTS_4X2X2 = {
    "version": 1, "shape": [4, 2, 2],
    "faults": [{"kind": "link", "channel": 1300, "down": 0}],
}

DEMAND_ROWS = {
    "torus-open": {
        "shape": [2, 2, 2], "arbitration": "rr", "seed": 3,
        "demand": {"generator": "hotspot", "rate": 0.3, "duration": 48},
    },
    "torus-closed-iw": {
        "shape": [2, 2, 2], "arbitration": "iw", "seed": 1,
        "demand": {"generator": "skew", "rate": 0.5, "skew_exponent": 1.5,
                   "mode": "closed", "scale": 12.0},
    },
    "mesh-open-paced": {
        "topology": "mesh", "shape": [4, 4], "arbitration": "rr", "seed": 2,
        "demand": {"generator": "permutation", "rate": 0.25, "matrix_seed": 6,
                   "duration": 40, "injection": "paced"},
    },
    "torus-multi-epoch": {
        "shape": [4, 2, 2], "arbitration": "age", "seed": 9,
        "demand": {"generator": "hotspot", "rate": 0.3, "hotspots": 2,
                   "hot_fraction": 0.4, "matrix_seed": 4, "epochs": 3,
                   "epoch_length": 16, "duration": 48},
    },
    "torus-faulted-no-shape": {
        "shape": [4, 2, 2], "arbitration": "rr", "seed": 5,
        "faults": FAULTS_4X2X2, "policy": {"mode": "retry", "retries": 2},
        "demand": {"generator": "uniform", "rate": 0.2, "duration": 32},
    },
}


@pytest.mark.parametrize("row", sorted(DEMAND_ROWS))
def test_demand_surfaces_agree(row, tmp_path, capsys):
    params = dict(
        DEMAND_ROWS[row], kind="demand", endpoints=ENDPOINTS, cores=CORES
    )
    faults = params.get("faults")

    # --- the library ------------------------------------------------------------
    stats = run(RunSpec.from_params(params))
    reference = json.dumps(stats.asdict())
    assert stats.injected > 0 and stats.delivered + stats.dropped == stats.injected

    # --- `repro demand`, the same mapping as flags --------------------------------
    argv = [
        "demand", "--endpoints", str(ENDPOINTS), "--cores", str(CORES),
        "--arbitration", params["arbitration"], "--seed", str(params["seed"]),
    ]
    for key, value in params["demand"].items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    if faults is None:
        argv += [
            "--topology", params.get("topology", "torus"),
            "--shape", "x".join(str(k) for k in params["shape"]),
        ]
    else:
        fault_file = tmp_path / "faults.json"
        fault_file.write_text(json.dumps(faults))
        argv += [
            "--fault-file", str(fault_file),
            "--policy", params["policy"]["mode"],
            "--retries", str(params["policy"]["retries"]),
        ]
    trace_file = tmp_path / "demand.jsonl"
    assert main(argv + ["--trace", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert _ints(r"(\d+) injected, (\d+) delivered", out) == (
        stats.injected, stats.delivered
    )
    assert _ints(r"in (\d+) cycles", out) == (stats.end_cycle,)
    end = json.loads(trace_file.read_text().splitlines()[-1])
    assert (end["cyc"], end["injected"], end["delivered"]) == (
        stats.end_cycle, stats.injected, stats.delivered
    )
    if faults is None and params["arbitration"] != "iw":
        # ... and its trace is a replayable description of the same run
        # (a demand header records no matrix to reprogram iw weights from).
        assert main(["replay", str(trace_file), "--verify"]) == 0
        assert "byte-identical" in capsys.readouterr().out

    # --- a serve session, stepped to drain ----------------------------------------
    session = Session.create("surfaces", params)
    while not session.drained:
        asyncio.run(session.advance(16))
    assert json.dumps(session.stats_payload()["stats"]) == reference
