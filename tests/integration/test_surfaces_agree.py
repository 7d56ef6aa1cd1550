"""Every surface that can describe a run simulates the same run.

One :class:`~repro.sim.simulator.RunSpec` per row; the library runner is
the reference, and each other way of saying the same thing -- the shard
runner, four CLI commands, a serve session stepped to drain -- must
report the same statistics (the full ``SimStats.asdict()`` where the
surface exposes it, every field it prints where it does not). Rows:
{healthy, one static link fault} x {rr, iw} on a 4x2x2 torus, and the
healthy pair on a 4x4 mesh. The seed of the ROADMAP's differential
harness; the pairwise oracle suites stay until it grows.
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
        sharded = run(spec, shards=2, transport="inline")
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
