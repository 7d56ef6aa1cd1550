"""The parameter form of a run: one decoder, one header writer.

``RunSpec.from_params`` is what ``repro`` flags, serve workload dicts
and the golden tables all decode through; ``trace_header`` writes what
``header_params`` (and so ``repro replay``) reads back.
"""

import dataclasses
import json

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.faults import FaultPolicy, FaultSet, FaultSpec
from repro.sim.simulator import RunSpec, header_params, run, trace_header
from repro.traffic.batch import BatchSpec
from repro.traffic.demand import DemandMatrix, DemandSchedule, DemandSpec
from repro.traffic.patterns import NHopNeighbor

FAULTS = {
    "version": 1, "shape": [4, 2, 2],
    "faults": [{"kind": "link", "channel": 1300, "down": 7}],
}


class TestDecoding:
    def test_batch_params_are_the_hand_built_run(self):
        params = {
            "kind": "batch", "shape": [4, 2, 2], "endpoints": 2, "cores": 1,
            "arbitration": "iw", "seed": 3, "pattern": "1hop", "batch": 5,
            "faults": FAULTS, "policy": {"mode": "drop", "retries": 2},
        }
        decoded = RunSpec.from_params(params)
        config = MachineConfig(shape=(4, 2, 2), endpoints_per_chip=2)
        assert decoded.config == config
        assert decoded.arbitration == "iw" and decoded.weight_patterns == ()
        assert decoded.spec.pattern.name == NHopNeighbor((4, 2, 2), 1).name
        assert (
            decoded.spec.packets_per_source, decoded.spec.cores_per_chip,
            decoded.spec.seed,
        ) == (5, 1, 3)
        assert decoded.fault_set == FaultSet(
            specs=(FaultSpec(kind="link", channel=1300, down_cycle=7),),
            shape=(4, 2, 2),
        )
        assert decoded.fault_policy == FaultPolicy(mode="drop", max_retries=2)

    def test_defaults_are_the_wire_defaults(self):
        decoded = RunSpec.from_params({"kind": "batch"})
        assert decoded.config == MachineConfig(
            shape=(2, 2, 2), endpoints_per_chip=2
        )
        assert decoded.arbitration == "rr" and decoded.fault_set is None
        assert decoded.spec == BatchSpec(
            decoded.spec.pattern, packets_per_source=8, cores_per_chip=2
        )
        assert decoded.spec.pattern.name == "uniform"

    def test_idle_has_no_workload_and_policy_alone_an_empty_fault_set(self):
        decoded = RunSpec.from_params(
            {"topology": "mesh", "shape": [3, 3], "policy": {"mode": "retry"}}
        )
        assert decoded.spec is None
        assert decoded.config.shape == (3, 3, 1)
        assert decoded.fault_set == FaultSet(shape=(3, 3, 1), topology="mesh")
        assert decoded.fault_policy.mode == "retry"

    def test_demand_params_are_the_hand_built_spec(self):
        demand = {
            "generator": "hotspot", "rate": 0.3, "hotspots": 2,
            "hot_fraction": 0.4, "matrix_seed": 4, "epochs": 2,
            "epoch_length": 16, "duration": 32, "injection": "paced",
        }
        decoded = RunSpec.from_params(
            {"kind": "demand", "shape": [2, 2, 2], "seed": 9, "demand": demand}
        )
        matrices = [
            DemandMatrix.hotspot(
                (2, 2, 2), 0.3, hotspots=2, hot_fraction=0.4, seed=4 + epoch
            )
            for epoch in range(2)
        ]
        assert decoded.spec == DemandSpec(
            demand=DemandSchedule.from_matrices(matrices, 16),
            cores_per_chip=2, mode="open", duration_cycles=32,
            injection="paced", seed=9,
        )
        # The sub-dict's own seed wins over the run's.
        demand["seed"] = 1
        assert RunSpec.from_params(
            {"kind": "demand", "seed": 9, "demand": demand}
        ).spec.seed == 1

    def test_the_adversarial_search_routes_on_the_runs_own_machine(self):
        decoded = RunSpec.from_params(
            {
                "kind": "demand", "topology": "mesh", "shape": [3, 3],
                "demand": {"generator": "adversarial", "restarts": 1, "steps": 2},
            }
        )
        assert decoded.spec.schedule.shape == (3, 3, 1)


class TestTraceHeader:
    def test_batch_header_names_the_factory_key_and_round_trips(self):
        params = {
            "kind": "batch", "topology": "mesh", "shape": [4, 4],
            "endpoints": 1, "cores": 1, "arbitration": "iw", "seed": 5,
            "pattern": "1hop", "batch": 2,
        }
        spec = RunSpec.from_params(params)
        header = trace_header(params, spec, Machine(spec.config))
        assert header == {
            "shape": [4, 4, 1], "endpoints": 1, "tpc": 14, "arb": "iw",
            "cores": 1, "pattern": "1hop", "batch": 2, "seed": 5,
            "workload": "batch 1-hop-neighbor x2 iw seed5 topology=mesh",
            "topology": "mesh",
        }
        assert list(header)[-1] == "topology"  # torus headers keep their bytes
        again = RunSpec.from_params(header_params(header))
        assert again.spec.pattern.name == spec.spec.pattern.name
        assert dataclasses.replace(again.spec, pattern=None) == (
            dataclasses.replace(spec.spec, pattern=None)
        )
        assert dataclasses.replace(again, spec=None) == (
            dataclasses.replace(spec, spec=None)
        )

    def test_faulted_demand_header(self):
        params = {
            "kind": "demand", "shape": [4, 2, 2], "seed": 3, "faults": FAULTS,
            "policy": {"mode": "retry"},
            "demand": {"mode": "closed", "scale": 4.0},
        }
        spec = RunSpec.from_params(params)
        header = trace_header(params, spec, Machine(spec.config))
        assert header == {
            "shape": [4, 2, 2], "endpoints": 2, "tpc": 14, "arb": "rr",
            "cores": 2,
            "workload": f"demand {spec.spec.schedule.name} closed bernoulli seed3",
            "faults": 1, "policy": "retry",
        }

    def test_every_batch_golden_header_decodes_to_its_run(self):
        from repro.sim.goldens import GOLDEN_DIR

        for name in ("uniform_2x2x2", "tornado_4x1x1", "mesh_4x4", "chiplet_2x2"):
            lines = (GOLDEN_DIR / f"{name}.jsonl").read_text().splitlines()
            header, end = json.loads(lines[0]), json.loads(lines[-1])
            stats = run(RunSpec.from_params(header_params(header)))
            assert (stats.end_cycle, stats.delivered) == (
                end["cyc"], end["delivered"]
            )
