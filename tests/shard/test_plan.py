"""Partitioning and lookahead-plan unit tests for the sharded runner."""

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.sim.shard import (
    ShardPlan,
    ShardedRun,
    component_owners,
    partition_parts,
    run_sharded,
    shard_boundary,
)


class TestPartitionParts:
    def test_splits_largest_dimension_first(self):
        assert partition_parts((8, 8, 8), 1) == (1, 1, 1)
        assert partition_parts((8, 8, 8), 2) == (2, 1, 1)
        assert partition_parts((8, 8, 8), 4) == (2, 2, 1)
        assert partition_parts((8, 8, 8), 8) == (2, 2, 2)

    def test_prefers_longer_extents(self):
        # The 8-long X axis absorbs two halvings before Y gets one.
        assert partition_parts((8, 4, 2), 4) == (4, 1, 1)
        assert partition_parts((8, 4, 2), 8) == (4, 2, 1)

    def test_ring_shapes(self):
        assert partition_parts((4, 1, 1), 2) == (2, 1, 1)
        assert partition_parts((4, 1, 1), 4) == (4, 1, 1)

    def test_rejects_odd_split(self):
        with pytest.raises(ValueError, match="not even"):
            partition_parts((3, 3, 3), 2)
        # 4x1x1 halves twice but cannot reach 8 shards.
        with pytest.raises(ValueError, match="not even"):
            partition_parts((4, 1, 1), 8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="shard count"):
            partition_parts((8, 8, 8), 3)
        with pytest.raises(ValueError, match="shard count"):
            partition_parts((8, 8, 8), 16)


class TestComponentOwners:
    def test_every_component_owned_once(self, tiny_machine):
        owners = component_owners(tiny_machine, (2, 1, 1))
        assert len(owners) == len(tiny_machine.components)
        assert set(owners) == {0, 1}

    def test_chip_locality(self, tiny_machine):
        # All components of one chip share an owner: only torus channels
        # may cross a shard boundary.
        owners = component_owners(tiny_machine, (2, 2, 1))
        per_chip = {}
        for comp in tiny_machine.components:
            per_chip.setdefault(comp.chip, set()).add(owners[comp.cid])
        assert all(len(s) == 1 for s in per_chip.values())

    def test_contiguous_slabs(self):
        machine = Machine(MachineConfig(shape=(4, 2, 2), endpoints_per_chip=2))
        owners = component_owners(machine, (2, 1, 1))
        for comp in machine.components:
            x = comp.chip[0]
            assert owners[comp.cid] == (0 if x < 2 else 1)


class TestShardBoundary:
    def test_cross_channels_are_torus_only(self, tiny_machine):
        owners = component_owners(tiny_machine, (2, 1, 1))
        remote_dst, remote_src, _ = shard_boundary(tiny_machine, owners, 0)
        assert remote_dst and remote_src
        for cid in remote_dst | remote_src:
            channel = tiny_machine.channels[cid]
            src = tiny_machine.components[channel.src]
            dst = tiny_machine.components[channel.dst]
            assert src.chip != dst.chip

    def test_boundaries_partition_symmetrically(self, tiny_machine):
        owners = component_owners(tiny_machine, (2, 1, 1))
        dst0, src0, _ = shard_boundary(tiny_machine, owners, 0)
        dst1, src1, _ = shard_boundary(tiny_machine, owners, 1)
        # A channel leaving shard 0 enters shard 1 and vice versa.
        assert dst0 == src1
        assert dst1 == src0


class TestShardPlan:
    def test_default_machine_lookahead(self, tiny_machine):
        plan = ShardPlan.for_machine(tiny_machine, 2)
        lat = min(
            ch.latency
            for ch in tiny_machine.channels
            if tiny_machine.components[ch.src].chip
            != tiny_machine.components[ch.dst].chip
        )
        assert 1 <= plan.lookahead <= lat

    def test_one_shard_plan(self, tiny_machine):
        plan = ShardPlan.for_machine(tiny_machine, 1)
        assert plan.shards == 1


class TestRunShardedValidation:
    def test_rejects_retry_fault_policy(self, tiny_machine):
        from repro.faults import FaultPolicy, FaultSet, FaultSpec
        from repro.faults.model import failable_channels
        from repro.traffic.batch import BatchSpec
        from repro.traffic.patterns import UniformRandom

        torus = failable_channels(tiny_machine)
        run = ShardedRun(
            config=MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2),
            spec=BatchSpec(
                UniformRandom((2, 2, 2)),
                packets_per_source=1,
                cores_per_chip=2,
                seed=1,
            ),
            fault_set=FaultSet(
                specs=(FaultSpec(kind="link", channel=torus[0], down_cycle=4),),
                shape=(2, 2, 2),
            ),
            fault_policy=FaultPolicy(mode="retry"),
        )
        with pytest.raises(ValueError, match="retry"):
            run_sharded(run, 2, machine=tiny_machine)

    @pytest.mark.parametrize("transport", ["thread", "carrier-pigeon"])
    def test_run_batch_sharded_refuses_any_transport_but_process(
        self, tiny_machine, transport
    ):
        """``transport`` survives only on :func:`run_batch_sharded`, for
        callers that name the one there is."""
        from repro.sim.simulator import run_batch_sharded
        from repro.traffic.batch import BatchSpec
        from repro.traffic.patterns import UniformRandom

        spec = BatchSpec(
            UniformRandom((2, 2, 2)),
            packets_per_source=1,
            cores_per_chip=2,
            seed=1,
        )
        with pytest.raises(
            ValueError, match=f"unknown shard transport '{transport}'"
        ):
            run_batch_sharded(tiny_machine, spec, 2, transport=transport)
        stats = run_batch_sharded(tiny_machine, spec, 2, transport="process")
        assert stats.delivered == stats.injected > 0


class TestNamedRejections:
    """``run(spec, shards>1)`` refuses what it cannot shard, by name,
    before any workload is generated or worker started."""

    @staticmethod
    def _rejected_run(case):
        from repro.faults import FaultPolicy, FaultSet
        from repro.sim.simulator import RunSpec
        from repro.traffic.batch import BatchSpec
        from repro.traffic.patterns import UniformRandom

        if case == "retry":
            config = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
            faults = dict(
                fault_set=FaultSet(shape=(2, 2, 2)),
                fault_policy=FaultPolicy(mode="retry"),
            )
        else:
            config = MachineConfig(
                shape=(4, 4), endpoints_per_chip=2, topology=case
            )
            faults = {}
        spec = BatchSpec(
            UniformRandom(config.shape), packets_per_source=1, cores_per_chip=2
        )
        return RunSpec(config, spec, **faults)

    @pytest.mark.parametrize(
        "case,message",
        [
            ("retry", "the retry fault policy is not supported in sharded runs"),
            ("mesh", "sharded runs support only the torus topology"),
            ("chiplet", "sharded runs support only the torus topology"),
        ],
    )
    def test_rejected_before_generation(self, case, message, monkeypatch):
        from repro.sim import shard as shard_mod
        from repro.sim.simulator import run
        from repro.traffic import batch

        started = []
        for owner, name in (
            (batch, "generate_batch"),
            (shard_mod._ShardCore, "__init__"),
        ):
            monkeypatch.setattr(
                owner, name, lambda *a, _name=name, **k: started.append(_name)
            )
        with pytest.raises(ValueError, match=message):
            run(self._rejected_run(case), shards=2)
        assert started == []
