"""Partitioning, lookahead-plan, owner-rule and barrier unit tests for
the sharded runner."""

import itertools
import re

import pytest

from repro.core.machine import ChannelKind, Machine, MachineConfig
from repro.core.routing import RouteChoice, RouteComputer
from repro.sim import shard as shard_mod
from repro.sim import simulator
from repro.sim.checkpoint import (
    PACKET_ROW,
    CheckpointError,
    dumps,
    snapshot_engine,
)
from repro.sim.engine import _EV_ARRIVAL, _EV_CREDIT, _EV_FAULT, _EV_WAKE, Engine
from repro.sim.packet import Packet
from repro.sim.shard import (
    ShardPlan,
    ShardedRun,
    component_owners,
    event_owner,
    merge_shard_snapshots,
    partition_parts,
    run_sharded,
)

from tests.integration.test_differential import ROWS


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


def _cross_channels(machine, owners):
    return [
        cid
        for cid, (src, dst) in enumerate(zip(machine.channel_src, machine.channel_dst))
        if owners[src] != owners[dst]
    ]


class TestEventOwner:
    """The one rule of which shard processes a wheel event."""

    def test_each_kind_goes_to_its_rules_owner(self, tiny_machine):
        machine = tiny_machine
        owners = component_owners(machine, (2, 1, 1))
        cross = _cross_channels(machine, owners)
        assert cross
        for cid in cross:
            src, dst = machine.channel_src[cid], machine.channel_dst[cid]
            arrival = (_EV_ARRIVAL, None, cid, None)
            assert event_owner(arrival, owners, machine) == owners[dst]
            credit = (_EV_CREDIT, cid, 0, 1)
            assert event_owner(credit, owners, machine) == owners[src]
            # Every shard applies every fault transition.
            fault = (_EV_FAULT, cid, True, 0)
            assert event_owner(fault, owners, machine) is None
        for comp in range(len(machine.components)):
            wake = (_EV_WAKE, comp, 0, None)
            assert event_owner(wake, owners, machine) == owners[comp]

    def test_only_torus_channels_cross(self, tiny_machine):
        owners = component_owners(tiny_machine, (2, 1, 1))
        kinds = {
            tiny_machine.channel_kind[cid]
            for cid in _cross_channels(tiny_machine, owners)
        }
        assert kinds == {ChannelKind.TORUS}


def _cores(plan, whole):
    """The shard cores a run's workers hold, built in this process, each
    from its own whole-machine engine (what a forked worker inherits)."""
    return [
        shard_mod._ShardCore({
            "shard": shard,
            "plan": plan,
            "engine": whole(),
            "snapshot": None,
        })
        for shard in range(plan.shards)
    ]


def _barrier(cores, w_end):
    """One barrier round: every core runs to ``w_end`` and hands over
    what its wheel holds for the others. Returns the transfers by
    receiving shard."""
    pending = [[] for _ in cores]
    for core in cores:
        kind, outgoing = shard_mod._dispatch(core, ("run", w_end))
        assert kind == "ok" and outgoing[core.index] == []
        for transfers, incoming in zip(pending, outgoing):
            transfers += incoming
    for core, transfers in zip(cores, pending):
        assert shard_mod._dispatch(core, ("feed", transfers))[0] == "fed"
    return pending


def _wheel(engine):
    wheel = engine._events
    return [p for bucket in wheel.buckets for p in bucket] + [
        item[2] for item in wheel.overflow
    ]


def _merged(plan, machine, cores):
    snaps = [shard_mod._dispatch(core, ("snapshot",))[1] for core in cores]
    return dumps(merge_shard_snapshots(plan, machine, snaps))


class TestBarrier:
    def test_each_wheel_holds_its_own_events_and_the_faults(self):
        run = ROWS["shard-uniform-rr-reroute"].run
        machine = Machine(run.config)
        plan = ShardPlan.for_machine(machine, 4)
        cores = _cores(plan, lambda: simulator.start(run, machine))
        owners = component_owners(machine, plan.parts)
        pending = _barrier(cores, plan.lookahead)
        assert any(pending)
        faults = []
        for core in cores:
            events = _wheel(core.engine)
            owned = {event_owner(p, owners, machine) for p in events}
            assert owned <= {None, core.index}
            faults.append(sorted(p for p in events if p[0] == _EV_FAULT))
        # The timeline's later transitions are pending on every wheel.
        assert faults[0] and all(f == faults[0] for f in faults)

        serial = simulator.start(run, machine)
        serial.run_for(plan.lookahead)
        assert _merged(plan, machine, cores) == dumps(snapshot_engine(serial))

    def test_an_event_on_the_overflow_heap_is_handed_over(self):
        """A packet long enough that its arrival over a torus channel
        lands a wheel's size past its grant: the arrival sits on the
        sender's overflow heap, and the barrier moves it from there onto
        the owner's heap, as the serial engine holds it -- though it is
        due within a wheel's size of the barrier, so its cycle alone
        would have put it in a bucket."""
        machine = Machine(
            MachineConfig(shape=(4, 1, 1), endpoints_per_chip=1, onchip_buffer_flits=32)
        )
        routes = RouteComputer(machine)
        src = machine.ep_id[((0, 0, 0), 0)]
        dst = machine.ep_id[((2, 0, 0), 0)]

        def whole():
            engine = Engine(machine)
            route = routes.compute(src, dst, RouteChoice())
            engine.enqueue(Packet(0, route, size_flits=18))
            return engine

        plan = ShardPlan.for_machine(machine, 2)
        cores = _cores(plan, whole)
        serial = whole()
        handed = []
        w_end = 0
        while not handed:
            assert w_end < 400, "no arrival reached the overflow heap"
            w_end += plan.lookahead
            pending = _barrier(cores, w_end)
            handed = [
                (shard, transfer)
                for shard, transfers in enumerate(pending)
                for transfer in transfers
                if transfer[1]
            ]
        (shard, (cycle, _heap, payload)), = handed
        size = cores[shard].engine._events.size
        assert payload[0] == _EV_ARRIVAL and cycle - w_end < size
        overflow = cores[shard].engine._events.overflow
        assert [(c, p[0]) for c, _seq, p in overflow] == [(cycle, _EV_ARRIVAL)]
        serial.run_for(w_end)
        assert _merged(plan, machine, cores) == dumps(snapshot_engine(serial))

    def test_a_transfer_that_is_no_walk_is_refused_by_name(self):
        run = ROWS["shard-uniform-rr"].run
        machine = Machine(run.config)
        plan = ShardPlan.for_machine(machine, 2)
        cores = _cores(plan, lambda: simulator.start(run, machine))
        packet = next(iter(cores[0].engine._source_queues.values()))[0]
        head = cores[0]._codec.row(packet)[: len(PACKET_ROW)]
        # The route's hops backwards: the first does not leave the source.
        hops = list(itertools.chain.from_iterable(reversed(packet.route.hops)))
        hostile = (_EV_ARRIVAL, head + hops, hops[0], None)
        with pytest.raises(
            CheckpointError,
            match=rf"^packet {packet.pid}'s route hops onto channel {hops[0]}, ",
        ):
            shard_mod._dispatch(cores[1], ("feed", [(1, False, hostile)]))


class TestShardPlan:
    def test_default_machine_lookahead(self, tiny_machine):
        plan = ShardPlan.for_machine(tiny_machine, 2)
        components = tiny_machine.components
        lat = min(
            latency
            for src, dst, latency in zip(
                tiny_machine.channel_src,
                tiny_machine.channel_dst,
                tiny_machine.channel_latency,
            )
            if components[src].chip != components[dst].chip
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

    @pytest.mark.parametrize("entry", ["run", "start", "resume"])
    def test_a_trace_sink_is_refused_before_anything_starts(
        self, entry, monkeypatch, tmp_path
    ):
        """A sharded run takes no trace sink -- the serial run writes the
        same trace -- and says so before the workload is generated, a
        checkpoint restored or a worker started."""
        from repro.sim.checkpoint import save_checkpoint
        from repro.sim.metrics import MetricsCollector
        from repro.sim.trace import ListSink, Tee

        row = ROWS["shard-uniform-rr"].run
        path = tmp_path / "ck.json"
        engine = simulator.start(row)
        engine.run_for(10)
        save_checkpoint(engine, str(path))
        started = []

        def counted(owner, name):
            original = getattr(owner, name)

            def call(*args, **kwargs):
                started.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        counted(simulator, "generate_workload")
        counted(simulator, "restore_engine")
        counted(shard_mod, "_ProcessWorker")
        refusal = (
            "sharded runs take no trace sink; trace the run serially "
            "(shards=1): its trace is the same bytes"
        )
        for sink in (ListSink(), MetricsCollector(), Tee(ListSink(), MetricsCollector())):
            with pytest.raises(ValueError, match=re.escape(refusal)):
                if entry == "run":
                    run_sharded(row, 2, trace=sink)
                else:
                    simulator.start(
                        row, trace=sink, shards=2,
                        checkpoint_path=str(path) if entry == "resume" else None,
                    )
        assert started == []
        # Serially the same call runs: the patches see what it starts.
        simulator.start(
            row, trace=ListSink(),
            checkpoint_path=str(path) if entry == "resume" else None,
        )
        assert started == ["restore_engine" if entry == "resume" else "generate_workload"]
