"""The engine's occupancy masks against a recount of its FIFOs.

The SA1/SA2 scan visits only what the masks name
(``Engine._vc_occupied``: bit ``vc`` of a channel while that VC buffers a
packet; ``Engine._input_occupied``: bit ``input_index`` of a component
while that input buffers any), so a bit left set would scan an empty
FIFO and a bit left clear would strand a packet. The recount here reads
the FIFOs themselves, after every cycle of healthy runs under each
policy, of faulted runs under each fault policy (the sweeps rewrite
whole FIFOs), of an engine restored mid-run, and on every shard core
after the cut (:func:`repro.sim.shard._keep_owned`).
"""

import json

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.faults import FaultPolicy, FaultRuntime
from repro.sim.checkpoint import dumps, restore_engine, snapshot_engine
from repro.sim.shard import _keep_owned, component_owners, partition_parts
from repro.sim.simulator import RunSpec, start

from tests.faults.test_engine import _mid_run_faults


def recount(engine):
    """The two masks as the FIFOs say they should be."""
    vc_occupied = [0] * len(engine._vc_occupied)
    input_occupied = [0] * len(engine._input_occupied)
    input_index = engine.machine.input_index
    for cid in range(len(engine._vc_occupied)):
        for vc, slot in enumerate(engine._channel_slots(cid)):
            head = engine._fifo_head[slot]
            assert (head is None) == (engine._fifo_tail[slot] is None)
            if head is not None:
                vc_occupied[cid] |= 1 << vc
                input_occupied[engine._channel_dst[cid]] |= 1 << input_index[cid]
    return vc_occupied, input_occupied


def assert_masks(engine):
    assert (engine._vc_occupied, engine._input_occupied) == recount(engine)


def drive(engine):
    """Run ``engine`` to its drain a cycle at a time, recounting after
    each; returns how many cycles buffered anything."""
    assert_masks(engine)
    busy = 0
    while not engine.drained:
        engine.run_for(1)
        assert_masks(engine)
        busy += any(engine._vc_occupied)
    return busy


def spec(arbitration="rr", shape=(2, 2, 2), batch=12):
    """A batch run; ``iw`` the benchmark's tornado, on a ring it moves."""
    if arbitration == "iw":
        shape, pattern = (4, 2, 2), "tornado"
    else:
        pattern = "uniform"
    return RunSpec.from_params(dict(
        kind="batch", shape=list(shape), endpoints=2, cores=2, pattern=pattern,
        batch=batch, arbitration=arbitration, seed=5,
    ))


@pytest.mark.parametrize("arbitration", ["rr", "iw", "age"])
def test_healthy_runs(arbitration):
    engine = start(spec(arbitration))
    assert drive(engine) > 20
    assert engine.buffered_packets() == 0


@pytest.mark.parametrize("policy", ["reroute", "drop", "retry"])
def test_faulted_runs(tiny_machine, policy):
    runtime = FaultRuntime(
        tiny_machine, _mid_run_faults(tiny_machine), policy=FaultPolicy(mode=policy)
    )
    engine = start(
        spec(batch=16), machine=tiny_machine,
        route_computer=runtime.route_computer, faults=runtime,
    )
    drive(engine)
    stats = engine.stats
    assert stats.fault_events == 2
    assert stats.rerouted + stats.dropped + stats.retried > 0


@pytest.mark.parametrize("arbitration", ["rr", "iw"])
def test_an_engine_restored_mid_run(arbitration):
    engine = start(spec(arbitration))
    engine.run_for(30)
    assert any(engine._vc_occupied)
    restored = restore_engine(json.loads(dumps(snapshot_engine(engine))))
    assert_masks(restored)
    assert restored._vc_occupied == engine._vc_occupied
    assert restored._input_occupied == engine._input_occupied
    drive(restored)
    assert restored.stats.delivered == start(spec(arbitration)).run().delivered


@pytest.mark.parametrize("shards", [2, 4])
def test_every_shard_core_after_the_cut(shards):
    run = spec(shape=(4, 2, 2))
    whole = start(run)
    whole.run_for(25)
    buffered = whole.buffered_packets()
    assert buffered
    text = dumps(snapshot_engine(whole))
    machine = whole.machine
    owners = component_owners(machine, partition_parts(machine.config.shape, shards))
    kept = 0
    for shard in range(shards):
        core = restore_engine(json.loads(text), machine=machine)
        _keep_owned(core, owners, shard)
        assert_masks(core)
        assert not any(
            mask for comp, mask in enumerate(core._input_occupied)
            if owners[comp] != shard
        )
        kept += core.buffered_packets()
    assert kept == buffered


def test_the_set_bits_table():
    # The widest VC set: the baseline scheme's 2n VCs over two classes.
    machine = Machine(MachineConfig(
        shape=(2, 2, 2), endpoints_per_chip=2, vc_scheme="baseline", num_classes=2,
    ))
    rows = machine.occupancy_rows
    width = max(max(machine.channel_vcs), max(map(len, machine.component_inputs)))
    assert width == 12
    assert len(rows.bits) == 1 << width
    assert all(
        rows.bits[m] == tuple(i for i in range(width) if m >> i & 1)
        for m in range(1 << width)
    )
    assert rows.input_bit == tuple(1 << i for i in machine.input_index)
