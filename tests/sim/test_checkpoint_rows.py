"""A checkpoint's bytes are a function of simulation state alone.

Schema 3 leaves a packet row's hops out when the machine rebuilds exactly
that route from the row's head (DESIGN.md section 10). The rule is decided
by value -- never by whether the route is the machine memo's object, nor by
its ``via`` or endpoint source -- so a save does not depend on what the
process routed before it: saved warm, after a restore onto a fresh machine
(cold memo), or merged from shards, one run is the same bytes. A route
spliced around a fault keeps its endpoint source and its original choice,
so only its hops tell it apart: it keeps them, and the run finishes as if
never saved.
"""

import json
import random

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.core import routing
from repro.core.routing import RouteComputer
from repro.faults import FaultPolicy, FaultSet, FaultSpec
from repro.faults.model import failable_channels
from repro.sim.checkpoint import PACKET_ROW, dumps, restore_engine, snapshot_engine
from repro.sim.engine import _EV_ARRIVAL
from repro.sim.goldens import GOLDEN_DIR
from repro.sim.simulator import RunSpec, shared_machine, start
from repro.traffic.demand import DemandMatrix, DemandSchedule, DemandSpec

HEAD = len(PACKET_ROW)
CONFIG = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
#: By this cycle a buffered packet rides a route spliced around a fault.
SAVE_AT = 32
GOLDEN = GOLDEN_DIR / "checkpoint_uniform_2x2x2.json"
SCHEMA2_GOLDEN = GOLDEN_DIR / "checkpoint_uniform_2x2x2.schema2.json"


def demand_run():
    """Open-loop hotspot demand and two link faults, one of which heals:
    ``demand_faulted_ckpt``'s recipe on a 2x2x2 machine."""
    duration = 48
    matrix = DemandMatrix.hotspot(
        CONFIG.shape, rate=0.3, hotspots=2, hot_fraction=0.6, seed=1
    )
    down, flaky = random.Random(1).sample(failable_channels(Machine(CONFIG)), 2)
    fault_set = FaultSet(
        specs=(
            FaultSpec(kind="link", channel=down, down_cycle=duration // 4),
            FaultSpec(
                kind="link", channel=flaky,
                down_cycle=duration // 2, up_cycle=duration,
            ),
        ),
        shape=CONFIG.shape,
    )
    spec = DemandSpec(
        demand=DemandSchedule.from_matrices([matrix], duration),
        cores_per_chip=2, mode="open", duration_cycles=duration,
        injection="bernoulli", seed=1,
    )
    return RunSpec(CONFIG, spec, fault_set=fault_set, fault_policy=FaultPolicy())


@pytest.fixture(scope="module")
def saved():
    """The run saved at ``SAVE_AT`` in this process, warm."""
    engine = start(demand_run())
    engine.run_for(SAVE_AT)
    return dumps(snapshot_engine(engine))


def test_a_spliced_route_keeps_its_hops(saved):
    rows = json.loads(saved)["packets"]
    leaves = shared_machine(CONFIG)[0].engine_rows.src
    # A splice starts at the channel that held the packet, not at its source.
    spliced = [row for row in rows if len(row) > HEAD and leaves[row[HEAD]] != row[10]]
    assert spliced
    hopless = [row for row in rows if len(row) == HEAD]
    assert len(hopless) > 0.9 * len(rows)


def test_saved_warm_cold_or_sharded_it_is_the_same_bytes(saved):
    # Restored onto a fresh machine, whose memo has routed nothing.
    cold = restore_engine(json.loads(saved), machine=Machine(CONFIG))
    assert dumps(snapshot_engine(cold)) == saved
    for shards in (2, 4):
        engine = start(demand_run(), shards=shards)
        engine.run_for(SAVE_AT)
        assert dumps(snapshot_engine(engine)) == saved, shards
        engine.close()


def test_a_memo_emptied_on_the_way_saves_the_same_bytes(saved, monkeypatch):
    # A table that fills is emptied: the save then rebuilds equal routes.
    monkeypatch.setattr(routing, "ROUTE_MEMO_ENTRIES", 8)
    engine = start(demand_run(), machine=Machine(CONFIG))
    engine.run_for(SAVE_AT)
    assert dumps(snapshot_engine(engine)) == saved


def test_it_restores_and_finishes_bit_identically(saved):
    straight = start(demand_run())
    expect = json.dumps(straight.run().asdict())
    for machine in (None, shared_machine(CONFIG)[0]):
        resumed = restore_engine(json.loads(saved), machine=machine)
        assert json.dumps(resumed.run().asdict()) == expect


def test_restored_packets_share_the_machine_memo():
    machine = Machine(CONFIG)
    engine = restore_engine(json.loads(GOLDEN.read_text()), machine=machine)
    packets = [
        event[1]
        for bucket in engine._events.buckets
        for event in bucket
        if event[0] == _EV_ARRIVAL
    ]
    assert len(packets) == 70  # the golden's every packet
    routes = RouteComputer(machine)
    for packet in packets:
        route = packet.route
        assert routes.compute(route.src, route.dst, route.choice) is route


def test_a_full_row_equal_to_the_rebuild_saves_hopless():
    # Schema 2 wrote every row with its hops; each equals the rebuild.
    data = json.loads(GOLDEN.read_text())
    data["packets"][4] = json.loads(SCHEMA2_GOLDEN.read_text())["packets"][4]
    assert len(data["packets"][4]) > HEAD
    assert dumps(snapshot_engine(restore_engine(data))) == GOLDEN.read_text()


def test_a_differing_row_keeps_its_hops_and_saves_again_as_it_was():
    data = json.loads(GOLDEN.read_text())
    row = json.loads(SCHEMA2_GOLDEN.read_text())["packets"][4]
    row[13] ^= 1  # the other slice: its route is not these hops
    data["packets"][4] = row
    text = dumps(snapshot_engine(restore_engine(data)))
    again = json.loads(text)
    assert again["packets"][4] == row
    assert [len(r) > HEAD for r in again["packets"]].count(True) == 1
    assert dumps(snapshot_engine(restore_engine(again))) == text
