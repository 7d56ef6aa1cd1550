"""Hostile checkpoints get a named one-line error, on every schema.

Every packet index a checkpoint holds must name a packet of its table,
in the order the snapshot numbered them (source queues, buffers, wheel
arrivals: each packet sits in exactly one place), every packet row must
be one, and every row must be as long as the machine's. A packet row
that carries its hops must walk the machine's (channel, VC) pairs into
its destination; one that carries none must name a route the machine
builds. Every arbiter entry must be an integer in its row's range (an
``iw`` accumulator below 2^(M+1)), and the active list the machine's
components, rising. One that is not -- a negative index, an index
named twice, a row too many, a row cut short, a hop off the machine, a
source that is no endpoint, a pointer past its fan-in -- is refused
with a :class:`CheckpointError` that names it, and by the CLI as
``error: ...`` and exit 1: never a traceback, never a hang, and never a run that goes on with a packet buffered twice or a
route the hardware has not got. Each edit is made to the committed
golden (schema 3), to the same snapshot as schema 2 wrote it, and to it
as schema 1 wrote it, which the up-converter brings to the same checks.
"""

import dataclasses
import json
import re

import pytest

from repro.cli import main
from repro.faults import FaultPolicy, FaultSet, FaultSpec
from repro.sim.checkpoint import (
    CheckpointError,
    dumps,
    restore_engine,
    snapshot_engine,
)
from repro.sim.goldens import GOLDEN_DIR

GOLDENS = {
    1: GOLDEN_DIR / "checkpoint_uniform_2x2x2.schema1.json",
    2: GOLDEN_DIR / "checkpoint_uniform_2x2x2.schema2.json",
    3: GOLDEN_DIR / "checkpoint_uniform_2x2x2.json",
}
#: The golden's packet count; every one of them is on the wheel.
PACKETS = 70
#: An endpoint of the golden's machine, and a torus link of it.
SOURCE = 209
TORUS_LINK = 640


def edits(*cases):
    """``(schema, named, edit)`` params. A case is ``(name, named, rows[,
    s1])``: an edit ``rows`` to the goldens that write packets as rows
    (schemas 2 and 3), ``s1`` to schema 1's (by default the same; ``None``
    where schema 1 cannot say it), and the pattern the error must match,
    one for all or one per schema."""
    params = []
    for name, named, rows, *s1 in cases:
        s1 = s1[0] if s1 else rows
        named = named if isinstance(named, dict) else dict.fromkeys(GOLDENS, named)
        for schema, change in ((1, s1), (2, rows), (3, rows)):
            if change is not None:
                params.append(pytest.param(
                    schema, named[schema], change, id=f"{name}-schema{schema}"
                ))
    return pytest.mark.parametrize("schema,named,edit", params)


def assert_refused(schema, named, edit, tmp_path, capsys):
    data = json.loads(GOLDENS[schema].read_text())
    edit(data)
    assert_data_refused(data, named, tmp_path, capsys)


def assert_data_refused(data, named, tmp_path, capsys):
    with pytest.raises(CheckpointError, match=named) as caught:
        restore_engine(json.loads(dumps(data)))
    assert "\n" not in str(caught.value)
    path = tmp_path / "hostile.json"
    path.write_text(dumps(data))
    assert main(["checkpoint", "restore", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and re.search(named, err)


def arrival(data, nth=0):
    """The golden's ``nth`` wheel arrival; the first names packet 0."""
    return [
        event
        for _cycle, events in data["wheel"]["buckets"]
        for event in events
        if event[0] == 0
    ][nth]


def faulted(inflight):
    """An edit giving the golden a fault section holding ``inflight``."""
    fault_set = FaultSet(
        specs=(FaultSpec(kind="link", channel=TORUS_LINK),), shape=(2, 2, 2)
    )

    def apply(data):
        data["faults"] = {
            "fault_set": json.loads(fault_set.to_json()),
            "policy": dataclasses.asdict(FaultPolicy()),
            "failed": [TORUS_LINK],
            "inflight": inflight,
        }

    return apply


def hop_index(value):
    def apply(data):
        packet = data["packets"][4]
        if isinstance(packet, dict):
            packet["hop_index"] = value
        else:
            packet[6] = value

    return apply


@edits(
    ("negative", "source_queues names packet -1",
     lambda d: d["source_queues"].append([SOURCE, [-1]])),
    ("past the table", f"source_queues names packet {PACKETS}",
     lambda d: d["source_queues"].append([SOURCE, [0, PACKETS]])),
    ("twice", "source_queues names packet 0 a second time",
     lambda d: d["source_queues"].append([SOURCE, [0, 0]])),
    ("out of turn", "source_queues names packet 1 out of turn: .* so 0 comes next",
     lambda d: d["source_queues"].append([SOURCE, [1, 0]])),
)
def test_source_queue_indices(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


@edits(
    # Appended to an empty VC buffer, -1 used to buffer the table's last
    # packet a second time, and the run went on to the end.
    ("negative", "buffers names packet -1",
     lambda d: d["buffers"].append([5, 1, [-1]]),
     lambda d: d["buffers"][5][1].append(-1)),
    ("past the table", f"buffers names packet {PACKETS}",
     lambda d: d["buffers"].append([5, 1, [PACKETS]]),
     lambda d: d["buffers"][5][1].append(PACKETS)),
    ("twice", "buffers names packet 0 a second time",
     lambda d: d["buffers"].append([5, 1, [0, 0]]),
     lambda d: d["buffers"][5][1].extend([0, 0])),
    # A packet on the wheel buffered too: the wheel names it again.
    ("buffered and on the wheel", "a wheel arrival names packet 0 a second time",
     lambda d: d["buffers"].append([5, 1, [0]]),
     lambda d: d["buffers"][5][1].append(0)),
    ("no such VC",
     {1: "buffers are not one entry per VC",
      2: r"buffer \(5, 9\) is empty, out of \(channel, VC\) order or at no VC",
      3: r"buffer \(5, 9\) is empty, out of \(channel, VC\) order or at no VC"},
     lambda d: d["buffers"].append([5, 9, [0]]),
     lambda d: d["buffers"][5].append([0])),
    ("out of order", r"buffer \(5, 1\) is empty, out of \(channel, VC\) order",
     lambda d: d["buffers"].extend([[5, 2, [0]], [5, 1, [1]]]), None),
)
def test_buffer_indices(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


@edits(
    ("negative", "a wheel arrival names packet -1",
     lambda d: arrival(d).__setitem__(1, -1)),
    ("past the table", f"a wheel arrival names packet {PACKETS}",
     lambda d: arrival(d).__setitem__(1, PACKETS)),
    ("twice", "a wheel arrival names packet 0 a second time",
     lambda d: arrival(d, 1).__setitem__(1, 0)),
    ("out of turn", "a wheel arrival names packet 5 out of turn",
     lambda d: arrival(d).__setitem__(1, 5)),
)
def test_wheel_arrival_indices(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


@edits(
    ("negative", "faults.inflight names packet -1",
     faulted([[-1, TORUS_LINK]])),
    ("past the table", f"faults.inflight names packet {PACKETS}",
     faulted([[3, TORUS_LINK], [PACKETS, TORUS_LINK]])),
    ("twice", "faults.inflight names packet 3 after 3",
     faulted([[3, TORUS_LINK], [3, TORUS_LINK]])),
)
def test_inflight_indices(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


@edits(
    ("fields",
     {1: r"truncated or corrupted checkpoint: KeyError\('retries'\)",
      2: "a packet row has 10 fields: not 19 and a run",
      3: "a packet row has 10 fields: not 19 and a run"},
     lambda d: d["packets"].__setitem__(2, d["packets"][2][:10]),
     lambda d: d["packets"][2].pop("retries")),
    ("odd hop run",
     {1: "truncated or corrupted checkpoint: ValueError",
      2: "a packet row has 60 fields: not 19 and a run",
      3: "a packet row has 20 fields: not 19 and a run"},
     lambda d: d["packets"][3].append(7),
     lambda d: d["packets"][3]["route"]["hops"][0].append(7)),
    ("hop_index past the route", "hop_index 999 is outside its",
     hop_index(999)),
    ("negative hop_index", "hop_index -1 is outside its", hop_index(-1)),
    # A row too many is a packet placed nowhere.
    ("a row too many", f"lists {PACKETS + 1} packets but places {PACKETS}",
     lambda d: d["packets"].append(d["packets"][0])),
)
def test_packet_rows(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


@edits(
    # A channel row too many used to be ignored without a word.
    ("credits",
     {1: "its credits are not one entry per VC",
      2: "the credits row has 2849 entries, this machine's 2848",
      3: "the credits row has 2849 entries, this machine's 2848"},
     lambda d: d["credits"].append(8),
     lambda d: d["credits"].append([8, 8, 8, 8])),
    ("channel_free_at", "the channel_free_at row has 737 entries, this machine's 736",
     lambda d: d["channel_free_at"].append(0)),
    ("input_free_at", "the input_free_at row has 735 entries, this machine's 736",
     lambda d: d["input_free_at"].pop()),
    ("arbiter grants",
     {1: "arbiter state has 6 inputs, expected 5",
      2: "the grants row of a rr stage has",
      3: "the grants row of a rr stage has"},
     lambda d: d["arbiters"]["grants"].append(0),
     lambda d: d["arbiters"][0][1]["state"]["grants"].append(0)),
    ("arbiter pointers", "the pointer row of a rr stage has",
     lambda d: d["vc_arbiters"]["pointer"].append(0), None),
)
def test_row_lengths(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


def stage_entry(stage, row, value):
    """Edits setting the first entry of ``stage``'s ``row`` to ``value``:
    the stage's rows (schemas 2 and 3), then its first site's state
    (schema 1)."""

    def rows(data):
        data[stage][row][0] = value

    def s1(data):
        state = data[stage][0][1]["state"]
        if row == "pointer":
            state[row] = value
        else:
            state[row][0] = value

    return rows, s1


# Before these checks, a string was a TypeError traceback mid-run and
# every other case was accepted, the run going on to the end.
@edits(
    ("grants below zero", r"arbiter 0's grants entry is -5, not an integer >= 0",
     *stage_entry("arbiters", "grants", -5)),
    ("grants a string", r"arbiter 0's grants entry is '7', not an integer >= 0",
     *stage_entry("arbiters", "grants", "7")),
    ("grants a bool", r"arbiter 0's grants entry is True, not an integer >= 0",
     *stage_entry("vc_arbiters", "grants", True)),
    ("pointer null", r"arbiter 0's pointer entry is None, not an integer in \[0, 5\)",
     *stage_entry("arbiters", "pointer", None)),
    ("pointer past the fan-in",
     r"arbiter 0's pointer entry is 5, not an integer in \[0, 5\)",
     *stage_entry("arbiters", "pointer", 5)),
)
def test_arbiter_entries(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


#: An iw stage's file, as schema 2 wrote it.
IW_GOLDEN = GOLDEN_DIR / "checkpoint_iw-tornado-4x2x2.schema2.json"


@pytest.mark.parametrize("schema", [2, 3])
@pytest.mark.parametrize("value", [
    # The stage holds values below 2^(M+1) = 64 (M = 5).
    "7", 64, 1000, -1, True,
])
def test_iw_accumulator_entries(schema, value, tmp_path, capsys):
    data = json.loads(IW_GOLDEN.read_text())
    if schema == 3:
        data = json.loads(dumps(snapshot_engine(restore_engine(data))))
    data["arbiters"]["accumulators"][3] = value
    named = (
        rf"arbiter \d+'s accumulators entry is {value!r}, not an integer "
        rf"in \[0, 64\)"
    )
    assert_data_refused(data, named, tmp_path, capsys)


# Before these checks, a component past the machine was an IndexError
# traceback, a string a TypeError one, and -1 (the machine's last
# component's rows) or a repeated id was accepted.
@edits(
    ("past the machine",
     "active names component 1000000000 after 236; the machine has 240",
     lambda d: d["active"].append(1_000_000_000)),
    ("a string", "active names component '5' after 236",
     lambda d: d["active"].append("5")),
    ("a bool", "active names component True after -1",
     lambda d: d["active"].insert(0, True)),
    ("negative", "active names component -1 after 236",
     lambda d: d["active"].append(-1)),
    ("twice", "active names component 236 after 236",
     lambda d: d["active"].append(236)),
    ("out of order", "active names component 231 after 236",
     lambda d: d["active"].reverse()),
)
def test_active_components(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


#: The golden's packet 4: pid 100, from endpoint 208 to 118 at hop 10 of
#: 13, its last three hops still to go.
PACKET, PID, DST = 4, 100, 118
HEAD = 19
FULL_ROW = json.loads(GOLDENS[2].read_text())["packets"][PACKET]


def full_row(hop=None, at=11, dst=None, src=None):
    """Edits to the packet's full row and its schema-1 dict: its hop
    ``at`` (11 is the second still to go, 12 its last) set to ``hop``,
    its ``dst`` moved, or its ``src`` moved with the packet sent back to
    hop 0, as if still queued there. Schema 3's row first gets back the
    hops it left out, which are the machine's route."""

    def rows(data):
        row = data["packets"][PACKET]
        row[HEAD:] = FULL_ROW[HEAD:]
        if hop is not None:
            row[HEAD + 2 * at:HEAD + 2 * at + 2] = hop
        if dst is not None:
            row[11] = dst
        if src is not None:
            row[6], row[10] = 0, src

    def s1(data):
        packet = data["packets"][PACKET]
        route = packet["route"]
        if hop is not None:
            route["hops"][at] = list(hop)
        if dst is not None:
            route["dst"] = dst
        if src is not None:
            packet["hop_index"], route["src"] = 0, src

    return rows, s1


# What each did before these checks is noted above it.
@edits(
    # An IndexError traceback mid-run.
    ("channel past the machine", rf"packet {PID}'s route has hop \(736, 2\), which is no",
     *full_row((736, 2))),
    # Ran to completion on the machine's last channel.
    ("negative channel", rf"packet {PID}'s route has hop \(-1, 2\), which is no",
     *full_row((-1, 2))),
    # Ran to completion.
    ("VC past its channel", rf"packet {PID}'s route has hop \(255, 9\), which is no",
     *full_row((255, 9))),
    # A 20 000-cycle hang, then a DeadlockError.
    ("VC past the endpoint link", rf"packet {PID}'s route has hop \(316, 9\), which is no",
     *full_row((316, 9), at=12)),
    # Ran to completion, the packet jumping to another chip.
    ("hop onto an unconnected channel",
     rf"packet {PID}'s route hops onto channel 557, which does not leave component",
     *full_row((557, 0))),
    ("last hop misses dst",
     rf"packet {PID}'s route ends at component {DST}, not at its dst 119",
     *full_row(dst=119)),
    # Ran to completion.
    ("queued packet's first hop leaves another endpoint",
     rf"packet {PID}'s route hops onto channel 557, which does not leave component {SOURCE}",
     *full_row(src=SOURCE)),
)
def test_a_full_row_walks_the_machine_into_dst(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)


def head_field(index, value):
    def apply(data):
        data["packets"][PACKET][index] = value

    return apply


@pytest.mark.parametrize("named,edit", [
    pytest.param(named, edit, id=name) for name, named, edit in (
        ("src past the machine", "its src 240 is no component", head_field(10, 240)),
        ("src a router",
         "the machine cannot route it: routes connect endpoint adapters",
         head_field(10, 0)),
        ("negative dst", "its dst -1 is no component", head_field(11, -1)),
        ("class past num_classes",
         "the machine cannot route it: traffic class 1 is out of range",
         head_field(3, 1)),
        ("delta the pair has not got",
         "the machine cannot route it: delta 3", head_field(14, 3)),
    )
])
def test_a_hopless_row_names_a_route_the_machine_builds(named, edit, tmp_path, capsys):
    named = f"packet {PID}'s row carries no hops and {named}"
    assert_refused(3, named, edit, tmp_path, capsys)


def test_a_hopless_row_carries_its_routes_internode(tmp_path, capsys):
    named = f"packet {PID}'s row carries no hops, so its internode and via must be"
    assert_refused(3, named, head_field(17, 9), tmp_path, capsys)


@edits(
    ("slice",
     {1: "truncated or corrupted checkpoint: ValueError",
      2: f"packet {PID}'s route choice: slice_index must be 0 or 1",
      3: f"packet {PID}'s route choice: slice_index must be 0 or 1"},
     head_field(13, 5),
     lambda d: d["packets"][PACKET]["route"]["choice"].__setitem__("slice", 5)),
)
def test_a_route_choice_is_one(schema, named, edit, tmp_path, capsys):
    assert_refused(schema, named, edit, tmp_path, capsys)
