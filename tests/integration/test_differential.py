"""One differential harness: every way of running a run, checked against
one serial oracle per row.

A run has one answer: its stats JSON (key order included), JSONL trace
bytes, collector state, and checkpoint bytes at any cycle. Each row of
:data:`ROWS` is one run; its oracle, computed once per process, is the
serial ``run(spec, trace=Tee(JsonlTraceWriter, MetricsCollector))``,
snapshotted on the way at every cycle the row's legs compare at (a
golden's trace must be its committed JSONL). Each *leg* is another way
of running the row and must reproduce those bytes:

* ``sharded`` -- an untraced engine at each of the row's ``shards``: its
  checkpoint at every cycle the oracle snapshots and at the drain (the
  untraced variant: a sharded run takes no trace sink), and its stats.
  Mesh, chiplet and retry rows assert the shard runner's refusal by
  name, from ``run`` and ``repro run``.
* ``split`` -- each of the row's ``plans``: an engine runs to each cut
  and saves there, restarting from the file where the chain's shard
  count changes; ``run`` at the last count finishes from the file and
  leaves nothing behind. A *kill* plan runs each leg as ``run`` saving
  every 16 cycles, killed at its cut: the file left is its last save.
  Legs are traced until the first sharded one; from there on every leg
  runs, and saves, untraced, and the finished run's trace and collector
  state are compared only where every leg is serial.
* ``served`` -- per ``(quantum, cut)`` in ``serving``: a ``Session``
  stepped in quanta to the cut, its snapshot the oracle's there (less the
  JSONL writer), sent back to ``create`` and resumed to drain.
* ``cli`` -- the row as ``repro run``/``trace``/``profile``/``demand``/
  ``faults run`` flags (a golden: ``trace --golden``).
* ``replayed`` -- the oracle trace through ``replay_trace`` comes back as
  the same bytes.

The rows, and where they come from: ``shard-*``, the shard conformance
workloads (2x2x2 uniform, tornado and two-epoch demand under rr/age/iw;
two scheduled link faults, reroute or drop); ``surfaces-*``, the
every-surface rows (4x2x2 uniform healthy and with a static fault, 4x4
mesh, rr and iw; demand open and closed loop, torus and mesh, paced,
multi-epoch, retry); ``ckpt-*``, the checkpoint matrix (killed at
20/36/52 along four chains); ``described``, ``run_for``'s split-run row
(cut around its 12-cycle lookahead); ``split-mesh``/``split-chiplet``,
the topology split runs (cut at 9 and 5); ``golden-*``, every golden
``golden_runspec`` describes; ``serve-*``, the session rows (17-cycle
quanta from cycle 0, a mid-run resume; age at 48); ``replay-demand``, the
replay suite's fresh paced run; ``shard8-4x4x4``, a machine 8 shards cut
on every axis. The rows whose workload no pinned plan splits (age,
static and scheduled faults, closed-loop, paced, multi-epoch, retry) are
cut at 25 and 50 under each order of 1, 2 and 4 shards.
"""

import asyncio
import contextlib
import dataclasses
import functools
import gc
import io
import itertools
import json
import os
import re
import tempfile
from typing import Optional

import pytest

from repro.cli import main
from repro.faults import FaultPolicy, FaultSet, FaultSpec
from repro.faults.model import failable_channels
from repro.serve.session import Session, SessionConfig
from repro.sim.checkpoint import (
    CRASH_ENV_VAR, dumps, run_stamp, save_checkpoint, snapshot_engine,
)
from repro.sim.goldens import committed_golden_path, golden_runspec
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import RunSpec, run, shared_machine, start, trace_header
from repro.sim.trace import JsonlTraceWriter, Tee
from repro.traffic.demand import DemandMatrix, DemandSchedule, DemandSpec
from repro.traffic.replay import replay_trace

#: Window of every collector here: short, so runs cross many windows.
WINDOW = 16

#: Cycles between the periodic saves of a killed leg ...
KILL_EVERY = 16

#: ... and of the leg that finishes a split run (the command line's default).
EVERY = 64


def canon(obj) -> str:
    """Canonical text of a JSON payload (compact, insertion-ordered)."""
    return json.dumps(obj, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class Plan:
    """Where a split run is cut, and the shard count before each cut and
    after the last; ``kill``: each leg is killed at its cut."""

    cuts: tuple
    chain: tuple
    kill: bool = False

    def saves(self) -> list:
        """``(cut, cycle of the file the leg leaves)`` per cut."""
        if not self.kill:
            return [(cut, cut) for cut in self.cuts]
        pairs, saved = [], 0
        for cut in self.cuts:
            saved += (cut - saved - 1) // KILL_EVERY * KILL_EVERY
            pairs.append((cut, saved))
        return pairs


@dataclasses.dataclass(frozen=True)
class Row:
    """One run: its parameter form where the form can spell it, else its
    ``RunSpec``; a golden row names its committed trace. The other fields
    say which legs it runs."""

    name: str
    params: Optional[dict] = None
    spec: Optional[RunSpec] = None
    golden: Optional[str] = None
    shards: tuple = ()
    plans: tuple = ()
    serving: tuple = ()
    cli: bool = False
    replay: bool = False
    window: int = WINDOW

    @functools.cached_property
    def run(self) -> RunSpec:
        return self.spec or RunSpec.from_params(self.params)

    @property
    def shardable(self) -> bool:
        policy = self.run.fault_policy
        return self.run.config.topology == "torus" and not (
            policy is not None and policy.mode == "retry"
        )

    @property
    def replayable(self) -> bool:
        demand = getattr(self.run.spec, "demand", None) is not None
        return self.run.fault_set is None and not (
            demand and self.run.arbitration == "iw"
        )

    def sinks(self, stream, **writer):
        """``(writer, collector)``: the JSONL writer this row's traces are
        written by, onto ``stream``, and a fresh collector."""
        if self.golden:
            header = committed_golden_path(self.golden).read_text().split("\n", 1)[0]
            meta = {k: v for k, v in json.loads(header).items() if k not in ("ev", "schema")}
        else:
            machine = shared_machine(self.run.config)[0]
            meta = trace_header(self.params or {}, self.run, machine)
        return (
            JsonlTraceWriter(stream, meta=meta, **writer),
            MetricsCollector(window_cycles=self.window),
        )

    def finish(self, writer, stats) -> None:
        """Write the trailing record of this row's trace, as ``repro
        trace``/``demand``/``faults run`` write it (a golden's also counts
        reroutes)."""
        record = {"ev": "end", "cyc": stats.end_cycle, "injected": stats.injected,
                  "delivered": stats.delivered}
        if self.run.fault_set is not None:
            record["dropped"] = stats.dropped
            if self.golden:
                record["rerouted"] = stats.rerouted
        record["events"] = writer.events_written
        writer.write_record(record)
        writer.flush()


class Oracle:
    """The serial answers for one row."""

    def __init__(self, row: Row) -> None:
        self.row = row
        stream = io.StringIO()
        writer, collector = row.sinks(stream)
        wanted = {cycle for plan in row.plans for _, cycle in plan.saves()}
        wanted.update(cut for _, cut in row.serving)
        #: The cycles the oracle snapshots at before the drain.
        self.cuts = sorted(wanted)
        self._checkpoints = {}
        with contextlib.closing(start(row.run, trace=Tee(writer, collector))) as engine:
            for cycle in self.cuts:
                engine.run_for(cycle - engine.cycle)
                self._checkpoints[engine.cycle] = dumps(snapshot_engine(engine))
            stats = engine.run()
            self._checkpoints[stats.end_cycle] = dumps(snapshot_engine(engine))
        # Every leg agreeing on a run that moves nothing would show nothing.
        assert stats.injected > 0
        assert stats.delivered + stats.dropped == stats.injected
        assert stats.dropped == 0 or row.run.fault_set is not None
        row.finish(writer, stats)
        self.trace = stream.getvalue()
        if row.golden:
            assert self.trace == committed_golden_path(row.golden).read_text()
        self.stats = canon(stats.asdict())
        self.end = stats.end_cycle
        self.collector = collector.state()
        self.metrics = collector.snapshot()

    def checkpoint(
        self, cycle: int, writer: bool = True, stamped: bool = False,
        traced: bool = True,
    ) -> str:
        """Checkpoint text at ``cycle`` (at the drain, past it);
        ``writer=False``: as an engine traced by its collector alone
        records it; ``traced=False``: as an untraced engine -- a sharded
        one -- records it, its trace section all ``None``; ``stamped``:
        as ``run`` saves it."""
        text = self._checkpoints[min(cycle, self.end)]
        if writer and traced and not stamped:
            return text
        data = json.loads(text)
        if not traced:
            data["trace"] = dict.fromkeys(data["trace"])
        elif not writer:
            data["trace"].update(events_written=None, bytes_written=None)
        if stamped:
            data["run_stamp"] = run_stamp(self.row.run)
        return dumps(data)

    def artifacts(self) -> dict:
        """What a drained served session of the row reports."""
        return {
            "stats": self.stats,
            "metrics": canon(self.metrics),
            "checkpoint": self.checkpoint(self.end, writer=False),
        }


_ORACLES = {}


def oracle(row: Row) -> Oracle:
    """The row's oracle, computed once per process."""
    if row.name not in _ORACLES:
        _ORACLES[row.name] = Oracle(row)
    return _ORACLES[row.name]


def oracle_artifacts(params: dict) -> dict:
    """The observables a default-configured serve session of the
    workload ``params`` must drain to: its serial oracle's."""
    row = Row(canon(params), params, window=SessionConfig().window_cycles)
    return oracle(row).artifacts()


def session_artifacts(session) -> dict:
    """The same observables, read off a (drained) served session."""
    payload = session.stats_payload()
    return {
        "stats": canon(payload["stats"]),
        "metrics": canon(payload["metrics"]),
        "checkpoint": session.snapshot_text(),
    }


# --- the rows -------------------------------------------------------------------


def batch(shape, pattern, per_source, seed, arbitration="rr", **more):
    params = {
        "kind": "batch", "shape": list(shape), "endpoints": 2, "cores": 2,
        "pattern": pattern, "batch": per_source, "seed": seed,
        "arbitration": arbitration,
    }
    return dict(params, **more)


def link_faults(shape, *windows, first=1):
    """Torus link faults on failable channels ``first`` and the middle one:
    ``windows`` are their ``(down, up)`` cycles (``up`` ``None``: for good)."""
    machine = shared_machine(RunSpec.from_params({"shape": list(shape)}).config)[0]
    channels = failable_channels(machine)
    picks = (channels[first], channels[len(channels) // 2])
    specs = tuple(FaultSpec(kind="link", channel=channel, down_cycle=down, up_cycle=up)
                  for channel, (down, up) in zip(picks, windows))
    return json.loads(FaultSet(specs=specs, shape=machine.config.shape).to_json())


def two_epochs(shape, hot, flat, switch, duration, seed, arbitration="rr"):
    """An open-loop schedule no parameter form spells: a hotspot matrix
    (``hot``: rate, hot fraction, seed), then a uniform one at ``switch``."""
    rate, hot_fraction, matrix_seed = hot
    hotspot = DemandMatrix.hotspot(shape, rate=rate, hotspots=1, hot_fraction=hot_fraction,
                                   seed=matrix_seed)
    schedule = DemandSchedule(epochs=((0, hotspot), (switch, DemandMatrix.uniform(shape, flat))))
    spec = DemandSpec(demand=schedule, cores_per_chip=2, mode="open",
                      duration_cycles=duration, seed=seed)
    return RunSpec(RunSpec.from_params({"shape": list(shape)}).config, spec, arbitration)


SHARD_FAULTS = link_faults((2, 2, 2), (10, None), (16, 36))
CKPT_FAULTS = {
    shape: link_faults(shape, (10, None), (24, 44))
    for shape in ((2, 2, 2), (4, 2, 1))
}
SHARD_DEMAND = two_epochs((2, 2, 2), (0.3, 0.6, 21), 0.2, 24, 48, seed=22)

#: The checkpoint matrix: every leg killed at 20, 36 and 52 (a save at
#: 16, 32 and 48 before each), resumed under the next count of a chain;
#: every chain passes through serial.
KILLED = tuple(
    Plan((20, 36, 52), chain, kill=True)
    for chain in ((1, 2, 4, 1), (4, 1, 2, 8), (2, 2, 1, 4), (8, 4, 2, 1))
)

#: One engine at 2, and one at 4 shards, stopped by ``run_for`` at every
#: ``a`` and ``a + b`` of the pairs 1/7, 12/12, 13/50, 5/31, 90/500 around
#: the described row's 12-cycle lookahead -- on, inside and across window
#: boundaries, and past the drain -- and finished serially.
RUN_FOR = tuple(
    Plan((1, 5, 8, 12, 13, 24, 36, 63, 90, 590), (shards,) * 10 + (1,))
    for shards in (2, 4)
)

#: Cut at 25 and 50 (mid-run on every row split so), each order of 1, 2
#: and 4 shards in turn.
MIXED = itertools.cycle(
    (Plan((25, 50), chain),) for chain in ((2, 4, 1), (4, 1, 2), (1, 2, 4))
)


def _rows():
    shard = []
    for arbitration in ("rr", "age", "iw"):
        shard += [
            Row(f"shard-uniform-{arbitration}",
                batch((2, 2, 2), "uniform", 4, 11, arbitration)),
            Row(f"shard-tornado-{arbitration}",
                batch((2, 2, 2), "tornado", 4, 12, arbitration)),
            Row(f"shard-demand-{arbitration}",
                spec=dataclasses.replace(SHARD_DEMAND, arbitration=arbitration),
                plans=next(MIXED) if arbitration == "age" else ()),
        ]
    for arbitration, mode in (("rr", "reroute"), ("iw", "reroute"), ("rr", "drop")):
        shard.append(Row(
            f"shard-uniform-{arbitration}-{mode}",
            batch((2, 2, 2), "uniform", 4, 11, arbitration, faults=SHARD_FAULTS,
                  policy={"mode": mode}),
        ))
    shard.append(Row("shard-demand-rr-reroute", spec=dataclasses.replace(
        SHARD_DEMAND, fault_set=FaultSet.from_dict(SHARD_FAULTS),
        fault_policy=FaultPolicy(),
    ), plans=next(MIXED)))

    surfaces = []
    static_fault = link_faults((4, 2, 2), (0, None), first=0)
    for arbitration in ("rr", "iw"):
        surfaces += [
            Row(f"surfaces-torus-{arbitration}",
                batch((4, 2, 2), "uniform", 8, 0, arbitration)),
            Row(f"surfaces-torus-faulted-{arbitration}",
                batch((4, 2, 2), "uniform", 8, 0, arbitration, faults=static_fault),
                plans=next(MIXED) if arbitration == "rr" else ()),
            Row(f"surfaces-mesh-{arbitration}",
                batch((4, 4), "uniform", 8, 0, arbitration, topology="mesh")),
        ]
    demand = {"kind": "demand", "endpoints": 2, "cores": 2}
    surfaces += [
        Row("surfaces-demand-torus-open", dict(
            demand, shape=[2, 2, 2], arbitration="rr", seed=3,
            demand={"generator": "hotspot", "rate": 0.3, "duration": 48})),
        Row("surfaces-demand-torus-closed-iw", dict(
            demand, shape=[2, 2, 2], arbitration="iw", seed=1,
            demand={"generator": "skew", "rate": 0.5, "skew_exponent": 1.5,
                    "mode": "closed", "scale": 12.0}), plans=next(MIXED)),
        Row("surfaces-demand-mesh-open-paced", dict(
            demand, topology="mesh", shape=[4, 4], arbitration="rr", seed=2,
            demand={"generator": "permutation", "rate": 0.25, "matrix_seed": 6,
                    "duration": 40, "injection": "paced"}), plans=next(MIXED)),
        Row("surfaces-demand-torus-multi-epoch", dict(
            demand, shape=[4, 2, 2], arbitration="age", seed=9,
            demand={"generator": "hotspot", "rate": 0.3, "hotspots": 2,
                    "hot_fraction": 0.4, "matrix_seed": 4, "epochs": 3,
                    "epoch_length": 16, "duration": 48}), plans=next(MIXED)),
        Row("surfaces-demand-torus-retry", dict(
            demand, shape=[4, 2, 2], arbitration="rr", seed=5,
            faults={"version": 1, "shape": [4, 2, 2],
                    "faults": [{"kind": "link", "channel": 1300, "down": 0}]},
            policy={"mode": "retry", "retries": 2},
            demand={"generator": "uniform", "rate": 0.2, "duration": 32}),
            plans=next(MIXED)),
    ]

    ring = (4, 2, 1)
    rest = [
        Row("ckpt-uniform-rr", batch((2, 2, 2), "uniform", 10, 9), plans=KILLED),
        Row("ckpt-tornado-iw", batch(ring, "tornado", 10, 12, "iw"), plans=KILLED),
        Row("ckpt-demand", spec=two_epochs(ring, (0.1, 0.5, 3), 0.08, 30, 76, seed=22),
            plans=KILLED),
        Row("ckpt-faulted-reroute", batch(
            (2, 2, 2), "uniform", 10, 9, faults=CKPT_FAULTS[2, 2, 2],
            policy={"mode": "reroute"}), plans=KILLED),
        Row("ckpt-faulted-drop-iw", batch(
            ring, "uniform", 10, 9, "iw", faults=CKPT_FAULTS[ring],
            policy={"mode": "drop"}), plans=KILLED),
        Row("described", {"kind": "batch", "shape": [4, 2, 2], "cores": 2,
                          "batch": 16, "seed": 3}, plans=RUN_FOR),
        Row("split-mesh", batch((3, 3), "uniform", 3, 7, topology="mesh"),
            shards=(2,), plans=(Plan((9,), (1, 1)),)),
        Row("split-chiplet", batch((2, 2), "uniform", 3, 7, topology="chiplet"),
            shards=(2,), plans=(Plan((5,), (1, 1)),)),
    ]
    rest += [
        Row(f"golden-{name}", spec=golden_runspec(name), golden=name, shards=(2, 4),
            cli=True, replay=True)
        for name in ("uniform_2x2x2", "tornado_4x1x1", "mesh_4x4", "chiplet_2x2",
                     "faulted_2x2x2", "demand_2x2x2")
    ]
    rest += [
        Row("serve-rr", batch((2, 2, 2), "uniform", 6, 11),
            serving=((17, 0), (16, 40))),
        Row("serve-iw", batch((2, 2, 2), "tornado", 5, 3, "iw"),
            serving=((17, 0), (3, 4))),
        Row("serve-age", dict(
            demand, shape=[2, 2, 2], arbitration="age", seed=5,
            demand={"generator": "hotspot", "rate": 0.08, "matrix_seed": 9,
                    "epochs": 2, "epoch_length": 32, "duration": 96}),
            serving=((17, 0), (16, 48))),
        Row("replay-demand", dict(
            demand, shape=[2, 2, 2], seed=13,
            demand={"generator": "hotspot", "rate": 0.4, "matrix_seed": 21,
                    "duration": 40, "injection": "paced"}), replay=True),
        Row("shard8-4x4x4", batch((4, 4, 4), "uniform", 2, 33), shards=(2, 8)),
    ]
    rows = [dataclasses.replace(row, shards=(2, 4)) for row in shard]
    rows += [
        dataclasses.replace(row, shards=(2,), serving=((16, 40),), cli=True,
                            replay=row.params["kind"] == "demand")
        for row in surfaces
    ]
    return {row.name: row for row in rows + rest}


#: The one row table.
ROWS = _rows()


def cases(leg: str, where=lambda row: True) -> list:
    """``(row, value)`` parameters: each value of a row's ``leg`` field
    (a shard count, a plan, a serving), the count or index in the id."""
    return [
        pytest.param(row, value, id=f"{name}-{value if leg == 'shards' else i}")
        for name, row in ROWS.items() if where(row)
        for i, value in enumerate(getattr(row, leg))
    ]


def rows(where) -> list:
    return [pytest.param(row, id=name) for name, row in ROWS.items() if where(row)]


def drive(session, cycles=None):
    return asyncio.run(session.advance(cycles))


@pytest.fixture(autouse=True, scope="module")
def _unparked():
    yield
    gc.unfreeze()


@pytest.fixture(autouse=True)
def _parked(_unparked):
    """Park what is alive when a test starts -- the oracles, the machine
    and route memos -- in the permanent GC generation, until the module
    ends: the shard workers a test forks then never walk (and copy) it,
    nor does a collection here."""
    gc.freeze()


# --- the legs -------------------------------------------------------------------

REFUSALS = {
    "topology": "sharded runs support only the torus topology",
    "retry": "the retry fault policy is not supported in sharded runs",
}


@pytest.mark.parametrize("row,shards", cases("shards"))
def test_sharded(row, shards, capsys):
    expect = oracle(row)
    if not row.shardable:
        reason = "topology" if row.run.config.topology != "torus" else "retry"
        with pytest.raises(ValueError, match=REFUSALS[reason]):
            run(row.run, shards)
        if row.params and row.params["kind"] == "batch":
            assert main(["run"] + flags(row.params) + ["--shards", str(shards)]) != 0
            assert REFUSALS[reason] in capsys.readouterr().err
        return
    with contextlib.closing(start(row.run, shards=shards)) as engine:
        for cycle in expect.cuts:
            engine.run_for(cycle - engine.cycle)
            assert dumps(snapshot_engine(engine)) == expect.checkpoint(
                cycle, traced=False), cycle
        stats = engine.run()
        assert dumps(snapshot_engine(engine)) == expect.checkpoint(
            expect.end, traced=False)
    assert canon(stats.asdict()) == expect.stats


@pytest.mark.parametrize("row,plan", cases("plans"))
def test_split(row, plan, monkeypatch):
    expect = oracle(row)
    chain = plan.chain if row.shardable else (1,) * len(plan.chain)
    # Traced until the first sharded leg: that one saves untraced, and
    # every leg after it resumes, and saves, an untraced run.
    traced = [all(shards == 1 for shards in chain[: i + 1]) for i in range(len(chain))]
    stream = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.json")

        def sinks(on):
            """The leg's writer and collector, and what it is traced by:
            a kill plan's legs by their collector alone."""
            writer, collector = row.sinks(stream, owns_stream=True)
            sink = (collector if plan.kill else Tee(writer, collector)) if on else None
            return writer, collector, sink

        def saved(cycle, on):
            assert os.listdir(tmp) == ["ck.json"]
            with open(path) as file:
                assert file.read() == expect.checkpoint(
                    cycle, writer=not plan.kill, stamped=True, traced=on,
                ), (cycle, chain)

        if plan.kill:
            assert expect.end > plan.cuts[-1]
            for (cut, cycle), shards, on in zip(plan.saves(), chain, traced):
                monkeypatch.setenv(CRASH_ENV_VAR, str(cut))
                with pytest.raises(KeyboardInterrupt, match=f"at cycle {cut} "):
                    run(row.run, shards, trace=sinks(on)[2], checkpoint_path=path,
                        checkpoint_every=KILL_EVERY)
                saved(cycle, on)
            monkeypatch.delenv(CRASH_ENV_VAR)
        else:
            # One engine a stretch of equal counts, restarted where it
            # changes; a stretch is traced throughout or not at all.
            for shards, stretch in itertools.groupby(
                zip(plan.cuts, chain, traced), key=lambda leg: leg[1]
            ):
                stretch = list(stretch)
                on = stretch[0][2]
                writer, _, sink = sinks(on)
                engine = start(row.run, trace=sink, checkpoint_path=path, shards=shards)
                with contextlib.closing(engine):
                    for cut, _, _ in stretch:
                        engine.run_for(cut - engine.cycle)
                        if on:
                            writer.flush()
                        save_checkpoint(engine, path, run_stamp(row.run))
                        saved(cut, on)
        writer, collector, sink = sinks(traced[-1])
        stats = run(row.run, chain[-1], trace=sink, checkpoint_path=path,
                    checkpoint_every=EVERY)
        assert os.listdir(tmp) == []
    assert canon(stats.asdict()) == expect.stats
    if traced[-1]:
        row.finish(writer, stats)
        assert plan.kill or stream.getvalue() == expect.trace
        assert collector.state() == expect.collector


@pytest.mark.parametrize("row,serving", cases("serving"))
def test_served(row, serving):
    expect = oracle(row)
    quantum, cut = serving
    config = SessionConfig(quantum_cycles=quantum, window_cycles=WINDOW)
    session = Session.create(row.name, dict(row.params), config)
    drive(session, cut)
    text = session.snapshot_text()
    assert text == expect.checkpoint(cut, writer=False)
    resumed = Session.create(row.name, dict(row.params), config, checkpoint=text)
    # Serving counters are not simulation state: they start over.
    assert resumed.cycles_run == resumed.quanta == 0
    assert drive(resumed)["drained"]
    assert session_artifacts(resumed) == expect.artifacts()
    assert resumed.collector.state() == expect.collector


def flags(params: dict, machine: bool = True) -> list:
    """The parameter form as command-line flags: each key is its flag
    (``hot_fraction``: ``--hot-fraction``), the demand sub-dict's too;
    ``machine=False`` leaves the machine to the fault file."""
    argv = []
    for key, value in params.items():
        if key in ("kind", "faults") or (not machine and key in ("topology", "shape")):
            continue
        if key == "demand":
            argv += flags(value)
        elif key == "policy":
            argv += ["--policy", value["mode"], "--retries", str(value.get("retries", 4))]
        else:
            text = "x".join(map(str, value)) if key == "shape" else str(value)
            argv += ["--" + key.replace("_", "-"), text]
    return argv


def ints(pattern: str, text: str) -> tuple:
    match = re.search(pattern, text)
    assert match, f"{pattern!r} not found in {text!r}"
    return tuple(int(group) for group in match.groups())


_WALL = re.compile(r"\([\d,]+ cycles/s, [\d.]+s wall\)")


@pytest.mark.parametrize("row", rows(lambda row: row.cli))
def test_cli(row, tmp_path, capsys):
    expect = oracle(row)
    stats = json.loads(expect.stats)
    trace = tmp_path / "trace.jsonl"

    def command(argv):
        assert main(argv) == 0, capsys.readouterr().err
        return capsys.readouterr().out

    if row.golden:
        command(["trace", "--golden", row.golden, "--out", str(trace)])
        assert trace.read_text() == expect.trace
        return
    params = row.params
    faults = []
    if "faults" in params:
        fault_file = tmp_path / "faults.json"
        fault_file.write_text(json.dumps(params["faults"]))
        faults = ["--fault-file", str(fault_file)]

    if params["kind"] == "demand":
        out = command(["demand"] + flags(params, machine=not faults) + faults
                      + ["--trace", str(trace)])
        assert ints(r"(\d+) injected, (\d+) delivered", out) == (
            stats["injected"], stats["delivered"])
        assert ints(r"in (\d+) cycles", out) == (stats["end_cycle"],)
        assert trace.read_text() == expect.trace
    else:
        out = command(["run"] + flags(params) + faults)
        assert ints(r"(\d+) of (\d+) delivered", out) == (
            stats["delivered"], stats["injected"])
        assert ints(r"in (\d+) cycles", out) == (stats["end_cycle"],)
        if faults:
            assert ints(r"(\d+) dropped, (\d+) rerouted", out) == (
                stats["dropped"], stats["rerouted"])
            # The file records its machine: the same run without saying it twice.
            again = command(["run"] + flags(params, machine=False) + faults)
            assert _WALL.sub("", again) == _WALL.sub("", out)
            out = command(["faults", "run", faults[1]] + flags(params, machine=False)
                          + ["--trace", str(trace)])
            assert ints(
                r"(\d+) delivered, (\d+) dropped, (\d+) rerouted, (\d+) retried "
                r"\((\d+) fault events\) in (\d+) cycles", out,
            ) == tuple(stats[key] for key in (
                "delivered", "dropped", "rerouted", "retried", "fault_events",
                "end_cycle"))
            assert trace.read_text() == expect.trace
        else:
            out = command(["profile"] + flags(params))
            assert ints(r": (\d+) packets, (\d+) cycles", out) == (
                stats["delivered"], stats["end_cycle"])
            command(["trace"] + flags(params) + ["--out", str(trace)])
            assert trace.read_text() == expect.trace


@pytest.mark.parametrize("row", rows(lambda row: row.replay and row.replayable))
def test_replayed(row):
    expect = oracle(row)
    out = io.StringIO()
    stats, workload, events = replay_trace(expect.trace.splitlines(), out_stream=out)
    assert out.getvalue() == expect.trace
    assert events == workload.num_events
    assert stats.delivered == len(workload.packets) == json.loads(expect.stats)["delivered"]
