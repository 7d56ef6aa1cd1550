"""One checkpoint, one file, any shard count.

A checkpointed run writes the serial engine's checkpoint at ``path`` and
nothing else, whatever its shard count, and resumes from that file under
any other count, serial included. The cross-path matrix below kills each
workload three times (``REPRO_CRASH_AT_CYCLE``, honoured by the one
driver above any engine), resumes every leg under the next
shard count of a chain, and compares *bytes*: each file a kill leaves
behind against the serial run's file at that cycle, the final stats and
collector state against the uninterrupted serial run. The remaining
tests pin what the matrix cannot state row by row: that a finished run
leaves nothing for the next one to trip over, the stamp and machine
refusals through the hub, the ``latency_estimator`` edge, far-future
events keeping their place in the merged wheel, and the committed golden
checkpoint at 2 and 4 shards.
"""

import gc
import glob
import json
import pathlib

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.sim.checkpoint import (
    CRASH_ENV_VAR,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.metrics import MetricsCollector
from repro.sim.shard import ShardedRun, run_sharded
from repro.sim.simulator import build, run_context, start

CONFIG = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
#: Eight chips too (one per shard at 8 shards), with a ring long enough
#: for tornado traffic to leave its chip.
RING = MachineConfig(shape=(4, 2, 1), endpoints_per_chip=2)
EVERY = 16
GOLDEN = pathlib.Path("tests/golden/checkpoint_uniform_2x2x2.json")


@pytest.fixture(scope="module", autouse=True)
def _earlier_tests_heap_parked():
    """This module builds over a thousand small engines, and each of
    the ~200 full GC passes they trigger walks whatever the tests before
    it left alive (measured without this fixture: 61 s inside the suite,
    24 s alone). Park that in the permanent generation meanwhile."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def _batch(config, pattern_cls, arbitration="rr", seed=9, per_source=10, **faults):
    from repro.traffic.batch import BatchSpec

    return ShardedRun(
        config,
        BatchSpec(pattern_cls(config.shape), per_source, 2, seed=seed),
        arbitration,
        **faults,
    )


def _uniform(config=CONFIG, **kwargs):
    from repro.traffic.patterns import UniformRandom

    return _batch(config, UniformRandom, **kwargs)


def _tornado_iw():
    from repro.traffic.patterns import Tornado

    return _batch(RING, Tornado, "iw", seed=12)


def _demand():
    """Open loop, just long enough that release wakes pushed at cycle 0
    sit in the wheel's overflow heap at every kill."""
    from repro.traffic.demand import DemandMatrix, DemandSchedule, DemandSpec

    hot = DemandMatrix.hotspot(
        RING.shape, rate=0.1, hotspots=1, hot_fraction=0.5, seed=3
    )
    flat = DemandMatrix.uniform(RING.shape, 0.08)
    return ShardedRun(
        RING,
        DemandSpec(
            demand=DemandSchedule(epochs=((0, hot), (30, flat))),
            cores_per_chip=2,
            mode="open",
            duration_cycles=76,
            seed=22,
        ),
    )


def _faulted(config, arbitration="rr", mode="reroute"):
    """One permanent failure before the first save, one outage that
    spans the second and heals before the third."""
    from repro.faults import FaultPolicy, FaultSet, FaultSpec
    from repro.faults.model import failable_channels

    torus = failable_channels(Machine(config))
    fault_set = FaultSet(
        specs=(
            FaultSpec(kind="link", channel=torus[1], down_cycle=10),
            FaultSpec(
                kind="link",
                channel=torus[len(torus) // 2],
                down_cycle=24,
                up_cycle=44,
            ),
        ),
        shape=config.shape,
    )
    return _uniform(
        config,
        arbitration=arbitration,
        fault_set=fault_set,
        fault_policy=FaultPolicy(mode=mode),
    )


ROWS = {
    "uniform-rr": _uniform,
    "tornado-iw": _tornado_iw,
    "demand": _demand,
    "faulted-reroute": lambda: _faulted(CONFIG),
    "faulted-drop-iw": lambda: _faulted(RING, "iw", "drop"),
}

#: Where a chain's first three legs die: one periodic save before each
#: kill, and every row outlives the last one.
KILLS = (20, 36, 52)

#: Shard counts of a run's four legs; every chain passes through serial.
CHAINS = ((1, 2, 4, 1), (4, 1, 2, 8), (2, 2, 1, 4), (8, 4, 2, 1))


def _leg(run, shards, path, monkeypatch, crash_at=None):
    """One leg of a chain under a fresh collector: ``(stats, collector)``
    of a leg that finishes, ``None`` of one killed at ``crash_at``."""
    collector = MetricsCollector(window_cycles=16)
    kwargs = dict(
        trace=collector,
        checkpoint_path=path,
        checkpoint_every=EVERY,
    )
    if crash_at is None:
        return run_sharded(run, shards, **kwargs), collector
    monkeypatch.setenv(CRASH_ENV_VAR, str(crash_at))
    with pytest.raises(KeyboardInterrupt, match=f"at cycle {crash_at} "):
        run_sharded(run, shards, **kwargs)
    monkeypatch.delenv(CRASH_ENV_VAR)
    return None


_oracles = {}


def _oracle(name, tmp_path, monkeypatch):
    """The serial engine's answers for one row: the file each kill
    leaves behind (one serial run, killed and resumed at the row's
    cycles), and the uninterrupted run's stats and collector state."""
    if name not in _oracles:
        factory = ROWS[name]
        path = str(tmp_path / "serial.json")
        files = []
        for kill in KILLS:
            _leg(factory(), 1, path, monkeypatch, crash_at=kill)
            files.append(pathlib.Path(path).read_bytes())
        stats, collector = _leg(factory(), 1, None, monkeypatch)
        assert stats.end_cycle > KILLS[-1]
        _oracles[name] = files, json.dumps(stats.asdict()), collector.state()
    return _oracles[name]


@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("name", sorted(ROWS))
def test_cross_path_matrix(name, chain, tmp_path, monkeypatch):
    factory = ROWS[name]
    files, stats_json, collector_state = _oracle(name, tmp_path, monkeypatch)
    path = str(tmp_path / "ck.json")
    for leg, (shards, kill) in enumerate(zip(chain, KILLS)):
        _leg(factory(), shards, path, monkeypatch, kill)
        assert glob.glob(path + "*") == [path]
        assert pathlib.Path(path).read_bytes() == files[leg], (shards, kill)
    stats, collector = _leg(factory(), chain[-1], path, monkeypatch)
    assert json.dumps(stats.asdict()) == stats_json
    assert collector.state() == collector_state
    assert glob.glob(path + "*") == []


def test_merged_checkpoint_bytes_match_serial_oracle(tmp_path, monkeypatch):
    """The smallest statement of the byte contract, kept beside the
    matrix: one kill, two shards, the serial file."""
    paths = [str(tmp_path / f"{shards}.json") for shards in (1, 2)]
    for shards, path in zip((1, 2), paths):
        _leg(_uniform(), shards, path, monkeypatch, crash_at=40)
    assert pathlib.Path(paths[0]).read_bytes() == pathlib.Path(paths[1]).read_bytes()
    assert load_checkpoint(paths[1])["cycle"] == 32


def test_crash_resume_bit_identical(tmp_path, monkeypatch):
    clean = MetricsCollector(window_cycles=16)
    expect = run_sharded(_uniform(), 2, trace=clean)

    # The interrupted run carries its own collector: its reducer state
    # rides the checkpoint, and the resumed run's (fresh) collector is
    # restored from it -- the serial resume contract.
    path = str(tmp_path / "ck.json")
    _leg(_uniform(), 2, path, monkeypatch, crash_at=40)
    stats, resumed_collector = _leg(_uniform(), 2, path, monkeypatch)
    assert json.dumps(stats.asdict()) == json.dumps(expect.asdict())
    assert resumed_collector.state() == clean.state()
    assert glob.glob(path + "*") == []


@pytest.mark.parametrize("shards", [1, 2])
def test_sinks_behind_a_tee_are_revived_by_the_walk_that_saved_them(
    shards, tmp_path, monkeypatch
):
    """A save records the collector and the JSONL writer it finds behind
    a ``Tee``; a resume must put both back (at the parent only a
    collector handed in bare was: this run reported p50/p95/p99 of
    54/66/76 for the uninterrupted 43/64/66)."""
    from repro.sim.trace import JsonlTraceWriter, Tee

    def leg(trace_path, mode, crash_at=None, **checkpoint):
        collector = MetricsCollector(window_cycles=16)
        with open(trace_path, mode) as stream:
            writer = JsonlTraceWriter(stream, meta={"run": "tee"}, owns_stream=True)
            trace = Tee(collector, writer)
            if crash_at is not None:
                monkeypatch.setenv(CRASH_ENV_VAR, str(crash_at))
            try:
                run_sharded(
                    _uniform(seed=3, per_source=16), shards, trace=trace,
                    **checkpoint,
                )
            except KeyboardInterrupt:
                assert crash_at is not None
            monkeypatch.delenv(CRASH_ENV_VAR, raising=False)
        return collector, pathlib.Path(trace_path).read_bytes()

    clean, straight = leg(tmp_path / "straight.jsonl", "w")
    saves = dict(checkpoint_path=str(tmp_path / "ck.json"), checkpoint_every=8)
    trace_path = tmp_path / "t.jsonl"
    _, crashed = leg(trace_path, "w", crash_at=60, **saves)
    saved = load_checkpoint(saves["checkpoint_path"])
    assert saved["cycle"] == 56
    assert len(crashed) > saved["trace"]["bytes_written"]  # bytes to cut
    resumed, finished = leg(trace_path, "r+", **saves)
    assert resumed.state() == clean.state()
    assert resumed.summary() == clean.summary()
    assert finished == straight


def test_process_transport_crash_resume(tmp_path, monkeypatch):
    """Kill and resume a run whose shards are real worker processes."""
    path = str(tmp_path / "ck.json")
    _leg(_uniform(), 2, path, monkeypatch, crash_at=40)
    stats, _ = _leg(_uniform(), 2, path, monkeypatch)
    expect = run_sharded(_uniform(), 1)
    assert json.dumps(stats.asdict()) == json.dumps(expect.asdict())


def test_far_future_events_keep_their_place_in_the_merged_wheel(
    tmp_path, monkeypatch
):
    """A release wake pushed more than a wheel's span ahead lives in the
    overflow heap until it fires, in the serial engine and so in the
    merged file (the parent's merge re-bucketed every foreign one within
    a span of the checkpoint cycle)."""
    path = str(tmp_path / "ck.json")
    _leg(_demand(), 2, path, monkeypatch, crash_at=KILLS[0])
    data = load_checkpoint(path)
    wakes = [cycle for cycle, _seq, _payload in data["wheel"]["overflow"]]
    assert wakes and min(wakes) < data["cycle"] + 64
    serial, _, _ = _oracle("demand", tmp_path, monkeypatch)
    assert pathlib.Path(path).read_bytes() == serial[0]


def test_a_finished_run_leaves_nothing_for_the_next_one(tmp_path, monkeypatch):
    """Kill a sharded run, finish it serially, then start a *different*
    run sharded at the same path: it reports its own result (at the
    parent the first run's ``.shard<i>``/``.manifest`` sidecars outlived
    the serial finish and the next run resumed them)."""
    path = str(tmp_path / "ck.json")
    _leg(_uniform(), 2, path, monkeypatch, crash_at=40)
    assert glob.glob(path + "*") == [path]
    stats, _ = _leg(_uniform(), 1, path, monkeypatch)
    assert glob.glob(path + "*") == []
    assert stats.delivered == 160

    other = _uniform(seed=3, per_source=4)
    stats, _ = _leg(other, 2, path, monkeypatch)
    assert json.dumps(stats.asdict()) == json.dumps(run_sharded(other, 1).asdict())
    assert glob.glob(path + "*") == []


@pytest.mark.parametrize("shards", [1, 2])
def test_another_runs_checkpoint_is_refused_by_name(shards, tmp_path, monkeypatch):
    path = str(tmp_path / "ck.json")
    _leg(_uniform(), 3 - shards, path, monkeypatch, crash_at=40)
    before = pathlib.Path(path).read_bytes()
    with pytest.raises(CheckpointError, match="was written by a different run"):
        _leg(_uniform(seed=10), shards, path, monkeypatch)
    assert pathlib.Path(path).read_bytes() == before


def _hand_saved(tmp_path, cycles=30, **engine_kwargs):
    """An unstamped checkpoint of ``_uniform()`` written by hand."""
    run = _uniform()
    engine = build(run, *run_context(run), **engine_kwargs)
    engine.run_for(cycles)
    path = str(tmp_path / "hand.json")
    save_checkpoint(engine, path)
    return run, path


@pytest.mark.parametrize("shards", [1, 2])
def test_another_machines_checkpoint_is_refused_by_name(shards, tmp_path):
    """An unstamped file has only its machine to go by; the hub names
    the mismatch itself, before a worker process could trip on it."""
    _, path = _hand_saved(tmp_path)
    with pytest.raises(CheckpointError, match=r"shape is \(2, 2, 2\) in the "):
        run_sharded(
            _uniform(RING), shards, checkpoint_path=path, checkpoint_every=EVERY
        )


def test_latency_estimator_survives_a_sharded_resume(tmp_path):
    """Shard 0 keeps the restored estimator, the others start fresh
    ones, and the merge folds them order-independently: the same
    estimator by value (its bins render in first-touch order, so not by
    bytes)."""
    run, path = _hand_saved(tmp_path, latency_quantiles=True)
    expect = build(run, *run_context(run), latency_quantiles=True).run()
    stats = run_sharded(
        run, 4, checkpoint_path=path, checkpoint_every=EVERY
    )
    assert stats.latency_estimator == expect.latency_estimator
    assert stats.latency_quantiles() == expect.latency_quantiles()
    stats.latency_estimator = expect.latency_estimator = None
    assert json.dumps(stats.asdict()) == json.dumps(expect.asdict())


def _golden_run():
    return _uniform(seed=3, per_source=8)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_save_sharded_checkpoint_matches_committed_golden(tmp_path, shards):
    """The golden checkpoint recipe -- start, ``run_for(40)``, save: the
    three calls of ``repro checkpoint save`` -- must reproduce the
    committed serial golden byte for byte at any shard count, replacing
    whatever was at the path and writing nothing beside it."""
    out = tmp_path / "golden.json"
    out.write_text("stale")
    engine = start(_golden_run(), shards=shards)
    stats = engine.run_for(40)
    save_checkpoint(engine, str(out))
    engine.close()
    assert stats.end_cycle == engine.cycle == 40
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert glob.glob(str(out) + "*") == [str(out)]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_committed_golden_resumes_under_any_shard_count(tmp_path, shards):
    """An unstamped serial checkpoint belongs to whoever holds a
    matching machine: the committed golden finishes like the straight
    run at every shard count."""
    path = tmp_path / "ck.json"
    path.write_bytes(GOLDEN.read_bytes())
    stats = run_sharded(
        _golden_run(),
        shards,
        checkpoint_path=str(path),
        checkpoint_every=64,
    )
    expect = run_sharded(_golden_run(), 1)
    assert json.dumps(stats.asdict()) == json.dumps(expect.asdict())
    assert (stats.delivered, stats.end_cycle) == (128, 79)
    assert not path.exists()


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("schema", [1, 2])
def test_the_goldens_older_schema_twins_resume_under_any_shard_count(
    tmp_path, schema, shards
):
    """The golden as schemas 1 and 2 wrote it finishes like the straight
    run at every shard count too."""
    path = tmp_path / "ck.json"
    path.write_bytes(GOLDEN.with_suffix(f".schema{schema}.json").read_bytes())
    stats = run_sharded(
        _golden_run(),
        shards,
        checkpoint_path=str(path),
        checkpoint_every=64,
    )
    expect = run_sharded(_golden_run(), 1)
    assert json.dumps(stats.asdict()) == json.dumps(expect.asdict())
    assert not path.exists()
