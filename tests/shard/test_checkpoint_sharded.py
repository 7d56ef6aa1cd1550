"""One checkpoint, one file, any shard count: what the differential
harness does not state row by row.

``tests/integration/test_differential.py`` saves every row at drawn and
pinned cycles under chains of shard counts -- the kill sequences of the
cross-path matrix among them -- and compares each file with the serial
engine's bytes, and the finished run's stats (and, where every leg is
serial, its trace and collector state) with the serial run's. The tests
here pin the rest: that a finished run leaves nothing for the next one
to trip over, the stamp and machine refusals through the hub, sinks
behind a ``Tee`` revived after a serial kill, the ``latency_estimator``
edge, far-future events keeping their place in the merged wheel, and the
committed golden checkpoint at 2 and 4 shards.
"""

import glob
import json
import pathlib

import pytest

from repro.core.machine import MachineConfig
from repro.sim.checkpoint import (
    CRASH_ENV_VAR,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.metrics import MetricsCollector
from repro.sim.shard import ShardedRun, run_sharded
from repro.sim.simulator import build, run_context, start

from tests.integration.test_differential import ROWS

CONFIG = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
RING = MachineConfig(shape=(4, 2, 1), endpoints_per_chip=2)
EVERY = 16
GOLDEN = pathlib.Path("tests/golden/checkpoint_uniform_2x2x2.json")


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


def _killed(run, shards, path, monkeypatch, at):
    """Run with saves every ``EVERY`` cycles, killed at cycle ``at``."""
    monkeypatch.setenv(CRASH_ENV_VAR, str(at))
    with pytest.raises(KeyboardInterrupt, match=f"at cycle {at} "):
        run_sharded(run, shards, checkpoint_path=path, checkpoint_every=EVERY)
    monkeypatch.delenv(CRASH_ENV_VAR)


def _finished(run, shards, path):
    """Run to the end with saves every ``EVERY`` cycles."""
    return run_sharded(run, shards, checkpoint_path=path, checkpoint_every=EVERY)


def test_sinks_behind_a_tee_are_revived_by_the_walk_that_saved_them(
    tmp_path, monkeypatch
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
                run_sharded(_uniform(seed=3, per_source=16), trace=trace, **checkpoint)
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


def test_far_future_events_keep_their_place_in_the_merged_wheel(
    tmp_path, monkeypatch
):
    """A release wake pushed more than a wheel's span ahead lives in the
    overflow heap until it fires, in the serial engine and so in the
    merged file (the parent's merge re-bucketed every foreign one within
    a span of the checkpoint cycle)."""
    paths = [str(tmp_path / f"{shards}.json") for shards in (1, 2)]
    for shards, path in zip((1, 2), paths):
        _killed(ROWS["ckpt-demand"].run, shards, path, monkeypatch, at=20)
    data = load_checkpoint(paths[1])
    wakes = [cycle for cycle, _seq, _payload in data["wheel"]["overflow"]]
    assert wakes and min(wakes) < data["cycle"] + 64
    assert pathlib.Path(paths[1]).read_bytes() == pathlib.Path(paths[0]).read_bytes()


def test_a_finished_run_leaves_nothing_for_the_next_one(tmp_path, monkeypatch):
    """Kill a sharded run, finish it serially, then start a *different*
    run sharded at the same path: it reports its own result (at the
    parent the first run's ``.shard<i>``/``.manifest`` sidecars outlived
    the serial finish and the next run resumed them)."""
    path = str(tmp_path / "ck.json")
    _killed(_uniform(), 2, path, monkeypatch, at=40)
    assert glob.glob(path + "*") == [path]
    stats = _finished(_uniform(), 1, path)
    assert glob.glob(path + "*") == []
    assert stats.delivered == 160

    other = _uniform(seed=3, per_source=4)
    stats = _finished(other, 2, path)
    assert json.dumps(stats.asdict()) == json.dumps(run_sharded(other, 1).asdict())
    assert glob.glob(path + "*") == []


@pytest.mark.parametrize("shards", [1, 2])
def test_another_runs_checkpoint_is_refused_by_name(shards, tmp_path, monkeypatch):
    path = str(tmp_path / "ck.json")
    _killed(_uniform(), 3 - shards, path, monkeypatch, at=40)
    before = pathlib.Path(path).read_bytes()
    with pytest.raises(CheckpointError, match="was written by a different run"):
        _finished(_uniform(seed=10), shards, path)
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
