"""Crash-resume integration for the sweep runner.

The acceptance property: kill a sweep mid-flight, restart it with
``resume=True``, and the completed sweep's results are identical to a
never-interrupted run -- through both the serial loop and the
process-pool path. Two persistence layers compose here:

* per-point result pickles in ``checkpoint_dir`` (completed points are
  not re-run on resume);
* per-point *engine* checkpoints (``BatchPoint.checkpoint_path``), so
  the point that was interrupted mid-simulation resumes from its last
  periodic snapshot rather than from cycle 0.

The "kill" is deterministic: ``REPRO_CRASH_AT_CYCLE`` makes
:func:`repro.sim.checkpoint.run_with_checkpoints` raise
``KeyboardInterrupt`` at a fixed cycle, exactly as an operator signal
would land between checkpoint writes.
"""

import dataclasses
import os

import pytest

from repro.analysis.throughput import BatchPoint, run_batch_points
from repro.core.machine import MachineConfig
from repro.sim.checkpoint import CRASH_ENV_VAR
from repro.traffic.patterns import UniformRandom

# Short point drains at cycle 73; long points run past 110. Crashing at
# cycle 90 with 32-cycle checkpoints means: the short point completes
# and persists its result, the interrupted long point leaves an engine
# snapshot from cycle 64 behind, and any point after the crash never
# started at all -- all three resume paths in one sweep.
CRASH_CYCLE = 90
CHECKPOINT_EVERY = 32
POINT_SPECS = [(2, 3), (32, 4), (32, 5)]  # (batch_size, seed)


def _points(engine_ckpt_dir=None):
    config = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
    pattern = UniformRandom(config.shape)
    return [
        BatchPoint(
            config=config,
            pattern=pattern,
            batch_size=batch,
            cores_per_chip=2,
            arbitration="rr",
            seed=seed,
            collect_metrics=True,
            checkpoint_path=(
                None
                if engine_ckpt_dir is None
                else os.path.join(engine_ckpt_dir, f"engine_{i}.json")
            ),
            checkpoint_every=0 if engine_ckpt_dir is None else CHECKPOINT_EVERY,
        )
        for i, (batch, seed) in enumerate(POINT_SPECS)
    ]


def _comparable(result):
    fields = dataclasses.asdict(result)
    del fields["wall_seconds"]  # the one legitimately nondeterministic field
    return fields


@pytest.mark.parametrize("max_workers", [1, 2], ids=["serial", "pool"])
def test_killed_sweep_resumes_bitwise(tmp_path, monkeypatch, max_workers):
    reference = run_batch_points(_points(), max_workers=1)

    engine_dir = tmp_path / "engines"
    engine_dir.mkdir()
    sweep_dir = tmp_path / "sweep"

    # Leg 1: the sweep dies at CRASH_CYCLE. Worker processes inherit the
    # environment, so the pool path crashes inside its workers and the
    # interrupt surfaces through future.result().
    monkeypatch.setenv(CRASH_ENV_VAR, str(CRASH_CYCLE))
    with pytest.raises(KeyboardInterrupt):
        run_batch_points(
            _points(str(engine_dir)),
            max_workers=max_workers,
            checkpoint_dir=str(sweep_dir),
        )
    monkeypatch.delenv(CRASH_ENV_VAR)

    if max_workers == 1:
        # Serial order is deterministic: the short point finished and
        # persisted, the first long point died between checkpoints (its
        # cycle-64 engine snapshot survives, its own checkpoint file was
        # *not* cleaned up), and the third point never started.
        assert (sweep_dir / "point_0000.result.pkl").exists()
        assert not (sweep_dir / "point_0001.result.pkl").exists()
        assert not (sweep_dir / "point_0002.result.pkl").exists()
        assert not (engine_dir / "engine_0.json").exists()  # removed on success
        assert (engine_dir / "engine_1.json").exists()
        assert not (engine_dir / "engine_2.json").exists()
    else:
        # Pool scheduling is timing-dependent; the invariant is just
        # that the sweep did not finish.
        persisted = sorted(p.name for p in sweep_dir.glob("*.result.pkl"))
        assert len(persisted) < len(POINT_SPECS)

    # Leg 2: restart with resume. Completed points load from their
    # pickles, the interrupted point resumes from its engine snapshot,
    # never-started points run fresh.
    resumed = run_batch_points(
        _points(str(engine_dir)),
        max_workers=max_workers,
        checkpoint_dir=str(sweep_dir),
        resume=True,
    )

    assert len(resumed) == len(reference)
    for got, want in zip(resumed, reference):
        assert _comparable(got) == _comparable(want)
        assert got.metrics == want.metrics
    # Every engine snapshot was consumed and cleaned up on completion.
    assert list(engine_dir.glob("*.json")) == []


def test_resume_with_nothing_done_equals_fresh_run(tmp_path):
    # resume=True against an empty checkpoint dir is just a normal run.
    reference = run_batch_points(_points(), max_workers=1)
    resumed = run_batch_points(
        _points(),
        max_workers=1,
        checkpoint_dir=str(tmp_path / "sweep"),
        resume=True,
    )
    for got, want in zip(resumed, reference):
        assert _comparable(got) == _comparable(want)


def test_completed_sweep_resume_is_pure_replay(tmp_path):
    # A second resume invocation after success re-runs nothing: results
    # come back from the pickles (observable via the recorded pids/walls
    # being byte-for-byte the persisted ones).
    sweep_dir = str(tmp_path / "sweep")
    first = run_batch_points(
        _points(), max_workers=1, checkpoint_dir=sweep_dir
    )
    replayed = run_batch_points(
        _points(), max_workers=1, checkpoint_dir=sweep_dir, resume=True
    )
    for got, want in zip(replayed, first):
        # Full equality including wall_seconds: these are the persisted
        # results themselves, not re-measurements.
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_edited_point_refuses_the_old_points_engine_checkpoint(
    tmp_path, monkeypatch
):
    # A sweep dies inside its only point; the point is then edited (other
    # pattern, batch size and seed -- or nothing but the patterns that
    # program its ``iw`` weights) and the sweep resumed on the same
    # directories. ``point_fingerprint`` re-runs the point, as it must --
    # and the re-run used to pick up the *old* point's engine checkpoint
    # and report its cycle count. The file is stamped with the run that
    # wrote it, ``weight_patterns`` included: the edited point fails by
    # name and the file stays.
    from repro.sim.sweep import SweepPointError
    from repro.traffic.patterns import NHopNeighbor, Tornado

    engine_ckpt = tmp_path / "engine.json"
    shape = _points()[1].config.shape
    old = dataclasses.replace(
        _points()[1],
        arbitration="iw",
        weight_patterns=(UniformRandom(shape),),
        checkpoint_path=str(engine_ckpt),
        checkpoint_every=CHECKPOINT_EVERY,
    )
    monkeypatch.setenv(CRASH_ENV_VAR, str(CRASH_CYCLE))
    with pytest.raises(KeyboardInterrupt):
        run_batch_points([old], checkpoint_dir=str(tmp_path / "sweep"))
    monkeypatch.delenv(CRASH_ENV_VAR)
    before = engine_ckpt.read_bytes()

    for edited in (
        dataclasses.replace(old, pattern=Tornado(shape), batch_size=4, seed=2),
        dataclasses.replace(old, weight_patterns=(NHopNeighbor(shape, 1),)),
    ):
        with pytest.raises(SweepPointError) as caught:
            run_batch_points(
                [edited], checkpoint_dir=str(tmp_path / "sweep"), resume=True
            )
        assert (
            f"checkpoint {engine_ckpt} was written by a different run"
            in str(caught.value)
        )
        assert engine_ckpt.read_bytes() == before
    # The point it belongs to still finishes from it.
    (resumed,) = run_batch_points(
        [old], checkpoint_dir=str(tmp_path / "sweep"), resume=True
    )
    (reference,) = run_batch_points([dataclasses.replace(old, checkpoint_path=None)])
    assert _comparable(resumed) == _comparable(reference)
