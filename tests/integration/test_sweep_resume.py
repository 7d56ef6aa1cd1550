"""A campaign directory picks a killed campaign up: the same call, again.

The acceptance property: kill ``run_batch_points(points,
checkpoint_dir=D)`` mid-flight, make the identical call again, and the
results are those of a never-interrupted campaign -- through both the
serial loop and the process pool. ``D`` is all the caller names. Under
it every point has a sealed record once it has finished and, while it
runs, an engine checkpoint (written every
``throughput.CHECKPOINT_EVERY`` cycles), both named by what the point
*is*: finished points come back as stored, the interrupted one is
restored mid-run, the rest run, and a point that was edited, belongs to
another campaign or sits elsewhere in the list neither finds nor
overwrites anything.

The "kill" is deterministic: ``REPRO_CRASH_AT_CYCLE`` makes
:func:`repro.sim.checkpoint.run_with_checkpoints` raise
``KeyboardInterrupt`` at a fixed cycle, exactly as an operator signal
would land between checkpoint writes.
"""

import dataclasses
import random

import pytest

from repro.analysis import throughput
from repro.analysis.throughput import BatchPoint, run_batch_points
from repro.core.machine import MachineConfig
from repro.sim import simulator
from repro.sim.checkpoint import CRASH_ENV_VAR
from repro.traffic import loads
from repro.traffic.patterns import Tornado, UniformRandom

# Short point drains at cycle 73; long points run past 110. Crashing at
# cycle 90 with 32-cycle checkpoints means: the short point finishes and
# is recorded, the interrupted long point leaves an engine checkpoint
# from cycle 64 behind, and (serially) the point after the crash never
# started at all -- all three cases in one campaign.
CRASH_CYCLE = 90
CHECKPOINT_EVERY = 32
POINT_SPECS = [(2, 3), (32, 4), (32, 5)]  # (batch_size, seed)


@pytest.fixture(autouse=True)
def _short_cadence(monkeypatch):
    # The one cadence is sized for 8x8x8 points; these drain in ~110
    # cycles. Forked pool workers inherit the patched module.
    monkeypatch.setattr(throughput, "CHECKPOINT_EVERY", CHECKPOINT_EVERY)


def _points(specs=POINT_SPECS, arbitration="rr"):
    config = MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)
    pattern = UniformRandom(config.shape)
    return [
        BatchPoint(
            config=config,
            pattern=pattern,
            batch_size=batch,
            cores_per_chip=2,
            arbitration=arbitration,
            seed=seed,
            collect_metrics=True,
        )
        for batch, seed in specs
    ]


def _comparable(result):
    fields = dataclasses.asdict(result)
    del fields["wall_seconds"]  # the one legitimately nondeterministic field
    return fields


def _counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _records(directory):
    return sorted(path.name for path in directory.glob("*.result"))


@pytest.mark.parametrize("max_workers", [1, 2], ids=["serial", "pool"])
def test_killed_sweep_resumes_bitwise(
    tmp_path, monkeypatch, max_workers
):
    reference = run_batch_points(_points(), max_workers=1)

    # Leg 1: the campaign dies at CRASH_CYCLE. Worker processes inherit
    # the environment, so the pool path crashes inside its workers and
    # the interrupt surfaces through future.result().
    monkeypatch.setenv(CRASH_ENV_VAR, str(CRASH_CYCLE))
    with pytest.raises(KeyboardInterrupt):
        run_batch_points(
            _points(), max_workers=max_workers, checkpoint_dir=str(tmp_path)
        )
    monkeypatch.delenv(CRASH_ENV_VAR)

    recorded = _records(tmp_path)
    left = sorted(set(p.name for p in tmp_path.iterdir()) - set(recorded))
    if max_workers == 1:
        # Serial order is deterministic: the short point finished and is
        # recorded, the first long point died between checkpoints (its
        # cycle-64 engine checkpoint survives), the third never started.
        assert len(recorded) == 1 and len(left) == 1
    else:
        # Pool scheduling is timing-dependent; the invariant is just
        # that the campaign did not finish.
        assert len(recorded) < len(POINT_SPECS)
    stored_bytes = {name: (tmp_path / name).read_bytes() for name in recorded}

    # Leg 2: the identical call. What was built at cycle 0 and what was
    # restored is observable in this process on the serial path.
    built = _counted(monkeypatch, simulator, "build")
    restored = _counted(monkeypatch, simulator, "restore_engine")
    again = run_batch_points(
        _points(), max_workers=max_workers, checkpoint_dir=str(tmp_path)
    )
    if max_workers == 1:
        assert (len(built), len(restored)) == (1, 1)

    assert len(again) == len(reference)
    for got, want in zip(again, reference):
        assert _comparable(got) == _comparable(want)
        assert got.metrics == want.metrics
    # Finished points were not run again: their records are the bytes
    # leg 1 wrote.
    for name, data in stored_bytes.items():
        assert (tmp_path / name).read_bytes() == data
    # Every engine checkpoint was consumed: only records are left.
    assert len(_records(tmp_path)) == len(POINT_SPECS)
    assert sorted(p.name for p in tmp_path.iterdir()) == _records(tmp_path)


def test_resume_with_nothing_done_equals_fresh_run(tmp_path):
    reference = run_batch_points(_points(), max_workers=1)
    first = run_batch_points(
        _points(), max_workers=1, checkpoint_dir=str(tmp_path / "campaign")
    )
    for got, want in zip(first, reference):
        assert _comparable(got) == _comparable(want)


def test_completed_sweep_resume_is_pure_replay(tmp_path, monkeypatch):
    # A finished campaign made again is pure replay: the stored results
    # themselves come back (wall_seconds included, these are not
    # re-measurements), and nothing is prepared for points that will not
    # run -- no load enumeration (11 s a pattern at 8x8x8), no engine.
    points = _points(arbitration="iw")
    first = run_batch_points(points, max_workers=1, checkpoint_dir=str(tmp_path))
    monkeypatch.setattr(simulator, "_MEMO", {})
    enumerated = _counted(monkeypatch, loads, "compute_loads")
    built = _counted(monkeypatch, simulator, "build")
    replayed = run_batch_points(
        points, max_workers=1, checkpoint_dir=str(tmp_path)
    )
    assert enumerated == [] and built == []
    for got, want in zip(replayed, first):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def test_damaged_record_is_intact_or_runs_again(tmp_path, monkeypatch):
    # Every single-bit flip of a stored result (a seeded sample), every
    # truncation class and an empty file: the point either comes back
    # exactly as stored or runs again -- never an exception, never a
    # value that differs.
    (point,) = _points(POINT_SPECS[:1])
    (stored,) = run_batch_points([point], checkpoint_dir=str(tmp_path))
    (record,) = tmp_path.glob("*.result")
    intact = record.read_bytes()
    built = _counted(monkeypatch, simulator, "build")

    def outcome(data):
        record.write_bytes(data)
        del built[:]
        (result,) = run_batch_points([point], checkpoint_dir=str(tmp_path))
        if built:
            assert _comparable(result) == _comparable(stored)
            return "ran again"
        assert dataclasses.asdict(result) == dataclasses.asdict(stored)
        return "intact"

    assert outcome(intact) == "intact"
    rng = random.Random(22)
    for _ in range(300):
        damaged = bytearray(intact)
        damaged[rng.randrange(len(intact))] ^= 1 << rng.randrange(8)
        assert outcome(bytes(damaged)) == "ran again"
    for length in (0, 1, 64, 65, len(intact) // 2, len(intact) - 1):
        assert outcome(intact[:length]) == "ran again"
    assert outcome(intact + b"\0") == "ran again"
    # The re-run healed the record.
    del built[:]
    run_batch_points([point], checkpoint_dir=str(tmp_path))
    assert built == []


def test_campaigns_sharing_a_directory_overwrite_nothing(tmp_path, monkeypatch):
    first_specs, second_specs = POINT_SPECS[:2], POINT_SPECS[1:]
    run_batch_points(_points(first_specs), checkpoint_dir=str(tmp_path))
    snapshot = {name: (tmp_path / name).read_bytes() for name in _records(tmp_path)}
    assert len(snapshot) == 2

    # A second campaign shares one point with the first: only its new
    # point runs, and the first campaign's records are untouched.
    built = _counted(monkeypatch, simulator, "build")
    second = run_batch_points(_points(second_specs), checkpoint_dir=str(tmp_path))
    assert len(built) == 1
    assert len(_records(tmp_path)) == 3
    for name, data in snapshot.items():
        assert (tmp_path / name).read_bytes() == data
    reference = run_batch_points(_points(second_specs))
    assert [_comparable(r) for r in second] == [_comparable(r) for r in reference]

    # The whole list reversed: nothing runs, and every point gets its
    # own result -- records follow the point, not its index.
    del built[:]
    forward = run_batch_points(_points(), checkpoint_dir=str(tmp_path))
    backward = run_batch_points(_points()[::-1], checkpoint_dir=str(tmp_path))
    assert built == []
    assert [dataclasses.asdict(r) for r in backward] == [
        dataclasses.asdict(r) for r in forward[::-1]
    ]


def test_moved_directory_still_picks_the_campaign_up(tmp_path, monkeypatch):
    before, after = tmp_path / "before", tmp_path / "elsewhere" / "after"
    monkeypatch.setenv(CRASH_ENV_VAR, str(CRASH_CYCLE))
    with pytest.raises(KeyboardInterrupt):
        run_batch_points(_points(), max_workers=1, checkpoint_dir=str(before))
    monkeypatch.delenv(CRASH_ENV_VAR)
    after.parent.mkdir()
    before.rename(after)

    built = _counted(monkeypatch, simulator, "build")
    restored = _counted(monkeypatch, simulator, "restore_engine")
    moved = run_batch_points(_points(), max_workers=1, checkpoint_dir=str(after))
    assert (len(built), len(restored)) == (1, 1)
    reference = run_batch_points(_points(), max_workers=1)
    assert [_comparable(r) for r in moved] == [_comparable(r) for r in reference]


def test_edited_point_leaves_the_old_points_engine_checkpoint_alone(
    tmp_path, monkeypatch
):
    # A campaign dies inside its only point; the point is then edited
    # (other pattern, batch size and seed -- or nothing but the patterns
    # that program its ``iw`` weights) and the call made again on the
    # same directory. The edited point is another point: it has other
    # file names, so it runs from cycle 0 and reports its own cycle
    # count, and the old point's engine checkpoint stays, byte for byte,
    # for the point it belongs to.
    from repro.traffic.patterns import NHopNeighbor

    shape = _points()[1].config.shape
    old = dataclasses.replace(
        _points()[1], arbitration="iw", weight_patterns=(UniformRandom(shape),)
    )
    monkeypatch.setenv(CRASH_ENV_VAR, str(CRASH_CYCLE))
    with pytest.raises(KeyboardInterrupt):
        run_batch_points([old], checkpoint_dir=str(tmp_path))
    monkeypatch.delenv(CRASH_ENV_VAR)
    (engine_ckpt,) = tmp_path.iterdir()
    before = engine_ckpt.read_bytes()

    for edited in (
        dataclasses.replace(old, pattern=Tornado(shape), batch_size=4, seed=2),
        dataclasses.replace(old, weight_patterns=(NHopNeighbor(shape, 1),)),
    ):
        (got,) = run_batch_points([edited], checkpoint_dir=str(tmp_path))
        (want,) = run_batch_points([edited])
        assert _comparable(got) == _comparable(want)
        assert engine_ckpt.read_bytes() == before
    # The point it belongs to still finishes from it.
    restored = _counted(monkeypatch, simulator, "restore_engine")
    (resumed,) = run_batch_points([old], checkpoint_dir=str(tmp_path))
    assert len(restored) == 1 and not engine_ckpt.exists()
    (reference,) = run_batch_points([old])
    assert _comparable(resumed) == _comparable(reference)


def test_a_point_listed_twice_is_refused_by_name(tmp_path):
    # Two copies of one point would race for one record and one engine
    # checkpoint; without a directory they simply both run.
    twice = _points(POINT_SPECS[:1]) * 2
    with pytest.raises(ValueError, match="listed twice: .'uniform/rr/b2'."):
        run_batch_points(twice, checkpoint_dir=str(tmp_path))
    assert len(run_batch_points(twice)) == 2
