"""One loop drives any engine: how a run is capped, saved and killed
does not depend on its shard count.

Each test is a reproduction that *disagreed* across shard counts while
the shard hub ran its own loop beside ``run_with_checkpoints`` (cap,
save cadence, snapshot past the drain); now there is one rule each,
written in :func:`repro.sim.checkpoint.run_with_checkpoints`.
"""

import json

import pytest

from repro.cli import main
from repro.sim.checkpoint import CRASH_ENV_VAR, load_checkpoint
from repro.sim.simulator import RunSpec, run

#: Drains at cycle 110.
RUN = RunSpec.from_params(
    {"kind": "batch", "shape": [4, 2, 2], "cores": 2, "batch": 16, "seed": 3}
)


@pytest.mark.parametrize("every", [0, 64])
@pytest.mark.parametrize("shards", [1, 2])
def test_max_cycles_is_enforced_at_exactly_the_cap(shards, every, tmp_path):
    """(The checkpointed serial run used to overshoot the cap by up to
    ``checkpoint_every`` cycles, and so completed.)"""
    with pytest.raises(
        RuntimeError, match=r"simulation exceeded 100 cycles with 4 packets"
    ):
        run(
            RUN, shards, max_cycles=100,
            checkpoint_path=str(tmp_path / "ck.json"), checkpoint_every=every,
        )
    straight = run(RUN, shards, max_cycles=110)
    assert straight.end_cycle == 110


def _save(tmp_path, shards, batch, cycles):
    out = tmp_path / f"saved{shards}.json"
    code = main(
        ["checkpoint", "save", "--shape", "4x2x2", "--batch", str(batch),
         "--cores", "2", "--seed", "3", "--cycles", str(cycles),
         "--shards", str(shards), "--out", str(out)]
    )
    assert code == 0
    return out


def test_saves_land_in_chunks_from_the_cycle_resumed_at(
    tmp_path, monkeypatch, capsys
):
    """A run picked up at cycle 40 and saved every 64 is saved at 104,
    whoever runs it (the hub used to save at multiples of 64: 128)."""
    files = []
    for shards in (1, 2, 4):
        ck = _save(tmp_path, shards, batch=64, cycles=40)
        monkeypatch.setenv(CRASH_ENV_VAR, "150")
        with pytest.raises(KeyboardInterrupt, match="at cycle 150 "):
            main(
                ["run", "--shape", "4x2x2", "--batch", "64", "--cores", "2",
                 "--seed", "3", "--shards", str(shards), "--checkpoint",
                 str(ck), "--checkpoint-every", "64"]
            )
        monkeypatch.delenv(CRASH_ENV_VAR)
        files.append(ck.read_bytes())
    assert load_checkpoint(str(ck))["cycle"] == 104
    assert files[0] == files[1] == files[2]


def test_a_snapshot_requested_past_the_drain_is_taken_at_the_drain(
    tmp_path, capsys
):
    """(``--shards 2`` used to write cycle 1000 / ``end_cycle`` 1000 and
    print ``--cycles`` back.)"""
    files = []
    for shards in (1, 2, 4):
        files.append(_save(tmp_path, shards, batch=8, cycles=1000).read_bytes())
        assert "checkpoint at cycle 108: 256 of 256" in capsys.readouterr().err
    data = json.loads(files[0])
    assert (data["cycle"], data["stats"]["end_cycle"]) == (108, 108)
    assert files[0] == files[1] == files[2]


def test_a_drained_4x4x4_snapshot_is_one_file_at_any_shard_count(
    tmp_path, capsys
):
    """The 8x8x8 byte-compare CI runs, at a size tier-1 can afford: two
    endpoints per node, every dimension wrapped, split 1, 2 and 4 ways."""
    files = []
    for shards in (1, 2, 4):
        out = tmp_path / f"drained{shards}.json"
        code = main(
            ["checkpoint", "save", "--shape", "4x4x4", "--endpoints", "2",
             "--pattern", "uniform", "--batch", "8", "--cores", "2",
             "--seed", "4", "--cycles", "100000", "--shards", str(shards),
             "--out", str(out)]
        )
        assert code == 0
        assert "checkpoint at cycle 129: 1024 of 1024" in capsys.readouterr().err
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]
