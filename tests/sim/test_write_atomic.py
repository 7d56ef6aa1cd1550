"""One atomic writer behind every record a killed run is picked up from.

Engine checkpoints and campaign records both land through
:func:`repro.sim.checkpoint.write_atomic`. A write the directory refuses
must say so in one line that names the *target* path, leave no temp file
behind and leave the record that was there intact -- whichever of the two
asked.
"""

import errno
import os

import pytest

from repro.core.machine import Machine, MachineConfig
from repro.sim.checkpoint import load_checkpoint, save_checkpoint, write_atomic
from repro.sim.engine import Engine
from repro.sim.sweep import SweepResult, _store, _stored


@pytest.fixture(params=["read-only directory", "rename refused"])
def refuse_writes(request, monkeypatch):
    """A function making a directory refuse new files from now on."""

    def refuse(directory):
        if request.param == "read-only directory":
            os.chmod(directory, 0o555)
            request.addfinalizer(lambda: os.chmod(directory, 0o755))
            if os.access(directory, os.W_OK):
                pytest.skip("this user (root) writes to read-only directories")
        else:
            # What a full or read-only file system does after the temp
            # file was already written.
            def replace(src, dst):
                raise OSError(errno.EROFS, os.strerror(errno.EROFS), dst)

            monkeypatch.setattr(os, "replace", replace)

    return refuse


def _assert_refused(error, path, directory, before):
    message = str(error)
    assert f"cannot write {path}" in message and "\n" not in message
    assert sorted(os.listdir(directory)) == sorted(before)


def test_text_and_bytes_land_whole(tmp_path):
    path = tmp_path / "record"
    write_atomic(str(path), "text\n")
    assert path.read_text() == "text\n"
    write_atomic(str(path), b"\x00bytes")
    assert path.read_bytes() == b"\x00bytes"
    assert os.listdir(tmp_path) == ["record"]


def test_checkpoint_write_refused(tmp_path, refuse_writes):
    engine = Engine(Machine(MachineConfig(shape=(2, 2, 2), endpoints_per_chip=2)))
    path = str(tmp_path / "ck.json")
    previous = save_checkpoint(engine, path)
    refuse_writes(tmp_path)
    engine.run_for(3)
    with pytest.raises(OSError) as caught:
        save_checkpoint(engine, path)
    _assert_refused(caught.value, path, tmp_path, ["ck.json"])
    assert load_checkpoint(path) == previous


def test_campaign_record_write_refused(tmp_path, refuse_writes):
    stem = str(tmp_path / "point")
    first = SweepResult("p", 0, 1.5, 0.1, 1)
    _store(first, stem)
    (record,) = tmp_path.iterdir()
    refuse_writes(tmp_path)
    with pytest.raises(OSError) as caught:
        _store(SweepResult("p", 0, 2.5, 0.1, 1), stem)
    _assert_refused(caught.value, record, tmp_path, [record.name])
    assert _stored(stem) == first
