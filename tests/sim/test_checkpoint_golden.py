"""Golden checkpoint conformance: the committed snapshot under
``tests/golden/`` pins the checkpoint schema and canonical serialization.

A diff here means either a bug or an intentional schema change; bump
``CHECKPOINT_SCHEMA_VERSION`` and regenerate with::

    python -m repro checkpoint save --shape 2x2x2 --endpoints 2 \
        --pattern uniform --batch 8 --cores 2 --arbitration rr \
        --seed 3 --cycles 40 --out tests/golden/checkpoint_uniform_2x2x2.json

``checkpoint_uniform_2x2x2.schema2.json`` and ``.schema1.json`` are the
same snapshot as schemas 2 and 1 wrote it, kept as read tests: schema 2
as it is (every packet row with its hops), schema 1 through the
up-converter.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core.machine import Machine, MachineConfig
from repro.core.routing import RouteComputer
from repro.faults import FaultPolicy, FaultRuntime, FaultSet, FaultSpec
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    PACKET_ROW,
    CheckpointError,
    checkpoint_info,
    dumps,
    load_checkpoint,
    restore_engine,
    snapshot_engine,
)
from repro.sim.goldens import GOLDEN_DIR
from repro.sim.simulator import RunSpec, build, build_batch_engine
from repro.traffic.batch import BatchSpec
from repro.traffic.patterns import Tornado, UniformRandom

FIXTURE = GOLDEN_DIR / "checkpoint_uniform_2x2x2.json"
SCHEMA2_FIXTURE = GOLDEN_DIR / "checkpoint_uniform_2x2x2.schema2.json"
SCHEMA1_FIXTURE = GOLDEN_DIR / "checkpoint_uniform_2x2x2.schema1.json"

# The exact recipe the fixture was generated with (see module docstring).
SHAPE = (2, 2, 2)
SEED = 3
BATCH = 8
CYCLES = 40


def build_fixture_engine():
    machine = Machine(MachineConfig(shape=SHAPE, endpoints_per_chip=2))
    routes = RouteComputer(machine)
    spec = BatchSpec(
        UniformRandom(SHAPE), packets_per_source=BATCH,
        cores_per_chip=2, seed=SEED,
    )
    return build_batch_engine(machine, routes, spec, arbitration="rr")


class TestCommittedFixture:
    def test_fixture_is_valid_and_current_schema(self):
        assert FIXTURE.exists(), f"missing golden checkpoint {FIXTURE}"
        data = load_checkpoint(str(FIXTURE))
        assert data["schema"] == CHECKPOINT_SCHEMA_VERSION
        info = checkpoint_info(data)
        assert info["cycle"] == CYCLES
        assert info["shape"] == SHAPE
        assert info["injected"] == 128
        assert not info["faulted"]

    def test_fixture_is_canonical_serialization(self):
        # One line of compact JSON plus a trailing newline, and loading
        # then re-dumping reproduces the committed bytes exactly.
        text = FIXTURE.read_text()
        assert text.endswith("\n")
        assert "\n" not in text[:-1]
        assert dumps(json.loads(text)) == text

    def test_regeneration_is_byte_identical(self):
        engine = build_fixture_engine()
        engine.run_for(CYCLES)
        assert dumps(snapshot_engine(engine)) == FIXTURE.read_text()

    def test_fixture_restores_and_finishes_bitwise(self):
        # Resuming the committed snapshot must land on the same final
        # stats as running the recipe uninterrupted today.
        uninterrupted = build_fixture_engine()
        full_stats = json.dumps(uninterrupted.run().asdict())

        restored = restore_engine(load_checkpoint(str(FIXTURE)))
        resumed_stats = json.dumps(restored.run().asdict())
        assert resumed_stats == full_stats


class TestSchema2Fixture:
    """The committed golden as schema 2 wrote it, every packet row with
    its hops: read as it is and saved, it is the golden."""

    def test_restored_and_saved_it_is_the_golden(self):
        data = load_checkpoint(str(SCHEMA2_FIXTURE))
        assert data["schema"] == 2
        assert all(len(row) > len(PACKET_ROW) for row in data["packets"])
        restored = restore_engine(data)
        assert dumps(snapshot_engine(restored)) == FIXTURE.read_text()

    def test_it_finishes_with_the_uninterrupted_stats(self):
        full_stats = json.dumps(build_fixture_engine().run().asdict())
        restored = restore_engine(load_checkpoint(str(SCHEMA2_FIXTURE)))
        assert json.dumps(restored.run().asdict()) == full_stats


class TestSchema1Fixture:
    """The committed golden as schema 1 wrote it: read through the
    up-converter, it is the golden."""

    def test_restored_and_saved_it_is_the_schema2_golden(self):
        data = load_checkpoint(str(SCHEMA1_FIXTURE))
        assert data["schema"] == 1
        assert checkpoint_info(data)["cycle"] == CYCLES
        restored = restore_engine(data)
        assert dumps(snapshot_engine(restored)) == FIXTURE.read_text()

    def test_it_finishes_with_the_uninterrupted_stats(self):
        full_stats = json.dumps(build_fixture_engine().run().asdict())
        restored = restore_engine(load_checkpoint(str(SCHEMA1_FIXTURE)))
        assert json.dumps(restored.run().asdict()) == full_stats


# --- pinned bytes of three more policies and a fault -----------------------------
#
# Pinned: sha256 of the mid-run checkpoint each recipe writes -- the golden
# fixture above is the ``rr`` case. Each equals, byte for byte, what a
# restore and save makes of the file the same recipe wrote as schema 2
# (``checkpoint_<name>.schema2.json``, pinned by its own digest), which
# in turn was what the up-converter made of the schema-1 file before it.

PINNED_CHECKPOINT_DIGESTS = {
    "iw-tornado-4x2x2":
        "18acc98e1ef5028496019a7962f46783f68d1602a87c8d65fd960c09e5bb2122",
    "age-uniform-2x2x2":
        "202153a691d8795c578481532f8cbdf63b449b540223f274ee87f16d4ba6e1ce",
    "rr-uniform-faulted-reroute-4x2x2":
        "74526d74aeade60ac438efc8579f2cea109f09f72349893948170fc06a6298cc",
}

#: The same recipes' files as schema 2 wrote them.
PINNED_SCHEMA2_DIGESTS = {
    "iw-tornado-4x2x2":
        "a54c0ea7815dfb1caa0741b34da2c21cd1a041cdeaf3ec0448c423ff231bc81b",
    "age-uniform-2x2x2":
        "5cdf21641ecb7a9c20a09712b39120ad9056e19bb5fcc955890637b98be2628f",
    "rr-uniform-faulted-reroute-4x2x2":
        "14ef92db313f1ec51f0fcd5b5ba1604291f3bb10ed2e42cfa2f325109117da2c",
}


def pinned_engine(name):
    arbitration, pattern_kind, *faulted, shape_text = name.split("-")
    shape = tuple(int(k) for k in shape_text.split("x"))
    machine = Machine(MachineConfig(shape=shape, endpoints_per_chip=2))
    routes, runtime = RouteComputer(machine), None
    if faulted:
        torus = [
            cid for cid, kind in enumerate(machine.channel_kind) if kind.name == "TORUS"
        ]
        fault_set = FaultSet(
            specs=(
                FaultSpec(kind="link", channel=torus[0]),
                FaultSpec(kind="link", channel=torus[5], down_cycle=20),
                FaultSpec(
                    kind="link", channel=torus[9], down_cycle=30, up_cycle=90
                ),
            ),
            shape=shape,
        )
        runtime = FaultRuntime(
            machine, fault_set, policy=FaultPolicy(mode=faulted[1])
        )
        routes = runtime.route_computer
    pattern = {"tornado": Tornado, "uniform": UniformRandom}[pattern_kind](shape)
    spec = BatchSpec(pattern, packets_per_source=12, cores_per_chip=2, seed=7)
    return build(
        RunSpec(machine.config, spec, arbitration), machine, routes, runtime
    )


def pinned_checkpoint_text(name):
    engine = pinned_engine(name)
    engine.run_for(60)
    assert not engine.drained
    return dumps(snapshot_engine(engine))


class TestPinnedSchema2Bytes:
    @pytest.mark.parametrize("name", sorted(PINNED_CHECKPOINT_DIGESTS))
    def test_mid_run_checkpoint_is_the_pinned_bytes(self, name):
        text = pinned_checkpoint_text(name)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_CHECKPOINT_DIGESTS[name]
        # ... and it restores, and saves again as it was, here and after
        # running on.
        restored = restore_engine(json.loads(text))
        assert dumps(snapshot_engine(restored)) == text
        straight = pinned_engine(name)
        straight.run_for(100)
        restored.run_for(40)
        assert dumps(snapshot_engine(restored)) == dumps(snapshot_engine(straight))

    @pytest.mark.parametrize("name", sorted(PINNED_SCHEMA2_DIGESTS))
    def test_the_schema2_file_upgrades_to_the_pinned_bytes(self, name):
        text = (GOLDEN_DIR / f"checkpoint_{name}.schema2.json").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SCHEMA2_DIGESTS[name]
        saved = dumps(snapshot_engine(restore_engine(json.loads(text))))
        digest = hashlib.sha256(saved.encode()).hexdigest()
        assert digest == PINNED_CHECKPOINT_DIGESTS[name]

    def test_committed_fixture_saves_again_as_committed(self):
        text = FIXTURE.read_text()
        assert dumps(snapshot_engine(restore_engine(json.loads(text)))) == text


class TestRetainedLatencies:
    """Schema 1 lists per-packet latencies an engine could retain; none
    does now, and later schemas have neither the flag nor the list."""

    def test_schema2_writes_neither(self):
        data = json.loads(FIXTURE.read_text())
        assert "keep_packet_latencies" not in data
        assert "packet_latencies" not in data["stats"]

    @pytest.mark.parametrize("field", ["flag", "list"])
    def test_a_file_that_retains_them_is_refused_by_name(self, field):
        data = json.loads(SCHEMA1_FIXTURE.read_text())
        if field == "flag":
            data["keep_packet_latencies"] = True
        else:
            data["stats"]["packet_latencies"] = [25]
        with pytest.raises(CheckpointError, match="keep_packet_latencies"):
            restore_engine(data)


class TestRejectionViaCli:
    """Unknown/future versions and damaged payloads fail with exit code 1
    and a one-line ``error:`` diagnostic -- never a traceback."""

    def _assert_rejected(self, capsys, argv, needle=None):
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        if needle is not None:
            assert needle in err

    def test_info_rejects_future_schema(self, tmp_path, capsys):
        data = json.loads(FIXTURE.read_text())
        data["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(dumps(data))
        self._assert_rejected(
            capsys, ["checkpoint", "info", str(path)], "schema version"
        )

    def test_restore_rejects_future_schema(self, tmp_path, capsys):
        data = json.loads(FIXTURE.read_text())
        data["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(dumps(data))
        self._assert_rejected(
            capsys, ["checkpoint", "restore", str(path)], "schema version"
        )

    def test_info_rejects_truncated_payload(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text(FIXTURE.read_text()[: len(FIXTURE.read_text()) // 2])
        self._assert_rejected(capsys, ["checkpoint", "info", str(path)])

    def test_restore_rejects_corrupted_payload(self, tmp_path, capsys):
        data = json.loads(FIXTURE.read_text())
        del data["wheel"]
        path = tmp_path / "corrupt.json"
        path.write_text(dumps(data))
        self._assert_rejected(capsys, ["checkpoint", "restore", str(path)])

    def test_restore_rejects_wrong_kind(self, tmp_path, capsys):
        path = tmp_path / "notckpt.json"
        path.write_text('{"kind": "something-else", "schema": 1}\n')
        self._assert_rejected(capsys, ["checkpoint", "restore", str(path)])

    def test_info_rejects_missing_file(self, capsys):
        self._assert_rejected(
            capsys, ["checkpoint", "info", "/nonexistent/ck.json"]
        )

    @pytest.mark.slow
    def test_subprocess_exit_one_no_traceback(self, tmp_path):
        # End-to-end through the real interpreter: a corrupt file must
        # not escape as an uncaught exception.
        path = tmp_path / "garbage.json"
        path.write_text("not json at all\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "checkpoint", "info", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
