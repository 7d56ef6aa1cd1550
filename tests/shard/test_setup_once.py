"""A sharded run pays its setup once, on any start method, and reaps.

The hub builds one machine, generates the workload once and programs
the ``iw`` weight tables once -- for faulted runs like any other; each
worker starts from the packets whose source it owns and from those
tables. These tests count the generator,
``Machine`` and table-programming calls under the inline transport,
force the ``spawn`` start method in a subprocess (so correctness never
leans on fork inheritance), and kill a worker process outright to pin
the one-line error and the reaping of its siblings.
"""

import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core.machine import Machine
from repro.sim import shard as shard_mod
from repro.sim.shard import run_sharded

from .test_conformance import WORKLOADS

_GENERATORS = {
    "uniform-rr": ("repro.traffic.batch", "generate_batch"),
    "demand-rr": ("repro.traffic.demand", "generate_demand"),
    "uniform-rr-faulted": ("repro.traffic.batch", "generate_batch"),
}


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_run_generates_once_on_the_hubs_machine(
    name, shards, monkeypatch
):
    run = WORKLOADS[name]()
    machine = Machine(run.config)
    module_name, fn_name = _GENERATORS[name]
    module = importlib.import_module(module_name)
    generated = len(
        getattr(module, fn_name)(
            machine, shard_mod.run_context(run, machine)[1], run.spec
        )
    )
    serial = run_sharded(run, 1, machine=machine)

    calls = []
    _count_calls(monkeypatch, module, fn_name, calls)
    _count_calls(monkeypatch, Machine, "__init__", calls)
    queued = []
    core_init = shard_mod._ShardCore.__init__

    def recording_init(self, init):
        core_init(self, init)
        assert self.engine.machine is machine
        queued.append(self.engine._queued)

    monkeypatch.setattr(shard_mod._ShardCore, "__init__", recording_init)
    stats = run_sharded(run, shards, machine=machine, transport="inline")

    assert calls == [fn_name]  # one generation, no second Machine
    assert len(queued) == shards and sum(queued) == generated
    assert json.dumps(stats.asdict()) == json.dumps(serial.asdict())


@pytest.mark.parametrize(
    "name", ["uniform-iw", "demand-iw", "uniform-iw-faulted"]
)
def test_iw_tables_are_programmed_once_in_the_hub(name, monkeypatch):
    from repro.sim import simulator
    from repro.traffic import loads

    run = WORKLOADS[name]()
    serial = run_sharded(run, 1)

    # The serial run left its tables in the memo; count from a cold one.
    monkeypatch.setattr(simulator, "_MEMO", {})
    calls = []
    _count_calls(monkeypatch, loads, "compute_loads", calls)
    _count_calls(monkeypatch, simulator, "make_weight_tables", calls)
    _count_calls(monkeypatch, simulator, "make_vc_weight_tables", calls)
    handed = []
    core_init = shard_mod._ShardCore.__init__

    def recording_init(self, init):
        handed.append(init["weight_tables"])
        core_init(self, init)

    monkeypatch.setattr(shard_mod._ShardCore, "__init__", recording_init)
    stats = run_sharded(run, 4, transport="inline")

    # One weight pattern: one load table (enumerated exhaustively on the
    # faulted row), one table per arbitration stage.
    assert calls == [
        "compute_loads", "make_weight_tables", "make_vc_weight_tables"
    ]
    assert len(handed) == 4 and all(sa2 and sa1 for sa2, sa1 in handed)
    assert all(tables is handed[0] for tables in handed)
    assert json.dumps(stats.asdict()) == json.dumps(serial.asdict())


_SPAWN_SCRIPT = textwrap.dedent(
    """
    import hashlib, json, multiprocessing, sys

    sys.path.insert(0, {tests_root!r})

    def digest(run, transport):
        from repro.sim.shard import run_sharded
        from repro.sim.trace import ListSink

        sink = ListSink()
        stats = run_sharded(run, 2, trace=sink, transport=transport)
        text = json.dumps(stats.asdict()) + repr(sink.events)
        return hashlib.sha256(text.encode()).hexdigest()

    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        from tests.shard.test_conformance import WORKLOADS

        for name in (
            "uniform-rr", "uniform-iw", "demand-rr", "uniform-rr-faulted",
        ):
            inline = digest(WORKLOADS[name](), "inline")
            assert digest(WORKLOADS[name](), "process") == inline, name
        print("spawn == inline")
    """
)


def test_process_transport_matches_inline_under_spawn(tmp_path):
    """Nothing a worker needs may reach it only through fork."""
    script = tmp_path / "spawn_shards.py"
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    script.write_text(_SPAWN_SCRIPT.format(tests_root=root))
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "spawn == inline"


@pytest.mark.parametrize("wait_for_death", [True, False])
def test_killed_worker_is_a_one_line_error_and_siblings_are_reaped(
    monkeypatch, wait_for_death
):
    send = shard_mod._ProcessWorker.send
    killed = []

    def killing_send(self, msg):
        # Every worker has reported ``ready`` by the first "run" message.
        if msg[0] == "run" and self._index == 1 and not killed:
            killed.append(self._proc.pid)
            os.kill(self._proc.pid, signal.SIGKILL)
            if wait_for_death:
                self._proc.join(timeout=30)
                assert not self._proc.is_alive()
        send(self, msg)

    monkeypatch.setattr(shard_mod._ProcessWorker, "send", killing_send)
    with pytest.raises(RuntimeError) as caught:
        run_sharded(WORKLOADS["uniform-rr"](), 2, transport="process")
    assert str(caught.value) == (
        "shard worker 1 exited unexpectedly (exit code -9)"
    )
    assert killed and multiprocessing.active_children() == []
