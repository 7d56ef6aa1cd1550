"""A sharded run pays its setup once, on any start method, and reaps.

The hub starts the run as the serial path does: one machine, the ``iw``
weight tables programmed once, the workload generated once into one
whole-machine engine -- for faulted runs like any other. Forked workers
inherit that engine and cut it down to their part; they generate and
build nothing. A worker that cannot inherit (inline, ``spawn``) restores
its own from the hub's snapshot of it. These tests count the
generator, ``Machine``, ``Engine`` and table-programming calls in the
hub *and in whatever it forks* (each call appends its pid to a file),
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
from repro.sim import simulator
from repro.sim.engine import Engine
from repro.sim.shard import run_sharded

from .test_conformance import WORKLOADS

_GENERATORS = {
    "uniform-rr": ("repro.traffic.batch", "generate_batch"),
    "demand-rr": ("repro.traffic.demand", "generate_demand"),
    "uniform-rr-faulted": ("repro.traffic.batch", "generate_batch"),
}

forks = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="counts calls in forked workers",
)


class _CallLog:
    """Calls of patched functions, by pid, in this process and its forks."""

    def __init__(self, monkeypatch, path):
        self.monkeypatch, self.path = monkeypatch, str(path)

    def watch(self, owner, name, label=None):
        original, label = getattr(owner, name), label or name

        def logged(*args, **kwargs):
            with open(self.path, "a") as handle:
                handle.write(f"{os.getpid()} {label}\n")
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, logged)

    def calls(self):
        """``(the hub's calls in order, everyone else's)``."""
        if not os.path.exists(self.path):
            return [], []
        pairs = [line.split() for line in open(self.path)]
        mine = str(os.getpid())
        return (
            [label for pid, label in pairs if pid == mine],
            [label for pid, label in pairs if pid != mine],
        )


@forks
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_run_generates_once_on_the_hubs_machine(
    name, shards, monkeypatch, tmp_path
):
    run = WORKLOADS[name]()
    machine = Machine(run.config)
    serial = run_sharded(run, 1, machine=machine)

    module_name, fn_name = _GENERATORS[name]
    log = _CallLog(monkeypatch, tmp_path / "calls")
    log.watch(importlib.import_module(module_name), fn_name)
    log.watch(Machine, "__init__", "Machine")
    log.watch(Engine, "__init__", "Engine")
    stats = run_sharded(run, shards, machine=machine, transport="process")

    # One engine, one generation into it, no second Machine -- all in the
    # hub; the workers inherited the result.
    assert log.calls() == (["Engine", fn_name], [])
    assert json.dumps(stats.asdict()) == json.dumps(serial.asdict())


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_shards_cut_the_hubs_engine_into_disjoint_parts(name, monkeypatch):
    """Every packet of the whole-machine engine stays queued in exactly
    one shard; an inline worker restores its own engine, on the hub's
    machine."""
    run = WORKLOADS[name]()
    machine = Machine(run.config)
    whole = simulator.start(run, machine)
    queued = []
    core_init = shard_mod._ShardCore.__init__

    def recording_init(self, init):
        core_init(self, init)
        assert self.engine.machine is machine and self.engine is not whole
        queued.append(self.engine._queued)

    monkeypatch.setattr(shard_mod._ShardCore, "__init__", recording_init)
    run_sharded(run, 4, machine=machine, transport="inline")
    assert len(queued) == 4 and sum(queued) == whole._queued > 0


@pytest.mark.parametrize(
    "name", ["uniform-iw", "demand-iw", "uniform-iw-faulted"]
)
def test_iw_tables_are_programmed_once_in_the_hub(name, monkeypatch, tmp_path):
    _iw_tables_programmed_once(name, 4, "inline", monkeypatch, tmp_path)


@pytest.mark.parametrize(
    "shards,transport",
    [(2, "inline"), (2, "process"), (4, "process")],
)
def test_degraded_loads_are_enumerated_once_at_any_count_and_transport(
    shards, transport, monkeypatch, tmp_path
):
    if transport == "process" and multiprocessing.get_start_method() != "fork":
        pytest.skip("counts calls in forked workers")
    _iw_tables_programmed_once(
        "uniform-iw-faulted", shards, transport, monkeypatch, tmp_path
    )


def _iw_tables_programmed_once(name, shards, transport, monkeypatch, tmp_path):
    from repro.traffic import loads

    run = WORKLOADS[name]()
    serial = run_sharded(run, 1)

    # The serial run left its tables in the memo; count from a cold one.
    monkeypatch.setattr(simulator, "_MEMO", {})
    log = _CallLog(monkeypatch, tmp_path / "calls")
    log.watch(loads, "compute_loads")
    log.watch(simulator, "make_weight_tables")
    log.watch(simulator, "make_vc_weight_tables")
    stats = run_sharded(run, shards, transport=transport)

    # One weight pattern: one load table (enumerated exhaustively on the
    # faulted rows), one table per arbitration stage -- in the hub, at any
    # shard count: a worker takes its arbiters, programmed, with the rest
    # of the hub's engine.
    assert log.calls() == (
        ["compute_loads", "make_weight_tables", "make_vc_weight_tables"], []
    )
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
