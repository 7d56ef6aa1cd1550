"""A sharded run pays its setup once, on any start method, and reaps.

The hub starts the run as the serial path does: one machine, the ``iw``
weight tables programmed once, the workload generated once into one
whole-machine engine -- for faulted runs like any other. Forked workers
inherit that engine and cut it down to their part; they generate and
build nothing. A worker that cannot inherit (``spawn``) restores its own
from the hub's snapshot of it. These tests count the
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
from repro.sim.checkpoint import dumps, snapshot_engine
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
    stats = run_sharded(run, shards, machine=machine)

    # One engine, one generation into it, no second Machine -- all in the
    # hub; the workers inherited the result.
    assert log.calls() == (["Engine", fn_name], [])
    assert json.dumps(stats.asdict()) == json.dumps(serial.asdict())


@pytest.mark.parametrize("name", sorted(_GENERATORS))
def test_shard_cores_cut_the_hubs_engine_and_merge_back_to_serial(name):
    """The shard cores, built in this process from the hub's engine: each
    keeps a disjoint part of it -- every queued packet in exactly one --
    and one barrier round through ``_dispatch`` (feed, run, hand over
    what each wheel holds for the others, snapshot) merges into the
    serial engine's snapshot at that cycle.
    (A worker process runs these handlers where coverage does not look.)
    """
    run = WORKLOADS[name]()
    machine = Machine(run.config)
    whole = simulator.start(run, machine)
    plan = shard_mod.ShardPlan.for_machine(machine, 4)
    cores = [
        shard_mod._ShardCore({
            "shard": shard,
            "plan": plan,
            # What a forked worker inherits: the hub's started engine.
            "engine": simulator.start(run, machine),
            "snapshot": None,
            "tracing": False,
            "profile": False,
        })
        for shard in range(plan.shards)
    ]

    def pids(engine):
        return [
            packet.pid for queue in engine._source_queues.values()
            for packet in queue
        ]

    kept = [pids(core.engine) for core in cores]
    assert all(core.engine.machine is machine for core in cores)
    assert sum(map(len, kept)) == len(set().union(*kept)) == whole._queued > 0
    assert sorted(set().union(*kept)) == sorted(pids(whole))
    active = [set(core.engine._active) for core in cores]
    assert sum(map(len, active)) == len(set().union(*active))

    dispatch = shard_mod._dispatch
    assert {dispatch(core, ("feed", []))[0] for core in cores} == {"fed"}
    barrier = plan.lookahead
    pending = [[] for _ in cores]
    for core in cores:
        kind, outgoing, records = dispatch(core, ("run", barrier))
        assert kind == "ok" and records == [] and outgoing[core.index] == []
        # (cycle, heap, payload), already grouped by the owning shard.
        for transfers, incoming in zip(pending, outgoing):
            transfers += incoming
    assert any(pending)
    for core, transfers in zip(cores, pending):
        assert dispatch(core, ("feed", transfers))[0] == "fed"
    snaps = [dispatch(core, ("snapshot",))[1] for core in cores]

    serial = simulator.start(run, machine)
    serial.run_for(barrier)
    merged = shard_mod.merge_shard_snapshots(plan, machine, snaps)
    assert dumps(merged) == dumps(snapshot_engine(serial))


@forks
@pytest.mark.parametrize(
    "name", ["uniform-iw", "demand-iw", "uniform-iw-faulted"]
)
def test_iw_tables_are_programmed_once_in_the_hub(name, monkeypatch, tmp_path):
    _iw_tables_programmed_once(name, 4, monkeypatch, tmp_path)


@forks
@pytest.mark.parametrize("shards", [2, 4])
def test_degraded_loads_are_enumerated_once_at_any_count(
    shards, monkeypatch, tmp_path
):
    _iw_tables_programmed_once("uniform-iw-faulted", shards, monkeypatch, tmp_path)


def _iw_tables_programmed_once(name, shards, monkeypatch, tmp_path):
    from repro.traffic import loads

    run = WORKLOADS[name]()
    serial = run_sharded(run, 1)

    # The serial run left its tables in the memo; count from a cold one.
    monkeypatch.setattr(simulator, "_MEMO", {})
    log = _CallLog(monkeypatch, tmp_path / "calls")
    log.watch(loads, "compute_loads")
    log.watch(simulator, "make_weight_tables")
    log.watch(simulator, "make_vc_weight_tables")
    stats = run_sharded(run, shards)

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

    def digest(run, shards):
        from repro.sim.shard import run_sharded
        from repro.sim.trace import ListSink

        sink = ListSink()
        stats = run_sharded(run, shards, trace=sink)
        text = json.dumps(stats.asdict()) + repr(sink.events)
        return hashlib.sha256(text.encode()).hexdigest()

    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        from tests.shard.test_conformance import WORKLOADS

        for name in (
            "uniform-rr", "uniform-iw", "demand-rr", "uniform-rr-faulted",
        ):
            serial = digest(WORKLOADS[name](), 1)
            assert digest(WORKLOADS[name](), 2) == serial, name
        print("spawn == serial")
    """
)


def test_spawned_workers_match_serial(tmp_path):
    """Nothing a worker needs may reach it only through fork: a spawned
    worker restores its engine from the hub's snapshot alone."""
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
    assert done.stdout.strip() == "spawn == serial"


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
        run_sharded(WORKLOADS["uniform-rr"](), 2)
    assert str(caught.value) == (
        "shard worker 1 exited unexpectedly (exit code -9)"
    )
    assert killed and multiprocessing.active_children() == []


@forks
@pytest.mark.parametrize("profiles", [None, []], ids=["plain", "profiled"])
def test_a_worker_that_cannot_start_reports_its_own_error(monkeypatch, profiles):
    """The hub raises the failed worker's traceback, not what closing the
    run finds afterwards: a profiled run's workers are asked for their
    tables only when every message was answered."""

    def failing_init(self, init):
        raise ValueError(f"cannot cut shard {init['shard']}")

    monkeypatch.setattr(shard_mod._ShardCore, "__init__", failing_init)
    with pytest.raises(RuntimeError) as caught:
        run_sharded(WORKLOADS["uniform-rr"](), 2, profiles=profiles)
    assert str(caught.value).startswith("shard worker failed:\n")
    assert "ValueError: cannot cut shard 0" in str(caught.value)
    assert profiles in (None, [])
    assert multiprocessing.active_children() == []
