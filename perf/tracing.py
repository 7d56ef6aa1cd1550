"""Spans around each layer's public functions, recorded from outside.

The tracer replaces a layer's public callables with timing wrappers for
the duration of the traced pass and restores them afterwards; nothing in
``src/`` knows it is being measured. Spans stay in memory and are
written when the child ends. A span's *self time* is its duration minus
the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pstats
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, dotted attribute, span name, aggregate). One row per public
#: entry point of a layer; ``aggregate`` rows are called once per packet,
#: so they are summed into a single span per repeat instead of one each.
TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.core.machine", "Machine.__init__", "core.machine.build", False),
    ("repro.traffic.batch", "generate_batch", "traffic.batch.generate", False),
    ("repro.traffic.demand", "generate_demand", "traffic.demand.generate", False),
    ("repro.traffic.demand", "build_demand_engine", "traffic.demand.build_engine", False),
    ("repro.traffic.loads", "compute_loads", "traffic.loads.compute", False),
    ("repro.sim.simulator", "make_weight_tables", "arbiters.weights.program", False),
    ("repro.sim.simulator", "make_vc_weight_tables", "arbiters.weights.program", False),
    ("repro.sim.simulator", "build_batch_engine", "sim.simulator.build_batch_engine", False),
    ("repro.sim.simulator", "run_batch_sharded", "sim.simulator.run_batch_sharded", False),
    ("repro.sim.engine", "Engine.__init__", "sim.engine.build", False),
    ("repro.sim.engine", "Engine.enqueue", "sim.engine.enqueue", True),
    ("repro.sim.engine", "Engine.run", "sim.engine.run", False),
    ("repro.sim.engine", "Engine.run_for", "sim.engine.run", False),
    ("repro.sim.checkpoint", "snapshot_engine", "sim.checkpoint.snapshot", False),
    ("repro.sim.checkpoint", "dumps", "sim.checkpoint.dumps", False),
    ("repro.sim.checkpoint", "loads", "sim.checkpoint.loads", False),
    ("repro.sim.checkpoint", "restore_engine", "sim.checkpoint.restore", False),
    ("repro.sim.checkpoint", "save_checkpoint", "sim.checkpoint.save", False),
    ("repro.sim.checkpoint", "load_checkpoint", "sim.checkpoint.load", False),
    ("repro.sim.checkpoint", "run_with_checkpoints", "sim.checkpoint.run_with_checkpoints", False),
    ("repro.sim.shard", "run_sharded", "sim.shard.run_sharded", False),
    ("repro.sim.sweep", "run_sweep", "sim.sweep.run_sweep", False),
    ("repro.faults.runtime", "FaultRuntime.__init__", "faults.runtime.build", False),
    ("repro.analysis.throughput", "throughput_vs_batch_size", "analysis.throughput.fig9", False),
)


class Tracer:
    """In-memory span recorder for one workload's traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: -1 while the workload sets up, then the traced repeat's index.
        self.repeat = -1
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()
        self._undo: List[Tuple[object, str, object]] = []
        #: (name, repeat) -> [calls, CPU-s] of aggregate targets.
        self._sums: Dict[Tuple[str, int], List[float]] = {}

    # --- recording --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "cpu_s": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "repeat": self.repeat,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        cpu0 = time.process_time()
        try:
            yield record
        finally:
            record["cpu_s"] = time.process_time() - cpu0
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        """Record a span timed by the caller (``perf_counter`` stamps)."""
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "start": start - self._origin,
            "end": end - self._origin,
            "cpu_s": None,
            "parent": parent,
            "workload": self.workload,
            "repeat": self.repeat,
        })

    # --- patching ---------------------------------------------------------------

    def install(self) -> None:
        for module_name, dotted, name, aggregate in TARGETS:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(owner, attr, name, aggregate)

    def _patch(self, owner, attr: str, name: str, aggregate: bool) -> None:
        original = getattr(owner, attr)
        if aggregate:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                cpu0 = time.process_time()
                try:
                    return original(*args, **kwargs)
                finally:
                    entry = self._sums.setdefault((name, self.repeat), [0, 0.0])
                    entry[0] += 1
                    entry[1] += time.process_time() - cpu0
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

        holders = [(owner, attr)]
        if not isinstance(owner, type):
            # ``from module import fn`` copies the reference; patch every
            # module that holds one (other layers, and the workloads
            # themselves) so each call is seen wherever it is made from.
            for module in list(sys.modules.values()):
                if module is owner or module is None:
                    continue
                holders.extend(
                    (module, key)
                    for key, value in list(getattr(module, "__dict__", {}).items())
                    if value is original
                )
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # --- reading ----------------------------------------------------------------

    def cpu(self, name: str, repeat: int) -> float:
        """Summed CPU of the outermost ``name`` spans of one repeat."""
        by_id = {span["id"]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span["name"] != name or span["repeat"] != repeat:
                continue
            parent = span["parent"]
            while parent is not None and by_id[parent]["name"] != name:
                parent = by_id[parent]["parent"]
            if parent is None:
                total += span["cpu_s"]
        return total

    def count(self, name: str, repeat: int) -> int:
        return sum(
            1 for span in self.spans
            if span["name"] == name and span["repeat"] == repeat
        )

    def calls(self, name: str, repeat: int) -> Tuple[int, float]:
        """(calls, CPU-s) of an aggregate target in one repeat."""
        calls, cpu = self._sums.get((name, repeat), (0, 0.0))
        return int(calls), cpu

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
            for (name, repeat), (calls, cpu) in sorted(self._sums.items()):
                handle.write(json.dumps({
                    "name": name, "aggregate": True, "calls": int(calls),
                    "cpu_s": cpu, "workload": self.workload, "repeat": repeat,
                }, separators=(",", ":")) + "\n")


#: host_share group -> substrings of the *source file* (robust to
#: function renames); first match wins, the rest is ``other``.
_FILE_GROUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.engine", ("/repro/sim/engine.py",)),
    ("sim.wheel", ("/repro/sim/wheel.py",)),
    ("sim.packet", ("/repro/sim/packet.py",)),
    ("arbiters", ("/repro/arbiters/",)),
    ("sim.fastpath", ("/repro/sim/fastpath.py",)),
    ("numpy", ("/numpy/",)),
    ("faults", ("/repro/faults/",)),
    ("sim.checkpoint", ("/repro/sim/checkpoint.py",)),
    ("json", ("/json/",)),
    ("serve", ("/repro/serve/",)),
)


def host_shares(profile) -> Dict[str, float]:
    """cProfile ``tottime`` share per layer, as ``host_share.<layer>``.

    Built-ins carry no file; numpy's and json's C functions are
    recognised by their qualified names.
    """
    totals = {group: 0.0 for group, _ in _FILE_GROUPS}
    totals["other"] = 0.0
    for (filename, _line, func), row in pstats.Stats(profile).stats.items():
        tottime = row[2]
        where = filename if filename != "~" else func
        if filename == "~" and "numpy" in func:
            group = "numpy"
        elif filename == "~" and "_json" in func:
            group = "json"
        else:
            group = next(
                (g for g, needles in _FILE_GROUPS if any(n in where for n in needles)),
                "other",
            )
        totals[group] += tottime
    whole = sum(totals.values()) or 1.0
    return {
        f"host_share.{group}": value / whole
        for group, value in totals.items() if value
    }
