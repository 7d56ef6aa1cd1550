"""Clocks, memory and digests shared by the perf child and its workloads.

Every time in the ledger is **CPU seconds of the process tree**, not wall
time: on the shared 2-vCPU bench host wall does not repeat within a
tenth. Raw CPU seconds of identical work do not repeat there either (by
10-50 % from one quarter hour to the next, ``steadiness/aa.jsonl``), so
the two bounded end-to-end times are divided by the host's slowdown
while they were measured (:class:`Calibrator`); every other time, and
every ratio of two times taken back to back, stays raw.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from typing import Callable, List, NamedTuple, Sequence

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may contain spaces; fields resume after ")".
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Calibrator:
    """A fixed reference load that says how slow the host is right now.

    Two pure-Python loops that share no code with ``src/``: ``_alu``
    (small-dict stores and integer arithmetic, cache resident) and
    ``_mem`` (a pseudo-random walk over a 2^18-entry permutation: two
    dependent cache misses per step). A neighbour on the sibling
    hyperthread slows the first, one thrashing the shared cache slows
    the second far more; the simulator's workloads sit in between (the
    narrow machines follow ``_alu``, the 512-node ones ``_mem``), so the
    slowdown is the geometric mean of the two loops' times over their
    quiet-host nominals. A measurement's CPU seconds are divided by the
    mean of the slowdowns sampled just before and just after it.

    What this buys is in ``steadiness/aa.jsonl``, which keeps the raw CPU
    seconds and the slowdown of every repeat of 140 runs: see README.md,
    "How steady the numbers are".
    """

    #: CPU seconds of each loop on the bench host at its quietest (5th
    #: percentile of ~2700 samples over 22 minutes), so a slowdown reads
    #: 1.0 on the quiet host and more under contention. They only fix the
    #: unit: both sides of any comparison are divided by slowdowns from
    #: the same constants.
    ALU_NOMINAL_S = 0.0912
    MEM_NOMINAL_S = 0.0630
    #: ~0.2 s per sample: long enough that a burst much shorter than a
    #: repeat is averaged inside the sample as it is inside the repeat.
    _ALU_STEPS = 900_000
    _MEM_STEPS = 450_000
    _MEM_SIZE = 1 << 18

    def __init__(self) -> None:
        cpu0 = time.process_time()
        size = self._MEM_SIZE
        self._walk = [(i * 1664525 + 1013904223) & (size - 1) for i in range(size)]
        self._table = {key: (key * 7) & 255 for key in range(4096)}
        #: CPU seconds spent calibrating, to be kept out of ``setup_s``.
        self.spent = time.process_time() - cpu0
        self._last = self._sample()

    def _alu(self) -> None:
        store = {}
        x = 0
        for i in range(self._ALU_STEPS):
            store[i & 1023] = x
            x = (x * 31 + i) & 0xFFFF

    def _mem(self) -> None:
        walk = self._walk
        table = self._table
        i = acc = 0
        for _ in range(self._MEM_STEPS):
            i = walk[i]
            acc = (acc + table[i & 4095]) & 0xFFFF

    def _sample(self) -> float:
        """How many times slower than nominal the host runs right now."""
        cpu0 = time.process_time()
        self._alu()
        cpu1 = time.process_time()
        self._mem()
        cpu2 = time.process_time()
        self.spent += cpu2 - cpu0
        return (
            (cpu1 - cpu0) / self.ALU_NOMINAL_S * (cpu2 - cpu1) / self.MEM_NOMINAL_S
        ) ** 0.5

    def slowdown_since_last(self) -> float:
        """Mean of the previous sample and a fresh one: the host's
        slowdown over what ran between them."""
        before, self._last = self._last, self._sample()
        return (before + self._last) / 2


class Timed(NamedTuple):
    """One measured call: its result, tree CPU seconds and wall seconds."""

    result: object
    cpu: float
    wall: float


class Meter:
    """CPU seconds and peak RSS of this process and everything it started.

    Reaped descendants (shard workers, sweep pool workers, CLI probes)
    arrive through ``RUSAGE_CHILDREN``; a child that stays alive across
    repeats (the serve server) is :meth:`track`-ed and read from
    ``/proc`` until :meth:`untrack`, which must precede reaping it so
    its time is never counted twice.
    """

    def __init__(self) -> None:
        self._live: List[int] = []

    def track(self, pid: int) -> None:
        self._live.append(pid)

    def untrack(self, pid: int) -> None:
        self._live.remove(pid)

    def cpu(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (
            own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
            + self.live_cpu()
        )

    def live_cpu(self) -> float:
        """CPU of the tracked live children alone (the serve server)."""
        return sum(_proc_cpu_s(pid) for pid in self._live)

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        live = [_proc_peak_rss_kb(pid) for pid in self._live]
        return max([own, kids] + live) / 1024.0

    def timed(self, fn: Callable[[], object]) -> Timed:
        """Run ``fn`` after a collection.

        Without the ``gc.collect()`` in-process repeats drift upward by
        tens of percent as garbage from the previous repeat is collected
        inside the next one.
        """
        gc.collect()
        cpu0 = self.cpu()
        wall0 = time.perf_counter()
        result = fn()
        return Timed(result, self.cpu() - cpu0, time.perf_counter() - wall0)


def digest(payload) -> str:
    """Short hash of a JSON-safe payload in canonical (compact) form."""
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
