"""A deterministic bucketed timing wheel for the engine's event core.

The engine schedules four kinds of events (arrivals, credit returns,
source wakes, fault transitions), and almost all of them land a small
bounded number of cycles in the future: channel latencies are small
integers, and serialization of the largest packet adds only a few more
cycles. A global ``heapq`` therefore pays an O(log n) tuple comparison
per push/pop for what is structurally an O(1) problem.

The wheel keeps one FIFO bucket per future cycle over a power-of-two
horizon ``size``: an event for cycle ``c`` pushed at cycle ``now`` with
``0 < c - now < size`` is appended to ``buckets[c & mask]``. Everything
else -- far-future events (fault timelines, open-loop release wakes) and
the degenerate ``c <= now`` case -- goes to a small overflow heap keyed
by ``(cycle, seq)``.

**Determinism argument.** The engine's original heap ordered events by
``(cycle, seq)`` where ``seq`` is a global push counter; handlers at
equal cycles therefore ran in push order. The wheel reproduces that
order exactly:

* pushes are chronological, so within one bucket FIFO append order *is*
  seq order;
* every wheel event satisfies ``now < c < now + size`` at all times (the
  engine's idle jumps go to the earliest pending event, never past it),
  so a bucket holds events for exactly one cycle and buckets never need
  sorting;
* an overflow event for cycle ``c`` that coexists with wheel events for
  ``c`` was necessarily pushed at least ``size`` cycles earlier than any
  of them (the only other overflow case, ``c <= now`` at push time,
  cannot coexist with wheel events for ``c``, which require a push
  strictly before ``c``) -- so draining overflow events ``<= now``
  *before* the bucket preserves global seq order;
* no handler schedules for the current cycle, so the overflow events
  due now and the bucket are the whole of a cycle's batch once taken:
  channel latency is at least 1 (``MachineConfig`` refuses less), an
  arrival is clamped to the cycle after its grant
  (:func:`~repro.sim.engine.arrival_cycle`), and a retry backs off at
  least one cycle (``FaultPolicy.__post_init__``). There is no second
  overflow drain after the bucket.

The engine inlines the push fast path (one comparison plus a list
append) rather than calling :meth:`push`; this class carries the shared
state, the sizing rule, and the cold paths (overflow, next-event scan).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

__all__ = ["TimingWheel"]

#: Smallest wheel ever built. Keeps the modulo masking meaningful on toy
#: machines and makes the next-event scan trivially cheap.
_MIN_SIZE = 64


class TimingWheel:
    """Bucketed event schedule with an overflow heap.

    ``buckets[c & mask]`` is the FIFO of payloads for cycle ``c`` (valid
    for cycles within ``size`` of the current cycle); ``overflow`` is a
    heap of ``(cycle, seq, payload)``; ``pending`` counts events across
    both structures so the engine's run loops can test "anything left?"
    without touching either.
    """

    __slots__ = ("size", "mask", "buckets", "overflow", "seq", "pending")

    def __init__(self, horizon: int) -> None:
        size = _MIN_SIZE
        while size < horizon:
            size <<= 1
        self.size = size
        self.mask = size - 1
        self.buckets: List[list] = [[] for _ in range(size)]
        self.overflow: List[Tuple[int, int, tuple]] = []
        #: Global push counter for overflow ordering (bucket FIFOs get
        #: seq ordering for free from chronological appends).
        self.seq = 0
        self.pending = 0

    def push(self, cycle: int, now: int, payload: tuple) -> None:
        """Schedule ``payload`` for ``cycle`` (the engine inlines this)."""
        if 0 < cycle - now < self.size:
            self.buckets[cycle & self.mask].append(payload)
        else:
            self.seq += 1
            heapq.heappush(self.overflow, (cycle, self.seq, payload))
        self.pending += 1

    def take_due(self, now: int) -> list:
        """Detach and return cycle ``now``'s bucket (batched drain).

        The returned list is the bucket's payloads in push (= seq) order;
        a fresh list is swapped in and ``pending`` is decremented up
        front, so the caller may process the batch without touching the
        wheel again -- and a handler that pushes new events never mutates
        the list being iterated. Overflow events are not touched; the
        ones due are drained ahead of the bucket, as :meth:`push`
        ordering requires.
        """
        index = now & self.mask
        bucket = self.buckets[index]
        if not bucket:
            return bucket
        self.buckets[index] = []
        self.pending -= len(bucket)
        return bucket

    def next_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle holding a pending event, or None when empty.

        O(size) worst case, but only called on idle jumps -- cycles where
        nothing is active -- which are off the hot path by definition.
        """
        buckets = self.buckets
        mask = self.mask
        wheel_next: Optional[int] = None
        for delta in range(self.size):
            if buckets[(now + delta) & mask]:
                wheel_next = now + delta
                break
        if self.overflow:
            over_next = self.overflow[0][0]
            if wheel_next is None or over_next < wheel_next:
                return over_next
        return wheel_next

    def __len__(self) -> int:
        return self.pending

    def __bool__(self) -> bool:
        return self.pending > 0
