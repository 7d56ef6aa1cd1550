"""Streaming metric reducers over the engine's structured event stream.

These turn the :mod:`repro.sim.trace` event stream into the paper's
measurement quantities without retaining per-packet state:

* :class:`StreamingQuantile` -- a deterministic streaming quantile
  estimator over integer samples (release/injection-to-delivery latencies
  are integer cycles), used for the Figure 11/12-style p50/p95/p99
  columns. Exact while the sample spread is small; degrades to
  power-of-two-width bins under a hard memory bound, with a final state
  that depends only on the *multiset* of samples (not their order or
  chunking) -- so parallel sweeps and serial loops report identical
  quantiles.
* :class:`ChannelBusyWindows` -- per-channel busy-tick time series in
  fixed cycle windows (channel occupancy vs time, Figure 9's saturation
  behavior made observable).
* :class:`VcOccupancyHistogram` -- cycles spent at each buffer occupancy
  level per (channel, VC): the VC-residency view behind the dateline/
  promotion analysis.
* :class:`MetricsCollector` -- a trace sink that feeds all of the above
  and renders a picklable :class:`MetricsSummary` for sweep results. An
  engine feeds it directly, with no events (:func:`split_collector`);
  everything else feeds it events through ``emit``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import Tee, TraceEvent, leaf_sinks

#: The quantiles reported by default everywhere (p50/p95/p99).
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class StreamingQuantile:
    """Deterministic streaming quantiles over integer samples.

    Samples are counted in bins of width ``2**k`` (``k`` starts at 0:
    exact). When the number of occupied bins exceeds ``max_bins`` the
    width doubles (re-binning in place) until it fits, so memory is
    bounded by ``max_bins`` regardless of sample count. The width only
    grows when the *seen* multiset requires it, which makes the final
    state a pure function of the multiset: feeding the same samples in
    any order, any chunking, or via :meth:`merge` yields bit-identical
    quantiles. While the width is 1 (spread below ``max_bins``), reported
    quantiles are exact order statistics.

    ``quantile(q)`` uses the nearest-rank definition: the smallest sample
    value v such that at least ``ceil(q * n)`` samples are <= v (the bin's
    lower edge once widened) -- monotone in q by construction.
    """

    def __init__(self, max_bins: int = 4096) -> None:
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        self.max_bins = max_bins
        self.width = 1
        self.count = 0
        self._bins: Dict[int, int] = {}

    def add(self, value: int) -> None:
        """Count one integer sample."""
        value = int(value)
        start = value - value % self.width
        bins = self._bins
        bins[start] = bins.get(start, 0) + 1
        self.count += 1
        if len(bins) > self.max_bins:
            self._compact()

    def add_many(self, values: Iterable[int]) -> None:
        for value in values:
            self.add(value)

    def _compact(self) -> None:
        while len(self._bins) > self.max_bins:
            self.width *= 2
            merged: Dict[int, int] = {}
            for start, count in self._bins.items():
                wide = start - start % self.width
                merged[wide] = merged.get(wide, 0) + count
            self._bins = merged

    def merge(self, other: "StreamingQuantile") -> None:
        """Fold another estimator's samples into this one.

        Equivalent to having added the other estimator's samples here
        (at its recorded resolution), so merge order does not matter.
        """
        if other.width > self.width:
            # Re-bin our finer bins at the coarser width.
            self.width = other.width
            merged: Dict[int, int] = {}
            for start, count in self._bins.items():
                wide = start - start % self.width
                merged[wide] = merged.get(wide, 0) + count
            self._bins = merged
        bins = self._bins
        for start, count in other._bins.items():
            wide = start - start % self.width
            bins[wide] = bins.get(wide, 0) + count
        self.count += other.count
        if len(bins) > self.max_bins:
            self._compact()

    def quantile(self, q: float) -> int:
        """Nearest-rank quantile; exact while the bin width is 1."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            raise ValueError("no samples recorded")
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for start in sorted(self._bins):
            cumulative += self._bins[start]
            if cumulative >= rank:
                return start
        raise AssertionError("rank exceeded total count")  # pragma: no cover

    def quantiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[float, int]:
        """Quantile dict for ``qs``; empty when no samples were recorded.

        The empty-dict convention (rather than :meth:`quantile`'s
        ``ValueError``) lets zero-delivery runs -- e.g. a faulted run
        whose drop policy discards every packet -- summarize as a
        legitimately degraded result instead of crashing the reporting
        path.
        """
        if self.count == 0:
            return {}
        return {q: self.quantile(q) for q in qs}

    def state(self) -> dict:
        """JSON-safe serialized state (see :meth:`from_state`)."""
        return {
            "max_bins": self.max_bins,
            "width": self.width,
            "count": self.count,
            "bins": {str(start): n for start, n in self._bins.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingQuantile":
        est = cls(max_bins=state["max_bins"])
        est.width = state["width"]
        est.count = state["count"]
        est._bins = {int(start): n for start, n in state["bins"].items()}
        return est

    def __eq__(self, other) -> bool:
        if not isinstance(other, StreamingQuantile):
            return NotImplemented
        return (
            self.max_bins == other.max_bins
            and self.width == other.width
            and self.count == other.count
            and self._bins == other._bins
        )


class ChannelBusyWindows:
    """Per-channel busy-tick time series in fixed cycle windows.

    Fed one departure at a time (:meth:`add`): its exact occupancy ticks
    are attributed to the window containing the cycle serialization was
    granted (windows are an observability grain, not a timing model, so
    spill across a window edge is not split).
    """

    def __init__(self, window_cycles: int = 256) -> None:
        if window_cycles < 1:
            raise ValueError("window must be at least one cycle")
        self.window_cycles = window_cycles
        self._windows: Dict[int, Dict[int, int]] = {}

    def add(self, channel: int, cycle: int, busy: int) -> None:
        """Charge ``busy`` ticks granted on ``channel`` at ``cycle``."""
        window = cycle // self.window_cycles
        per_channel = self._windows.get(channel)
        if per_channel is None:
            per_channel = self._windows[channel] = {}
        per_channel[window] = per_channel.get(window, 0) + busy

    def series(self, channel: int) -> List[int]:
        """Busy ticks per window for one channel, zero-filled, from t=0."""
        per_channel = self._windows.get(channel)
        if not per_channel:
            return []
        out = [0] * (max(per_channel) + 1)
        for window, ticks in per_channel.items():
            out[window] = ticks
        return out

    def totals(self) -> Dict[int, int]:
        """Total busy ticks per channel (matches SimStats accounting)."""
        return {
            channel: sum(per_channel.values())
            for channel, per_channel in sorted(self._windows.items())
        }

    def state(self) -> dict:
        """JSON-safe serialized state (insertion order preserved)."""
        return {
            "window_cycles": self.window_cycles,
            "windows": [
                [channel, list(per_channel.items())]
                for channel, per_channel in self._windows.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ChannelBusyWindows":
        out = cls(window_cycles=state["window_cycles"])
        out._windows = {
            channel: {window: ticks for window, ticks in pairs}
            for channel, pairs in state["windows"]
        }
        return out


class VcOccupancyHistogram:
    """Cycles spent at each occupancy level per (channel, VC) buffer.

    :meth:`move` records a buffer's occupancy changing by ``step``: +1
    for an arrival, -1 for a grant out of it. Each transition charges
    the elapsed cycles to the level the buffer was at; call
    :meth:`finalize` (idempotent per end cycle) to charge the tail
    through the end of the run.

    Each buffer is one flat row ``[level, since, hist]`` -- its
    occupancy, the cycle it was last charged to, and its histogram once
    it has one -- so a transition costs one keyed lookup.
    """

    def __init__(self) -> None:
        self._rows: Dict[Tuple[int, int], list] = {}
        #: The histograms, in the order buffers first accrued cycles.
        self._hist: Dict[Tuple[int, int], Dict[int, int]] = {}

    def move(self, channel: int, vc: int, cycle: int, step: int) -> None:
        """Buffer ``(channel, vc)`` changed occupancy by ``step`` at ``cycle``."""
        key = (channel, vc)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [0, 0, None]
        level = row[0]
        elapsed = cycle - row[1]
        if elapsed:
            hist = row[2]
            if hist is None:
                hist = row[2] = self._hist[key] = {}
            hist[level] = hist.get(level, 0) + elapsed
            row[1] = cycle
        row[0] = level + step

    def finalize(self, end_cycle: int) -> None:
        for channel, vc in list(self._rows):
            self.move(channel, vc, end_cycle, 0)

    def histogram(self, channel: int, vc: int) -> Dict[int, int]:
        """``{occupancy level: cycles}`` for one buffer."""
        return dict(self._hist.get((channel, vc), {}))

    def histograms(self) -> Dict[Tuple[int, int], Dict[int, int]]:
        return {key: dict(hist) for key, hist in sorted(self._hist.items())}

    def state(self) -> dict:
        """JSON-safe serialized state ((channel, vc) keys as pairs)."""
        rows = self._rows.items()
        return {
            "occupancy": [[[*key], row[0]] for key, row in rows],
            "since": [[[*key], row[1]] for key, row in rows],
            "hist": [
                [[*key], list(hist.items())] for key, hist in self._hist.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "VcOccupancyHistogram":
        out = cls()
        occupancy = [(tuple(key), level) for key, level in state["occupancy"]]
        since = [(tuple(key), cycle) for key, cycle in state["since"]]
        if [key for key, _ in occupancy] != [key for key, _ in since]:
            raise ValueError("occupancy state names its buffers in two orders")
        out._hist = {
            tuple(key): {level: cycles for level, cycles in pairs}
            for key, pairs in state["hist"]
        }
        out._rows = {
            key: [level, cycle, out._hist.get(key)]
            for (key, level), (_, cycle) in zip(occupancy, since)
        }
        if not out._hist.keys() <= out._rows.keys():
            raise ValueError("occupancy state has a histogram of no buffer")
        return out


@dataclasses.dataclass
class MetricsSummary:
    """Picklable end-of-run rendering of one collector (sweep results)."""

    delivered: int
    window_cycles: int
    #: Injection-to-delivery latency quantiles, keyed by q (p50/p95/p99).
    latency_quantiles: Dict[float, int]
    #: Total busy ticks per channel id (trace-derived; must equal the
    #: engine's ``SimStats.channel_busy_ticks`` accounting).
    channel_busy_ticks: Dict[int, int]
    #: Busy-tick series per channel id, one entry per window.
    busy_windows: Dict[int, List[int]]
    #: ``{(channel, vc): {occupancy: cycles}}`` buffer residency.
    vc_occupancy: Dict[Tuple[int, int], Dict[int, int]]


class MetricsCollector:
    """The streaming reducers above, fed as one sink.

    Attach directly as ``Engine(trace=collector)`` or fan out alongside a
    JSONL writer via :class:`repro.sim.trace.Tee`. It has two entries
    that land in the same reducer methods:

    * an :class:`~repro.sim.engine.Engine` feeds it directly: where it
      would emit ``grant``/``depart``/``arrive``/``deliver`` it calls
      ``occupancy.move``, ``busy.add`` and :meth:`deliver` with the
      integers it holds and raises :attr:`last_cycle` itself, so a
      collector attached alone costs no
      :class:`~repro.sim.trace.TraceEvent` (see :func:`split_collector`);
    * :meth:`emit` takes the event stream -- a replayed JSONL file, the
      engine's rare fault-path records.
    """

    def __init__(
        self,
        window_cycles: int = 256,
        max_bins: int = 4096,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        self.latency = StreamingQuantile(max_bins=max_bins)
        self.busy = ChannelBusyWindows(window_cycles=window_cycles)
        self.occupancy = VcOccupancyHistogram()
        self.delivered = 0
        #: The latest cycle any event (of any kind) was stamped with.
        self.last_cycle = 0
        self._quantiles = tuple(quantiles)

    def deliver(self, latency: int) -> None:
        """A packet was delivered ``latency`` cycles after injection."""
        self.delivered += 1
        self.latency.add(latency)

    def emit(self, event: TraceEvent) -> None:
        kind = event.kind
        cycle = event.cycle
        if cycle > self.last_cycle:
            self.last_cycle = cycle
        if kind == "depart":
            self.busy.add(event.channel, cycle, event.get("busy"))
        elif kind == "arrive":
            self.occupancy.move(event.channel, event.vc, cycle, 1)
        elif kind == "grant":
            self.occupancy.move(event.get("in_ch"), event.get("in_vc"), cycle, -1)
        elif kind == "deliver":
            self.deliver(event.get("lat"))

    def flush(self) -> None:
        pass

    def state(self) -> dict:
        """JSON-safe serialized state of every reducer (checkpointing)."""
        return {
            "latency": self.latency.state(),
            "busy": self.busy.state(),
            "occupancy": self.occupancy.state(),
            "delivered": self.delivered,
            "last_cycle": self.last_cycle,
            "quantiles": list(self._quantiles),
        }

    def restore_state(self, state: dict) -> None:
        """Reinstate a :meth:`state` snapshot in place.

        In-place so a resumed run can revive the checkpointed reducer
        contents into the collector object the caller already holds (the
        sweep harness summarizes the collector it constructed).
        """
        self.latency = StreamingQuantile.from_state(state["latency"])
        self.busy = ChannelBusyWindows.from_state(state["busy"])
        self.occupancy = VcOccupancyHistogram.from_state(state["occupancy"])
        self.delivered = state["delivered"]
        self.last_cycle = state["last_cycle"]
        self._quantiles = tuple(state["quantiles"])

    @classmethod
    def from_state(cls, state: dict) -> "MetricsCollector":
        out = cls(
            window_cycles=state["busy"]["window_cycles"],
            max_bins=state["latency"]["max_bins"],
        )
        out.restore_state(state)
        return out

    def snapshot(self) -> dict:
        """Non-mutating mid-run observation of every reducer.

        Returns a canonical JSON-safe dict -- :meth:`state` (all freshly
        built containers, no internal references) plus the current
        latency quantiles keyed by their string form. Unlike
        :meth:`summary`, nothing is finalized or modified: snapshotting
        mid-run and continuing is bitwise-indistinguishable from an
        uninterrupted run, which is what lets the serve package's metrics
        stream observe live sessions without perturbing determinism.
        """
        snap = self.state()
        snap["latency_quantiles"] = (
            {
                str(q): value
                for q, value in self.latency.quantiles(self._quantiles).items()
            }
            if self.delivered
            else {}
        )
        return snap

    def summary(self, end_cycle: Optional[int] = None) -> MetricsSummary:
        """Render the picklable summary (finalizes occupancy residency)."""
        self.occupancy.finalize(
            self.last_cycle if end_cycle is None else end_cycle
        )
        quantiles = (
            self.latency.quantiles(self._quantiles) if self.delivered else {}
        )
        return MetricsSummary(
            delivered=self.delivered,
            window_cycles=self.busy.window_cycles,
            latency_quantiles=quantiles,
            channel_busy_ticks=self.busy.totals(),
            busy_windows={
                channel: self.busy.series(channel)
                for channel in self.busy.totals()
            },
            vc_occupancy=self.occupancy.histograms(),
        )


def split_collector(sink) -> Tuple[Optional[MetricsCollector], object]:
    """``(collector, rest)`` of an engine's trace sink.

    ``collector`` is the first :class:`MetricsCollector` the sink reaches
    (through any :class:`~repro.sim.trace.Tee`), which the engine feeds
    directly; ``rest`` is the sink of everything else, in its order --
    ``None``, the one remaining sink, or a ``Tee`` of them -- which gets
    every :class:`~repro.sim.trace.TraceEvent`. A subclass of the
    collector stays in ``rest``: it is fed through its own ``emit``.
    """
    sinks = list(leaf_sinks(sink))
    for index, leaf in enumerate(sinks):
        if type(leaf) is MetricsCollector:
            del sinks[index]
            break
    else:
        return None, sink
    if not sinks:
        return leaf, None
    return leaf, sinks[0] if len(sinks) == 1 else Tee(*sinks)
