"""Measurement collection for the cycle-level simulator.

The statistics mirror the paper's measurement methodology (Section 4):
batch completion time for throughput, per-source delivery counts for
fairness (equality of service), per-channel flit counts for utilization,
and latency sums (and, optionally, streamed quantiles) for the latency
experiments.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from .metrics import DEFAULT_QUANTILES, StreamingQuantile
from .packet import Packet

#: SimStats fields whose dicts count per-id quantities and must default
#: missing ids to zero (restored as defaultdicts by :meth:`SimStats.from_dict`).
_COUNTER_DICT_FIELDS = ("delivered_per_source", "channel_flits", "channel_busy_ticks")


@dataclasses.dataclass
class SimStats:
    """Aggregated results of one simulation run."""

    #: Total packets injected into the network.
    injected: int = 0
    #: Total packets delivered.
    delivered: int = 0
    #: Cycle of the last delivery (the batch completion time).
    last_delivery_cycle: int = 0
    #: Cycle the simulation stopped at.
    end_cycle: int = 0
    #: Integer ticks per cycle of the engine that produced these stats
    #: (the machine's exact fixed-point timebase); busy-tick counts below
    #: are denominated in it.
    ticks_per_cycle: int = 1
    #: Delivered packets per source endpoint component id.
    delivered_per_source: Dict[int, int] = dataclasses.field(
        default_factory=lambda: defaultdict(int)
    )
    #: Cycle of each source's last delivery: in a batch run, the cycle the
    #: source *finished*. The spread of these values is the direct
    #: signature of (un)fairness beyond saturation.
    source_finish_cycle: Dict[int, int] = dataclasses.field(
        default_factory=dict
    )
    #: Flits carried per channel id.
    channel_flits: Dict[int, int] = dataclasses.field(
        default_factory=lambda: defaultdict(int)
    )
    #: Exact serialization ticks occupied per channel id. Unlike flit
    #: counts, this weighs each flit by the channel's rational occupancy
    #: (45 ticks on a derated torus channel vs 14 on a mesh channel at 14
    #: ticks/cycle), so utilization is exact integer accounting.
    channel_busy_ticks: Dict[int, int] = dataclasses.field(
        default_factory=lambda: defaultdict(int)
    )
    #: Sum and count of release-to-delivery latencies.
    latency_sum: int = 0
    #: Sum of injection-to-delivery (network) latencies.
    network_latency_sum: int = 0
    #: Packets dropped by the fault policy (zero on healthy runs).
    dropped: int = 0
    #: Packets re-routed in place around a failed channel.
    rerouted: int = 0
    #: Source re-injections performed by the retry policy.
    retried: int = 0
    #: Route requests that found no path on the degraded machine.
    unroutable: int = 0
    #: Link-down/link-up events applied mid-run.
    fault_events: int = 0
    #: Streaming injection-to-delivery latency quantile estimator,
    #: attached by ``Engine(latency_quantiles=True)``: p50/p95/p99 without
    #: retaining every packet's latency.
    latency_estimator: Optional[StreamingQuantile] = None

    def record_injection(self, packet: Packet) -> None:
        self.injected += 1

    def record_delivery(self, packet: Packet) -> None:
        self.delivered += 1
        assert packet.deliver_cycle is not None
        self.last_delivery_cycle = max(self.last_delivery_cycle, packet.deliver_cycle)
        self.delivered_per_source[packet.src] += 1
        self.source_finish_cycle[packet.src] = packet.deliver_cycle
        self.latency_sum += packet.latency
        self.network_latency_sum += packet.network_latency
        if self.latency_estimator is not None:
            self.latency_estimator.add(packet.network_latency)

    def record_channel_use(
        self, channel_id: int, flits: int, busy_ticks: int = 0
    ) -> None:
        self.channel_flits[channel_id] += flits
        self.channel_busy_ticks[channel_id] += busy_ticks

    @property
    def mean_latency(self) -> float:
        """Mean release-to-delivery latency in cycles."""
        if self.delivered == 0:
            raise ValueError("no packets delivered")
        return self.latency_sum / self.delivered

    @property
    def mean_network_latency(self) -> float:
        """Mean injection-to-delivery latency in cycles."""
        if self.delivered == 0:
            raise ValueError("no packets delivered")
        return self.network_latency_sum / self.delivered

    def throughput_packets_per_cycle(self) -> float:
        """Delivered packets divided by batch completion time."""
        if self.last_delivery_cycle == 0:
            return 0.0
        return self.delivered / self.last_delivery_cycle

    def service_counts(self) -> List[int]:
        """Delivered counts per source, sorted ascending (fairness view)."""
        return sorted(self.delivered_per_source.values())

    def min_max_service_ratio(self) -> Optional[float]:
        """Min/max per-source delivered ratio; 1.0 is perfectly fair.

        Meaningful mid-run or for open-loop workloads; after a batch run
        completes every source has delivered its whole batch, so use
        :meth:`finish_spread` instead.
        """
        counts = self.service_counts()
        if not counts or counts[-1] == 0:
            return None
        return counts[0] / counts[-1]

    def latency_quantiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[float, int]:
        """Network-latency quantiles from the streaming estimator.

        Requires the engine to have been built with
        ``latency_quantiles=True``; raises ``ValueError`` otherwise.
        A run that delivered nothing (every packet dropped by a fault
        policy) reports an empty dict rather than raising.
        """
        if self.latency_estimator is None:
            raise ValueError(
                "no latency estimator attached; build the engine with "
                "latency_quantiles=True"
            )
        return self.latency_estimator.quantiles(qs)

    # --- serialization / aggregation --------------------------------------------

    def asdict(self) -> dict:
        """JSON-safe plain-dict form; inverse of :meth:`from_dict`.

        Unlike raw ``dataclasses.asdict``, the streaming estimator is
        rendered as its serialized state, so the result survives JSON (or
        pickling across the sweep runner's process boundary) losslessly.
        Per-id dicts are emitted sorted by key so the rendering is a pure
        function of the counts -- independent of first-touch order, and
        therefore identical between a serial run and a shard-merged one.
        """
        out = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name != "latency_estimator"
        }
        for name in _COUNTER_DICT_FIELDS + ("source_finish_cycle",):
            src = out[name]
            out[name] = {key: src[key] for key in sorted(src)}
        out["latency_estimator"] = (
            None if self.latency_estimator is None
            else self.latency_estimator.state()
        )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Rebuild stats from :meth:`asdict` output (or its JSON round-trip).

        Normalizes what generic reconstruction loses: the per-id counter
        dicts come back as *defaultdicts* again (so ``channel_flits[cid]``
        on an unused channel is 0, not a ``KeyError``), keys stringified
        by JSON are restored to ints, and the quantile estimator is
        revived from its serialized state.
        """
        kwargs = dict(data)
        estimator_state = kwargs.pop("latency_estimator", None)
        for name in _COUNTER_DICT_FIELDS:
            restored = defaultdict(int)
            for key, value in kwargs.get(name, {}).items():
                restored[int(key)] = value
            kwargs[name] = restored
        kwargs["source_finish_cycle"] = {
            int(key): value
            for key, value in kwargs.get("source_finish_cycle", {}).items()
        }
        stats = cls(**kwargs)
        if estimator_state is not None:
            if isinstance(estimator_state, StreamingQuantile):
                stats.latency_estimator = estimator_state
            else:
                stats.latency_estimator = StreamingQuantile.from_state(
                    estimator_state
                )
        return stats

    def merge(self, other: "SimStats") -> "SimStats":
        """Fold another run's (or shard's) stats into this one, in place.

        Counters add, per-id dicts add id-wise, completion cycles take the
        max, and per-source finishes keep the latest. Both sides must
        share a timebase (``ticks_per_cycle``).
        """
        if self.ticks_per_cycle != other.ticks_per_cycle:
            raise ValueError(
                f"cannot merge stats across timebases "
                f"({self.ticks_per_cycle} vs {other.ticks_per_cycle} ticks/cycle)"
            )
        self.injected += other.injected
        self.delivered += other.delivered
        self.last_delivery_cycle = max(
            self.last_delivery_cycle, other.last_delivery_cycle
        )
        self.end_cycle = max(self.end_cycle, other.end_cycle)
        for src, count in other.delivered_per_source.items():
            self.delivered_per_source[src] += count
        for src, cycle in other.source_finish_cycle.items():
            existing = self.source_finish_cycle.get(src)
            if existing is None or cycle > existing:
                self.source_finish_cycle[src] = cycle
        for cid, flits in other.channel_flits.items():
            self.channel_flits[cid] += flits
        for cid, ticks in other.channel_busy_ticks.items():
            self.channel_busy_ticks[cid] += ticks
        self.latency_sum += other.latency_sum
        self.network_latency_sum += other.network_latency_sum
        self.dropped += other.dropped
        self.rerouted += other.rerouted
        self.retried += other.retried
        self.unroutable += other.unroutable
        self.fault_events += other.fault_events
        if other.latency_estimator is not None:
            if self.latency_estimator is None:
                self.latency_estimator = StreamingQuantile.from_state(
                    other.latency_estimator.state()
                )
            else:
                self.latency_estimator.merge(other.latency_estimator)
        return self

    def finish_spread(self) -> Optional[float]:
        """Relative spread of per-source batch finish times.

        ``(latest - earliest finish) / latest``: 0 means every source
        finished together (perfect equality of service); values near 1
        mean some sources were starved until the very end -- the
        unfairness mechanism that collapses round-robin throughput beyond
        saturation (Figure 9).
        """
        if not self.source_finish_cycle:
            return None
        finishes = self.source_finish_cycle.values()
        latest = max(finishes)
        if latest == 0:
            return None
        return (latest - min(finishes)) / latest
