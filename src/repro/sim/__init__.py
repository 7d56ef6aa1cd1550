"""Cycle-level simulator for the unified Anton 2 network."""

from .endpoints import (
    CountedWriteCounter,
    PingPongDriver,
    PingPongResult,
    measure_one_way_latency,
)
from .engine import ArbiterBuilder, DeadlockError, Engine
from .metrics import (
    ChannelBusyWindows,
    MetricsCollector,
    MetricsSummary,
    StreamingQuantile,
    VcOccupancyHistogram,
)
from .packet import Packet
from .simulator import (
    DEFAULT_WEIGHT_BITS,
    RunSpec,
    arbiter_builder_for,
    make_vc_weight_tables,
    make_weight_tables,
    run,
    run_single_packet,
)
from .stats import SimStats
from .trace import JsonlTraceWriter, ListSink, Tee, TraceEvent, read_trace

__all__ = [
    "ArbiterBuilder",
    "ChannelBusyWindows",
    "CountedWriteCounter",
    "DEFAULT_WEIGHT_BITS",
    "DeadlockError",
    "Engine",
    "JsonlTraceWriter",
    "ListSink",
    "MetricsCollector",
    "MetricsSummary",
    "Packet",
    "PingPongDriver",
    "PingPongResult",
    "RunSpec",
    "SimStats",
    "StreamingQuantile",
    "Tee",
    "TraceEvent",
    "VcOccupancyHistogram",
    "arbiter_builder_for",
    "make_vc_weight_tables",
    "make_weight_tables",
    "measure_one_way_latency",
    "read_trace",
    "run",
    "run_single_packet",
]
