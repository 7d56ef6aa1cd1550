"""Experiment harnesses, fairness metrics, and reporting."""

from .degradation import (
    DegradedThroughputPoint,
    degradation_sweep,
    measure_degraded_point,
)
from .fairness import (
    expected_shares,
    figure5_loads,
    finish_time_fairness,
    grant_ratio_experiment,
    jain_index,
    mid_run_service_fairness,
)
from .latency_load import LatencyLoadPoint, latency_vs_load, saturation_rate
from .report import ascii_bar_chart, format_series, format_table, side_by_side
from .throughput import (
    ThroughputPoint,
    blend_sweep,
    measure_run,
    throughput_vs_batch_size,
)

__all__ = [
    "DegradedThroughputPoint",
    "LatencyLoadPoint",
    "ThroughputPoint",
    "degradation_sweep",
    "measure_degraded_point",
    "ascii_bar_chart",
    "blend_sweep",
    "expected_shares",
    "figure5_loads",
    "finish_time_fairness",
    "format_series",
    "format_table",
    "grant_ratio_experiment",
    "jain_index",
    "latency_vs_load",
    "measure_run",
    "saturation_rate",
    "mid_run_service_fairness",
    "side_by_side",
    "throughput_vs_batch_size",
]
