"""Tiled systolic-accelerator performance and energy simulator."""

from .lowered import (
    LoweredNetwork,
    compute_cycles_batch,
    evaluate_lowered,
    evaluate_lowered_groups,
    evaluate_lowered_many,
    lower_network,
    traffic_batch,
)
from .performance import (
    LayerResult,
    factor_pairs,
    gemm_compute_cycles,
    simulate_layer,
)
from .report import Comparison, compare, format_table, geomean
from .roofline import RooflinePoint, ridge_point, roofline_analysis
from .simulator import NetworkResult, sequential_sum, simulate_network
from .systolic import SystolicArray, SystolicTileResult
from .tiling import BufferSplit, TrafficPlan, buffer_partition, plan_traffic

__all__ = [
    "LayerResult",
    "simulate_layer",
    "factor_pairs",
    "gemm_compute_cycles",
    "LoweredNetwork",
    "lower_network",
    "compute_cycles_batch",
    "traffic_batch",
    "evaluate_lowered",
    "evaluate_lowered_many",
    "evaluate_lowered_groups",
    "Comparison",
    "compare",
    "format_table",
    "geomean",
    "NetworkResult",
    "sequential_sum",
    "simulate_network",
    "BufferSplit",
    "TrafficPlan",
    "plan_traffic",
    "buffer_partition",
    "SystolicArray",
    "SystolicTileResult",
    "RooflinePoint",
    "ridge_point",
    "roofline_analysis",
]
