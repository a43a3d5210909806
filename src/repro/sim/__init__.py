"""Tiled systolic-accelerator performance and energy simulator."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "lowered": (
            "LoweredNetwork",
            "lower_network",
            "compute_cycles_batch",
            "traffic_batch",
            "evaluate_lowered",
            "evaluate_lowered_many",
            "evaluate_lowered_groups",
        ),
        "performance": (
            "LayerResult",
            "simulate_layer",
            "factor_pairs",
            "gemm_compute_cycles",
        ),
        "report": ("Comparison", "compare", "format_table", "geomean"),
        "roofline": ("RooflinePoint", "ridge_point", "roofline_analysis"),
        "simulator": ("NetworkResult", "sequential_sum", "simulate_network"),
        "systolic": ("SystolicArray", "SystolicTileResult"),
        "tiling": ("BufferSplit", "TrafficPlan", "plan_traffic", "buffer_partition"),
    },
)
