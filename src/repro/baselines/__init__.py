"""Comparison platforms: TPU-like, BitFusion, and the RTX 2080 Ti GPU."""

from .._lazy import lazy_exports

__all__ = [
    "BITFUSION",
    "FusionUnit",
    "LOOM",
    "STRIPES",
    "TAXONOMY",
    "GPUResult",
    "GPUSpec",
    "RTX_2080_TI",
    "simulate_gpu",
    "TPU_LIKE",
    "core_power_mw",
    "supports_bitwidth_speedup",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bitfusion": ("BITFUSION", "FusionUnit"),
        "bitserial": ("LOOM", "STRIPES", "TAXONOMY"),
        "gpu": ("GPUResult", "GPUSpec", "RTX_2080_TI", "simulate_gpu"),
        "tpu_like": ("TPU_LIKE", "core_power_mw", "supports_bitwidth_speedup"),
    },
)
