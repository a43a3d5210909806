"""Quantization library and quantized inference on the composed arithmetic."""

from .._lazy import lazy_exports

__all__ = [
    "QuantizedConv2D",
    "avg_pool2d",
    "im2col",
    "max_pool2d",
    "MLP",
    "QuantizedLinear",
    "make_two_spirals",
    "LinearQuantizer",
    "quantization_error",
    "QTensor",
    "BitwidthAssignment",
    "SensitivityRecord",
    "assign_bitwidths",
    "average_bitwidth",
    "footprint_reduction",
    "layer_sensitivity",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "conv": ("QuantizedConv2D", "avg_pool2d", "im2col", "max_pool2d"),
        "inference": ("MLP", "QuantizedLinear", "make_two_spirals"),
        "quantizer": ("LinearQuantizer", "quantization_error"),
        "sensitivity": (
            "BitwidthAssignment",
            "SensitivityRecord",
            "assign_bitwidths",
            "average_bitwidth",
            "footprint_reduction",
            "layer_sensitivity",
        ),
        "tensors": ("QTensor",),
    },
)
