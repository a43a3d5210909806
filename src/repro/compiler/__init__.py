"""Compiler stack: ISA, layer lowering, and program execution."""

from .._lazy import lazy_exports

__all__ = [
    "ExecutionResult",
    "Executor",
    "functional_check",
    "Barrier",
    "GemmTile",
    "Instruction",
    "LoadTile",
    "Program",
    "SetMode",
    "StoreTile",
    "lower_layer",
    "lower_network",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "executor": ("ExecutionResult", "Executor", "functional_check"),
        "isa": (
            "Barrier",
            "GemmTile",
            "Instruction",
            "LoadTile",
            "Program",
            "SetMode",
            "StoreTile",
        ),
        "lowering": ("lower_layer", "lower_network"),
    },
)
