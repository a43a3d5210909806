"""Core of the paper's contribution: bit-parallel vector composability.

Exports the bit-slicing math (Eq. 1-4), the NBVE/CVU functional hardware
models, composition planning, and vectorised composed matrix multiplies.
"""

from .._lazy import lazy_exports

__all__ = [
    "check_range",
    "num_slices",
    "recompose_vector",
    "slice_vector",
    "slice_weights",
    "sliced_dot_product",
    "sliced_dot_product_terms",
    "value_range",
    "CompositionPlan",
    "NBVEAssignment",
    "plan_composition",
    "CVU",
    "CVUConfig",
    "CVUResult",
    "NBVE",
    "composed_matmul",
    "composition_workload",
    "reference_matmul",
    "GateNBVE",
    "adder_tree",
    "array_multiply",
    "bits_to_int",
    "full_adder",
    "gate_level_dot_product",
    "int_to_bits",
    "left_shift",
    "ripple_add",
    "SliceSparsity",
    "effectual_fraction",
    "ideal_skip_speedup",
    "slice_sparsity",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bitslice": (
            "check_range",
            "num_slices",
            "recompose_vector",
            "slice_vector",
            "slice_weights",
            "sliced_dot_product",
            "sliced_dot_product_terms",
            "value_range",
        ),
        "composition": ("CompositionPlan", "NBVEAssignment", "plan_composition"),
        "cvu": ("CVU", "CVUConfig", "CVUResult"),
        "dotprod": ("composed_matmul", "composition_workload", "reference_matmul"),
        "gates": (
            "GateNBVE",
            "adder_tree",
            "array_multiply",
            "bits_to_int",
            "full_adder",
            "gate_level_dot_product",
            "int_to_bits",
            "left_shift",
            "ripple_add",
        ),
        "nbve": ("NBVE",),
        "sparsity": (
            "SliceSparsity",
            "effectual_fraction",
            "ideal_skip_speedup",
            "slice_sparsity",
        ),
    },
)
