"""Drivers that regenerate every table and figure of the evaluation."""

from .._lazy import lazy_exports

__all__ = [
    "GEOMEAN",
    "DSEPoint",
    "PerfPerWattRow",
    "SpeedupRow",
    "fig4_both_models",
    "fig4_design_space",
    "fig5_homogeneous_ddr4",
    "fig6_homogeneous_hbm2",
    "fig7_heterogeneous_ddr4",
    "fig8_heterogeneous_hbm2",
    "fig9_gpu_comparison",
    "render_speedup_rows",
    "generate_report",
    "BudgetPoint",
    "budget_sweep",
    "resize_for_budget",
    "Table1Row",
    "render_table1",
    "render_table2",
    "table1",
    "table2",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "figures": (
            "GEOMEAN",
            "DSEPoint",
            "PerfPerWattRow",
            "SpeedupRow",
            "fig4_both_models",
            "fig4_design_space",
            "fig5_homogeneous_ddr4",
            "fig6_homogeneous_hbm2",
            "fig7_heterogeneous_ddr4",
            "fig8_heterogeneous_hbm2",
            "fig9_gpu_comparison",
            "render_speedup_rows",
        ),
        "report": ("generate_report",),
        "scaling": ("BudgetPoint", "budget_sweep", "resize_for_budget"),
        "tables": ("Table1Row", "render_table1", "render_table2", "table1", "table2"),
    },
)
