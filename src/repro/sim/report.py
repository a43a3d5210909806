"""Comparison utilities: speedups, energy reductions, geometric means."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .simulator import NetworkResult, sequential_sum

__all__ = ["Comparison", "compare", "geomean", "format_table"]


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sequential_sum(math.log(v) for v in vals) / len(vals))


@dataclass(frozen=True)
class Comparison:
    """Speedup and energy reduction of a candidate over a reference run."""

    workload: str
    reference: str
    candidate: str
    speedup: float
    energy_reduction: float

    def __str__(self) -> str:
        return (
            f"{self.workload}: {self.candidate} vs {self.reference} -> "
            f"{self.speedup:.2f}x speedup, {self.energy_reduction:.2f}x energy"
        )


def compare(reference: NetworkResult, candidate: NetworkResult) -> Comparison:
    """Speedup / energy-reduction of ``candidate`` normalized to ``reference``."""
    if reference.network_name != candidate.network_name:
        raise ValueError(
            f"comparing different workloads: {reference.network_name} vs "
            f"{candidate.network_name}"
        )
    return Comparison(
        workload=reference.network_name,
        reference=f"{reference.platform_name}+{reference.memory_name}",
        candidate=f"{candidate.platform_name}+{candidate.memory_name}",
        speedup=reference.total_seconds / candidate.total_seconds,
        energy_reduction=reference.total_energy_pj / candidate.total_energy_pj,
    )


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], precision: int = 2
) -> str:
    """Render an aligned plain-text table (benchmark harness output)."""

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        (
            max(len(headers[i]), *(len(r[i]) for r in text_rows))
            if text_rows
            else len(headers[i])
        )
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
