"""End-to-end accelerator simulation: a network on a platform + memory."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, TypeVar

from ..hw.dram import MemorySpec
from ..hw.platforms import AcceleratorSpec
from ..nn.graph import Network
from .performance import LayerResult, simulate_layer
from .tiling import BufferSplit

__all__ = ["NetworkResult", "sequential_sum", "simulate_network"]

_Summand = TypeVar("_Summand")


def sequential_sum(values: Iterable[_Summand]) -> float | _Summand:
    """Add ``values`` strictly left to right, starting from ``+0.0``.

    The one summation order every network-level float aggregate uses, so
    records do not depend on the interpreter: builtin ``sum()`` switched
    to compensated summation in Python 3.12 (``[1e16, 1.0, -1e16]`` sums
    to ``1.0`` there and to ``0.0`` here).  Starting from ``+0.0`` keeps
    ``sum()``'s result for a run of ``-0.0``.  Given numpy arrays (e.g.
    the columns of a ``(P, L)`` matrix), it adds them elementwise in the
    same order and returns the array of per-row sums.
    """
    total = 0.0
    for value in values:
        total = total + value
    return total


@dataclass(frozen=True)
class NetworkResult:
    """Aggregate simulation result for one (network, platform, memory) run."""

    network_name: str
    platform_name: str
    memory_name: str
    frequency_hz: float
    layers: tuple[LayerResult, ...] = field(repr=False)

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_seconds(self) -> float:
        return self.total_cycles / self.frequency_hz

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_traffic_bytes(self) -> int:
        return sum(layer.traffic_bytes for layer in self.layers)

    @property
    def compute_energy_pj(self) -> float:
        return sequential_sum(layer.compute_energy_pj for layer in self.layers)

    @property
    def sram_energy_pj(self) -> float:
        return sequential_sum(layer.sram_energy_pj for layer in self.layers)

    @property
    def dram_energy_pj(self) -> float:
        return sequential_sum(layer.dram_energy_pj for layer in self.layers)

    @property
    def uncore_energy_pj(self) -> float:
        return sequential_sum(layer.uncore_energy_pj for layer in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return (
            self.compute_energy_pj
            + self.sram_energy_pj
            + self.dram_energy_pj
            + self.uncore_energy_pj
        )

    @property
    def total_energy_j(self) -> float:
        return self.total_energy_pj * 1e-12

    @property
    def average_power_w(self) -> float:
        return self.total_energy_j / self.total_seconds

    @property
    def ops_per_second(self) -> float:
        """Achieved throughput, counting a MAC as two operations."""
        return 2.0 * self.total_macs / self.total_seconds

    @property
    def perf_per_watt(self) -> float:
        return self.ops_per_second / self.average_power_w

    @property
    def memory_bound_fraction(self) -> float:
        """Fraction of runtime spent in memory-bound layers."""
        bound = sum(l.cycles for l in self.layers if l.is_memory_bound)
        return bound / self.total_cycles if self.total_cycles else 0.0

    def layer(self, name: str) -> LayerResult:
        for result in self.layers:
            if result.layer_name == name:
                return result
        raise KeyError(f"no layer named {name!r} in results")

    def summary(self) -> str:
        return (
            f"{self.network_name} on {self.platform_name} + {self.memory_name}: "
            f"{self.total_seconds * 1e3:.2f} ms, "
            f"{self.total_energy_j * 1e3:.2f} mJ, "
            f"{self.ops_per_second / 1e12:.3f} TOPS, "
            f"{self.memory_bound_fraction * 100:.0f}% memory-bound"
        )


def simulate_network(
    network: Network,
    spec: AcceleratorSpec,
    memory: MemorySpec,
    split: BufferSplit = BufferSplit(),
) -> NetworkResult:
    """Simulate every weighted layer of ``network`` on ``spec`` + ``memory``."""
    results = []
    for layer in network.layers:
        result = simulate_layer(layer, network, spec, memory, split=split)
        if result is not None:
            results.append(result)
    if not results:
        raise ValueError(f"{network.name} has no simulatable layers")
    return NetworkResult(
        network_name=network.name,
        platform_name=spec.name,
        memory_name=memory.name,
        frequency_hz=spec.frequency_hz,
        layers=tuple(results),
    )
