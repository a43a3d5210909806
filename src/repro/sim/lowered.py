"""Lowered workload IR and vectorized design-point evaluation.

The analytical model is, mathematically, a closed-form expression over a
network's GEMM descriptors: per layer ``max(compute, memory)`` cycles
with bit-composable throughput multipliers, three candidate tiling
schedules, and an energy breakdown that only depends on layer-level
aggregates.  The scalar path (:func:`repro.sim.performance.simulate_layer`)
walks that expression in Python per GEMM; this module lowers a network
*once* into flat numpy arrays (:class:`LoweredNetwork`) and evaluates
whole batches of hardware design points as array expressions.

Bit-identity contract: every metric produced here is **bit-identical** to
the scalar path.  Integer cycle/traffic math is exact in ``int64``; float
energy terms are computed with the same operations, in the same order and
dtype as the scalar kernels (including their ``float``-division-then-
``ceil`` pass counts), and network-level float aggregates are added
strictly left to right in layer order, starting from ``+0.0``, by the
same :func:`~repro.sim.simulator.sequential_sum` that
:class:`~repro.sim.simulator.NetworkResult`'s properties use.  That order
is pinned rather than left to builtin ``sum()``, which compensates since
Python 3.12, so records do not depend on the interpreter.  The
golden-value tests and a byte-for-byte golden store pin this.

Work is done once per distinct input: a network's GEMM shapes once per
(workload, batch) -- each bitwidth policy adds only its bitwidth arrays
and byte counts -- and the spec-derived tables, buffer partitions and
per-GEMM cycle and traffic matrices once per distinct spec object of an
:func:`evaluate_lowered_many` call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..hw.dram import MemorySpec
from ..hw.platforms import AcceleratorSpec
from ..nn.graph import Network
from ..nn.layers import Conv2D, Layer
from .performance import factor_pairs
from .simulator import sequential_sum
from .tiling import OUTPUT_BYTES_PER_ELEMENT, BufferSplit, buffer_partition

__all__ = [
    "LoweredNetwork",
    "lower_network",
    "compute_cycles_batch",
    "traffic_batch",
    "evaluate_lowered",
    "evaluate_lowered_many",
]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class LoweredNetwork:
    """A network lowered to flat per-GEMM numpy descriptors.

    One instance captures everything the analytical model needs about a
    (workload, batch, bitwidth-policy) combination; it is hardware-free,
    so a single lowering serves every design point of a sweep.  All
    arrays are read-only ``int64``; per-GEMM arrays have length ``G``
    (GEMMs in network order), per-layer arrays length ``L`` (weighted
    layers in network order), and ``layer_offsets[l]`` is the index of
    layer ``l``'s first GEMM.
    """

    network_name: str
    batch: int
    layer_names: tuple[str, ...]
    # Per-GEMM shape descriptors.
    m: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)
    n: np.ndarray = field(repr=False)
    count: np.ndarray = field(repr=False)
    weight_elements: np.ndarray = field(repr=False)
    unique_input_elements: np.ndarray = field(repr=False)
    macs: np.ndarray = field(repr=False)
    bw_act: np.ndarray = field(repr=False)
    bw_w: np.ndarray = field(repr=False)
    # Per-GEMM derived byte counts (bitwidths already applied).
    weight_bytes: np.ndarray = field(repr=False)
    input_bytes: np.ndarray = field(repr=False)
    output_bytes: np.ndarray = field(repr=False)
    # Layer structure.
    layer_offsets: np.ndarray = field(repr=False)
    layer_bw_act: np.ndarray = field(repr=False)
    layer_bw_w: np.ndarray = field(repr=False)

    @property
    def num_gemms(self) -> int:
        return int(self.m.shape[0])

    @property
    def num_layers(self) -> int:
        return len(self.layer_names)


class _GemmShapes(NamedTuple):
    """The bitwidth-free part of a lowering: per-GEMM shape columns."""

    layer_names: tuple[str, ...]
    layer_offsets: np.ndarray
    layer_sizes: np.ndarray
    m: np.ndarray
    k: np.ndarray
    n: np.ndarray
    count: np.ndarray
    weight_elements: np.ndarray
    unique_input_elements: np.ndarray
    macs: np.ndarray
    output_bytes: np.ndarray


@functools.lru_cache(maxsize=128)
def _gemm_shapes(batch: int, layers: tuple[Layer, ...]) -> _GemmShapes:
    """GEMM shape columns of ``layers`` at ``batch``, shared by every policy.

    Layers are frozen and hashable, so ``(batch, layers)`` identifies the
    shapes; a sweep's bitwidth policies over one (workload, batch) then
    walk the layers once.  Bounded: sweeps touch a few dozen
    (workload, batch) pairs.
    """
    layer_names: list[str] = []
    offsets: list[int] = []
    rows: list[tuple[int, int, int, int, int, int]] = []
    for layer in layers:
        gemms = layer.gemms(batch)
        if not gemms:
            continue
        layer_names.append(layer.name)
        offsets.append(len(rows))
        for gemm in gemms:
            unique = (
                layer.input_elements(batch) // gemm.count
                if isinstance(layer, Conv2D)
                else gemm.m * gemm.k
            )
            rows.append(
                (gemm.m, gemm.k, gemm.n, gemm.count, gemm.weight_elements, unique)
            )

    def column(index: int) -> np.ndarray:
        return np.array([row[index] for row in rows], dtype=np.int64)

    m, k, n, count = column(0), column(1), column(2), column(3)
    layer_offsets = np.array(offsets, dtype=np.int64)
    return _GemmShapes(
        layer_names=tuple(layer_names),
        layer_offsets=_frozen(layer_offsets),
        layer_sizes=_frozen(np.diff(np.append(layer_offsets, len(rows)))),
        m=_frozen(m),
        k=_frozen(k),
        n=_frozen(n),
        count=_frozen(count),
        weight_elements=_frozen(column(4)),
        unique_input_elements=_frozen(column(5)),
        macs=_frozen(m * k * n * count),
        output_bytes=_frozen(m * n * OUTPUT_BYTES_PER_ELEMENT),
    )


def lower_network(network: Network) -> LoweredNetwork:
    """Lower every weighted layer of ``network`` to flat GEMM descriptors.

    Mirrors :func:`~repro.sim.simulator.simulate_network`'s layer walk:
    compute-free layers are skipped, and a network with nothing to
    simulate raises the same ``ValueError``.  The shape columns come
    from a cache keyed by ``(batch, layers)``; only the bitwidth arrays
    and byte counts are built per call.
    """
    shapes = _gemm_shapes(network.batch, tuple(network.layers))
    if not shapes.layer_names:
        raise ValueError(f"{network.name} has no simulatable layers")
    bitwidths = [network.bitwidth(name) for name in shapes.layer_names]
    layer_bw_act = np.array([bw.activations for bw in bitwidths], dtype=np.int64)
    layer_bw_w = np.array([bw.weights for bw in bitwidths], dtype=np.int64)
    bw_act = np.repeat(layer_bw_act, shapes.layer_sizes)
    bw_w = np.repeat(layer_bw_w, shapes.layer_sizes)
    return LoweredNetwork(
        network_name=network.name,
        batch=network.batch,
        layer_names=shapes.layer_names,
        m=shapes.m,
        k=shapes.k,
        n=shapes.n,
        count=shapes.count,
        weight_elements=shapes.weight_elements,
        unique_input_elements=shapes.unique_input_elements,
        macs=shapes.macs,
        bw_act=_frozen(bw_act),
        bw_w=_frozen(bw_w),
        # element_bytes() as an array expression: ceil(elements * bits / 8).
        weight_bytes=_frozen(-((-shapes.weight_elements * bw_w) // 8)),
        input_bytes=_frozen(-((-shapes.unique_input_elements * bw_act) // 8)),
        output_bytes=shapes.output_bytes,
        layer_offsets=shapes.layer_offsets,
        layer_bw_act=_frozen(layer_bw_act),
        layer_bw_w=_frozen(layer_bw_w),
    )


# ----------------------------------------------------------------------
# Vectorized kernels (P design points x G GEMMs)
# ----------------------------------------------------------------------
def _compute_cycles_matrix(
    lowered: LoweredNetwork, specs: Sequence[AcceleratorSpec]
) -> np.ndarray:
    """Per-GEMM best-factorisation compute cycles, shape ``(P, G)``.

    The scalar kernel (:func:`~repro.sim.performance.gemm_compute_cycles`)
    enumerates factor pairs of the throughput multiplier per GEMM; here
    each distinct multiplier value's pairs are enumerated once across all
    GEMMs (and points) sharing it.
    """
    reduction = np.array([s.reduction_lanes for s in specs], dtype=np.int64)[:, None]
    cols = np.array([s.array_cols for s in specs], dtype=np.int64)[:, None]
    mult = np.stack(
        [s.multiplier_table()[lowered.bw_act - 1, lowered.bw_w - 1] for s in specs]
    )
    if not mult.all():
        # Sentinel 0: this spec cannot run that bitwidth pair.  Re-ask the
        # scalar kernel so the caller sees the exact scalar-path error.
        point, gemm = map(int, np.argwhere(mult == 0)[0])
        specs[point].throughput_multiplier(
            int(lowered.bw_act[gemm]), int(lowered.bw_w[gemm])
        )
        raise AssertionError("multiplier sentinel without a scalar error")
    best = np.zeros_like(mult)
    for value in np.unique(mult):
        candidate = None
        for k_ext, n_ext in factor_pairs(int(value)):
            # Same float-divide-then-ceil as math.ceil in the scalar path.
            k_passes = np.ceil(lowered.k / (reduction * k_ext)).astype(np.int64)
            n_passes = np.ceil(lowered.n / (cols * n_ext)).astype(np.int64)
            cycles = lowered.count * lowered.m * k_passes * n_passes
            candidate = cycles if candidate is None else np.minimum(candidate, cycles)
        best = np.where(mult == value, candidate, best)
    return best


def _traffic_matrix(
    lowered: LoweredNetwork,
    specs: Sequence[AcceleratorSpec],
    split: BufferSplit,
) -> np.ndarray:
    """Per-GEMM cheapest-schedule DRAM traffic (bytes), shape ``(P, G)``.

    All three :func:`~repro.sim.tiling.plan_traffic` schedules as array
    expressions, reduced with an elementwise min (the scalar ``min()``
    over candidates picks the same total).
    """
    partitions = [buffer_partition(spec, split) for spec in specs]
    w_buf = np.array([p[0] for p in partitions], dtype=np.int64)[:, None]
    a_buf = np.array([p[1] for p in partitions], dtype=np.int64)[:, None]
    acc_elems = np.array([p[2] for p in partitions], dtype=np.int64)[:, None]
    tile = np.array(
        [max(1, int(math.sqrt(p[2]))) for p in partitions], dtype=np.int64
    )[:, None]

    weight_bytes, input_bytes = lowered.weight_bytes, lowered.input_bytes
    output_traffic = lowered.output_bytes * lowered.count

    # Weight-stationary.
    w_passes = np.maximum(1, np.ceil(weight_bytes / w_buf).astype(np.int64))
    weight_stationary = (
        np.where(weight_bytes <= w_buf, weight_bytes, weight_bytes * lowered.count)
        + input_bytes * w_passes * lowered.count
        + output_traffic
    )

    # Activation-stationary.
    a_passes = np.maximum(1, np.ceil(input_bytes / a_buf).astype(np.int64))
    activation_stationary = (
        weight_bytes * a_passes * lowered.count
        + input_bytes * lowered.count
        + output_traffic
    )

    # Output-stationary.
    m_tile = np.minimum(lowered.m, tile)
    n_tile = np.minimum(lowered.n, np.maximum(1, acc_elems // m_tile))
    m_passes = np.ceil(lowered.m / m_tile).astype(np.int64)
    n_passes = np.ceil(lowered.n / n_tile).astype(np.int64)
    output_stationary = (
        weight_bytes * m_passes * lowered.count
        + input_bytes * n_passes * lowered.count
        + output_traffic
    )

    return np.minimum(
        np.minimum(weight_stationary, activation_stationary), output_stationary
    )


def compute_cycles_batch(
    lowered: LoweredNetwork, spec: AcceleratorSpec
) -> np.ndarray:
    """Compute cycles of every GEMM on ``spec``, shape ``(G,)``."""
    return _compute_cycles_matrix(lowered, (spec,))[0]


def traffic_batch(
    lowered: LoweredNetwork,
    spec: AcceleratorSpec,
    split: BufferSplit = BufferSplit(),
) -> np.ndarray:
    """Cheapest-schedule traffic of every GEMM on ``spec``, shape ``(G,)``."""
    return _traffic_matrix(lowered, (spec,), split)[0]


def evaluate_lowered_many(
    lowered: LoweredNetwork,
    targets: Sequence[tuple[AcceleratorSpec, MemorySpec]],
    split: BufferSplit = BufferSplit(),
) -> list[dict]:
    """Evaluate many (platform, memory) design points against one IR.

    Returns one metrics dict per target, with exactly the keys -- and
    bit-for-bit the values -- of the scalar path's
    :class:`~repro.sim.simulator.NetworkResult`-derived record metrics.
    """
    if not targets:
        return []
    # Spec-derived work runs once per distinct spec object -- a sweep
    # chunk holds a handful of platforms -- and ``which`` gathers each
    # point's row back out.
    rows: dict[int, int] = {}
    specs: list[AcceleratorSpec] = []
    for spec, _ in targets:
        if id(spec) not in rows:
            rows[id(spec)] = len(specs)
            specs.append(spec)
    which = np.array([rows[id(spec)] for spec, _ in targets], dtype=np.intp)
    offsets = lowered.layer_offsets

    spec_cycles = _compute_cycles_matrix(lowered, specs)
    spec_traffic = _traffic_matrix(lowered, specs, split)
    compute_cycles = np.add.reduceat(spec_cycles, offsets, axis=1)[which]
    traffic = np.add.reduceat(spec_traffic, offsets, axis=1)[which]
    macs = np.add.reduceat(lowered.macs, offsets)

    bytes_per_cycle = np.array(
        [memory.bytes_per_cycle(spec.frequency_hz) for spec, memory in targets]
    )[:, None]
    memory_cycles = np.ceil(traffic / bytes_per_cycle).astype(np.int64)
    layer_cycles = np.maximum(compute_cycles, memory_cycles)

    mac_energy = np.stack(
        [
            spec.mac_energy_table()[lowered.layer_bw_act - 1, lowered.layer_bw_w - 1]
            for spec in specs
        ]
    )[which]
    sram_per_byte = np.array([s.scratchpad.energy_per_byte_pj for s in specs])[which]
    frequency = np.array([s.frequency_hz for s in specs])[which]
    uncore_w_pj = np.array([s.uncore_power_mw * 1e-3 for s in specs])[which]
    dram_pj_per_bit = np.array([memory.energy_pj_per_bit for _, memory in targets])[
        :, None
    ]
    background_w = np.array([memory.background_power_w for _, memory in targets])[
        :, None
    ]

    # Same operation order as simulate_layer's scalar energy accounting.
    layer_seconds = layer_cycles / frequency[:, None]
    compute_energy = macs * mac_energy
    sram_energy = traffic * sram_per_byte[:, None]
    dram_energy = (
        (traffic * 8) * dram_pj_per_bit + (background_w * layer_seconds) * 1e12
    )
    uncore_energy = (uncore_w_pj[:, None] * layer_seconds) * 1e12

    # Network-level aggregates, as (P,) arrays with NetworkResult's
    # operations: float energies in layer order via sequential_sum, one
    # column at a time; every GEMM takes >= 1 cycle, so total_cycles > 0.
    total_cycles = layer_cycles.sum(axis=1)
    total_seconds = total_cycles / frequency
    total_macs = int(macs.sum())
    energies = np.stack((compute_energy, sram_energy, dram_energy, uncore_energy))
    compute_pj, sram_pj, dram_pj, uncore_pj = sequential_sum(
        energies.transpose(2, 0, 1)
    )
    total_pj = compute_pj + sram_pj + dram_pj + uncore_pj
    total_j = total_pj * 1e-12
    average_power_w = total_j / total_seconds
    ops_per_second = 2.0 * total_macs / total_seconds
    memory_bound = memory_cycles > compute_cycles
    bound_cycles = np.where(memory_bound, layer_cycles, 0).sum(axis=1)
    columns = {
        "total_cycles": total_cycles,
        "total_seconds": total_seconds,
        "total_macs": np.full(len(targets), total_macs),
        "total_traffic_bytes": traffic.sum(axis=1),
        "compute_energy_pj": compute_pj,
        "sram_energy_pj": sram_pj,
        "dram_energy_pj": dram_pj,
        "uncore_energy_pj": uncore_pj,
        "total_energy_pj": total_pj,
        "total_energy_j": total_j,
        "ops_per_second": ops_per_second,
        "average_power_w": average_power_w,
        "perf_per_watt": ops_per_second / average_power_w,
        "memory_bound_fraction": bound_cycles / total_cycles,
    }
    names = tuple(columns)
    return [
        dict(zip(names, row))
        for row in zip(*(column.tolist() for column in columns.values()))
    ]


def evaluate_lowered(
    lowered: LoweredNetwork,
    spec: AcceleratorSpec,
    memory: MemorySpec,
    split: BufferSplit = BufferSplit(),
) -> dict:
    """Evaluate one design point against a lowered network."""
    return evaluate_lowered_many(lowered, ((spec, memory),), split)[0]
