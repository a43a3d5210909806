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

Work is done once per distinct input.  A lowering has two halves:
GEMM shapes (:func:`gemm_shapes`), which depend on the layers and the
batch, and per-layer bitwidths (:func:`layer_bitwidths`), which depend
on the layers and the policy; :func:`assemble_lowered` joins them into
the bitwidth arrays and byte counts.  :func:`lower_network` runs all
three on one network, and the DSE's
:func:`~repro.dse.evaluate.lowered_for` caches the halves separately,
so a sweep walks each workload's layers once per distinct batch plus
once per distinct policy.  The spec-derived tables, buffer partitions
and per-GEMM cycles and traffic run once per distinct spec of a pass,
over the GEMMs of the networks that spec's points run.

One pass, many networks: :func:`evaluate_lowered_groups` evaluates
every ``(lowered, targets)`` group of a chunk in a single array pass
(:func:`evaluate_lowered_many` is its one-network case).  The GEMM
columns of every (network, spec) pair a point runs are concatenated,
layer sums come from ``np.add.reduceat`` over the shifted layer
offsets, and each point gathers its own network's layers.  Per-layer
terms and integer totals are computed over the points' real layers
only.  The float energies are summed from a zero-padded (max-layers x
points) matrix, where layers past a point's network end hold ``+0.0``.
That padding is exact: ``sequential_sum``'s running total starts at
``+0.0`` and so can never be ``-0.0`` (``+0.0 + -0.0 == +0.0``, and
terms that cancel round to ``+0.0``), and ``x + 0.0`` is ``x`` for
every ``x`` other than ``-0.0``, so trailing zero layers change no
total.  Every real element sees the same operation, in the same order
and dtype, as in a one-network pass, so records do not depend on how a
chunk groups its points.  Only (spec, GEMM) pairs some point runs are
evaluated, so a spec that cannot run a network's bitwidths raises the
scalar path's error only when one of its points runs that network.
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
    "gemm_shapes",
    "layer_bitwidths",
    "assemble_lowered",
    "compute_cycles_batch",
    "traffic_batch",
    "evaluate_lowered",
    "evaluate_lowered_many",
    "evaluate_lowered_groups",
]


#: One design point's hardware: a (platform, memory) pair.
Target = tuple[AcceleratorSpec, MemorySpec]


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
    """The bitwidth-free half of a lowering: per-GEMM shape columns.

    ``layer_index[l]`` is the position, in the network's ``layers``, of
    simulatable layer ``l``.
    """

    network_name: str
    batch: int
    layer_names: tuple[str, ...]
    layer_index: np.ndarray
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


class _LayerBitwidths(NamedTuple):
    """The shape-free half of a lowering: every layer's operand widths.

    One entry per layer of the network's ``layers``, weighted or not, so
    a (workload, policy) pair has one value at every batch.
    """

    activations: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=128)
def _gemm_shapes(name: str, batch: int, layers: tuple[Layer, ...]) -> _GemmShapes:
    """GEMM shape columns of ``layers`` at ``batch``, shared by every policy.

    Layers are frozen and hashable, so ``(name, batch, layers)``
    identifies the shapes; a sweep's bitwidth policies over one
    (workload, batch) then walk the layers once.  Bounded: sweeps touch
    a few dozen (workload, batch) pairs.
    """
    layer_names: list[str] = []
    positions: list[int] = []
    offsets: list[int] = []
    rows: list[tuple[int, int, int, int, int, int]] = []
    for position, layer in enumerate(layers):
        gemms = layer.gemms(batch)
        if not gemms:
            continue
        layer_names.append(layer.name)
        positions.append(position)
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
        network_name=name,
        batch=batch,
        layer_names=tuple(layer_names),
        layer_index=_frozen(np.array(positions, dtype=np.intp)),
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


def gemm_shapes(network: Network) -> _GemmShapes:
    """The shape half of :func:`lower_network`, cached by name, batch, layers."""
    return _gemm_shapes(network.name, network.batch, tuple(network.layers))


def layer_bitwidths(network: Network) -> _LayerBitwidths:
    """The bitwidth half of :func:`lower_network`: one entry per layer."""
    widths = [network.bitwidth(layer.name) for layer in network.layers]
    return _LayerBitwidths(
        activations=_frozen(np.array([bw.activations for bw in widths], np.int64)),
        weights=_frozen(np.array([bw.weights for bw in widths], np.int64)),
    )


def assemble_lowered(shapes: _GemmShapes, bitwidths: _LayerBitwidths) -> LoweredNetwork:
    """A :class:`LoweredNetwork` from its shape and bitwidth halves.

    The halves may come from two builds of one workload -- one at the
    batch, one with the policy applied -- because a workload's layer
    list does not depend on its batch.  Raises
    :func:`~repro.sim.simulator.simulate_network`'s ``ValueError`` for a
    network with nothing to simulate.
    """
    if not shapes.layer_names:
        raise ValueError(f"{shapes.network_name} has no simulatable layers")
    layer_bw_act = _frozen(bitwidths.activations[shapes.layer_index])
    layer_bw_w = _frozen(bitwidths.weights[shapes.layer_index])
    bw_act = np.repeat(layer_bw_act, shapes.layer_sizes)
    bw_w = np.repeat(layer_bw_w, shapes.layer_sizes)
    return LoweredNetwork(
        network_name=shapes.network_name,
        batch=shapes.batch,
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
        layer_bw_act=layer_bw_act,
        layer_bw_w=layer_bw_w,
    )


def lower_network(network: Network) -> LoweredNetwork:
    """Lower every weighted layer of ``network`` to flat GEMM descriptors.

    Mirrors :func:`~repro.sim.simulator.simulate_network`'s layer walk:
    compute-free layers are skipped, and a network with nothing to
    simulate raises the same ``ValueError``.  The shape columns come
    from a cache keyed by ``(name, batch, layers)``; only the bitwidth
    arrays and byte counts are built per call.
    """
    return assemble_lowered(gemm_shapes(network), layer_bitwidths(network))


# ----------------------------------------------------------------------
# Vectorized kernels (one element per (spec, GEMM) pair a pass runs)
# ----------------------------------------------------------------------
class _Columns(NamedTuple):
    """The per-GEMM columns the kernels read, gathered for one pass.

    :class:`LoweredNetwork` carries the same attributes, so a lone
    network is its own column set.
    """

    m: np.ndarray
    k: np.ndarray
    n: np.ndarray
    count: np.ndarray
    bw_act: np.ndarray
    bw_w: np.ndarray
    weight_bytes: np.ndarray
    input_bytes: np.ndarray
    output_bytes: np.ndarray
    macs: np.ndarray


def _compute_cycles(
    gemms: _Columns | LoweredNetwork,
    specs: Sequence[AcceleratorSpec],
    rows: np.ndarray,
    mult: np.ndarray,
) -> np.ndarray:
    """Best-factorisation compute cycles of GEMM ``i`` on ``specs[rows[i]]``.

    ``mult[i]`` is that spec's throughput multiplier for the GEMM's
    bitwidth pair.  The scalar kernel
    (:func:`~repro.sim.performance.gemm_compute_cycles`) enumerates
    factor pairs of the multiplier per GEMM; here each distinct
    multiplier value's pairs are enumerated once across every element
    sharing it.
    """
    if not mult.all():
        # Sentinel 0: this spec cannot run that bitwidth pair.  Re-ask the
        # scalar kernel so the caller sees the exact scalar-path error.
        first = int(np.argmin(mult != 0))
        specs[rows[first]].throughput_multiplier(
            int(gemms.bw_act[first]), int(gemms.bw_w[first])
        )
        raise AssertionError("multiplier sentinel without a scalar error")
    reduction = np.array([s.reduction_lanes for s in specs], dtype=np.int64)[rows]
    cols = np.array([s.array_cols for s in specs], dtype=np.int64)[rows]
    work = gemms.count * gemms.m
    best = np.empty_like(mult)
    # Not np.unique: numpy 2 imports numpy.ma on its first call, a cost
    # every fresh process (each dse-launch shard) would pay again.
    for value in sorted(set(mult.tolist())):
        at = np.flatnonzero(mult == value)
        k, n, lanes, width = gemms.k[at], gemms.n[at], reduction[at], cols[at]
        steps = work[at]
        candidate = None
        for k_ext, n_ext in factor_pairs(int(value)):
            # Same float-divide-then-ceil as math.ceil in the scalar path.
            k_passes = np.ceil(k / (lanes * k_ext)).astype(np.int64)
            n_passes = np.ceil(n / (width * n_ext)).astype(np.int64)
            cycles = steps * k_passes * n_passes
            candidate = cycles if candidate is None else np.minimum(candidate, cycles)
        best[at] = candidate
    return best


def _traffic(
    gemms: _Columns | LoweredNetwork,
    specs: Sequence[AcceleratorSpec],
    rows: np.ndarray,
    split: BufferSplit,
) -> np.ndarray:
    """Cheapest-schedule DRAM traffic (bytes) of GEMM ``i`` on ``specs[rows[i]]``.

    All three :func:`~repro.sim.tiling.plan_traffic` schedules as array
    expressions, reduced with an elementwise min (the scalar ``min()``
    over candidates picks the same total).
    """
    partitions = [buffer_partition(spec, split) for spec in specs]
    w_buf = np.array([p[0] for p in partitions], dtype=np.int64)[rows]
    a_buf = np.array([p[1] for p in partitions], dtype=np.int64)[rows]
    acc_elems = np.array([p[2] for p in partitions], dtype=np.int64)[rows]
    tile = np.array(
        [max(1, int(math.sqrt(p[2]))) for p in partitions], dtype=np.int64
    )[rows]

    weight_bytes, input_bytes = gemms.weight_bytes, gemms.input_bytes
    output_traffic = gemms.output_bytes * gemms.count

    # Weight-stationary.
    w_passes = np.maximum(1, np.ceil(weight_bytes / w_buf).astype(np.int64))
    weight_stationary = (
        np.where(weight_bytes <= w_buf, weight_bytes, weight_bytes * gemms.count)
        + input_bytes * w_passes * gemms.count
        + output_traffic
    )

    # Activation-stationary.
    a_passes = np.maximum(1, np.ceil(input_bytes / a_buf).astype(np.int64))
    activation_stationary = (
        weight_bytes * a_passes * gemms.count
        + input_bytes * gemms.count
        + output_traffic
    )

    # Output-stationary.
    m_tile = np.minimum(gemms.m, tile)
    n_tile = np.minimum(gemms.n, np.maximum(1, acc_elems // m_tile))
    m_passes = np.ceil(gemms.m / m_tile).astype(np.int64)
    n_passes = np.ceil(gemms.n / n_tile).astype(np.int64)
    output_stationary = (
        weight_bytes * m_passes * gemms.count
        + input_bytes * n_passes * gemms.count
        + output_traffic
    )

    return np.minimum(
        np.minimum(weight_stationary, activation_stationary), output_stationary
    )


def compute_cycles_batch(
    lowered: LoweredNetwork, spec: AcceleratorSpec
) -> np.ndarray:
    """Compute cycles of every GEMM on ``spec``, shape ``(G,)``."""
    mult = spec.multiplier_table()[lowered.bw_act - 1, lowered.bw_w - 1]
    rows = np.zeros(lowered.num_gemms, dtype=np.intp)
    return _compute_cycles(lowered, (spec,), rows, mult)


def traffic_batch(
    lowered: LoweredNetwork,
    spec: AcceleratorSpec,
    split: BufferSplit = BufferSplit(),
) -> np.ndarray:
    """Cheapest-schedule traffic of every GEMM on ``spec``, shape ``(G,)``."""
    rows = np.zeros(lowered.num_gemms, dtype=np.intp)
    return _traffic(lowered, (spec,), rows, split)


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each run of ``counts`` begins."""
    return np.cumsum(counts) - counts


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    return np.arange(int(counts.sum())) + np.repeat(starts - _starts(counts), counts)


def _stacked(tables: list[np.ndarray]) -> np.ndarray:
    """Per-spec bitwidth-pair tables as one ``(S, B, B)`` array.

    Tables cover ``1..max(8, max_bitwidth)``; cut to the block they all
    share, which holds every bitwidth a layer can have.
    """
    size = min(len(table) for table in tables)
    return np.stack([table[:size, :size] for table in tables])


def evaluate_lowered_groups(
    groups: Sequence[tuple[LoweredNetwork, Sequence[Target]]],
    split: BufferSplit = BufferSplit(),
) -> list[list[dict]]:
    """Evaluate every ``(lowered, targets)`` group of a pass in one array pass.

    Returns, per group, one metrics dict per target, with exactly the
    keys -- and bit-for-bit the values -- of the scalar path's
    :class:`~repro.sim.simulator.NetworkResult`-derived record metrics.
    A spec that cannot run some bitwidth pair of a network raises the
    scalar path's ``ValueError`` only if one of its points runs that
    network.
    """
    # A pair is one distinct (network, spec object) that some point
    # runs, in group order and, within a group, by first appearance --
    # the order the sentinel check meets unsupported pairs in.
    networks = [lowered for lowered, _ in groups]
    spec_rows: dict[int, int] = {}
    specs: list[AcceleratorSpec] = []
    pair_net: list[int] = []
    pair_spec: list[int] = []
    point_pair: list[int] = []
    points: list[Target] = []
    sizes: list[int] = []
    for net, (_, targets) in enumerate(groups):
        local: dict[int, int] = {}
        for spec, memory in targets:
            pair = local.get(id(spec))
            if pair is None:
                if id(spec) not in spec_rows:
                    spec_rows[id(spec)] = len(specs)
                    specs.append(spec)
                pair = local[id(spec)] = len(pair_net)
                pair_net.append(net)
                pair_spec.append(spec_rows[id(spec)])
            point_pair.append(pair)
            points.append((spec, memory))
        sizes.append(len(targets))
    if not points:
        return [[] for _ in groups]

    # GEMM columns of every pair, concatenated: spec-only work runs once
    # per (distinct spec, GEMM of a network that spec's points run).
    pair_nets = np.array(pair_net, dtype=np.intp)
    pair_rows = np.array(pair_spec, dtype=np.intp)
    gemm_counts = np.array([n.num_gemms for n in networks], dtype=np.intp)
    layer_counts = np.array([n.num_layers for n in networks], dtype=np.intp)
    pair_gemms = gemm_counts[pair_nets]
    pair_layers = layer_counts[pair_nets]
    gemm_index = _ragged_arange(_starts(gemm_counts)[pair_nets], pair_gemms)
    gemms = _Columns._make(
        np.concatenate([getattr(n, name) for n in networks])[gemm_index]
        for name in _Columns._fields
    )
    rows = np.repeat(pair_rows, pair_gemms)
    multipliers = _stacked([s.multiplier_table() for s in specs])
    mult = multipliers[rows, gemms.bw_act - 1, gemms.bw_w - 1]
    gemm_cycles = _compute_cycles(gemms, specs, rows, mult)
    gemm_traffic = _traffic(gemms, specs, rows, split)

    # Layer sums per pair.
    layer_offsets = np.concatenate([n.layer_offsets for n in networks])
    layer_index = _ragged_arange(_starts(layer_counts)[pair_nets], pair_layers)
    offsets = layer_offsets[layer_index] + np.repeat(_starts(pair_gemms), pair_layers)
    layer_compute = np.add.reduceat(gemm_cycles, offsets)
    layer_traffic = np.add.reduceat(gemm_traffic, offsets)
    layer_macs = np.add.reduceat(gemms.macs, offsets)
    energy_tables = _stacked([s.mac_energy_table() for s in specs])
    layer_rows = np.repeat(pair_rows, pair_layers)
    layer_bw_act = np.concatenate([n.layer_bw_act for n in networks])[layer_index]
    layer_bw_w = np.concatenate([n.layer_bw_w for n in networks])[layer_index]
    layer_mac_energy = energy_tables[layer_rows, layer_bw_act - 1, layer_bw_w - 1]

    # Each point's own layers, flattened point by point: element ``r``
    # is layer ``step[r]`` of point ``owner[r]``.  Per-point values
    # reach a layer through ``owner``, so every element sees the
    # scalar per-layer expression.
    point_pairs = np.array(point_pair, dtype=np.intp)
    point_layers = pair_layers[point_pairs]
    firsts = _starts(point_layers)
    at = _ragged_arange(_starts(pair_layers)[point_pairs], point_layers)
    owner = np.repeat(np.arange(len(point_pairs)), point_layers)
    step = np.arange(len(at)) - firsts[owner]
    compute_cycles = layer_compute[at]
    traffic = layer_traffic[at]
    macs = layer_macs[at]

    which = pair_rows[point_pairs]
    bytes_per_cycle = np.array(
        [memory.bytes_per_cycle(spec.frequency_hz) for spec, memory in points]
    )
    memory_cycles = np.ceil(traffic / bytes_per_cycle[owner]).astype(np.int64)
    layer_cycles = np.maximum(compute_cycles, memory_cycles)

    sram_per_byte = np.array([s.scratchpad.energy_per_byte_pj for s in specs])[which]
    frequency = np.array([s.frequency_hz for s in specs])[which]
    uncore_w_pj = np.array([s.uncore_power_mw * 1e-3 for s in specs])[which]
    dram_pj_per_bit = np.array([memory.energy_pj_per_bit for _, memory in points])
    background_w = np.array([memory.background_power_w for _, memory in points])

    # Same operation order as simulate_layer's scalar energy accounting.
    layer_seconds = layer_cycles / frequency[owner]
    compute_energy = macs * layer_mac_energy[at]
    sram_energy = traffic * sram_per_byte[owner]
    background_energy = (background_w[owner] * layer_seconds) * 1e12
    dram_energy = (traffic * 8) * dram_pj_per_bit[owner] + background_energy
    uncore_energy = (uncore_w_pj[owner] * layer_seconds) * 1e12

    # Float energies are summed in layer order by sequential_sum over a
    # zero-padded (max layers, 4, P) matrix: a point's layers past its
    # network's end stay +0.0, which changes no total (see the module
    # docstring).  Integer totals are exact under any grouping.
    width = len(points)
    energies = np.zeros((int(point_layers.max()), 4, width))
    slots = energies.reshape(-1)
    slot = step * (4 * width) + owner
    terms = (compute_energy, sram_energy, dram_energy, uncore_energy)
    for term, values in enumerate(terms):
        slots[slot + term * width] = values
    compute_pj, sram_pj, dram_pj, uncore_pj = sequential_sum(energies)

    # Network-level aggregates, as (P,) arrays with NetworkResult's
    # operations; every GEMM takes >= 1 cycle, so total_cycles > 0.
    total_cycles = np.add.reduceat(layer_cycles, firsts)
    total_seconds = total_cycles / frequency
    total_macs = np.add.reduceat(macs, firsts)
    total_pj = compute_pj + sram_pj + dram_pj + uncore_pj
    total_j = total_pj * 1e-12
    average_power_w = total_j / total_seconds
    ops_per_second = 2.0 * total_macs / total_seconds
    memory_bound = memory_cycles > compute_cycles
    bound_cycles = np.add.reduceat(np.where(memory_bound, layer_cycles, 0), firsts)
    columns = {
        "total_cycles": total_cycles,
        "total_seconds": total_seconds,
        "total_macs": total_macs,
        "total_traffic_bytes": np.add.reduceat(traffic, firsts),
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
    metrics = [
        dict(zip(names, row))
        for row in zip(*(column.tolist() for column in columns.values()))
    ]
    ends = np.cumsum(sizes).tolist()
    return [metrics[end - size : end] for size, end in zip(sizes, ends)]


def evaluate_lowered_many(
    lowered: LoweredNetwork,
    targets: Sequence[Target],
    split: BufferSplit = BufferSplit(),
) -> list[dict]:
    """Evaluate many (platform, memory) design points against one IR."""
    return evaluate_lowered_groups(((lowered, targets),), split)[0]


def evaluate_lowered(
    lowered: LoweredNetwork,
    spec: AcceleratorSpec,
    memory: MemorySpec,
    split: BufferSplit = BufferSplit(),
) -> dict:
    """Evaluate one design point against a lowered network."""
    return evaluate_lowered_many(lowered, ((spec, memory),), split)[0]
