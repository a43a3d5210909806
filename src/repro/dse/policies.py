"""Bitwidth policies as first-class sweep-axis values.

The paper's core claim is that bit-parallel vector composability lets
the *same* datapath serve many bitwidth mixes, so the interesting design
question is joint: which bitwidth policy on which hardware point.  This
module makes arbitrary per-layer assignments sweepable:

* :class:`PolicySpec` -- a named, hashable per-layer bitwidth
  assignment.  Its identity is the **canonical name**
  ``perlayer-AxW-AxW-...`` (one ``activations x weights`` pair per
  weighted layer, in network order), which is self-describing: any
  process can rebuild the policy from the name alone, so specs travel
  across worker pools, result stores, and sweep-spec JSON as plain
  strings resolvable by :func:`~repro.dse.spec.resolve_policy`.
* :func:`sensitivity_policies` -- runs the greedy bitwidth search of
  :func:`repro.quant.sensitivity.assign_bitwidths` under a ladder of
  accuracy-drop budgets and returns one accuracy-annotated policy per
  budget (plus the all-``ladder[0]`` baseline).
* :func:`co_explore` -- the quant--hardware co-exploration driver behind
  ``repro quant-dse``: sensitivity search -> policy axis -> hardware
  sweep -> accuracy-vs-performance Pareto frontier.

Because canonical names feed the same ``(workload, batch, policy)``
grouping key as the built-in named policies, generated policies reuse
the lowered-IR vectorized fast path bit-identically to the scalar path.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..nn.graph import LayerBitwidth, Network

__all__ = [
    "PERLAYER_PREFIX",
    "MAX_PROXY_LAYERS",
    "PolicySpec",
    "policy_name",
    "PolicyAccuracy",
    "sensitivity_policies",
    "CoExploreResult",
    "co_explore",
]

PERLAYER_PREFIX = "perlayer"
_PERLAYER_NAME = re.compile(r"perlayer((?:-\d+x\d+)+)")
_PAIR = re.compile(r"(\d+)x(\d+)")

_MIN_BITS, _MAX_BITS = 1, 8  # LayerBitwidth's supported range


def _normalize_layers(layers) -> tuple[tuple[int, int], ...]:
    """Canonicalize any sequence of per-layer bitwidths.

    Accepts pairs (``(act, wgt)`` tuples *or* lists -- JSON round-trips
    turn tuples into lists) and bare ints (both operands at that width,
    the shape :func:`~repro.quant.sensitivity.assign_bitwidths` emits).
    Everything lands as a tuple of ``(int, int)`` tuples, so two specs
    describing the same assignment are equal, hash alike, and produce
    the same canonical name no matter which container spelled them.
    """
    normalized = []
    for entry in layers:
        if isinstance(entry, int):
            pair = (int(entry), int(entry))  # int(): bools render as 1, not True
        else:
            pair = tuple(int(bits) for bits in entry)
            if len(pair) != 2:
                raise ValueError(
                    f"per-layer entry must be a bitwidth or an "
                    f"(activations, weights) pair, got {entry!r}"
                )
        for bits in pair:
            if not _MIN_BITS <= bits <= _MAX_BITS:
                raise ValueError(
                    f"bitwidth {bits} outside supported range "
                    f"[{_MIN_BITS}, {_MAX_BITS}]"
                )
        normalized.append(pair)
    if not normalized:
        raise ValueError("a per-layer policy needs at least one layer")
    return tuple(normalized)


@dataclass(frozen=True)
class PolicySpec:
    """A named, hashable per-layer bitwidth assignment.

    ``layers`` holds one ``(activations, weights)`` pair per weighted
    layer, in network order; it is canonicalized on construction (lists
    become tuples, bare ints become symmetric pairs), so specs built
    from JSON round-trip bit-identically.  ``label`` is display-only
    metadata -- identity is :attr:`name`, the canonical
    ``perlayer-AxW-...`` string, which alone determines the sweep-point
    config hash.
    """

    layers: tuple[tuple[int, int], ...]
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", _normalize_layers(self.layers))

    @property
    def name(self) -> str:
        """Canonical, self-describing policy name (the spec's identity)."""
        pairs = "-".join(f"{act}x{wgt}" for act, wgt in self.layers)
        return f"{PERLAYER_PREFIX}-{pairs}"

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def average_bits(self) -> float:
        """Unweighted mean operand bitwidth across layers."""
        return sum(act + wgt for act, wgt in self.layers) / (2 * len(self.layers))

    @classmethod
    def from_name(cls, name: str, label: str | None = None) -> "PolicySpec":
        """Parse a canonical ``perlayer-AxW-...`` name back into a spec."""
        match = _PERLAYER_NAME.fullmatch(str(name).strip().lower())
        if not match:
            raise ValueError(
                f"not a per-layer policy name: {name!r} "
                f"(expected e.g. '{PERLAYER_PREFIX}-8x8-4x4')"
            )
        layers = [(int(act), int(wgt)) for act, wgt in _PAIR.findall(match.group(1))]
        return cls(layers=tuple(layers), label=label)

    @classmethod
    def from_assignment(
        cls,
        bits_per_layer: Sequence[int],
        bits_activations: Sequence[int] | None = None,
        label: str | None = None,
    ) -> "PolicySpec":
        """Build a spec from ``assign_bitwidths``-style per-layer ints.

        ``bits_per_layer`` sets the weight widths; activations default
        to the same widths (the symmetric regime the sensitivity search
        explores) unless given separately.
        """
        weights = list(bits_per_layer)
        acts = weights if bits_activations is None else list(bits_activations)
        if len(acts) != len(weights):
            raise ValueError(
                f"need one activation width per layer: got {len(acts)} "
                f"for {len(weights)} layers"
            )
        return cls(layers=tuple(zip(acts, weights)), label=label)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PolicySpec":
        """Parse the JSON policy format: ``{"layers": [[a, w], ...]}``.

        JSON has no tuples, so ``layers`` arrives as nested lists;
        construction canonicalizes them back to tuples, keeping the
        reloaded spec equal (and equal-hashing) to the original.
        """
        if "layers" not in data:
            raise ValueError('policy dict needs a "layers" key')
        return cls(layers=data["layers"], label=data.get("label"))

    def to_dict(self) -> dict:
        """JSON-able form; ``from_dict`` round-trips it."""
        payload: dict = {"layers": [list(pair) for pair in self.layers]}
        if self.label is not None:
            payload["label"] = self.label
        return payload

    def apply(self, network: Network) -> Network:
        """Assign this policy to ``network``'s weighted layers, in order."""
        weighted = network.weighted_layers
        if len(weighted) != len(self.layers):
            raise ValueError(
                f"policy {self.name!r} assigns {len(self.layers)} layers "
                f"but {network.name} has {len(weighted)} weighted layers"
            )
        return network.set_bitwidths(
            {
                layer.name: LayerBitwidth(activations=act, weights=wgt)
                for layer, (act, wgt) in zip(weighted, self.layers)
            }
        )

    def __call__(self, network: Network) -> Network:
        # Policies are applied as callables by the sweep machinery.
        return self.apply(network)


def policy_name(ref) -> str:
    """Canonical policy-axis value: always a resolvable name string.

    Accepts a name string, a :class:`PolicySpec`, a policy dict
    (``{"layers": ...}``), or a bare per-layer sequence.  Per-layer
    name strings are re-canonicalized through :class:`PolicySpec`, so
    non-canonical spellings (``perlayer-08x8``) share the canonical
    spelling's config hash; other names are lowercased unvalidated --
    the sweep point validates eagerly.
    """
    if isinstance(ref, PolicySpec):
        return ref.name
    if isinstance(ref, str):
        return _string_policy_name(ref)
    if isinstance(ref, Mapping):
        return PolicySpec.from_dict(ref).name
    if isinstance(ref, Sequence):
        return PolicySpec(layers=ref).name
    raise TypeError(
        f"cannot interpret {ref!r} as a bitwidth policy; pass a name, "
        f"a PolicySpec, a policy dict, or a per-layer sequence"
    )


@functools.lru_cache(maxsize=4096)
def _string_policy_name(ref: str) -> str:
    # Memoized: every sweep point canonicalizes its policy name, and a
    # per-layer name re-parses through PolicySpec each time otherwise.
    name = ref.lower()
    if name.startswith(PERLAYER_PREFIX):
        return PolicySpec.from_name(name).name
    return name


# ----------------------------------------------------------------------
# Quant--hardware co-exploration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicyAccuracy:
    """One searched policy with the accuracy that justified it."""

    policy: str  # canonical name (the sweep-axis value)
    label: str
    max_drop: float
    accuracy: float
    float_accuracy: float
    bits_per_layer: tuple[int, ...]
    search_steps: int

    @property
    def accuracy_drop(self) -> float:
        return self.float_accuracy - self.accuracy

    @property
    def spec(self) -> PolicySpec:
        return PolicySpec.from_name(self.policy, label=self.label)


#: Deepest proxy MLP the sensitivity search trains.  Beyond ~6 hidden
#: layers the numpy SGD proxy stops converging on two-spirals (and the
#: composed 8-bit baseline falls far below the float reference), so the
#: search would degenerate to the all-wide assignment for every budget.
#: Deeper workloads search a capped-depth proxy and stretch the result.
MAX_PROXY_LAYERS = 6


def sensitivity_policies(
    num_layers: int,
    max_drops: Sequence[float] = (0.0, 0.02, 0.05),
    ladder: tuple[int, ...] = (8, 4, 2),
    seed: int = 0,
    samples: int = 300,
    hidden: int = 16,
    epochs: int = 300,
    lr: float = 0.3,
) -> list[PolicyAccuracy]:
    """Greedy bitwidth search under a ladder of accuracy-drop budgets.

    Trains one proxy MLP on the two-spirals task (deterministic under
    ``seed``) with ``min(num_layers, MAX_PROXY_LAYERS)`` quantizable
    layers, then runs
    :func:`~repro.quant.sensitivity.assign_bitwidths` once per budget
    in ``max_drops``.  When the workload is deeper than the proxy, the
    searched per-layer assignment is stretched onto the workload's
    layers nearest-neighbor (layer ``i`` takes proxy layer
    ``i * depth // num_layers``), preserving the search's wide/narrow
    structure.  Returns the all-``ladder[0]`` baseline followed by one
    annotated policy per budget; every entry's ``policy`` is a
    canonical per-layer name directly usable as a sweep-axis value for
    any workload with ``num_layers`` weighted layers.
    """
    from ..quant.inference import MLP, make_two_spirals
    from ..quant.sensitivity import assign_bitwidths

    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if not max_drops:
        raise ValueError("need at least one accuracy-drop budget")
    depth = min(num_layers, MAX_PROXY_LAYERS)
    x, y = make_two_spirals(samples, seed=seed)
    mlp = MLP([2] + [hidden] * (depth - 1) + [2], seed=seed)
    mlp.train(x, y, epochs=epochs, lr=lr)
    float_accuracy = mlp.accuracy(x, y, backend="float")

    def stretch(bits: Sequence[int]) -> tuple[int, ...]:
        return tuple(bits[i * depth // num_layers] for i in range(num_layers))

    wide = ladder[0]
    baseline_bits = (wide,) * depth
    baseline = PolicyAccuracy(
        policy=PolicySpec.from_assignment(stretch(baseline_bits)).name,
        label=f"uniform-{wide}bit",
        max_drop=0.0,
        accuracy=mlp.accuracy(
            x,
            y,
            backend="composed",
            bits_weights=list(baseline_bits),
            bits_activations=list(baseline_bits),
        ),
        float_accuracy=float_accuracy,
        bits_per_layer=stretch(baseline_bits),
        search_steps=0,
    )

    policies = [baseline]
    for max_drop in max_drops:
        assignment = assign_bitwidths(mlp, x, y, max_drop=max_drop, ladder=ladder)
        workload_bits = stretch(assignment.bits_per_layer)
        policies.append(
            PolicyAccuracy(
                policy=PolicySpec.from_assignment(workload_bits).name,
                label=f"drop<={max_drop:g}",
                max_drop=max_drop,
                accuracy=assignment.accuracy,
                float_accuracy=assignment.float_accuracy,
                bits_per_layer=workload_bits,
                search_steps=assignment.steps,
            )
        )
    return policies


@dataclass
class CoExploreResult:
    """Outcome of one quant--hardware co-exploration run.

    Both ``records`` and ``frontier`` carry the searched accuracy as
    metric ``"accuracy"`` (joined once, copy-on-write -- the engine
    memo and the store keep the canonical evaluator records).
    """

    workload: str
    policies: list[PolicyAccuracy]
    records: list[dict] = field(repr=False)
    frontier: list[dict] = field(repr=False)
    evaluated: int
    from_store: int
    from_memo: int

    @property
    def accuracy_by_policy(self) -> dict[str, float]:
        return {p.policy: p.accuracy for p in self.policies}

    def summary(self) -> str:
        return (
            f"{self.workload}: {len(self.policies)} policies x "
            f"{len(self.records) // max(1, len(self.accuracy_by_policy))} "
            f"hardware points -> {len(self.records)} records "
            f"({self.evaluated} evaluated, {self.from_store} store hits, "
            f"{self.from_memo} memo hits); "
            f"accuracy/perf frontier keeps {len(self.frontier)}"
        )


def co_explore(
    workload: str,
    platforms: Sequence | None = None,
    memories: Sequence | None = None,
    batches: Sequence[int | None] = (None,),
    max_drops: Sequence[float] = (0.0, 0.02, 0.05),
    ladder: tuple[int, ...] = (8, 4, 2),
    seed: int = 0,
    objective: str = "total_seconds",
    sense: str = "min",
    store=None,
    vectorize: bool = True,
) -> CoExploreResult:
    """Co-explore bitwidth policies and hardware points for one workload.

    Runs :func:`sensitivity_policies` sized to the workload's weighted
    layer count, sweeps the resulting policy axis against the hardware
    grid through the cached DSE engine, and reduces the records to the
    accuracy-vs-performance Pareto frontier
    (:func:`~repro.dse.queries.accuracy_perf_frontier`).
    """
    # Local imports: the engine imports repro.dse.spec, which imports
    # this module at load time for per-layer name resolution.
    from .engine import run_sweep
    from .queries import attach_policy_metric, pareto_frontier
    from .spec import MEMORY_NAMES, PLATFORM_NAMES, SweepSpec, build_network

    network = build_network(workload)
    policies = sensitivity_policies(
        len(network.weighted_layers),
        max_drops=max_drops,
        ladder=ladder,
        seed=seed,
    )
    axis: list[str] = []
    for entry in policies:
        if entry.policy not in axis:
            axis.append(entry.policy)

    spec = SweepSpec.grid(
        workloads=(workload,),
        platforms=PLATFORM_NAMES if platforms is None else platforms,
        memories=MEMORY_NAMES if memories is None else memories,
        policies=axis,
        batches=batches,
    )
    result = run_sweep(spec, store=store, vectorize=vectorize)
    accuracy = {p.policy: p.accuracy for p in policies}
    records = attach_policy_metric(result.records, accuracy, "accuracy")
    frontier = pareto_frontier(
        records, objectives=(objective, "accuracy"), senses=(sense, "max")
    )
    return CoExploreResult(
        workload=network.name,
        policies=policies,
        records=records,
        frontier=frontier,
        evaluated=result.evaluated,
        from_store=result.from_store,
        from_memo=result.from_memo,
    )
