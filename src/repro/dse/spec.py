"""Declarative sweep specifications for the design-space-exploration engine.

A sweep is a list of :class:`SweepPoint` -- one fully-resolved
(workload, bitwidth policy, platform + memory | GPU, batch) configuration.
Points are either given explicitly or expanded from a grid over named
axes.  Every point canonicalizes to a JSON config and a stable SHA-256
hash; the hash is the key under which the engine memoizes evaluations and
the result store persists records, so the same configuration -- whether
referenced by registry name or spelled out as a custom spec -- is never
evaluated twice.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Mapping, Sequence

from ..baselines.gpu import RTX_2080_TI, GPUSpec
from ..hw.dram import DDR4, HBM2, MemorySpec
from ..hw.platforms import BITFUSION, BPVEC, TPU_LIKE, AcceleratorSpec
from ..nn.bitwidths import homogeneous_8bit, paper_heterogeneous, uniform
from ..nn.graph import Network
from ..nn.models import WORKLOAD_BUILDERS
from .policies import PERLAYER_PREFIX, PolicySpec, policy_name

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "expand_grid",
    "shard_index",
    "build_network",
    "cached_network",
    "resolve_platform",
    "resolve_memory",
    "resolve_gpu",
    "resolve_policy",
    "resolve_workload",
    "PLATFORM_NAMES",
    "MEMORY_NAMES",
    "POLICY_NAMES",
    "GPU_NAMES",
]

# ----------------------------------------------------------------------
# Registries: short names -> hardware / policy objects
# ----------------------------------------------------------------------
_PLATFORMS: dict[str, AcceleratorSpec] = {
    "tpu": TPU_LIKE,
    "tpu-like": TPU_LIKE,
    "bitfusion": BITFUSION,
    "bpvec": BPVEC,
}
_MEMORIES: dict[str, MemorySpec] = {"ddr4": DDR4, "hbm2": HBM2}
_GPUS: dict[str, GPUSpec] = {"rtx-2080-ti": RTX_2080_TI}
_POLICIES: dict[str, Callable[[Network], Network]] = {
    "homogeneous-8bit": homogeneous_8bit,
    "paper-heterogeneous": paper_heterogeneous,
}
_UNIFORM_POLICY = re.compile(r"uniform-(\d+)x(\d+)")

PLATFORM_NAMES = ("tpu", "bitfusion", "bpvec")
MEMORY_NAMES = tuple(sorted(_MEMORIES))
GPU_NAMES = tuple(sorted(_GPUS))
POLICY_NAMES = tuple(sorted(_POLICIES)) + (
    "uniform-AxW (e.g. uniform-4x8)",
    f"{PERLAYER_PREFIX}-AxW-... (e.g. {PERLAYER_PREFIX}-8x8-4x4)",
)

_WORKLOAD_KEYS = {name.lower(): name for name in WORKLOAD_BUILDERS}


def resolve_workload(name: str) -> str:
    """Canonicalize a workload name (case-insensitive)."""
    key = _WORKLOAD_KEYS.get(str(name).lower())
    if key is None:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOAD_BUILDERS)}"
        )
    return key


def build_network(workload: str, batch: int | None = None) -> Network:
    """Instantiate a registered workload (``batch=None`` = builder default)."""
    builder = WORKLOAD_BUILDERS[resolve_workload(workload)]
    return builder() if batch is None else builder(batch=batch)


@functools.lru_cache(maxsize=64)
def _weighted_layer_count(workload: str) -> int:
    """How many weighted layers a workload has (batch-independent)."""
    return len(build_network(workload).weighted_layers)


def cached_network(
    workload: str, batch: int | None = None, policy: str = "homogeneous-8bit"
) -> Network:
    """A shared, policy-applied network for a (workload, batch, policy) key.

    Evaluating a sweep rebuilds the same handful of networks thousands of
    times; this LRU hands every evaluation of one combination the same
    instance instead.  ``policy`` takes any spelling
    :func:`~repro.dse.policies.policy_name` accepts (name,
    :class:`~repro.dse.policies.PolicySpec`, dict, bare sequence).
    Treat the result as **read-only** -- callers that want to mutate
    bitwidths should go through :func:`build_network`.
    """
    return _cached_network(resolve_workload(workload), batch, policy_name(policy))


@functools.lru_cache(maxsize=256)
def _cached_network(workload: str, batch: int | None, policy: str) -> Network:
    network = build_network(workload, batch)
    resolve_policy(policy)(network)
    return network


def resolve_platform(ref: str | AcceleratorSpec | Mapping) -> AcceleratorSpec:
    """Accept a registry name, a spec, or a dict of ``AcceleratorSpec`` fields."""
    if isinstance(ref, AcceleratorSpec):
        return ref
    if isinstance(ref, Mapping):
        return AcceleratorSpec(**ref)
    spec = _PLATFORMS.get(str(ref).lower())
    if spec is None:
        raise KeyError(f"unknown platform {ref!r}; choose from {PLATFORM_NAMES}")
    return spec


def resolve_memory(ref: str | MemorySpec | Mapping) -> MemorySpec:
    if isinstance(ref, MemorySpec):
        return ref
    if isinstance(ref, Mapping):
        return MemorySpec(**ref)
    spec = _MEMORIES.get(str(ref).lower())
    if spec is None:
        raise KeyError(f"unknown memory {ref!r}; choose from {MEMORY_NAMES}")
    return spec


def resolve_gpu(ref: str | GPUSpec | Mapping) -> GPUSpec:
    if isinstance(ref, GPUSpec):
        return ref
    if isinstance(ref, Mapping):
        return GPUSpec(**ref)
    spec = _GPUS.get(str(ref).lower())
    if spec is None:
        raise KeyError(f"unknown GPU {ref!r}; choose from {GPU_NAMES}")
    return spec


def resolve_policy(
    name: "str | PolicySpec",
) -> Callable[[Network], Network]:
    """Look up a bitwidth policy by name (or :class:`PolicySpec`).

    Policies travel across process boundaries as names, never as
    callables, so ad-hoc ``uniform-AxW`` and per-layer
    ``perlayer-AxW-...`` policies stay picklable -- the per-layer name
    alone reconstructs the assignment anywhere.  The lookup is memoized:
    every sweep point validates its policy eagerly, so the engine
    resolves the same few names millions of times.
    """
    if isinstance(name, PolicySpec):
        return name
    return _resolve_policy(str(name).lower())


@functools.lru_cache(maxsize=512)
def _resolve_policy(key: str) -> Callable[[Network], Network]:
    if key in _POLICIES:
        return _POLICIES[key]
    match = _UNIFORM_POLICY.fullmatch(key)
    if match:
        act, wgt = int(match.group(1)), int(match.group(2))
        if not (1 <= act <= 8 and 1 <= wgt <= 8):
            raise KeyError(f"uniform policy bitwidths out of range: {key!r}")
        return lambda net: uniform(net, act, wgt)
    if key.startswith(PERLAYER_PREFIX):
        try:
            return PolicySpec.from_name(key)
        except ValueError as error:
            raise KeyError(str(error))
    raise KeyError(f"unknown policy {key!r}; choose from {POLICY_NAMES}")


def expand_grid(axes: Mapping[str, Sequence]) -> list[dict]:
    """Cartesian product of named axes, preserving axis and value order.

    The last axis varies fastest, matching the equivalent nested loops.
    """
    keys = list(axes)
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(axes[k] for k in keys))
    ]


def _flat_spec_dict(spec) -> dict:
    """``dataclasses.asdict`` for flat specs, without its deepcopy walk.

    Hardware specs hold only scalar fields, so a plain field read builds
    the identical dict (and the identical config hash) at a fraction of
    the cost -- config hashing used to dominate warm sweeps.
    """
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


def _spec_json(spec) -> str:
    """A hardware spec's canonical JSON, memoized on the (frozen) spec.

    The exact fragment :meth:`SweepPoint.config_hash` embeds for this
    spec -- ``_flat_spec_dict`` dumped with sorted keys and compact
    separators.  Points that share a spec object serialize it once.
    """
    cached = spec.__dict__.get("_canonical_json")
    if cached is None:
        cached = json.dumps(
            _flat_spec_dict(spec), sort_keys=True, separators=(",", ":")
        )
        object.__setattr__(spec, "_canonical_json", cached)
    return cached


#: Field types whose values, with their types, pin their JSON spelling
#: (``1`` vs ``1.0`` vs ``True``; zeros and NaN aside, see
#: :class:`_Resolver`), so a field dict made only of them can key the
#: per-call spelling cache.
_EXACT_TYPES = frozenset((str, int, float, bool, type(None)))


class _Resolver:
    """Resolve each distinct hardware spelling once per spec build.

    A sweep repeats a handful of platforms and memories across every
    point; resolving each spelling once makes those points share one
    spec object, so its memoized JSON (:func:`_spec_json`) is built
    once.  A field dict keys on its keys, values and value types:
    among same-typed values ``==`` implies the same JSON spelling
    except for ``0.0 == -0.0``, so a dict holding a value ``== 0``
    keys on its field reprs instead.  NaN equals nothing but itself,
    so a NaN spelling at worst resolves once per dict object.
    Spellings that compare equal but hash differently (``1`` vs
    ``1.0`` vs ``True``, ``0.0`` vs ``-0.0``) thus stay distinct specs.
    Names and spec objects pass straight through: registry specs are
    shared already.  One instance lives for one build, so nothing needs
    clearing.
    """

    def __init__(self, resolve: Callable[[object], object]):
        self._resolve = resolve
        self._specs: dict[tuple, object] = {}

    def __call__(self, ref):
        if type(ref) is not dict and not isinstance(ref, Mapping):
            return self._resolve(ref)
        values = tuple(ref.values())
        types = tuple(map(type, values))
        if not _EXACT_TYPES.issuperset(types):
            return self._resolve(ref)
        if 0 in values:
            key = (tuple(ref), tuple(map(repr, values)))
        else:
            key = (tuple(ref), values, types)
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = self._resolve(ref)
        return spec


def _wire_ref(ref):
    """A grid axis value as JSON: names stay names, specs become the
    flat field dicts :meth:`SweepPoint.to_dict` spells them as."""
    if isinstance(ref, Mapping):
        return dict(ref)
    if is_dataclass(ref) and not isinstance(ref, type):
        return _flat_spec_dict(ref)
    return ref


def _wire_axes(axes: dict) -> dict | None:
    """``axes`` when it survives a JSON round trip unchanged, else None.

    ``SweepSpec.grid`` is deterministic, so axes that come back from
    JSON equal to themselves rebuild the same points in the same
    order.  A value JSON would change or reject (a tuple field, NaN,
    a numpy integer) leaves explicit points as the only faithful wire
    form.
    """
    try:
        return axes if json.loads(json.dumps(axes)) == axes else None
    except (TypeError, ValueError):
        return None


@functools.lru_cache(maxsize=1024)
def _asic_hash_head(batch: int | None) -> str:
    """An ASIC config blob up to its memory spec (batch is validated)."""
    return f'{{"batch":{json.dumps(batch)},"kind":"asic","memory":'


@functools.lru_cache(maxsize=4096)
def _hash_tail(policy: str, workload: str) -> str:
    """A config blob's last two keys (both canonical strings)."""
    return (
        f',"policy":{json.dumps(policy.lower())},'
        f'"workload":{json.dumps(workload)}}}'
    )


@functools.lru_cache(maxsize=4096)
def _checked_pair(workload: str, policy: str) -> tuple[str, str]:
    """A point's canonical (workload, policy) names, validated once per pair.

    Every point of a sweep validates its policy eagerly, against its
    workload; a sweep repeats a few dozen pairs.  Errors are not
    cached, so an invalid pair raises on every point.
    """
    workload = resolve_workload(workload)
    policy = policy_name(policy)
    applier = resolve_policy(policy)
    if isinstance(applier, PolicySpec):
        # Per-layer policies are workload-shaped; catching a count
        # mismatch here turns an unusable cross-product (e.g. a
        # multi-workload grid against one workload's policy axis)
        # into an upfront error instead of a mid-sweep abort.
        count = _weighted_layer_count(workload)
        if applier.num_layers != count:
            raise ValueError(
                f"policy {policy!r} assigns {applier.num_layers} "
                f"layers but {workload} has {count} weighted layers"
            )
    return workload, policy


_HASH_BITS = 256  # SHA-256 config hashes


def shard_index(config_hash: str, count: int) -> int:
    """Which of ``count`` equal hash-range shards owns this config hash.

    The 256-bit hash space is split into ``count`` contiguous ranges;
    shard ``i`` owns ``[i * 2**256 / count, (i+1) * 2**256 / count)``.
    The mapping depends only on the hash, so independent processes agree
    on the partition without coordination, and a store merged from all
    shards of one spec contains each config exactly once.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1")
    return int(config_hash, 16) * count >> _HASH_BITS


# ----------------------------------------------------------------------
# Sweep points and specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved design point.

    Either an ASIC point (``platform`` + ``memory``) or a GPU point
    (``gpu`` + ``gpu_precision``); exactly one of the two.  ``policy``
    accepts a name, a :class:`~repro.dse.policies.PolicySpec`, a policy
    dict, or a bare per-layer sequence; whatever the spelling, it is
    canonicalized to a resolvable name string on construction, so the
    point stays hashable, picklable, and stable under JSON round-trips.
    """

    workload: str
    policy: str = "homogeneous-8bit"
    platform: AcceleratorSpec | None = None
    memory: MemorySpec | None = None
    gpu: GPUSpec | None = None
    gpu_precision: int = 8
    batch: int | None = None

    def __post_init__(self) -> None:
        workload, policy = self.workload, self.policy
        if type(workload) is not str:
            workload = resolve_workload(workload)
        if type(policy) is not str:
            policy = policy_name(policy)
        workload, policy = _checked_pair(workload, policy)
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "policy", policy)
        if self.gpu is not None:
            if self.platform is not None or self.memory is not None:
                raise ValueError("a point is either a GPU or an ASIC, not both")
            if self.gpu_precision not in (4, 8):
                raise ValueError("GPU tensor precision must be 4 or 8")
        else:
            if self.platform is None or self.memory is None:
                raise ValueError("ASIC points need both a platform and a memory")
        batch = self.batch
        if batch is not None and (
            type(batch) is bool or not isinstance(batch, int) or batch < 1
        ):
            # Only an int batch has one JSON spelling: 2.0 or true would
            # evaluate the same network as 2 or 1 under another hash.
            raise ValueError(f"batch must be None or an int >= 1, got {batch!r}")

    @property
    def kind(self) -> str:
        return "gpu" if self.gpu is not None else "asic"

    @property
    def target_name(self) -> str:
        """Display name of the hardware the point runs on."""
        return self.gpu.name if self.gpu is not None else self.platform.name

    def config(self) -> dict:
        """Canonical JSON-able description; the identity of this point."""
        cfg: dict = {
            "kind": self.kind,
            "workload": self.workload,
            "policy": self.policy.lower(),
            "batch": self.batch,
        }
        if self.gpu is not None:
            cfg["gpu"] = _flat_spec_dict(self.gpu)
            cfg["precision"] = self.gpu_precision
        else:
            cfg["platform"] = _flat_spec_dict(self.platform)
            cfg["memory"] = _flat_spec_dict(self.memory)
        return cfg

    def config_hash(self) -> str:
        """SHA-256 of the canonical config; memoized (points are frozen).

        The hashed blob is ``json.dumps(self.config(), sort_keys=True,
        separators=(",", ":"))``, spelled out here in sorted key order
        so the hardware specs contribute their memoized fragments
        instead of being re-serialized for every point.  An ASIC
        point's batch and its (policy, workload) pair contribute
        memoized fragments too: a sweep repeats a handful of each.
        """
        cached = self.__dict__.get("_config_hash")
        if cached is None:
            if self.gpu is not None:
                dumps = json.dumps
                blob = (
                    f'{{"batch":{dumps(self.batch)},"gpu":{_spec_json(self.gpu)},'
                    f'"kind":"gpu","policy":{dumps(self.policy.lower())},'
                    f'"precision":{dumps(self.gpu_precision)},'
                    f'"workload":{dumps(self.workload)}}}'
                )
            else:
                blob = (
                    f"{_asic_hash_head(self.batch)}{_spec_json(self.memory)}"
                    f',"platform":{_spec_json(self.platform)}'
                    f"{_hash_tail(self.policy, self.workload)}"
                )
            cached = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_config_hash", cached)
        return cached

    def to_dict(self) -> dict:
        """The JSON wire spelling of this point.

        Round-trips through :meth:`SweepSpec.from_dict` to an identical
        point -- same config, same hash -- so a sweep submitted to a
        remote server (``repro dse --server``) resolves against the
        server's caches exactly like a local run.  Hardware specs are
        spelled as flat field dicts, never registry names, so custom
        specs travel too.
        """
        data: dict = {"workload": self.workload, "policy": self.policy}
        if self.batch is not None:
            data["batch"] = self.batch
        if self.gpu is not None:
            data["gpu"] = _flat_spec_dict(self.gpu)
            data["precision"] = self.gpu_precision
        else:
            data["platform"] = _flat_spec_dict(self.platform)
            data["memory"] = _flat_spec_dict(self.memory)
        return data


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of sweep points.

    A spec may be empty: a fine-grained :meth:`shard` partition can
    leave a shard with no points, and such shards must still be
    representable (the engine's batch API rejects running them, the
    streaming API yields nothing).
    """

    points: tuple[SweepPoint, ...] = field(default_factory=tuple)
    #: The JSON grid a :meth:`grid` build came from, kept when
    #: ``from_dict({"grid": axes})`` rebuilds exactly these points in
    #: this order; :meth:`to_dict` then ships the axes, not every point.
    #: Derived specs (shards, chunks) hold explicit points only.
    axes: Mapping | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def shard(self, index: int, count: int) -> "SweepSpec":
        """The sub-spec owned by hash-range shard ``index`` of ``count``.

        Points are partitioned by :func:`shard_index` over their config
        hashes: shards are disjoint, their union is the spec, and the
        assignment is stable across processes and machines -- run each
        shard wherever you like, then :meth:`ResultStore.merge
        <repro.dse.store.ResultStore.merge>` the per-shard stores.
        Relative point order is preserved within a shard.
        """
        if count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= index < count:
            raise ValueError(f"shard index must be in [0, {count}), got {index}")
        return SweepSpec(
            points=tuple(
                point
                for point in self.points
                if shard_index(point.config_hash(), count) == index
            )
        )

    def chunks(self, count: int) -> "list[tuple[int, SweepSpec]]":
        """The non-empty hash-range chunks of a ``count``-way partition.

        The same partition :meth:`shard` defines -- ``(i, sub)`` pairs
        where ``sub == self.shard(i, count)`` -- computed in one pass
        and with empty shards dropped, so a lease queue (the elastic
        worker fleet in :mod:`repro.serve.fleet`) never hands out
        no-op work units.  Chunks are disjoint, their union is the
        spec, and the chunk index is stable across processes, so a
        chunk re-executed after a lost lease lands on exactly the same
        points.
        """
        if count < 1:
            raise ValueError("chunk count must be >= 1")
        buckets: dict[int, list[SweepPoint]] = {}
        for point in self.points:
            index = shard_index(point.config_hash(), count)
            buckets.setdefault(index, []).append(point)
        return [
            (index, SweepSpec(points=tuple(points)))
            for index, points in sorted(buckets.items())
        ]

    @classmethod
    def grid(
        cls,
        workloads: Sequence[str],
        platforms: Sequence = PLATFORM_NAMES,
        memories: Sequence = MEMORY_NAMES,
        policies: Sequence[str] = ("homogeneous-8bit",),
        batches: Sequence[int | None] = (None,),
        gpus: Sequence = (),
        gpu_precisions: Sequence[int] = (8,),
    ) -> "SweepSpec":
        """Expand a grid over the named axes into explicit points.

        The spec also keeps the axes, as JSON, for :meth:`to_dict`.
        """
        platform, memory = _Resolver(resolve_platform), _Resolver(resolve_memory)
        gpu_spec = _Resolver(resolve_gpu)
        points = []
        for cell in expand_grid(
            {
                "workload": list(workloads),
                "policy": list(policies),
                "batch": list(batches),
            }
        ):
            for plat in platforms:
                for mem in memories:
                    points.append(
                        SweepPoint(
                            platform=platform(plat),
                            memory=memory(mem),
                            **cell,
                        )
                    )
            for gpu in gpus:
                for precision in gpu_precisions:
                    points.append(
                        SweepPoint(
                            gpu=gpu_spec(gpu), gpu_precision=precision, **cell
                        )
                    )
        axes = _wire_axes(
            {
                "workloads": list(workloads),
                "platforms": [_wire_ref(ref) for ref in platforms],
                "memories": [_wire_ref(ref) for ref in memories],
                "policies": [policy_name(ref) for ref in policies],
                "batches": list(batches),
                "gpus": [_wire_ref(ref) for ref in gpus],
                "gpu_precisions": list(gpu_precisions),
            }
        )
        return cls(points=tuple(points), axes=axes)

    def to_dict(self) -> dict:
        """The JSON wire spelling: the grid it was built from, or points.

        ``SweepSpec.from_dict(spec.to_dict())`` rebuilds an identical
        spec: same points, same order, same config hashes.  A
        :meth:`grid` build ships its axes (a few hundred bytes however
        many points they expand to); any other spec ships explicit
        points.  This is the payload format of ``POST /sweep`` and of
        the spec file ``repro dse-launch --print-cmds`` writes for an
        inline grid.
        """
        if self.axes is not None:
            return {"grid": dict(self.axes)}
        return {"points": [point.to_dict() for point in self.points]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        """Parse the JSON sweep-spec format (see README, "Sweep specs").

        Either ``{"grid": {...axes...}}`` or ``{"points": [{...}, ...]}``.
        """
        if "points" in data:
            platform, memory = _Resolver(resolve_platform), _Resolver(resolve_memory)
            gpu = _Resolver(resolve_gpu)
            return cls(
                points=tuple(
                    cls._point_from_dict(p, platform, memory, gpu)
                    for p in data["points"]
                )
            )
        if "grid" in data:
            grid = dict(data["grid"])
            if "workloads" not in grid:
                raise ValueError('sweep grid needs a "workloads" axis')
            return cls.grid(
                workloads=grid["workloads"],
                platforms=grid.get(
                    "platforms", PLATFORM_NAMES if not grid.get("gpus") else ()
                ),
                memories=grid.get("memories", MEMORY_NAMES),
                policies=grid.get("policies", ("homogeneous-8bit",)),
                batches=grid.get("batches", (None,)),
                gpus=grid.get("gpus", ()),
                gpu_precisions=grid.get("gpu_precisions", (8,)),
            )
        raise ValueError('sweep spec needs either a "grid" or a "points" key')

    @staticmethod
    def _point_from_dict(
        data: Mapping, platform: _Resolver, memory: _Resolver, gpu: _Resolver
    ) -> SweepPoint:
        kwargs: dict = {
            "workload": data["workload"],
            "policy": data.get("policy", "homogeneous-8bit"),
            "batch": data.get("batch"),
        }
        if "gpu" in data:
            kwargs["gpu"] = gpu(data["gpu"])
            kwargs["gpu_precision"] = data.get("precision", 8)
        else:
            kwargs["platform"] = platform(data["platform"])
            kwargs["memory"] = memory(data["memory"])
        return SweepPoint(**kwargs)
