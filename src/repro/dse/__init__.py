"""Batched, cached design-space exploration.

The paper's evaluation is a sweep: every figure fixes a bitwidth policy
and normalizes candidate (platform, memory) pairs against a reference
across the six workloads.  This package turns that pattern into a
reusable engine:

* :mod:`~repro.dse.spec` -- declarative sweep specs (grids or explicit
  point lists) that canonicalize to stable config hashes;
* :mod:`~repro.dse.evaluate` -- one-point evaluation producing flat,
  JSON-able records, memoized per process;
* :mod:`~repro.dse.entry` -- a record's dict and its canonical JSON
  text, each derived from the other once, on first use;
* :mod:`~repro.dse.store` / :mod:`~repro.dse.sqlite_store` --
  persistent result stores keyed by config hash (append-only JSONL,
  the portable and golden format, or SQLite with indexed point lookups
  for served warm paths), picked by
  :func:`~repro.dse.store.open_store`; repeated sweeps skip finished
  points, per-shard stores merge into one (``merge``) and long-lived
  stores stay small (``compact``, optionally gzipped for JSONL).
  Retired partitioned stores convert with ``repro dse-merge
  OUT.sqlite DIR/part-*.jsonl``;
* :mod:`~repro.dse.engine` -- ``iter_sweep``: memo -> store -> simulate
  resolution streamed in completion order, one chunked kernel pass at
  a time, and ``run_sweep``, the batch API on top;
* :mod:`~repro.dse.queries` -- Pareto frontier (batch and incremental),
  top-k, geomean-speedup, accuracy-vs-performance frontiers, and
  rendering over record sets;
* :mod:`~repro.dse.policies` -- bitwidth policies as first-class sweep
  axis values: hashable :class:`~repro.dse.policies.PolicySpec`
  per-layer assignments with self-describing ``perlayer-...`` names,
  plus the quant--hardware co-exploration driver
  (:func:`~repro.dse.policies.co_explore`, ``repro quant-dse``).

Sweeps partition across machines by hash range (``SweepSpec.shard``):
every process owns a disjoint slice of config hashes, evaluates it into
its own store, and the merged union is identical to the unsharded run.

Every figure driver (:mod:`repro.experiments.figures`), the scaling
study, and the ``repro dse`` CLI subcommand run on this engine.
"""

from .._lazy import lazy_exports

__all__ = [
    "SweepRecord",
    "SweepResult",
    "RecordEntry",
    "iter_sweep",
    "run_sweep",
    "EVAL_VERSION",
    "DEFAULT_RECORD_CACHE",
    "clear_caches",
    "clear_memo",
    "evaluate_point",
    "evaluate_points",
    "lowered_for",
    "PolicyAccuracy",
    "PolicySpec",
    "co_explore",
    "policy_name",
    "sensitivity_policies",
    "QUERY_NAMES",
    "ParetoTracker",
    "accuracy_perf_frontier",
    "attach_policy_metric",
    "filter_records",
    "geomean_speedup",
    "metric",
    "pareto_frontier",
    "render_records",
    "run_query",
    "top_k",
    "GPU_NAMES",
    "MEMORY_NAMES",
    "PLATFORM_NAMES",
    "POLICY_NAMES",
    "SweepPoint",
    "SweepSpec",
    "build_network",
    "cached_network",
    "expand_grid",
    "resolve_gpu",
    "resolve_memory",
    "resolve_platform",
    "resolve_policy",
    "resolve_workload",
    "shard_index",
    "ResultStore",
    "ResultStoreBase",
    "SQLiteStore",
    "StoreWarning",
    "open_store",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": ("SweepRecord", "SweepResult", "iter_sweep", "run_sweep"),
        "entry": ("RecordEntry",),
        "evaluate": (
            "EVAL_VERSION",
            "DEFAULT_RECORD_CACHE",
            "clear_caches",
            "clear_memo",
            "evaluate_point",
            "evaluate_points",
            "lowered_for",
        ),
        "policies": (
            "PolicyAccuracy",
            "PolicySpec",
            "co_explore",
            "policy_name",
            "sensitivity_policies",
        ),
        "queries": (
            "QUERY_NAMES",
            "ParetoTracker",
            "accuracy_perf_frontier",
            "attach_policy_metric",
            "filter_records",
            "geomean_speedup",
            "metric",
            "pareto_frontier",
            "render_records",
            "run_query",
            "top_k",
        ),
        "spec": (
            "GPU_NAMES",
            "MEMORY_NAMES",
            "PLATFORM_NAMES",
            "POLICY_NAMES",
            "SweepPoint",
            "SweepSpec",
            "build_network",
            "cached_network",
            "expand_grid",
            "resolve_gpu",
            "resolve_memory",
            "resolve_platform",
            "resolve_policy",
            "resolve_workload",
            "shard_index",
        ),
        "sqlite_store": ("SQLiteStore",),
        "store": ("ResultStore", "ResultStoreBase", "StoreWarning", "open_store"),
    },
)
