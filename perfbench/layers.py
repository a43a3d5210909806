"""Per-layer metrics of a traced phase, each named after its module.

Times, calls and counts are per operation of the traced window (one
sweep for local-cold, one client operation for served-read,
one launch for fleet-launch), so a run that completes more operations
does not read as a slower layer.  Every workload reports every name;
a layer the workload does not reach reads 0.  The names, units and
directions are BENCHMARK.json's ``per_layer`` list; the README maps
each metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics

from spans import summarize

_CLIENT_CALLS = ("submit_job", "stream_job", "page", "query")
_FLEET_PHASES = {
    "fleet.lease_wait_ms": "lease-wait",
    "fleet.worker_eval_ms": "worker-eval",
    "fleet.upload_ms": "upload",
    "fleet.ack_ms": "ack-turnaround",
}


def _family(snapshot: dict, kind: str, name: str) -> list[dict]:
    return snapshot.get(kind, {}).get(name, [])


def compute(trace: dict, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric, by name, from one traced phase's raw inputs."""
    window = tuple(trace["window"])
    ops = max(1, trace["ops"])
    bench = summarize(trace["bench"], window)
    dumps = trace.get("dumps", [])
    summaries = [bench] + [summarize(dump, window) for dump in dumps]

    def spans(name: str, field: str) -> float:
        return sum(s["layers"].get(name, {}).get(field, 0.0) for s in summaries)

    def self_ms(*names: str) -> float:
        return sum(spans(name, "self_s") for name in names) * 1e3 / ops

    def counted(name: str) -> float:
        return sum(s["counts"].get(name, 0) for s in summaries) / ops

    # Sums over samples that a workload may not produce start at 0.
    accumulated = ("jobs.queue_wait_ms", "jobs.evaluate_ms", "journal.write_ms")
    accumulated += ("journal.writes", "fleet.requeues", "wire.overhead_ms")
    values = {name: 0.0 for name in accumulated + tuple(_FLEET_PHASES)}
    values.update(
        {
            "spec.build_ms": self_ms("spec.build"),
            "spec.hash_ms": self_ms("spec.hash"),
            "spec.hash_calls": spans("spec.hash", "calls") / ops,
            "lowered.lower_ms": self_ms("lowered.lower"),
            "lowered.lower_calls": spans("lowered.lower", "calls") / ops,
            "lowered.kernel_ms": self_ms("lowered.kernel"),
            "lowered.kernel_points": counted("lowered.kernel_points"),
            "evaluate.self_ms": self_ms("evaluate.points"),
            "evaluate.scalar_ms": self_ms("evaluate.scalar"),
            "engine.self_ms": self_ms("engine.iter_sweep", "engine.run_sweep"),
            "store.append_ms": self_ms("store.append"),
            "store.appends": counted("store.appends"),
            "store.records_for_ms": self_ms("store.records_for"),
            "store.page_ms": self_ms("store.page"),
            "store.bytes_written": trace.get("store_bytes", 0) / ops,
            "queries.run_ms": self_ms("queries.run"),
            "server.submit_ms": self_ms("server.submit"),
            "server.stream_ms": self_ms("server.stream"),
            "server.page_ms": self_ms("server.page"),
            "server.self_ms": self_ms("server.handler"),
        }
    )
    for call in _CLIENT_CALLS:
        total_ms = spans(f"client.{call}", "total_s") * 1e3
        values[f"client.call_ms.{call}"] = total_ms / ops
    # This process's client call time minus the server's handler time
    # over the same window: in the served workloads every request the
    # server handles in the window comes from these clients.
    client_s = sum(
        bench["layers"].get(f"client.{call}", {}).get("total_s", 0.0)
        for call in _CLIENT_CALLS
    )
    if client_s:
        handler_s = spans("server.handler", "total_s")
        values["wire.overhead_ms"] = (client_s - handler_s) * 1e3 / ops

    lowered = [trace["lowered_cache"]] if "lowered_cache" in trace else []
    lowered += [dump["lowered_cache"] for dump in dumps if "lowered_cache" in dump]
    hits = sum(c["hits"] for c in lowered)
    lookups = hits + sum(c["misses"] for c in lowered)
    values["evaluate.lowered_hit_ratio"] = hits / lookups if lookups else 0.0

    tiers = _tiers(trace, dumps)
    for tier in ("memo", "store", "evaluated"):
        values[f"engine.{tier}_points"] = tiers.get(tier, 0) / ops

    for job in trace.get("jobs", []):
        if job.get("kind") != "sweep":
            continue
        for phase in (job.get("timings") or {}).get("phases", []):
            if phase["phase"] == "queue-wait":
                values["jobs.queue_wait_ms"] += phase["seconds"] * 1e3 / ops
            elif phase["phase"] == "evaluate":
                values["jobs.evaluate_ms"] += phase["seconds"] * 1e3 / ops

    caches = trace.get("caches", [])
    hits = sum(cache.get("hits", 0) for cache in caches)
    lookups = hits + sum(cache.get("misses", 0) for cache in caches)
    values["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    for name in ("evictions", "invalidations"):
        values[f"cache.{name}"] = sum(cache.get(name, 0) for cache in caches) / ops

    for dump in dumps:
        registry = dump.get("registry", {})
        for sample in _family(registry, "histograms", "repro_journal_write_seconds"):
            values["journal.write_ms"] += sample["sum"] * 1e3 / ops
            values["journal.writes"] += sample["count"] / ops
        phases = _family(registry, "histograms", "repro_fleet_chunk_phase_seconds")
        for sample in phases:
            for metric, phase in _FLEET_PHASES.items():
                if sample["labels"].get("phase") == phase:
                    values[metric] += sample["sum"] * 1e3 / ops
        for sample in _family(registry, "counters", "repro_fleet_requeues_total"):
            values["fleet.requeues"] += sample["value"] / ops

    starts = []
    for dump in dumps:
        marks = dump.get("marks", {})
        if marks.get("client.submit_job"):
            submitted = marks["client.submit_job"][0]
            starts += [t - submitted for t in marks.get("fleet.first_lease", [])]
    values["proc.start_s"] = statistics.median(starts) if starts else 0.0

    residual = sum(extent - covered for extent, covered in bench["roots"])
    values["other.self_ms"] = residual * 1e3 / ops
    values["trace.overhead_pct"] = overhead_pct
    return values


def _tiers(trace: dict, dumps: list[dict]) -> dict[str, float]:
    """Points per engine tier: this process's delta plus every server's."""
    before = trace.get("tiers_before", {})
    tiers = {
        tier: value - before.get(tier, 0)
        for tier, value in trace.get("tiers_after", {}).items()
    }
    for dump in dumps:
        registry = dump.get("registry", {})
        for sample in _family(registry, "counters", "repro_eval_points_total"):
            tier = sample["labels"].get("tier")
            tiers[tier] = tiers.get(tier, 0) + sample["value"]
    return tiers
