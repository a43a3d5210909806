"""The three workloads.  Each is a closed loop driven from this process.

A workload function takes a :class:`Phase` (seed, seconds, a private
temp dir, the children registry, and a tracer when traced) and returns
an :class:`Outcome`: per-operation samples, the end-to-end metrics,
attempted and failed operation counts, correctness problems, and -- in
a traced phase -- the raw inputs :mod:`layers` turns into per-layer
metrics.  Output checks run after each timed operation or after the
window, never inside a timing.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import procs
from gen import LARGE_MEMORIES, SMALL_MEMORIES, WORKLOADS, Generator, zipf
from oracle import Oracle
from spans import Tracer, clock

LOCAL_EPISODE = 4  # local-cold sweeps per fresh store, memo and caches
RSS_AFTER = 12  # local-cold reads peak RSS after this many sweeps
STORED_SWEEPS = 40  # served-read: 40 x 486 points, ~19k records
READ_EPISODE_CYCLES = 2  # schedule cycles per client per served-read server
RECORD_CACHE = 12_000  # served-read's working set exceeds this cache
PAGE_LIMIT = 5_000  # ServeClient's default page size
WALK_PAGES = 2  # pages per /records walk
#: Each served-read client cycles through this fixed operation mix.
#: Which stored sweep, page start and query each step picks is the same
#: for every seed too; the seed picks the data (the stored sweeps, so
#: their records and hash order).  A seed then cannot shift the share
#: of re-submits the memo answers, or of pareto against top-k queries.
#: No usage trace exists to copy, so the mix follows what the serving
#: work in the ROADMAP targets: store-hit job records (re-submitted
#: sweeps) and ``/records`` pages.  The walks take about as much client
#: time as the sweeps; queries are the small rest.  Only client 0
#: queries (client 1 re-submits a sweep instead): a query over a store
#: larger than the cache loads the whole store, and two at once would
#: make peak RSS a race.
SCHEDULE = ("sweep", "walk", "sweep", "query", "sweep", "sweep", "walk", "sweep")
FLEET_WORKERS = 2
SETUP_PROBES = 9  # set-up time is the median of this many fresh starts
OP_TIMEOUT = 120.0
CLIENT_ERRORS = (OSError, RuntimeError, ValueError)  # ServeError is a RuntimeError


@dataclass
class Phase:
    seed: int
    seconds: float
    tmp: Path
    children: procs.Children
    tracer: Tracer | None = None

    def dump(self, name: str) -> str | None:
        """Where a traced child writes its spans (None when untraced)."""
        if self.tracer is None:
            return None
        return str(self.tmp / f"{name}.spans.json")

    def untraced(self):
        """Checks between timed operations must not count as layer time."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()


@dataclass
class Outcome:
    samples: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # wrong outputs
    errors: list[str] = field(default_factory=list)  # failed operations
    primary: list[float] = field(default_factory=list)  # primary-op seconds
    trace: dict = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _tier_counts() -> dict[str, float]:
    """``repro_eval_points_total`` by tier, from this process's registry."""
    from repro.obs.metrics import get_registry

    counters = get_registry().snapshot().get("counters", {})
    out: dict[str, float] = {}
    for sample in counters.get("repro_eval_points_total", []):
        tier = sample["labels"]["tier"]
        out[tier] = out.get(tier, 0) + sample["value"]
    return out


# ----------------------------------------------------------------------
# local-cold
# ----------------------------------------------------------------------
def local_cold(phase: Phase) -> Outcome:
    """Library ``run_sweep``, ``workers=1``, into a growing JSONL store."""
    from repro.dse import SweepSpec, clear_caches, lowered_for, open_store, run_sweep

    out = Outcome()
    for i in range(SETUP_PROBES):
        probe = phase.children.spawn(
            [
                sys.executable,
                str(procs.HERE / "boot.py"),
                "--setup-probe",
                str(phase.tmp / f"probe-{i}.jsonl"),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        text, _ = probe.communicate(timeout=OP_TIMEOUT)
        if probe.returncode != 0:
            raise RuntimeError("local set-up probe failed")
        out.add("setup_s", float(text.strip()))

    gen = Generator(phase.seed)
    oracle = Oracle(phase.seed, "local")
    # One untimed episode first: a process's first sweeps pay one-off
    # lazy set-up that no later episode sees.
    warmup = open_store(phase.tmp / "warmup.jsonl")
    for index in range(LOCAL_EPISODE):
        spec = SweepSpec.from_dict(gen.sweep("warmup", index, LARGE_MEMORIES))
        run_sweep(spec, store=warmup)
    tiers_before = _tier_counts()
    episodes: list[tuple[Path, int]] = []  # (store, records)
    episode: dict[str, dict] = {}
    store = None
    rss = None
    started = clock()
    index = 0
    while clock() < started + phase.seconds:
        if index % LOCAL_EPISODE == 0:
            if store is not None:
                episodes.append(_check_local_store(phase, store, episode, oracle))
            # A fresh store, memo and evaluation caches per episode, as a
            # new process would have: the memo never evicts and the
            # caches fill over tens of sweeps, which would otherwise slow
            # later sweeps by how many came before.  For the same reason
            # records are checked, then dropped.
            clear_caches()
            episode = {}
            store = open_store(phase.tmp / f"local-{index // LOCAL_EPISODE}.jsonl")
        spec_dict = gen.sweep("local", index, LARGE_MEMORIES)
        out.attempted += 1
        t0 = clock()
        try:
            result = run_sweep(SweepSpec.from_dict(spec_dict), store=store)
        except Exception as error:  # noqa: BLE001 - count, report, go on
            out.failed += 1
            out.errors.append(f"local sweep {index}: {type(error).__name__}: {error}")
            index += 1
            continue
        elapsed = clock() - t0
        out.primary.append(elapsed)
        out.add("cold_sweep_ms", elapsed * 1e3)
        out.add("cold_points", result.evaluated)
        records = {record["hash"]: record for record in result.records}
        with phase.untraced():
            oracle.check_sweep(index, spec_dict, records)
        episode.update(records)
        index += 1
        if index == RSS_AFTER:
            rss = procs.peak_rss_mb()
    window = (started, clock())
    if rss is None:
        rss = procs.peak_rss_mb()
    if store is not None:
        episodes.append(_check_local_store(phase, store, episode, oracle))

    swept = sum(out.samples.get("cold_sweep_ms", [])) / 1e3
    points = sum(out.samples.get("cold_points", []))
    per_record = [procs.file_bytes(path) / count for path, count in episodes if count]
    out.metrics["sweep_p50_ms"] = _median(out.samples.get("cold_sweep_ms"))
    out.metrics["records_per_s"] = points / swept if swept else 0.0
    out.metrics["peak_rss_mb"] = rss
    out.metrics["store_bytes_per_record"] = _median(per_record)
    out.samples["cold_points_per_s"] = [out.metrics["records_per_s"]]
    out.samples["store_bytes_per_record"] = per_record
    if phase.tracer is not None:
        out.trace = {
            "bench": phase.tracer.snapshot(),
            "window": window,
            "ops": out.attempted,
            "tiers_before": tiers_before,
            "tiers_after": _tier_counts(),
            "store_bytes": sum(procs.file_bytes(path) for path, _ in episodes),
            "lowered_cache": lowered_for.cache_info()._asdict(),
        }
    out.problems += oracle.problems
    return out


def _check_local_store(phase: Phase, store, records: dict, oracle: Oracle):
    """An episode's JSONL store must hold exactly what run_sweep returned;
    returns ``(path, records)`` for the bytes-per-record figure."""
    with phase.untraced():
        stored = store.records_for(sorted(records))
        if stored != records or len(store) != len(records):
            oracle.fail(f"{store.path.name}: differs from what run_sweep returned")
    return store.path, len(records)


# ----------------------------------------------------------------------
# served-read
# ----------------------------------------------------------------------
class Mix:
    """The client side of served-read: sweeps, page walks, queries.

    Both clients' samples land in one :class:`Outcome`; ``url`` moves
    to each episode's fresh server.  :meth:`attempt` counts every
    operation and every failure, which never enters a latency sample.
    """

    def __init__(self, phase: Phase, out: Outcome):
        self.phase = phase
        self.out = out
        self.url = ""
        self.lock = threading.Lock()
        self.queries: list[tuple[str, dict, list]] = []
        self.sweep_records = 0

    def attempt(self, fn, *args):
        with self.lock:
            self.out.attempted += 1
        try:
            return fn(*args)
        except CLIENT_ERRORS as error:
            with self.lock:
                self.out.failed += 1
                self.out.errors.append(f"{type(error).__name__}: {error}")
            return None

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(self.url, timeout=OP_TIMEOUT)

    def sweep(self, client, spec_dict: dict) -> dict[str, dict]:
        """Submit and stream one stored sweep; returns its records by hash."""
        t0 = clock()
        job = client.submit_job(spec_dict)
        first = None
        records = []
        for record in client.stream_job(job["job"]):
            if first is None:
                first = clock()
            records.append(record)
        elapsed = clock() - t0
        with self.lock:
            self.out.primary.append(elapsed)
            self.out.add("warm_sweep_ms", elapsed * 1e3)
            self.out.add("first_record_ms", ((first or clock()) - t0) * 1e3)
            self.sweep_records += len(records)
        return {record["hash"]: record for record in records}

    def walk(self, after: str | None, check) -> None:
        """``WALK_PAGES`` pages of ``GET /records`` on from ``after``."""
        for _ in range(WALK_PAGES):
            t0 = clock()
            if self.phase.tracer is None:
                page, cursor = procs.get_page(self.url, after, PAGE_LIMIT)
            else:
                page, cursor = self.phase.tracer.call(
                    "client.page", procs.get_page, (self.url, after, PAGE_LIMIT), {}
                )
            with self.lock:
                self.out.add("page_ms", (clock() - t0) * 1e3)
            check(after, page)
            if cursor is None:
                return
            after = cursor

    def query(self, client, rng: random.Random) -> None:
        """A seeded pareto or top-k query, optionally filtered by workload."""
        where = {"workload": rng.choice(WORKLOADS)}
        if rng.random() < 0.5:
            name, params = "pareto", {"where": where}
            t0 = clock()
            result = client.pareto(where=where)
        else:
            objective, sense = rng.choice(
                [
                    ("total_seconds", "min"),
                    ("total_energy_j", "min"),
                    ("perf_per_watt", "max"),
                ]
            )
            name, params = "top-k", {"objective": objective, "k": 10, "sense": sense}
            if rng.random() < 0.5:
                params["where"] = where
            t0 = clock()
            result = client.top_k(
                objective=objective, k=10, sense=sense, where=params.get("where")
            )
        with self.lock:
            self.out.add("query_ms", (clock() - t0) * 1e3)
            self.queries.append((name, params, result))


def _run_clients(body, count: int) -> None:
    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _check_union(url: str, records: dict[str, dict], oracle: Oracle) -> None:
    """Every ``/records`` page, walked to the end, against the store."""
    from repro.serve import ServeClient

    walked = ServeClient(url, timeout=OP_TIMEOUT).records(page_size=PAGE_LIMIT)
    if [r["hash"] for r in walked] != sorted(records):
        oracle.fail(f"/records union: {len(walked)} records, expected {len(records)}")
    elif any(records[r["hash"]] != r for r in walked):
        oracle.fail("/records union: a record differs from the store's")


def served_read(phase: Phase) -> Outcome:
    """Two readers over a pre-populated SQLite store larger than the cache.

    Fixed-work episodes, each on a fresh server, repeat until the
    clients have been active for ``phase.seconds``; the last one always
    completes.  Restarting keeps every episode's memo, cache and store
    the same size, so no metric drifts with how much a run got done.
    """
    from repro.dse import SQLiteStore, SweepSpec, clear_memo, run_query, run_sweep

    out = Outcome()
    gen = Generator(phase.seed)
    oracle = Oracle(phase.seed, "stored")
    specs = [gen.sweep("stored", k, SMALL_MEMORIES) for k in range(STORED_SWEEPS)]
    sweep_refs = []
    refs: dict[str, dict] = {}
    for k, spec_dict in enumerate(specs):
        result = run_sweep(SweepSpec.from_dict(spec_dict))
        records = {record["hash"]: record for record in result.records}
        oracle.check_sweep(k, spec_dict, records)
        sweep_refs.append(records)
        refs.update(records)
    clear_memo()
    store = phase.tmp / "read.sqlite"
    SQLiteStore(store).append(list(refs.values()))
    ordered = sorted(refs)
    bytes_before = procs.file_bytes(store)
    mix = Mix(phase, out)

    def start(name: str, dump: str | None = None) -> procs.Server:
        args = ["--store", str(store), "--record-cache", str(RECORD_CACHE)]
        args += ["--journal", str(phase.tmp / f"read-{name}.journal")]
        server = procs.Server(phase.children, args, dump=dump)
        out.add("setup_s", server.setup_s)
        return server

    def stop(server: procs.Server) -> None:
        server.shutdown()
        if server.process.returncode != 0:
            out.problems.append(f"repro serve exited {server.process.returncode}")

    def check_page(after, page):
        first = bisect.bisect_right(ordered, after)
        if [r["hash"] for r in page] != ordered[first : first + PAGE_LIMIT]:
            oracle.fail(f"/records page after {after}: wrong hashes")
        elif any(refs[r["hash"]] != r for r in page):
            oracle.fail(f"/records page after {after}: a record differs")

    def warm(client, rng):
        k = zipf(rng, STORED_SWEEPS)
        if mix.sweep(client, specs[k]) != sweep_refs[k]:
            oracle.fail(f"served stored sweep {k}: differs from the library")

    def walk(rng):
        # A random start with two full pages after it.
        span = max(1, len(ordered) - WALK_PAGES * PAGE_LIMIT)
        mix.walk(ordered[rng.randrange(span)], check_page)

    def run(episode: int) -> None:
        # The clients run in rounds: each round both start one operation
        # together, so which operations overlap is fixed by the schedule
        # instead of by how earlier latencies happened to drift.
        rounds = threading.Barrier(2)

        def reader(client_id: int) -> None:
            rng = random.Random(f"read:{episode}:{client_id}")
            client = mix.client()
            offset = client_id * len(SCHEDULE) // 2
            for step in range(READ_EPISODE_CYCLES * len(SCHEDULE)):
                op = SCHEDULE[(step + offset) % len(SCHEDULE)]
                if op == "sweep" or client_id == 1 and op == "query":
                    mix.attempt(warm, client, rng)
                elif op == "walk":
                    mix.attempt(walk, rng)
                else:
                    mix.attempt(mix.query, client, rng)
                rounds.wait(timeout=OP_TIMEOUT)

        _run_clients(reader, 2)

    # Servers that serve nothing, so set-up time has enough samples
    # however few episodes fit in the window.
    for probe in range(SETUP_PROBES):
        stop(start(f"probe-{probe}"))

    active = 0.0
    episode = 0
    window = [None, None]
    out.trace = {"dumps": [], "jobs": [], "caches": []}
    while episode == 0 or active < phase.seconds:
        dump = phase.dump(f"serve-{episode}")
        server = start(str(episode), dump)
        mix.url = server.url
        t0 = clock()
        run(episode)
        t1 = clock()
        active += t1 - t0
        window = [window[0] or t0, t1]
        out.add("peak_rss_mb", procs.peak_rss_mb(server.pid))
        if phase.tracer is not None:
            out.trace["jobs"] += server.get_json("/jobs")["jobs"]
            stats = server.get_json("/stats")
            out.trace["caches"].append(stats.get("record_cache") or {})
        if active >= phase.seconds:  # the walk is long: once per run is enough
            _check_union(server.url, refs, oracle)
        stop(server)
        if dump is not None:
            out.trace["dumps"].append(json.loads(Path(dump).read_text()))
        episode += 1
    if phase.tracer is not None:
        out.trace.update(
            bench=phase.tracer.snapshot(), window=window, ops=out.attempted
        )

    records = [refs[h] for h in ordered]
    expected: dict[str, list] = {}
    for name, params, result in mix.queries:
        key = json.dumps([name, params], sort_keys=True)
        if key not in expected:
            expected[key] = run_query(records, name, params)
        if result != expected[key]:
            oracle.fail(f"query {name} {params}: differs from repro.dse.queries")
    out.trace["store_bytes"] = procs.file_bytes(store) - bytes_before
    out.metrics["sweep_p50_ms"] = _median(out.samples.get("warm_sweep_ms"))
    # Stored-sweep records only: a page carries 5000 records to a
    # sweep's 486, so counting pages would make the figure mostly page
    # bytes.  Pages and queries still move it through the client time
    # they take.
    out.metrics["records_per_s"] = mix.sweep_records / active
    out.metrics["peak_rss_mb"] = _median(out.samples["peak_rss_mb"])
    out.metrics["store_bytes_per_record"] = procs.file_bytes(store) / len(refs)
    out.problems += oracle.problems
    return out


# ----------------------------------------------------------------------
# fleet-launch
# ----------------------------------------------------------------------
def fleet_launch(phase: Phase) -> Outcome:
    """``repro dse-launch --fleet 2`` into one SQLite store, a sweep at a time."""
    from repro.dse import SQLiteStore, SweepSpec, run_sweep

    out = Outcome()
    for _ in range(SETUP_PROBES):
        t0 = clock()
        probe = phase.children.repro(
            ["dse-launch", "--help"], stdout=subprocess.DEVNULL
        )
        if probe.wait(timeout=OP_TIMEOUT) != 0:
            raise RuntimeError("dse-launch --help failed")
        out.add("setup_s", clock() - t0)

    gen = Generator(phase.seed)
    store = phase.tmp / "F.sqlite"
    launched: list[tuple[int, dict]] = []
    dumps: list[str] = []
    started = clock()
    index = 0
    while clock() < started + phase.seconds:
        spec_dict = gen.sweep("fleet", index, SMALL_MEMORIES)
        spec_path = phase.tmp / f"fleet-{index}.json"
        spec_path.write_text(json.dumps(spec_dict))
        dump = phase.dump(f"launch-{index}")
        args = (phase, spec_path, store, dump, index)
        out.attempted += 1
        if phase.tracer is None:
            code, elapsed, peak = _launch(*args)
        else:
            code, elapsed, peak = phase.tracer.call("fleet.launch", _launch, args, {})
            dumps.append(dump)
        if code != 0:
            out.failed += 1
            out.errors.append(f"dse-launch {index} exited {code}")
        else:
            out.primary.append(elapsed)
            out.add("cold_sweep_ms", elapsed * 1e3)
            out.add("peak_rss_mb", peak)
            launched.append((index, spec_dict))
        index += 1
    window = (started, clock())

    hashes = [
        {point.config_hash() for point in SweepSpec.from_dict(spec_dict)}
        for _, spec_dict in launched
    ]
    stored = SQLiteStore(store)
    swept = sum(out.samples.get("cold_sweep_ms", [])) / 1e3
    points = sum(len(h) for h in hashes)
    out.metrics["sweep_p50_ms"] = _median(out.samples.get("cold_sweep_ms"))
    out.metrics["records_per_s"] = points / swept if swept else 0.0
    out.metrics["peak_rss_mb"] = _median(out.samples.get("peak_rss_mb"))
    out.metrics["store_bytes_per_record"] = procs.file_bytes(store) / len(stored)
    out.samples["cold_points_per_s"] = [out.metrics["records_per_s"]]
    if phase.tracer is not None:
        out.trace = {
            "bench": phase.tracer.snapshot(),
            "window": window,
            "ops": out.attempted,
            "store_bytes": procs.file_bytes(store),
            "dumps": [json.loads(Path(d).read_text()) for d in dumps],
        }
    oracle = Oracle(phase.seed, "fleet")
    for (index, spec_dict), h in zip(launched, hashes):
        records = stored.records_for(sorted(h))
        if not oracle.check_sweep(index, spec_dict, records):
            # No pinned digest covers this sweep: compare it whole with
            # the library's records for the same spec.
            library = run_sweep(SweepSpec.from_dict(spec_dict)).records
            if records != {r["hash"]: r for r in library}:
                oracle.fail(f"fleet sweep {index}: differs from the library")
    out.problems += oracle.problems
    return out


def _launch(phase: Phase, spec_path: Path, store: Path, dump, index: int):
    """One ``dse-launch``: (exit code, wall seconds, peak RSS in MB)."""
    args = ["dse-launch", "--spec", str(spec_path), "--fleet", str(FLEET_WORKERS)]
    args += ["--store", str(store)]
    t0 = clock()
    peak = 0.0
    with open(phase.tmp / f"launch-{index}.log", "wb") as log:
        process = phase.children.repro(
            args, dump=dump, stdout=subprocess.DEVNULL, stderr=log
        )
        while process.poll() is None:
            try:
                peak = max(peak, procs.peak_rss_mb(process.pid))
            except (OSError, RuntimeError):
                pass  # exited between poll() and the read
            if clock() - t0 > OP_TIMEOUT:
                process.kill()
            try:
                process.wait(timeout=0.02)
            except subprocess.TimeoutExpired:
                pass
    return process.returncode, clock() - t0, peak


WORKLOAD_FUNCTIONS = {
    "local-cold": local_cold,
    "served-read": served_read,
    "fleet-launch": fleet_launch,
}
