"""Command-line interface: regenerate paper results and run custom sims.

Examples
--------
::

    python -m repro table1
    python -m repro fig5
    python -m repro simulate --model ResNet-18 --platform bpvec --memory hbm2
    python -m repro roofline --model LSTM --platform bpvec --memory ddr4
    python -m repro dse --workload LSTM --workload RNN --store results.jsonl
    python -m repro dse --spec sweep.json --format jsonl
    python -m repro dse --shard 0/2 --store shard0.jsonl --stream
    python -m repro dse --workload RNN --policy-axis policies.json
    python -m repro dse --workload LSTM --store results.sqlite --format json
    python -m repro quant-dse --workload LSTM --max-drop 0.02 --max-drop 0.05
    python -m repro dse-merge merged.jsonl shard0.jsonl shard1.jsonl
    python -m repro dse-compact merged.jsonl --gzip
    python -m repro serve --store results.sqlite --port 8000
    python -m repro dse --workload LSTM --server http://127.0.0.1:8000
    python -m repro dse --spec big.json --server http://127.0.0.1:8000 --detach
    python -m repro dse --spec big.json --server http://127.0.0.1:8000 --fleet
    python -m repro worker --server http://127.0.0.1:8000 --name box-a
    python -m repro watch http://127.0.0.1:8000 --interval 2
    python -m repro dse-launch --spec sweep.json --shards 4 --print-cmds --store m.jsonl
    python -m repro dse-launch --workload LSTM --fleet 4 --store merged.sqlite
    python -m repro chips

Every command imports only what it runs.  The top-level imports are
what :func:`build_parser` needs; each ``_run_*`` handler and each
figure or table branch imports the modules it executes, and every
package ``__init__`` re-exports its names lazily
(:func:`repro._lazy.lazy_exports`).  So ``dse-launch --fleet`` never
imports the HTTP server, and its forked shard processes import nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .dse.evaluate import DEFAULT_RECORD_CACHE
from .dse.spec import MEMORY_NAMES, PLATFORM_NAMES
from .serve.defaults import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_HEARTBEAT_TTL,
    DEFAULT_JOB_RETENTION,
    DEFAULT_LEASE_TTL,
    DEFAULT_RECONNECT_GRACE,
)

if TYPE_CHECKING:
    from .dse.engine import SweepResult
    from .dse.spec import SweepSpec

__all__ = ["main", "build_parser"]


def _workload(name: str, heterogeneous: bool, batch: int | None):
    from .nn.bitwidths import homogeneous_8bit, paper_heterogeneous
    from .nn.models import WORKLOAD_BUILDERS

    matches = {k.lower(): k for k in WORKLOAD_BUILDERS}
    key = matches.get(name.lower())
    if key is None:
        raise SystemExit(
            f"unknown model {name!r}; choose from {sorted(WORKLOAD_BUILDERS)}"
        )
    builder = WORKLOAD_BUILDERS[key]
    net = builder() if batch is None else builder(batch=batch)
    return paper_heterogeneous(net) if heterogeneous else homogeneous_8bit(net)


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep-building flags shared by ``dse`` and ``dse-launch``."""
    parser.add_argument("--spec", default=None, help="JSON sweep-spec file")
    parser.add_argument(
        "--workload", action="append", dest="workloads", default=None
    )
    parser.add_argument(
        "--platform",
        action="append",
        dest="platforms",
        choices=PLATFORM_NAMES,
        default=None,
    )
    parser.add_argument(
        "--memory",
        action="append",
        dest="memories",
        choices=MEMORY_NAMES,
        default=None,
    )
    parser.add_argument(
        "--policy", action="append", dest="policies", default=None
    )
    parser.add_argument(
        "--policy-axis",
        default=None,
        metavar="FILE",
        help="JSON file with a list of bitwidth policies (names, "
        '{"layers": [[a, w], ...]} dicts, or bare per-layer lists) to '
        "sweep as the policy axis, in addition to any --policy names",
    )
    parser.add_argument(
        "--batch", action="append", dest="batches", type=int, default=None
    )


def _add_store_arguments(
    parser: argparse.ArgumentParser, required: bool = False
) -> None:
    """``--store`` + ``--backend``, shared by every store-touching command."""
    parser.add_argument(
        "--store",
        default=None,
        required=required,
        help="result store path (JSONL; SQLite for .sqlite/.db paths; "
        "an old partitioned store converts with repro dse-merge "
        "OUT.sqlite DIR/part-*.jsonl)",
    )
    parser.add_argument(
        "--backend",
        choices=("jsonl", "sqlite"),
        default=None,
        help="force the store backend instead of sniffing magic "
        "bytes/suffix",
    )


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    """``--log-level`` + ``--log-json``, shared by the service commands."""
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="threshold for the repro.* structured logs on stderr",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines instead of human-readable text",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bit-Parallel Vector Composability (DAC'20) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in (
        "table1",
        "table2",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "chips",
    ):
        sub.add_parser(name, help=f"regenerate {name}")

    report = sub.add_parser("report", help="full reproduction report (markdown)")
    report.add_argument(
        "--output", default=None, help="write to file instead of stdout"
    )

    sim = sub.add_parser("simulate", help="simulate one workload on one platform")
    sim.add_argument("--model", required=True)
    sim.add_argument("--platform", choices=sorted(PLATFORM_NAMES), default="bpvec")
    sim.add_argument("--memory", choices=sorted(MEMORY_NAMES), default="ddr4")
    sim.add_argument("--heterogeneous", action="store_true")
    sim.add_argument("--batch", type=int, default=None)

    roof = sub.add_parser("roofline", help="per-layer roofline analysis")
    roof.add_argument("--model", required=True)
    roof.add_argument("--platform", choices=sorted(PLATFORM_NAMES), default="bpvec")
    roof.add_argument("--memory", choices=sorted(MEMORY_NAMES), default="ddr4")
    roof.add_argument("--heterogeneous", action="store_true")
    roof.add_argument("--batch", type=int, default=None)

    dse = sub.add_parser(
        "dse", help="batched design-space sweep on the cached DSE engine"
    )
    _add_spec_arguments(dse)
    _add_store_arguments(dse)
    dse.add_argument(
        "--no-vectorize",
        action="store_true",
        help="evaluate points one-by-one on the scalar simulator instead of "
        "the batched numpy evaluator (records are bit-identical either way)",
    )
    dse.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="evaluate only hash-range shard I of N (0-based), e.g. 0/2",
    )
    dse.add_argument(
        "--stream",
        action="store_true",
        help="print records as JSONL the moment each completes",
    )
    dse.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="submit the sweep to a running 'repro serve' instance instead "
        "of evaluating locally (records are bit-identical either way)",
    )
    dse.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="socket timeout for --server requests (raise it when long "
        "sweeps may queue behind others server-side)",
    )
    dse.add_argument(
        "--detach",
        action="store_true",
        help="with --server: submit the sweep as a job and print its id "
        "instead of streaming it to completion (poll GET /jobs/{id}, "
        "stream /jobs/{id}/records, cancel with POST /jobs/{id}/cancel)",
    )
    dse.add_argument(
        "--priority",
        type=int,
        default=None,
        metavar="N",
        help="with --server: job priority (lower schedules sooner; "
        "FIFO within a level)",
    )
    dse.add_argument(
        "--fleet",
        action="store_true",
        help="with --server: submit as a fleet job evaluated by "
        "pull-based 'repro worker' processes (records land in the "
        "server store; combine with --detach to just print the id)",
    )
    dse.add_argument(
        "--chunks",
        type=int,
        default=None,
        metavar="N",
        help="with --fleet: lease-queue chunk count "
        "(default min(points, 16))",
    )
    dse.add_argument(
        "--format", choices=("table", "jsonl", "json"), default="table"
    )
    dse.add_argument(
        "--pareto", action="store_true", help="print only the Pareto frontier"
    )
    dse.add_argument("--top-k", type=int, default=None, dest="top_k")
    dse.add_argument("--objective", default="total_seconds")
    dse.add_argument("--sense", choices=("min", "max"), default="min")

    quant = sub.add_parser(
        "quant-dse",
        help="co-explore bitwidth policies (sensitivity search) and "
        "hardware points; reduce to the accuracy/performance frontier",
    )
    quant.add_argument("--workload", required=True)
    quant.add_argument(
        "--platform",
        action="append",
        dest="platforms",
        choices=PLATFORM_NAMES,
        default=None,
    )
    quant.add_argument(
        "--memory",
        action="append",
        dest="memories",
        choices=MEMORY_NAMES,
        default=None,
    )
    quant.add_argument(
        "--batch", action="append", dest="batches", type=int, default=None
    )
    quant.add_argument(
        "--max-drop",
        action="append",
        dest="max_drops",
        type=float,
        default=None,
        help="accuracy-drop budget for the greedy bitwidth search; "
        "repeat for several budgets (default: 0.0 0.02 0.05)",
    )
    quant.add_argument(
        "--ladder",
        default="8,4,2",
        help="strictly decreasing bitwidth ladder for the search",
    )
    quant.add_argument("--seed", type=int, default=0)
    quant.add_argument("--objective", default="total_seconds")
    quant.add_argument("--sense", choices=("min", "max"), default="min")
    _add_store_arguments(quant)
    quant.add_argument(
        "--no-vectorize",
        action="store_true",
        help="evaluate points one-by-one on the scalar simulator instead of "
        "the batched numpy evaluator (records are bit-identical either way)",
    )
    quant.add_argument(
        "--format", choices=("table", "jsonl", "json"), default="table"
    )
    quant.add_argument(
        "--frontier-only",
        action="store_true",
        help="emit only the accuracy/performance Pareto frontier",
    )

    merge = sub.add_parser(
        "dse-merge", help="union per-shard result stores into one"
    )
    merge.add_argument("dest", help="destination store (created or extended)")
    merge.add_argument(
        "sources", nargs="+", help="per-shard stores (either backend)"
    )
    merge.add_argument(
        "--gzip",
        action="store_true",
        help="write the merged store gzipped (JSONL destinations only)",
    )
    merge.add_argument(
        "--backend",
        choices=("jsonl", "sqlite"),
        default=None,
        help="force the destination backend instead of sniffing",
    )

    compact = sub.add_parser(
        "dse-compact", help="drop superseded/stale lines from a result store"
    )
    compact.add_argument("store", help="result store path (either backend)")
    compact.add_argument(
        "--gzip", action="store_true", help="gzip-compress the compacted store"
    )
    compact.add_argument(
        "--keep-stale",
        action="store_true",
        help="keep records from older EVAL_VERSIONs",
    )

    server = sub.add_parser(
        "serve",
        help="serve the result store + DSE engine over HTTP (submit "
        "sweeps, stream records, query frontiers server-side)",
    )
    server.add_argument(
        "--store",
        help="SQLite result store path (convert a JSONL store with "
        "repro dse-merge OUT.sqlite STORE.jsonl)",
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument(
        "--port", type=int, default=8000, help="0 binds an ephemeral port"
    )
    server.add_argument(
        "--job-workers",
        type=int,
        default=2,
        metavar="N",
        help="sweep jobs that may run concurrently (the bounded worker "
        "pool behind POST /sweep)",
    )
    server.add_argument(
        "--client-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="socket timeout per client connection -- a stalled client "
        "frees its handler thread after this long",
    )
    server.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="seconds a fleet worker's chunk lease stays valid without "
        "an ack before the chunk requeues",
    )
    server.add_argument(
        "--heartbeat-ttl",
        type=float,
        default=DEFAULT_HEARTBEAT_TTL,
        metavar="SECONDS",
        help="seconds of heartbeat silence before a fleet worker counts "
        "as dead (its leases requeue immediately)",
    )
    server.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="durable job/lease journal (crash recovery); defaults to "
        "<store>.journal when --store is set",
    )
    server.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the job journal (no crash recovery)",
    )
    server.add_argument(
        "--drain-timeout",
        type=float,
        default=DEFAULT_DRAIN_TIMEOUT,
        metavar="SECONDS",
        help="seconds a graceful drain (SIGTERM or POST "
        "/shutdown?drain=true) waits for running jobs before "
        "cancelling stragglers",
    )
    server.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="reject sweep submissions beyond N queued jobs with "
        "429 + Retry-After (unset: unbounded)",
    )
    server.add_argument(
        "--job-retention",
        type=int,
        default=DEFAULT_JOB_RETENTION,
        metavar="N",
        help="keep at most N terminal jobs in the table and journal "
        "(0: unbounded)",
    )
    server.add_argument(
        "--job-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict terminal jobs finished more than SECONDS ago",
    )
    server.add_argument(
        "--inspect-journal",
        action="store_true",
        help="print the journal's job/chunk/recovery summary as JSON "
        "and exit instead of serving",
    )
    server.add_argument(
        "--record-cache",
        type=int,
        default=DEFAULT_RECORD_CACHE,
        metavar="N",
        help="keep at most N evaluated records in the in-process memo, "
        "least recently used evicted first; 0 keeps none",
    )
    server.add_argument("--no-vectorize", action="store_true")
    server.add_argument(
        "--verbose", action="store_true", help="log every request"
    )
    _add_logging_arguments(server)

    worker = sub.add_parser(
        "worker",
        help="join a sweep server's worker fleet: pull chunk leases, "
        "evaluate them locally, stream the records back, ack",
    )
    worker.add_argument(
        "--server", required=True, metavar="URL", help="'repro serve' URL"
    )
    worker.add_argument(
        "--name", default=None, help="worker name shown in GET /workers"
    )
    worker.add_argument(
        "--capacity",
        type=int,
        default=1,
        help="chunk leases this worker may hold at once",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="longest a lease request waits on the server for a chunk "
        "while a job is active; the local sleep only when no job is active",
    )
    worker.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="socket timeout for server requests",
    )
    worker.add_argument("--no-vectorize", action="store_true")
    worker.add_argument(
        "--exit-when-drained",
        action="store_true",
        help="exit 0 when the server reports no active fleet jobs "
        "instead of idling for more work",
    )
    worker.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help="exit after completing N chunks",
    )
    worker.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="hold each lease this long before evaluating "
        "(fault-injection/testing aid)",
    )
    worker.add_argument(
        "--reconnect-grace",
        type=float,
        default=DEFAULT_RECONNECT_GRACE,
        metavar="SECONDS",
        help="keep retrying this long when the server is unreachable "
        "(a restart in progress) before exiting 1 (0 disables)",
    )
    _add_logging_arguments(worker)

    watch_cmd = sub.add_parser(
        "watch",
        help="live ops dashboard for a running 'repro serve' instance "
        "(polls /metrics, /stats, /jobs, /workers)",
    )
    watch_cmd.add_argument("url", metavar="URL", help="'repro serve' URL")
    watch_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period between polls",
    )
    watch_cmd.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot and exit",
    )
    watch_cmd.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="json (requires --once) dumps the raw snapshot",
    )
    watch_cmd.add_argument(
        "--plain",
        action="store_true",
        help="plain line-per-refresh output instead of the full-screen "
        "dashboard (automatic when stdout is not a TTY)",
    )
    watch_cmd.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="socket timeout for server requests",
    )

    dse_launch = sub.add_parser(
        "dse-launch",
        help="run a sweep as N local shard processes (--fleet N), or print "
        "per-machine shard command lines and the merge line "
        "(--print-cmds)",
    )
    _add_spec_arguments(dse_launch)
    _add_store_arguments(dse_launch, required=True)
    dse_launch.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="with --print-cmds: how many shard command lines to print",
    )
    dse_launch.add_argument("--no-vectorize", action="store_true")
    dse_launch.add_argument(
        "--print-cmds",
        action="store_true",
        help="print the per-shard command lines (run each line on any "
        "machine) and the 'repro dse-merge' line that unions them",
    )
    dse_launch.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help="run the points the store lacks as N hash-range shards, one "
        "local process each, writing straight into the SQLite store "
        "(a shard whose process dies is re-run once)",
    )
    return parser


def _policy_axis(path: str) -> list[str]:
    """Load a JSON policy-axis file into canonical policy names."""
    from .dse.policies import policy_name

    with open(path) as handle:
        entries = json.load(handle)
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"policy-axis file {path!r} must hold a non-empty JSON list")
    return [policy_name(entry) for entry in entries]


def _dse_spec(args) -> SweepSpec:
    from .dse.policies import policy_name
    from .dse.spec import SweepSpec
    from .nn.models import WORKLOAD_BUILDERS

    if args.spec:
        if args.policy_axis:
            raise ValueError("--policy-axis cannot be combined with --spec")
        with open(args.spec) as handle:
            return SweepSpec.from_dict(json.load(handle))
    # Canonicalize before deduplicating: "Homogeneous-8BIT" via --policy
    # and "homogeneous-8bit" via --policy-axis are the same axis value.
    policies = []
    for entry in args.policies or ():
        name = policy_name(entry)
        if name not in policies:
            policies.append(name)
    if args.policy_axis:
        for name in _policy_axis(args.policy_axis):
            if name not in policies:
                policies.append(name)
    return SweepSpec.grid(
        workloads=args.workloads or list(WORKLOAD_BUILDERS),
        platforms=args.platforms or PLATFORM_NAMES,
        memories=args.memories or MEMORY_NAMES,
        policies=policies or ("homogeneous-8bit",),
        batches=args.batches or (None,),
    )


def _open_cli_store(args):
    """The ``--store`` flag as a store object (honoring ``--backend``)."""
    if not args.store:
        return None
    from .dse.store import open_store

    return open_store(args.store, backend=args.backend)


def _parse_shard(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise ValueError(f"--shard wants I/N (e.g. 0/2), got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _server_options(args) -> dict:
    """Engine options to forward to a server: only the explicit ones.

    Flags the user did not pass are omitted from the request so the
    server's own ``--no-vectorize`` default applies.
    """
    options: dict = {}
    if args.no_vectorize:
        options["vectorize"] = False
    if getattr(args, "priority", None) is not None:
        options["priority"] = args.priority
    return options


def _client(args):
    """The ``--server`` client; only remote runs load the HTTP client."""
    from .serve.client import ServeClient

    return ServeClient(args.server, timeout=args.timeout)


def _fleet_payload(args):
    """The ``"fleet"`` field of a sweep submission, or ``None``."""
    if not getattr(args, "fleet", False):
        return None
    if args.chunks is not None:
        return {"chunks": args.chunks}
    return True


def _fleet_sweep(args, spec) -> tuple[list[dict], dict]:
    """Run the sweep as a fleet job; returns (records, final status).

    Registered ``repro worker`` processes do the evaluation; this
    client submits, polls with retried idempotent GETs, then reads the
    records back out of the server's store reordered to the local
    spec's point order -- the same bit-identical records-out contract
    as ``--server`` sweeps.
    """
    from .serve.client import ServeError

    if len(spec) == 0:
        raise ValueError("empty sweep")
    client = _client(args)
    job_id = client.submit_job(
        spec.to_dict(), fleet=_fleet_payload(args), **_server_options(args)
    )["job"]
    outage_started = None
    while True:
        try:
            status = client.job_status(job_id)
        except ServeError as error:
            # Tolerate a server restart mid-poll (its journal recovers
            # the job): keep polling through transient failures for up
            # to a minute before giving up.  Monotonic: a wall-clock
            # step mid-outage must not stretch or cut the window.
            now = time.monotonic()
            if not error.transient:
                raise
            if outage_started is None:
                outage_started = now
            if now - outage_started > 60.0:
                raise
            time.sleep(0.5)
            continue
        outage_started = None
        if status["state"] not in ("queued", "running"):
            break
        time.sleep(0.2)
    if status["state"] != "done":
        raise ServeError(
            f"fleet job {job_id} {status['state']}"
            + (f": {status['error']}" if status.get("error") else "")
        )
    by_hash = {record["hash"]: record for record in client.records()}
    try:
        records = [by_hash[point.config_hash()] for point in spec.points]
    except KeyError as missing:
        raise SystemExit(f"dse: server store is missing record {missing}")
    return records, status


def _fleet_summary(status: dict) -> dict:
    """The ``--format json`` summary object for a fleet sweep."""
    progress = status.get("progress", {})
    return {
        "points": progress.get("points", 0),
        "fleet": {
            "job": status.get("job"),
            "chunks": progress.get("chunks", {}),
        },
    }


def _fleet_summary_text(status: dict) -> str:
    progress = status.get("progress", {})
    chunks = progress.get("chunks", {})
    text = (
        f"{progress.get('points', 0)} points over "
        f"{chunks.get('total', 0)} fleet chunks (job {status.get('job')})"
    )
    if chunks.get("requeues"):
        text += f", {chunks['requeues']} leases requeued"
    return text


def _server_sweep(args, spec) -> SweepResult:
    """Run the sweep on a remote ``repro serve`` instance.

    The server streams records in completion order; reordering them by
    the local spec's config hashes reproduces ``run_sweep``'s
    point-order records exactly (the parity test pins bit-identity).
    """
    from .dse.engine import SweepResult

    if len(spec) == 0:
        raise ValueError("empty sweep")  # parity with local run_sweep
    raw, summary = _client(args).sweep(spec.to_dict(), **_server_options(args))
    by_hash = {record["hash"]: record for record in raw}
    try:
        records = [by_hash[point.config_hash()] for point in spec.points]
    except KeyError as missing:
        raise SystemExit(f"dse: server response is missing record {missing}")
    # sweep() raised already if the stream ended without a summary.
    return SweepResult(
        records=records,
        evaluated=summary["evaluated"],
        from_store=summary["store_hits"],
        from_memo=summary["memo_hits"],
    )


def _run_dse(args) -> None:
    if args.stream and (
        args.pareto or args.top_k is not None or args.format == "json"
    ):
        raise SystemExit(
            "dse: --stream cannot be combined with --pareto/--top-k/"
            "--format json (streams are JSONL by nature)"
        )
    if args.server and args.store:
        raise SystemExit(
            "dse: --server and --store are mutually exclusive "
            "(the server owns the store)"
        )
    if args.detach and not args.server:
        raise SystemExit("dse: --detach requires --server")
    if args.detach and args.stream:
        raise SystemExit(
            "dse: --detach and --stream are mutually exclusive "
            "(stream the job later via GET /jobs/{id}/records)"
        )
    if args.fleet and not args.server:
        raise SystemExit("dse: --fleet requires --server (workers pull from it)")
    if args.chunks is not None and not args.fleet:
        raise SystemExit("dse: --chunks requires --fleet")
    if args.fleet and args.stream:
        raise SystemExit(
            "dse: --fleet cannot --stream (fleet records land in the "
            "server store; they are fetched when the job completes)"
        )
    if args.fleet and args.shard is not None:
        raise SystemExit(
            "dse: --fleet and --shard are mutually exclusive "
            "(the lease queue chunks the sweep itself)"
        )
    errors: tuple = (KeyError, TypeError, ValueError, OSError)
    if args.server:
        from .serve.client import ServeError

        errors += (ServeError,)
    try:
        spec = _dse_spec(args)
        if args.shard is not None:
            index, count = _parse_shard(args.shard)
            spec = spec.shard(index, count)
            if len(spec) == 0:
                print(
                    f"dse: shard {index}/{count} owns no points of this sweep",
                    file=sys.stderr,
                )
                return
        vectorize = not args.no_vectorize
        if args.detach:
            if len(spec) == 0:
                raise ValueError("empty sweep")
            job = _client(args).submit_job(
                spec.to_dict(),
                fleet=_fleet_payload(args),
                **_server_options(args),
            )
            # Just the id on stdout (scriptable); where to follow it on
            # stderr for humans.
            print(job["job"])
            print(
                f"dse: submitted job {job['job']} ({len(spec)} points, "
                f"state {job['state']}); follow it at "
                f"{args.server}/jobs/{job['job']}",
                file=sys.stderr,
            )
            return
        if args.stream:
            if args.server:
                stream = _client(args).submit(spec.to_dict(), **_server_options(args))
                lines = (json.dumps(record, sort_keys=True) for record in stream)
            else:
                from .dse.engine import iter_sweep

                # The records' canonical text, as stored: no re-encode.
                lines = (
                    sweep_record.text
                    for sweep_record in iter_sweep(
                        spec, store=_open_cli_store(args), vectorize=vectorize
                    )
                )
            for line in lines:
                print(line, flush=True)
            return
        result = None
        fleet_status: dict | None = None
        if args.fleet:
            records, fleet_status = _fleet_sweep(args, spec)
        elif args.server:
            result = _server_sweep(args, spec)
            records = result.records
        else:
            from .dse.engine import run_sweep

            result = run_sweep(
                spec, store=_open_cli_store(args), vectorize=vectorize
            )
            records = result.records
        if args.pareto:
            from .dse.queries import pareto_frontier

            records = pareto_frontier(records)
        if args.top_k is not None:
            from .dse.queries import top_k

            records = top_k(records, args.objective, k=args.top_k, sense=args.sense)
    except errors as error:
        raise SystemExit(f"dse: {error}")
    if args.format == "jsonl":
        for record in records:
            print(json.dumps(record, sort_keys=True))
    elif args.format == "json":
        from .serve.serializers import dumps, records_payload, result_summary

        summary = (
            result_summary(result)
            if result is not None
            else _fleet_summary(fleet_status)
        )
        print(dumps(records_payload(records, summary=summary)))
    else:
        from .dse.queries import render_records

        print(render_records(records))
        print()
        print(
            result.summary()
            if result is not None
            else _fleet_summary_text(fleet_status)
        )


def _parse_ladder(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(rung) for rung in str(text).split(","))
    except ValueError:
        raise ValueError(f"--ladder wants comma-separated ints, got {text!r}")


def _run_quant_dse(args) -> None:
    from .dse.policies import co_explore
    from .serve.serializers import co_explore_payload, dumps
    from .sim.report import format_table

    try:
        result = co_explore(
            args.workload,
            platforms=args.platforms,
            memories=args.memories,
            batches=args.batches or (None,),
            max_drops=args.max_drops or (0.0, 0.02, 0.05),
            ladder=_parse_ladder(args.ladder),
            seed=args.seed,
            objective=args.objective,
            sense=args.sense,
            store=_open_cli_store(args),
            vectorize=not args.no_vectorize,
        )
    except (KeyError, TypeError, ValueError, OSError) as error:
        raise SystemExit(f"quant-dse: {error}")
    emitted = result.frontier if args.frontier_only else result.records

    if args.format == "json":
        print(dumps(co_explore_payload(result, frontier_only=args.frontier_only)))
        return
    if args.format == "jsonl":
        for record in emitted:
            print(json.dumps(record, sort_keys=True))
        return

    policy_rows = [
        (
            p.label,
            p.policy,
            p.accuracy,
            p.accuracy_drop,
            p.search_steps,
        )
        for p in result.policies
    ]
    print("Searched bitwidth policies (greedy sensitivity search):")
    print(
        format_table(
            ["Label", "Policy", "Accuracy", "Drop", "Steps"],
            policy_rows,
            precision=3,
        )
    )
    print()
    frontier_hashes = {record["hash"] for record in result.frontier}
    # Canonical per-layer names grow with workload depth (54 pairs for
    # ResNet-50); the records table shows the short search labels and
    # leaves full names to the policies table above (and JSONL output).
    label_by_policy: dict = {}
    for entry in result.policies:
        label_by_policy.setdefault(entry.policy, entry.label)
    record_rows = [
        (
            "*" if record["hash"] in frontier_hashes else "",
            record["platform"],
            record["memory"] or "-",
            label_by_policy.get(record["policy"], record["policy"]),
            record["batch"] if record["batch"] is not None else "-",
            record["metrics"]["total_seconds"] * 1e3,
            record["metrics"]["total_energy_j"] * 1e3,
            record["metrics"]["accuracy"],
        )
        for record in emitted
    ]
    print(f"Accuracy vs {args.objective} ('*' = Pareto frontier):")
    print(
        format_table(
            [
                "*",
                "Platform",
                "Memory",
                "Policy",
                "Batch",
                "Time (ms)",
                "Energy (mJ)",
                "Accuracy",
            ],
            record_rows,
            precision=3,
        )
    )
    print()
    print(result.summary())


def _run_dse_merge(args) -> None:
    from .dse.store import open_store

    try:
        dest = open_store(args.dest, backend=args.backend)
        total = dest.merge(args.sources, gzip=True if args.gzip else None)
    except (TypeError, ValueError, OSError) as error:
        raise SystemExit(f"dse-merge: {error}")
    print(f"merged {len(args.sources)} stores into {args.dest}: {total} records")


def _run_dse_compact(args) -> None:
    from .dse.store import open_store

    try:
        store = open_store(args.store)
        if not store.exists():
            raise SystemExit(f"dse-compact: no such store: {args.store}")
        before = store.stats()["size_bytes"]
        kept, dropped = store.compact(
            gzip=True if args.gzip else None, drop_stale=not args.keep_stale
        )
        after = store.stats()["size_bytes"]
    except (TypeError, ValueError, OSError) as error:
        raise SystemExit(f"dse-compact: {error}")
    print(
        f"compacted {args.store}: kept {kept} records, dropped {dropped} "
        f"superseded lines ({before} -> {after} bytes)"
    )


def _serve_journal(args):
    """The ``serve`` subcommand's journal argument (False disables)."""
    if args.no_journal:
        if args.journal:
            raise ValueError("--journal and --no-journal are exclusive")
        return False
    if args.journal:
        return args.journal
    return None  # serve() colocates one with the store, if any


def _run_serve(args) -> int:
    from .obs.logs import configure_logging
    from .serve.journal import JobJournal, default_journal_path
    from .serve.serializers import dumps
    from .serve.server import serve

    configure_logging(args.log_level, json_lines=args.log_json)
    try:
        journal = _serve_journal(args)
        if args.inspect_journal:
            if journal is False:
                raise ValueError("--inspect-journal needs a journal")
            if journal is None:
                if not args.store:
                    raise ValueError(
                        "--inspect-journal needs --journal or --store"
                    )
                journal = default_journal_path(args.store)
            reader = JobJournal(journal)
            try:
                print(dumps(reader.summary()))
            finally:
                reader.close()
            return 0
        return serve(
            store=args.store,
            host=args.host,
            port=args.port,
            vectorize=not args.no_vectorize,
            job_workers=args.job_workers,
            client_timeout=args.client_timeout,
            lease_ttl=args.lease_ttl,
            heartbeat_ttl=args.heartbeat_ttl,
            journal=journal,
            drain_timeout=args.drain_timeout,
            max_queue_depth=args.max_queue_depth,
            job_retention=args.job_retention,
            job_ttl=args.job_ttl,
            record_cache=args.record_cache,
            verbose=args.verbose,
        )
    except ValueError as error:  # e.g. a non-positive TTL
        raise SystemExit(f"serve: {error}")
    except OSError as error:  # e.g. port already bound
        raise SystemExit(f"serve: {error}")


def _run_worker(args) -> int:
    from .obs.logs import configure_logging
    from .serve.fleet import FleetWorker

    configure_logging(args.log_level, json_lines=args.log_json)
    worker = FleetWorker(
        args.server,
        name=args.name,
        capacity=args.capacity,
        poll=args.poll,
        timeout=args.timeout,
        vectorize=not args.no_vectorize,
        exit_when_drained=args.exit_when_drained,
        max_chunks=args.max_chunks,
        throttle=args.throttle,
        reconnect_grace=args.reconnect_grace,
    )
    try:
        return worker.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        worker.stop()
        return 0


def _run_watch(args) -> int:
    from .obs.watch import watch

    if args.format == "json" and not args.once:
        raise SystemExit("watch: --format json requires --once")
    try:
        return watch(
            args.url,
            interval=args.interval,
            once=args.once,
            fmt=args.format,
            plain=args.plain,
            timeout=args.timeout,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _run_dse_launch(args) -> None:
    from .serve.launch import (
        launch_fleet,
        render_commands,
        shard_commands,
        shard_store_path,
    )

    try:
        spec = _dse_spec(args)
        if len(spec) == 0:
            raise ValueError("the sweep has no points")
        if args.fleet is not None:
            if args.print_cmds:
                raise ValueError(
                    "--fleet is incompatible with --print-cmds "
                    "(--fleet runs the shards here, as local processes)"
                )
            result = launch_fleet(
                spec,
                args.fleet,
                args.store,
                backend=args.backend,
                vectorize=not args.no_vectorize,
            )
            print(f"dse-launch: {result.summary()}")
            return
        if not args.print_cmds:
            raise ValueError(
                "pick --fleet N to run the sweep as N local processes, or "
                "--print-cmds to print per-machine shard command lines"
            )
        if args.shards < 1:
            raise ValueError("shard count must be >= 1")
        if args.spec:
            spec_path = args.spec
        else:
            # Inline grids need a spec file the printed per-machine
            # commands can read back.
            dest = Path(args.store)
            spec_path = dest.with_name(dest.name + ".spec.json")
            spec_path.parent.mkdir(parents=True, exist_ok=True)
            spec_path.write_text(json.dumps(spec.to_dict()))
    except (KeyError, TypeError, ValueError, OSError, RuntimeError) as error:
        raise SystemExit(f"dse-launch: {error}")
    commands = shard_commands(
        spec_path, args.shards, args.store, vectorize=not args.no_vectorize
    )
    merge = ["repro", "dse-merge", str(args.store)]
    merge += [str(shard_store_path(args.store, i)) for i in range(args.shards)]
    if args.backend:
        merge += ["--backend", args.backend]
    print(render_commands(commands))
    print(f"# then: {render_commands([merge])}")


def _run_figure(command: str) -> str:
    from .experiments import figures
    from .sim.report import format_table

    if command == "fig4":
        rows = [
            (p.metric, f"{p.slice_width}-bit", p.lanes, p.total)
            for p in figures.fig4_design_space()
        ]
        return format_table(["Metric", "Slicing", "L", "Total (vs conv. MAC)"], rows)
    if command == "fig9":
        rows = [
            (r.workload, r.regime, r.ddr4_ratio, r.hbm2_ratio)
            for r in figures.fig9_gpu_comparison()
        ]
        return format_table(
            ["Workload", "Regime", "vs GPU (DDR4)", "vs GPU (HBM2)"],
            rows,
            precision=1,
        )
    driver = {
        "fig5": figures.fig5_homogeneous_ddr4,
        "fig6": figures.fig6_homogeneous_hbm2,
        "fig7": figures.fig7_heterogeneous_ddr4,
        "fig8": figures.fig8_heterogeneous_hbm2,
    }[command]
    return figures.render_speedup_rows(driver())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command

    if command == "report":
        from .experiments.report import generate_report

        text = generate_report()
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"wrote {args.output}")
        else:
            print(text)
    elif command == "table1":
        from .experiments.tables import render_table1

        print(render_table1())
    elif command == "table2":
        from .experiments.tables import render_table2

        print(render_table2())
    elif command in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
        print(_run_figure(command))
    elif command == "chips":
        from .hw.chip import all_chip_reports

        for report in all_chip_reports():
            print(report)
    elif command == "dse":
        _run_dse(args)
    elif command == "quant-dse":
        _run_quant_dse(args)
    elif command == "dse-merge":
        _run_dse_merge(args)
    elif command == "dse-compact":
        _run_dse_compact(args)
    elif command == "serve":
        return _run_serve(args)
    elif command == "worker":
        return _run_worker(args)
    elif command == "watch":
        return _run_watch(args)
    elif command == "dse-launch":
        _run_dse_launch(args)
    elif command == "simulate":
        from .dse.spec import resolve_memory, resolve_platform
        from .sim.report import format_table
        from .sim.simulator import simulate_network

        net = _workload(args.model, args.heterogeneous, args.batch)
        result = simulate_network(
            net, resolve_platform(args.platform), resolve_memory(args.memory)
        )
        print(result.summary())
        rows = [
            (
                l.layer_name,
                f"{l.bw_act}x{l.bw_w}",
                l.cycles,
                "memory" if l.is_memory_bound else "compute",
            )
            for l in result.layers
        ]
        print(format_table(["Layer", "Bits", "Cycles", "Bound"], rows))
    elif command == "roofline":
        from .dse.spec import resolve_memory, resolve_platform
        from .sim.report import format_table
        from .sim.roofline import ridge_point, roofline_analysis

        net = _workload(args.model, args.heterogeneous, args.batch)
        spec = resolve_platform(args.platform)
        memory = resolve_memory(args.memory)
        ridge = ridge_point(spec, memory)
        print(f"ridge point: {ridge:.1f} MACs/byte on {spec.name} + {memory.name}")
        rows = [
            (
                p.layer_name,
                p.operational_intensity,
                p.attained_macs_per_cycle,
                p.roof_fraction,
                "memory" if p.memory_bound else "compute",
            )
            for p in roofline_analysis(net, spec, memory)
        ]
        print(
            format_table(
                ["Layer", "MACs/byte", "MACs/cycle", "of roof", "Bound"], rows
            )
        )
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(f"unknown command {command}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
