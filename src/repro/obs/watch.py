"""``repro watch URL`` -- a live ops dashboard for a sweep server.

A poll-and-render monitor in the gridworks-admin mold: every interval
it pulls ``GET /stats``, ``GET /jobs``, ``GET /workers``, ``GET
/readyz``, and ``GET /metrics``, folds them into one snapshot dict,
and redraws -- a job table (state, progress, current phase, duration),
a worker table (liveness, leases, last-heartbeat age, reported
throughput), frontier-so-far sizes for running sweeps, and the memo's
share of resolved sweep points derived from the scrape.

Rendering is layered for testability: :func:`build_snapshot` (pure
HTTP -> dict), :func:`render_text` (dict -> str), and :func:`watch`
(the loop -- curses when stdout is a real terminal, a plain
clear-and-reprint fallback otherwise).  ``repro watch --once --format
json`` prints one snapshot as JSON and exits, which is what scripts
and the CI smoke consume.
"""

from __future__ import annotations

import json
import re
import time

from ..serve.client import ServeClient, ServeError
from .logs import get_logger

__all__ = [
    "build_snapshot",
    "parse_prometheus_text",
    "render_text",
    "watch",
]

log = get_logger(__name__)

_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: Jobs shown in the table (newest first past this are summarized).
MAX_JOB_ROWS = 12

#: Running sweep jobs whose frontier-so-far is fetched per poll.
MAX_FRONTIER_PROBES = 4


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus_text(text: str) -> dict[str, list[dict]]:
    """Parse exposition text into ``{name: [{"labels", "value"}, ...]}``.

    Histogram series keep their ``_bucket``/``_sum``/``_count``
    suffixed names.  Lines that do not parse are skipped -- the watch
    loop degrades, it does not crash on a foreign exporter.
    """
    samples: dict[str, list[dict]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        try:
            parsed = float(value)
        except ValueError:
            continue
        samples.setdefault(name, []).append(
            {
                "labels": {
                    key: _unescape(raw)
                    for key, raw in _LABEL.findall(labels or "")
                },
                "value": parsed,
            }
        )
    return samples


def _series_total(samples: dict, name: str, **where) -> float | None:
    """Sum a series' samples, optionally filtered by label equality."""
    rows = samples.get(name)
    if rows is None:
        return None
    return sum(
        row["value"]
        for row in rows
        if all(row["labels"].get(k) == v for k, v in where.items())
    )


def _derive(samples: dict[str, list[dict]]) -> dict:
    """The headline numbers the dashboard derives from a scrape."""
    tiers = {
        tier: _series_total(samples, "repro_eval_points_total", tier=tier)
        or 0.0
        for tier in ("memo", "store", "evaluated")
    }
    points = sum(tiers.values())
    return {
        "http_requests": _series_total(samples, "repro_http_requests_total"),
        "eval_points": tiers,
        "memo_share": tiers["memo"] / points if points else None,
        "journal_degraded_writes": _series_total(
            samples, "repro_journal_writes_total", result="degraded"
        ),
    }


def build_snapshot(client: ServeClient, frontiers: bool = True) -> dict:
    """One poll of a live server folded into a JSON-able snapshot.

    Endpoints a server predating this PR lacks (``/metrics``,
    ``/readyz``) degrade to ``None`` fields instead of failing the
    whole snapshot.
    """
    snapshot: dict = {
        "url": client.base_url,
        "polled_at": time.time(),
        "ready": None,
        "stats": None,
        "jobs": [],
        "workers": [],
        "metrics": None,
        "frontiers": {},
    }
    snapshot["stats"] = client.stats()
    snapshot["jobs"] = client.jobs()
    snapshot["workers"] = client.workers()
    try:
        snapshot["ready"] = client.ready()
    except ServeError:
        pass
    try:
        samples = parse_prometheus_text(client.metrics())
        snapshot["metrics"] = _derive(samples)
    except ServeError:
        pass
    if frontiers:
        running = [
            job
            for job in snapshot["jobs"]
            if job.get("kind") == "sweep" and job.get("state") == "running"
        ]
        for job in running[:MAX_FRONTIER_PROBES]:
            try:
                status = client.job_status(job["job"])
            except ServeError:
                continue
            snapshot["frontiers"][job["job"]] = len(
                status.get("frontier") or []
            )
    return snapshot


# -- rendering ----------------------------------------------------------
def _age(now: float, then: float | None) -> str:
    if then is None:
        return "-"
    seconds = max(0.0, now - then)
    if seconds < 120:
        return f"{seconds:.0f}s"
    return f"{seconds / 60:.1f}m"


def _current_phase(job: dict) -> str:
    timings = job.get("timings") or {}
    for phase in timings.get("phases") or []:
        if phase.get("open"):
            return phase["phase"]
    return "-"


def _fmt_duration(seconds) -> str:
    if seconds is None:
        return "-"
    if seconds < 60:
        return f"{seconds:.1f}s"
    return f"{seconds / 60:.1f}m"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(str(cell)) for cell in column)
        for column in zip(headers, *rows)
    ] if rows else [len(h) for h in headers]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip()
    ]
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return lines


def render_text(snapshot: dict) -> str:
    """The plain-text dashboard for one snapshot (also the curses body)."""
    stats = snapshot.get("stats") or {}
    derived = snapshot.get("metrics") or {}
    now = snapshot.get("polled_at") or time.time()
    lines: list[str] = []
    ready = snapshot.get("ready")
    readiness = "ready" if ready else ("NOT READY" if ready is not None else "?")
    store = stats.get("store") or {}
    lines.append(
        f"repro watch — {snapshot.get('url', '?')} [{readiness}] "
        f"eval v{stats.get('eval_version', '?')}"
    )
    cache = stats.get("record_cache") or {}
    memo_share = derived.get("memo_share")
    lines.append(
        f"store: {store.get('backend', '-')} {store.get('records', 0)} records"
        f" | memo: {stats.get('memo_records', 0)}/{cache.get('capacity', 0)}"
        + (f" ({memo_share:.0%} of points)" if memo_share is not None else "")
    )
    tiers = derived.get("eval_points") or {}
    if tiers:
        lines.append(
            "eval points: "
            f"{tiers.get('evaluated', 0):.0f} evaluated, "
            f"{tiers.get('store', 0):.0f} store, "
            f"{tiers.get('memo', 0):.0f} memo"
            + (
                f" | http requests: {derived['http_requests']:.0f}"
                if derived.get("http_requests") is not None
                else ""
            )
        )
    jobs = snapshot.get("jobs") or []
    counts = stats.get("jobs") or {}
    lines.append("")
    lines.append(
        f"jobs ({counts.get('running', 0)} running, "
        f"{counts.get('queued', 0)} queued, {counts.get('total', 0)} total)"
    )
    rows = []
    frontiers = snapshot.get("frontiers") or {}
    for job in sorted(
        jobs, key=lambda j: j.get("submitted_at") or 0, reverse=True
    )[:MAX_JOB_ROWS]:
        progress = job.get("progress") or {}
        points = progress.get("points")
        completed = progress.get("completed", progress.get("appended", 0))
        pct = (
            f"{completed}/{points}"
            if points
            else str(completed or progress.get("offered", "-"))
        )
        frontier = frontiers.get(job.get("job"))
        rows.append(
            [
                job.get("job", "?"),
                job.get("kind", "?"),
                job.get("state", "?"),
                pct,
                _current_phase(job),
                _fmt_duration(job.get("duration")),
                str(frontier) if frontier is not None else "-",
            ]
        )
    lines.extend(
        _table(
            ["job", "kind", "state", "progress", "phase", "dur", "frontier"],
            rows,
        )
    )
    workers = snapshot.get("workers") or []
    lines.append("")
    fleet = stats.get("fleet") or {}
    fleet_workers = fleet.get("workers") or {}
    lines.append(
        f"workers ({fleet_workers.get('alive', 0)} alive / "
        f"{fleet_workers.get('registered', 0)} registered)"
    )
    rows = []
    for worker in workers:
        metrics = worker.get("metrics") or {}
        rows.append(
            [
                worker.get("name") or worker.get("worker", "?"),
                "alive" if worker.get("alive") else "DEAD",
                str(worker.get("leases", 0)),
                str(worker.get("chunks_done", 0)),
                (
                    f"{metrics['points_total']:.0f}"
                    if metrics.get("points_total") is not None
                    else "-"
                ),
                (
                    f"{metrics['eval_seconds_sum']:.1f}s"
                    if metrics.get("eval_seconds_sum") is not None
                    else "-"
                ),
                _age(now, worker.get("last_seen")),
            ]
        )
    lines.extend(
        _table(
            ["worker", "state", "leases", "chunks", "points", "eval", "beat"],
            rows,
        )
    )
    chunks = fleet.get("chunks") or {}
    if chunks.get("total"):
        lines.append(
            f"chunks: {chunks.get('completed', 0)}/{chunks['total']} done, "
            f"{chunks.get('leased', 0)} leased, "
            f"{chunks.get('pending', 0)} pending, "
            f"{fleet.get('requeued', 0)} requeued"
        )
    return "\n".join(lines)


# -- the loop -----------------------------------------------------------
def _watch_plain(client: ServeClient, interval: float, out) -> int:
    while True:
        try:
            snapshot = build_snapshot(client)
        except ServeError as error:
            print(f"repro watch: {error}", file=out, flush=True)
            time.sleep(interval)
            continue
        # ANSI clear screen + home; harmless on a dumb pipe, where each
        # frame simply appends.
        print("\x1b[2J\x1b[H" + render_text(snapshot), file=out, flush=True)
        time.sleep(interval)


def _watch_curses(client: ServeClient, interval: float) -> int:
    import curses

    def loop(screen):
        curses.curs_set(0)
        screen.nodelay(True)
        screen.timeout(int(interval * 1000))
        while True:
            try:
                snapshot = build_snapshot(client)
                body = render_text(snapshot)
            except ServeError as error:
                body = f"repro watch: {error}"
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            for y, line in enumerate(body.splitlines()[: max_y - 1]):
                try:
                    screen.addnstr(y, 0, line, max_x - 1)
                except curses.error:  # pragma: no cover - tiny terminal
                    pass
            screen.refresh()
            key = screen.getch()  # doubles as the interval sleep
            if key in (ord("q"), 27):
                return 0

    return curses.wrapper(loop)


def watch(
    url: str,
    interval: float = 2.0,
    once: bool = False,
    fmt: str = "table",
    plain: bool = False,
    timeout: float = 30.0,
    out=None,
) -> int:
    """The ``repro watch`` entry point; returns a process exit code."""
    import sys

    out = out if out is not None else sys.stdout
    client = ServeClient(url, timeout=timeout)
    if once:
        snapshot = build_snapshot(client)
        if fmt == "json":
            print(json.dumps(snapshot, sort_keys=True), file=out, flush=True)
        else:
            print(render_text(snapshot), file=out, flush=True)
        return 0
    if fmt == "json":
        raise ValueError("--format json requires --once (one snapshot)")
    use_curses = not plain
    if use_curses:
        try:
            isatty = out.isatty()
        except (AttributeError, ValueError):
            isatty = False
        use_curses = isatty
    if use_curses:
        try:
            return _watch_curses(client, interval)
        except Exception as error:  # noqa: BLE001 - curses is optional
            log.debug("curses dashboard unavailable (%s); plain fallback", error)
    try:
        return _watch_plain(client, interval, out)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
