"""Shard orchestration: run one sweep as N coordinated shard processes.

``repro dse-launch`` turns the coordination-free hash-range partition
(:meth:`SweepSpec.shard <repro.dse.spec.SweepSpec.shard>`) into a
one-command workflow: shard the spec ``n`` ways, spawn one local
``repro dse --shard i/n`` process per shard (or ``--print-cmds`` the
exact per-machine command lines), auto-merge the per-shard stores into
the destination store on completion, and optionally post the merged
records to a running sweep server
(:mod:`repro.serve.server`).  Every shard evaluates into its own JSONL
store, so a crashed shard keeps its partials and a re-launch resumes
warm.

``repro dse-launch --fleet N`` replaces the fixed shard plan with the
elastic pull model (:func:`launch_fleet`): an ephemeral in-process
sweep server chunks the spec into a lease queue and N local workers
(forked from the launcher, or spawned if it is threaded) pull,
evaluate, ingest, and ack -- a dead worker's leases expire and requeue
instead of losing a shard.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..dse.engine import _pool_context
from ..dse.store import ResultStoreBase, open_store

__all__ = [
    "FleetLaunchResult",
    "LaunchResult",
    "launch",
    "launch_fleet",
    "shard_commands",
    "shard_store_path",
]

#: Records per /records upload request when posting a merged store to a
#: server -- keeps each body far under the server's request-size cap no
#: matter how large the merge is.
POST_CHUNK_RECORDS = 20_000


def shard_store_path(dest: str | os.PathLike, index: int) -> Path:
    """Where shard ``index``'s private store lives, next to the dest store."""
    dest = Path(dest)
    return dest.with_name(f"{dest.name}.shard{index}.jsonl")


def _shard_argv(
    spec_path: str | os.PathLike,
    index: int,
    count: int,
    store_path: str | os.PathLike,
    workers: int = 1,
    vectorize: bool = True,
) -> list[str]:
    argv = [
        "dse",
        "--spec",
        str(spec_path),
        "--shard",
        f"{index}/{count}",
        "--store",
        str(store_path),
        "--workers",
        str(workers),
        "--format",
        "jsonl",
    ]
    if not vectorize:
        argv.append("--no-vectorize")
    return argv


def shard_commands(
    spec_path: str | os.PathLike,
    count: int,
    dest: str | os.PathLike,
    workers: int = 1,
    vectorize: bool = True,
    program: tuple[str, ...] = ("repro",),
) -> list[list[str]]:
    """The ``count`` command lines that together cover the sweep.

    Each line is independent -- run them on one machine or many, in any
    order; the hash-range partition guarantees disjoint coverage.  The
    default ``program`` spells the installed console script (what
    ``--print-cmds`` emits for other machines); the launcher itself
    substitutes ``sys.executable -m repro`` so it works from a source
    tree too.
    """
    return [
        list(program)
        + _shard_argv(
            spec_path,
            index,
            count,
            shard_store_path(dest, index),
            workers=workers,
            vectorize=vectorize,
        )
        for index in range(count)
    ]


def render_commands(commands: list[list[str]]) -> str:
    """Shell-quoted, one command per line (the ``--print-cmds`` output)."""
    return "\n".join(shlex.join(command) for command in commands)


@dataclass
class LaunchResult:
    """What one orchestrated launch produced."""

    shards: int
    merged_records: int
    store_path: Path
    shard_paths: list[Path]
    posted: int | None = None  # records posted to --post, if any

    def summary(self) -> str:
        text = (
            f"{self.shards} shards -> merged {self.merged_records} records "
            f"into {self.store_path}"
        )
        if self.posted is not None:
            text += f"; posted {self.posted} records to the server"
        return text


def _subprocess_env() -> dict[str, str]:
    """Child env that can import this exact ``repro``, installed or not.

    The launcher may run from a source tree (``PYTHONPATH=src``) where
    the child's ``python -m repro`` would otherwise not resolve; put the
    package's parent directory first on the child's path either way.
    """
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


def _wait_for_shards(
    processes: list[subprocess.Popen],
    shards: int,
    fail_fast: bool,
    poll_interval: float = 0.05,
) -> list[str]:
    """Wait for shard children; returns failure descriptions (if any).

    With ``fail_fast`` the first non-zero exit terminates every still
    running sibling immediately, so a poisoned shard surfaces in
    seconds instead of after the surviving N-1 shards burn to
    completion.  Terminated siblings are reaped but not reported as
    failures -- the shard that actually crashed is the story.  Without
    ``fail_fast`` every child runs to its own exit (the pre-existing
    behaviour, kept behind ``--no-fail-fast`` for runs where maximal
    partial coverage matters more than fast failure).
    """
    terminated: set[int] = set()
    if fail_fast:
        pending = set(range(len(processes)))
        while pending:
            crashed = False
            for index in sorted(pending):
                code = processes[index].poll()
                if code is None:
                    continue
                pending.discard(index)
                if code != 0:
                    crashed = True
            if crashed:
                for index in pending:
                    processes[index].terminate()
                    terminated.add(index)
                break
            if pending:
                time.sleep(poll_interval)
    failures = []
    for index, process in enumerate(processes):
        _, stderr = process.communicate()
        if process.returncode != 0 and index not in terminated:
            detail = stderr.decode(errors="replace").strip().splitlines()
            failures.append(
                f"shard {index}/{shards} exited {process.returncode}"
                + (f": {detail[-1]}" if detail else "")
            )
    return failures


def launch(
    spec_path: str | os.PathLike,
    shards: int,
    store: "ResultStoreBase | str | os.PathLike",
    backend: str | None = None,
    workers: int = 1,
    vectorize: bool = True,
    post: str | None = None,
    keep_shards: bool = False,
    fail_fast: bool = True,
) -> LaunchResult:
    """Run every shard of ``spec_path`` locally and merge the stores.

    Spawns ``shards`` child processes (each ``repro dse --shard i/n``
    against its own JSONL shard store), waits for them, then merges the
    shard stores into ``store`` (either backend, forced by ``backend``
    or sniffed from the path).  A shard failure raises ``RuntimeError``
    naming the shard and its last stderr line; with ``fail_fast`` (the
    default) the failure surfaces promptly -- surviving siblings are
    terminated instead of burning to completion -- while
    ``fail_fast=False`` waits for every child.  Either way the
    per-shard partial stores are kept on failure, so a re-launch
    resumes warm.  With ``post``, the records this launch produced
    (the shard delta, not the whole destination store) are uploaded to
    a running server's ``/records`` endpoint in chunks.  Shard stores
    are deleted after a successful merge unless ``keep_shards``.
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1")
    dest = open_store(store, backend=backend)
    commands = shard_commands(
        spec_path,
        shards,
        dest.path,
        workers=workers,
        vectorize=vectorize,
        program=(sys.executable, "-m", "repro"),
    )
    env = _subprocess_env()
    processes = [
        subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
        )
        for command in commands
    ]
    failures = _wait_for_shards(processes, shards, fail_fast=fail_fast)
    if failures:
        raise RuntimeError("; ".join(failures))

    shard_paths = [shard_store_path(dest.path, i) for i in range(shards)]
    # Parse each shard store once: the same loaded records feed the
    # merge and (when posting) the upload delta.  Shards are
    # hash-disjoint, so a plain union is exact.
    delta: dict[str, dict] = {}
    for path in shard_paths:
        if path.exists():
            delta.update(open_store(path).load())
    merged_records = dest.merge([delta])

    posted = None
    if post:
        from .client import ServeClient

        client = ServeClient(post)
        # Only this launch's delta goes up, not everything the
        # destination store accumulated over earlier runs -- chunked,
        # so one giant delta never exceeds the server's body cap.
        records = list(delta.values())
        posted = 0
        for start in range(0, len(records), POST_CHUNK_RECORDS):
            chunk = records[start : start + POST_CHUNK_RECORDS]
            posted += client.post_records(chunk)["appended"]

    if not keep_shards:
        for path in shard_paths:
            path.unlink(missing_ok=True)

    return LaunchResult(
        shards=shards,
        merged_records=merged_records,
        store_path=dest.path,
        shard_paths=shard_paths,
        posted=posted,
    )


@dataclass
class FleetLaunchResult:
    """What one self-hosted fleet launch produced."""

    workers: int
    points: int
    chunks: dict  # the fleet job's final chunk counts
    requeued: int
    store_path: Path
    job: str

    def summary(self) -> str:
        text = (
            f"{self.points} points over {self.chunks.get('total', 0)} chunks "
            f"pulled by {self.workers} workers -> {self.store_path}"
        )
        if self.requeued:
            text += f" ({self.requeued} leases requeued)"
        return text


def _fleet_worker(url_reader, poll: float, vectorize: bool) -> None:
    """One local fleet worker: wait for the server's URL, then pull."""
    from .fleet import FleetWorker

    worker = FleetWorker(
        url_reader.recv(),
        poll=poll,
        vectorize=vectorize,
        exit_when_drained=True,
        log=lambda message: None,  # the launcher reports failures itself
    )
    sys.exit(worker.run())


def launch_fleet(
    spec,
    workers: int,
    store: "ResultStoreBase | str | os.PathLike",
    backend: str | None = None,
    chunks: int | None = None,
    vectorize: bool = True,
    lease_ttl: float | None = None,
    heartbeat_ttl: float | None = None,
    poll: float = 0.2,
    timeout: float | None = None,
) -> FleetLaunchResult:
    """Run one sweep as an elastic worker fleet, self-hosting the server.

    The pull-based counterpart to :func:`launch`: instead of a fixed
    shard plan, an ephemeral in-process sweep server over ``store``
    takes the spec as a fleet job split into ``chunks`` hash-range
    chunks (default ``4 * workers``, so work-stealing has slack), and
    ``workers`` local processes -- forked from this one, or spawned if
    it is threaded (spawn needs an import-safe ``__main__``) -- lease,
    evaluate, ingest, and ack over HTTP until the job drains.  A worker
    that dies mid-chunk costs one lease TTL -- survivors steal the
    requeued chunk.  Raises ``RuntimeError`` if the job fails, times
    out, or every worker exits while chunks remain.
    """
    from .client import ServeClient
    from .fleet import DEFAULT_HEARTBEAT_TTL, DEFAULT_LEASE_TTL
    from .server import SweepServer, SweepService

    if workers < 1:
        raise ValueError("fleet worker count must be >= 1")
    if len(spec) == 0:
        raise ValueError("the sweep has no points")
    if chunks is None:
        chunks = max(1, min(len(spec), 4 * workers))
    context = _pool_context()
    pipes = [context.Pipe(duplex=False) for _ in range(workers)]
    processes = [
        context.Process(target=_fleet_worker, args=(reader, poll, vectorize))
        for reader, _ in pipes
    ]
    server = None
    try:
        # Fork before any store handle, socket or thread exists.
        for process in processes:
            process.start()
        service = SweepService(
            store=open_store(store, backend=backend),
            lease_ttl=lease_ttl or DEFAULT_LEASE_TTL,
            heartbeat_ttl=heartbeat_ttl or DEFAULT_HEARTBEAT_TTL,
        )
        server = SweepServer(service, port=0)
        server_thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.05),
            name="fleet-launch-server",
            daemon=True,
        )
        server_thread.start()
        client = ServeClient(server.url)
        job_id = client.submit_job(spec.to_dict(), fleet={"chunks": chunks})[
            "job"
        ]
        # After the submit: a worker that leased earlier would exit drained.
        for _, writer in pipes:
            writer.send(server.url)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = client.job_status(job_id)
            if status["state"] not in ("queued", "running"):
                break
            if not any(process.is_alive() for process in processes):
                codes = ", ".join(str(process.exitcode) for process in processes)
                raise RuntimeError(
                    "every fleet worker exited with the job unfinished "
                    f"(exit codes {codes})"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise RuntimeError(
                    f"fleet sweep timed out after {timeout} seconds"
                )
            time.sleep(0.05)
        if status["state"] != "done":
            raise RuntimeError(
                f"fleet job {job_id} {status['state']}"
                + (f": {status['error']}" if status.get("error") else "")
            )
        # Drain the workers gracefully: the job is terminal, so their
        # next lease reports zero active jobs and they exit themselves.
        for process in processes:
            process.join(timeout=30)
        progress = status["progress"]
    finally:
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join()
        if server is not None:
            server.shutdown()
            server.server_close()
            service.close()
            server_thread.join(timeout=5)
    chunk_counts = progress.get("chunks", {})
    return FleetLaunchResult(
        workers=workers,
        points=progress.get("points", 0),
        chunks=chunk_counts,
        requeued=chunk_counts.get("requeues", 0),
        store_path=service.store.path,
        job=job_id,
    )
