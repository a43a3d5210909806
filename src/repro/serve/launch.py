"""``repro dse-launch``: run one sweep on local cores, or plan it for many.

``repro dse-launch --fleet N`` (:func:`launch_fleet`) runs the sweep
locally as an elastic worker fleet: an ephemeral in-process sweep
server chunks the points the destination store lacks into a lease
queue, and N local workers (forked from the launcher, or spawned if it
is threaded) pull, evaluate, ingest, and ack -- a dead worker's leases
expire and requeue.  A re-launch after a partial run resumes warm: only
the missing points are submitted.

``repro dse-launch --print-cmds`` (:func:`shard_commands`) turns the
coordination-free hash-range partition (:meth:`SweepSpec.shard
<repro.dse.spec.SweepSpec.shard>`) into per-machine ``repro dse
--shard i/n`` command lines, each into its own JSONL shard store, for
``repro dse-merge`` to union afterwards.
"""

from __future__ import annotations

import multiprocessing
import os
import shlex
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..dse.evaluate import EVAL_VERSION
from ..dse.spec import SweepSpec
from ..dse.store import ResultStoreBase

__all__ = [
    "FleetLaunchResult",
    "launch_fleet",
    "render_commands",
    "shard_commands",
    "shard_store_path",
]

#: Seconds between the launch server's shutdown checks.  Every launch
#: ends in ``server.shutdown()``, which waits for the serve loop's next
#: check, so this bounds what each ``dse-launch --fleet`` adds on exit.
_SERVE_POLL_SECONDS = 0.005


def shard_store_path(dest: str | os.PathLike, index: int) -> Path:
    """Where shard ``index``'s private store lives, next to the dest store."""
    dest = Path(dest)
    return dest.with_name(f"{dest.name}.shard{index}.jsonl")


def shard_commands(
    spec_path: str | os.PathLike,
    count: int,
    dest: str | os.PathLike,
    vectorize: bool = True,
) -> list[list[str]]:
    """The ``count`` ``repro dse`` command lines that cover the sweep.

    Each line is independent -- run them on one machine or many, in any
    order; the hash-range partition guarantees disjoint coverage.
    """
    commands = []
    for index in range(count):
        command = ["repro", "dse", "--spec", str(spec_path)]
        command += ["--shard", f"{index}/{count}"]
        command += ["--store", str(shard_store_path(dest, index))]
        command += ["--format", "jsonl"]
        if not vectorize:
            command.append("--no-vectorize")
        commands.append(command)
    return commands


def render_commands(commands: list[list[str]]) -> str:
    """Shell-quoted, one command per line (the ``--print-cmds`` output)."""
    return "\n".join(shlex.join(command) for command in commands)


@dataclass
class FleetLaunchResult:
    """What one self-hosted fleet launch produced."""

    workers: int
    points: int  # points the fleet evaluated
    chunks: dict  # the fleet job's final chunk counts
    requeued: int
    store_path: Path
    job: str | None  # None when the store already held every point
    stored: int  # points the destination store already held

    def summary(self) -> str:
        text = f"{self.points} evaluated, {self.stored} store hits"
        if self.job is not None:
            text += (
                f"; {self.chunks.get('total', 0)} chunks pulled by "
                f"{self.workers} workers"
            )
        text += f" -> {self.store_path}"
        if self.requeued:
            text += f" ({self.requeued} leases requeued)"
        return text


def _pool_context():
    # fork shares the already-imported simulator with workers, but
    # forking a multi-threaded process can copy a held lock into the
    # child and deadlock it: threaded callers spawn explicitly (the
    # platform default may still be fork).
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "spawn" in methods:
        return multiprocessing.get_context("spawn")
    return multiprocessing.get_context()


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

    The points ``store`` already holds at the current evaluator version
    are store hits; only the rest are submitted.  An ephemeral
    in-process sweep server over ``store`` takes them as a fleet job
    split into ``chunks`` hash-range chunks (default ``4 * workers``,
    so work-stealing has slack), and ``workers`` local processes --
    forked from this one, or spawned if it is threaded (spawn needs an
    import-safe ``__main__``) -- lease, evaluate, ingest, and ack over
    HTTP until the job drains.  A worker that dies mid-chunk costs one
    lease TTL -- survivors steal the requeued chunk.  When nothing is
    missing no job is submitted and no server starts.

    The launcher submits to the service directly and blocks on the job;
    it checks worker liveness and ``timeout`` every ``poll`` seconds.
    Each worker's ``poll`` is the longest its lease request waits
    server-side for a chunk, and its local sleep only when no job is
    active.  Raises ``RuntimeError`` if the job fails, times out, or
    every worker exits while chunks remain.

    ``store`` must open as SQLite: anything else raises the error of
    :func:`~repro.serve.server.open_served_store` before any worker
    starts, even when nothing is missing.
    """
    from .fleet import DEFAULT_HEARTBEAT_TTL, DEFAULT_LEASE_TTL
    from .server import SweepServer, SweepService, open_served_store

    if workers < 1:
        raise ValueError("fleet worker count must be >= 1")
    if chunks is not None and chunks < 1:
        raise ValueError("fleet chunk count must be >= 1")
    if len(spec) == 0:
        raise ValueError("the sweep has no points")
    # Refused before any worker forks: the server only serves SQLite.
    dest = open_served_store(store, backend=backend)
    context = _pool_context()
    pipes = [context.Pipe(duplex=False) for _ in range(workers)]
    processes = [
        context.Process(target=_fleet_worker, args=(reader, poll, vectorize))
        for reader, _ in pipes
    ]
    service = server = server_thread = None
    try:
        # Fork before any store connection, socket or thread exists.
        for process in processes:
            process.start()
        # Resume warm with the engine store tier's lookup: one indexed
        # query on SQLite, proportional to the sweep, not the store.
        by_hash = {point.config_hash(): point for point in spec}
        stored = dest.records_for(list(by_hash), version=EVAL_VERSION)
        missing = SweepSpec(
            points=tuple(p for h, p in by_hash.items() if h not in stored)
        )
        if len(missing) == 0:
            # The idle workers are killed on the way out.
            return FleetLaunchResult(
                workers=workers,
                points=0,
                chunks={},
                requeued=0,
                store_path=dest.path,
                job=None,
                stored=len(stored),
            )
        if chunks is None:
            chunks = min(len(missing), 4 * workers)
        service = SweepService(
            store=dest,
            lease_ttl=lease_ttl or DEFAULT_LEASE_TTL,
            heartbeat_ttl=heartbeat_ttl or DEFAULT_HEARTBEAT_TTL,
        )
        server = SweepServer(service, port=0)
        server_thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=_SERVE_POLL_SECONDS),
            name="fleet-launch-server",
            daemon=True,
        )
        server_thread.start()
        job = service.submit(
            {"spec": missing.to_dict(), "fleet": {"chunks": chunks}}
        )
        # After the submit: a worker that leased earlier would exit drained.
        for _, writer in pipes:
            writer.send(server.url)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = poll if deadline is None else deadline - time.monotonic()
            if job.wait(timeout=max(0.0, min(poll, remaining))):
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
        if job.state != "done":
            raise RuntimeError(
                f"fleet job {job.id} {job.state}"
                + (f": {job.error}" if job.error else "")
            )
        # Drain the workers gracefully: the job is terminal, so their
        # parked leases return zero active jobs and they exit themselves.
        for process in processes:
            process.join(timeout=30)
        progress = job.progress()
    finally:
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join()
        if server_thread is not None:
            server.shutdown()
            server_thread.join(timeout=5)
        if server is not None:
            server.server_close()
        if service is not None:
            service.close()
    chunk_counts = progress.get("chunks", {})
    return FleetLaunchResult(
        workers=workers,
        points=progress.get("points", 0),
        chunks=chunk_counts,
        requeued=chunk_counts.get("requeues", 0),
        store_path=dest.path,
        job=job.id,
        stored=len(stored),
    )
