"""``repro dse-launch``: run one sweep on local cores, or plan it for many.

``repro dse-launch --fleet N`` (:func:`launch_fleet`) runs the sweep
on local cores: one indexed lookup finds the points the destination
SQLite store lacks, and N shard processes (forked from the launcher,
or spawned if it is threaded) each sweep one hash-range shard of them
straight into that store, one committed transaction per pass.  No
server, lease or upload is involved.  A shard process that dies is
re-run once; it resumes warm from the passes already committed, and a
re-launch after a partial run likewise evaluates only what is missing.
The elastic HTTP fleet (:mod:`repro.serve.fleet`: ``repro serve`` plus
``repro worker``) is for workers on other machines.

``repro dse-launch --print-cmds`` (:func:`shard_commands`) turns the
coordination-free hash-range partition (:meth:`SweepSpec.shard
<repro.dse.spec.SweepSpec.shard>`) into per-machine ``repro dse
--shard i/n`` command lines, each into its own JSONL shard store, for
``repro dse-merge`` to union afterwards.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import shlex
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..dse.engine import iter_sweep
from ..dse.evaluate import EVAL_VERSION
from ..dse.spec import SweepSpec
from ..dse.sqlite_store import SQLiteStore
from ..dse.store import ResultStoreBase, open_served_store

__all__ = [
    "FleetLaunchResult",
    "launch_fleet",
    "render_commands",
    "shard_commands",
    "shard_store_path",
]


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
    """What one local fleet launch produced."""

    workers: int  # shard processes started, re-runs aside (0: nothing missing)
    points: int  # points the shard processes added to the store
    requeued: int  # shards re-run after their first process failed
    store_path: Path
    stored: int  # points the store held before the shard processes ran them

    def summary(self) -> str:
        text = f"{self.points} evaluated, {self.stored} store hits"
        if self.workers:
            text += f"; {self.workers} shard processes"
        text += f" -> {self.store_path}"
        if self.requeued:
            text += f" ({self.requeued} shards re-run)"
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


def _run_shard(path: Path, shard: SweepSpec, vectorize: bool) -> None:
    """One shard process: sweep ``shard`` into the SQLite store at ``path``."""
    for _ in iter_sweep(shard, store=SQLiteStore(path), vectorize=vectorize):
        pass


def launch_fleet(
    spec,
    workers: int,
    store: "ResultStoreBase | str | os.PathLike",
    backend: str | None = None,
    vectorize: bool = True,
    timeout: float | None = None,
) -> FleetLaunchResult:
    """Run one sweep on ``workers`` local shard processes.

    The points ``store`` already holds at the current evaluator version
    are store hits, found with one indexed lookup; when nothing else is
    left, no process starts.  The missing points are split into
    ``workers`` hash-range shards (:meth:`SweepSpec.chunks
    <repro.dse.spec.SweepSpec.chunks>`; an empty shard gets no
    process), and each shard runs :func:`~repro.dse.engine.iter_sweep`
    in its own process -- forked from this one, or spawned if it is
    threaded (spawn needs an import-safe ``__main__``) -- writing its
    passes straight into the store.  SQLite's busy timeout serialises
    the pass commits.

    A shard process that exits non-zero is re-run once in a fresh
    process, which finds the passes its predecessor committed as store
    hits and evaluates only the rest.  Raises ``RuntimeError`` naming
    the exit codes if the re-run fails too, or if the shards have not
    all finished ``timeout`` seconds after the launch began.

    ``store`` must open as SQLite: anything else raises the error of
    :func:`~repro.dse.store.open_served_store` before any process
    starts, even when nothing is missing.
    """
    if workers < 1:
        raise ValueError("fleet worker count must be >= 1")
    if len(spec) == 0:
        raise ValueError("the sweep has no points")
    deadline = None if timeout is None else time.monotonic() + timeout
    dest = open_served_store(store, backend=backend)
    # One indexed query on SQLite, proportional to the sweep, not the
    # store; its connection is closed when it returns, so no process
    # below inherits a SQLite handle (nor a socket or a thread).
    by_hash = {point.config_hash(): point for point in spec}
    hits = dest.entries_for(list(by_hash), version=EVAL_VERSION)
    stored = len(hits)
    missing = SweepSpec(points=tuple(p for h, p in by_hash.items() if h not in hits))
    shards = missing.chunks(workers) if len(missing) else []
    context = _pool_context() if shards else None
    running: dict = {}  # process sentinel -> (shard index, shard, process)
    failed: dict[int, list] = {}  # shard index -> exit codes

    def start(index: int, shard: SweepSpec) -> None:
        process = context.Process(
            target=_run_shard,
            args=(dest.path, shard, vectorize),
            name=f"fleet-shard-{index}",
        )
        process.start()
        running[process.sentinel] = (index, shard, process)

    try:
        for index, shard in shards:
            start(index, shard)
        while running:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            ready = multiprocessing.connection.wait(list(running), remaining)
            if not ready:
                raise RuntimeError(f"fleet sweep timed out after {timeout} seconds")
            for sentinel in ready:
                index, shard, process = running.pop(sentinel)
                process.join()
                if process.exitcode == 0:
                    continue
                codes = failed.setdefault(index, [])
                codes.append(process.exitcode)
                if len(codes) > 1:
                    raise RuntimeError(
                        f"fleet shard {index} of {workers} failed twice "
                        f"(exit codes {', '.join(map(str, codes))})"
                    )
                # The re-run reads what the dead process committed as
                # store hits.  Like the first lookup, this one closes its
                # connection before the re-run forks.
                keys = [point.config_hash() for point in shard]
                stored += len(dest.entries_for(keys, version=EVAL_VERSION))
                start(index, shard)
    finally:
        for _, _, process in running.values():
            process.kill()
            process.join()
    return FleetLaunchResult(
        workers=len(shards),
        points=len(by_hash) - stored,
        requeued=len(failed),
        store_path=dest.path,
        stored=stored,
    )
