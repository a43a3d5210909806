"""``repro.serve`` -- the sweep service built over the DSE engine.

The file-based DSE cache served as a system: a long-lived HTTP process
that owns a warm result store and hands records, frontiers, and
rankings to many clients, plus the launcher that fills such a store
from local cores.

* :mod:`~repro.serve.server` -- the stdlib-only HTTP service
  (:class:`SweepService` state + :class:`SweepServer` +
  blocking :func:`serve`): submit sweeps as jobs, poll/stream/cancel
  them by id, run Pareto / top-k / accuracy-frontier reductions
  server-side, ingest records, health and store stats;
* :mod:`~repro.serve.jobs` -- the job queue under the service:
  :class:`Job` (queued -> running -> done/failed/cancelled) and
  :class:`JobManager`, the bounded priority-FIFO worker pool;
* :mod:`~repro.serve.journal` -- crash safety: the durable job/lease
  journal (``repro serve --journal``) whose startup replay recovers
  queued, running, and fleet jobs after a server death;
* :mod:`~repro.serve.fleet` -- the elastic worker fleet:
  :class:`Fleet` (the coordinator's lease table: registration,
  heartbeats, pull-based chunk leases with expiry/requeue) and
  :class:`FleetWorker`, the ``repro worker`` pull loop;
* :mod:`~repro.serve.client` -- :class:`ServeClient`, the thin urllib
  client behind ``repro dse --server URL`` (records bit-identical to a
  local run), with bounded-backoff retries on transient failures of
  idempotent requests;
* :mod:`~repro.serve.launch` -- ``repro dse-launch``: ``--fleet N``
  runs the points the destination store lacks as N local hash-range
  shard processes writing straight into it, and ``--print-cmds``
  prints per-machine shard command lines for ``repro dse-merge`` to
  union;
* :mod:`~repro.serve.serializers` -- the JSON shapes shared between
  the HTTP endpoints and the CLI's ``--format json``;
* :mod:`~repro.serve.defaults` -- the ``repro serve`` / ``repro
  worker`` flag defaults, importable without the server or the fleet.
"""

from .._lazy import lazy_exports

__all__ = [
    "ServeClient",
    "ServeError",
    "Fleet",
    "FleetJob",
    "FleetWorker",
    "Job",
    "JobManager",
    "JobJournal",
    "JournalWarning",
    "default_journal_path",
    "DrainingError",
    "QueueFullError",
    "FleetLaunchResult",
    "launch_fleet",
    "render_commands",
    "shard_commands",
    "shard_store_path",
    "co_explore_payload",
    "dumps",
    "records_payload",
    "result_summary",
    "summary_payload",
    "SweepServer",
    "SweepService",
    "serve",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "client": ("ServeClient", "ServeError"),
        "fleet": ("Fleet", "FleetJob", "FleetWorker"),
        "jobs": ("Job", "JobManager"),
        "journal": ("JobJournal", "JournalWarning", "default_journal_path"),
        "launch": (
            "FleetLaunchResult",
            "launch_fleet",
            "render_commands",
            "shard_commands",
            "shard_store_path",
        ),
        "serializers": (
            "co_explore_payload",
            "dumps",
            "records_payload",
            "result_summary",
            "summary_payload",
        ),
        "server": (
            "DrainingError",
            "QueueFullError",
            "SweepServer",
            "SweepService",
            "serve",
        ),
    },
)
