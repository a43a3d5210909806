"""Defaults of the ``repro serve`` and ``repro worker`` flags.

They live apart from :mod:`repro.serve.server` and
:mod:`repro.serve.fleet` so that building the CLI parser, which shows
them, imports neither the HTTP server nor the fleet.
"""

__all__ = [
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_HEARTBEAT_TTL",
    "DEFAULT_JOB_RETENTION",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_RECONNECT_GRACE",
]

#: Default seconds a graceful drain waits for running jobs before
#: cancelling the stragglers (``repro serve --drain-timeout``).
DEFAULT_DRAIN_TIMEOUT = 30.0

#: Default number of terminal jobs the retention policy keeps
#: (``repro serve --job-retention``; ``0`` disables the count bound).
DEFAULT_JOB_RETENTION = 1000

#: Default seconds a fleet lease stays valid without an ack.
DEFAULT_LEASE_TTL = 60.0

#: Default seconds of heartbeat silence before a fleet worker counts as
#: dead (and every lease it holds requeues).
DEFAULT_HEARTBEAT_TTL = 15.0

#: Default seconds a worker keeps retrying when the server is
#: unreachable (a restart in progress) before giving up with exit 1.
#: Spans a server redeploy comfortably; the client's own bounded
#: backoff only covers a few seconds.
DEFAULT_RECONNECT_GRACE = 60.0
