"""The sweep service's query snapshot: a bounded record cache.

Queries (``POST /query/...``) reduce over every current-version record,
so the service caches that survivor list once and re-serves it until
the store changes:

* the **complete snapshot** (the full current-version survivor list,
  hash-sorted) is cached only while it fits ``capacity`` records --
  larger stores fall back to streaming reads per query;
* any store change -- the service's own writes included -- moves the
  store's change token and invalidates it at the next read.

Pages (``GET /records?after=&limit=``) never come from here: they
stream the store's stored JSON text straight off its keyset index, so
a page costs no cache memory however many distinct cursors clients
walk.

Entries never outlive their token: the cache trusts the service to
call :meth:`sync` with the current token before every read.
"""

from __future__ import annotations

from ..obs.metrics import get_registry

__all__ = ["RecordCache", "DEFAULT_RECORD_CACHE"]

#: Default capacity (records) for the service cache; ``0`` disables.
DEFAULT_RECORD_CACHE = 100_000

# The instance attributes (hits/misses/...) keep feeding ``/stats``;
# these registry twins feed ``/metrics`` so a scraper sees cache
# behavior without polling JSON.  Process-wide totals across every
# RecordCache instance, which in a server is exactly one.
_METRICS = get_registry()
_HITS = _METRICS.counter(
    "repro_record_cache_hits_total", "Record cache snapshot hits."
)
_MISSES = _METRICS.counter(
    "repro_record_cache_misses_total", "Record cache misses."
)
_INVALIDATIONS = _METRICS.counter(
    "repro_record_cache_invalidations_total",
    "Whole-cache invalidations (the store's change token moved).",
)


class RecordCache:
    """The complete current-version snapshot, while it fits ``capacity``."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("record cache capacity must be >= 1")
        self.capacity = capacity
        self._complete: list[dict] | None = None
        self._token: tuple | None = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- lifecycle ------------------------------------------------------
    def clear(self) -> None:
        if self._complete is not None:
            self.invalidations += 1
            _INVALIDATIONS.inc()
        self._complete = None
        self._token = None

    def sync(self, token: tuple | None) -> None:
        """Drop the snapshot unless ``token`` matches the cached one.

        A ``None`` token (no store yet, or the token read failed) can
        never be validated, so it clears too -- stale records must not
        survive an unverifiable store state.
        """
        if token is None or token != self._token:
            self.clear()
            self._token = token

    # -- the complete snapshot ------------------------------------------
    def snapshot(self) -> list[dict] | None:
        """The cached full survivor list (the same object every call)."""
        if self._complete is None:
            self.misses += 1
            _MISSES.inc()
            return None
        self.hits += 1
        _HITS.inc()
        return self._complete

    def fill(self, records: list[dict]) -> bool:
        """Cache a complete survivor list, if it fits ``capacity``."""
        if len(records) > self.capacity:
            return False
        self._complete = records
        return True

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        complete = self._complete
        return {
            "capacity": self.capacity,
            "records": 0 if complete is None else len(complete),
            "complete": complete is not None,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }
