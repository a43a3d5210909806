"""Queries over DSE records: Pareto frontiers, rankings, speedups.

The served reductions (:data:`QUERY_NAMES`) read their records once, in
order, and hold only their answer: a Pareto frontier keeps the
frontier-so-far, a top-k ranking keeps ``k`` records, and a ``where``
filter drops non-matching records as they pass.  They therefore run over
a store iterator as well as over a list.
"""

from __future__ import annotations

import heapq
from functools import partial
from operator import le
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..sim.report import format_table, geomean

__all__ = [
    "metric",
    "pareto_frontier",
    "ParetoTracker",
    "top_k",
    "geomean_speedup",
    "attach_policy_metric",
    "accuracy_perf_frontier",
    "filter_records",
    "prepare_query",
    "run_query",
    "render_records",
    "QUERY_NAMES",
]

DEFAULT_OBJECTIVES = ("total_seconds", "total_energy_j")


def metric(record: Mapping, name: str) -> float:
    """Read one metric off a record, with a helpful error."""
    try:
        return record["metrics"][name]
    except KeyError:
        have = sorted(record.get("metrics", {}))
        raise KeyError(f"record has no metric {name!r}; available: {have}")


def _signed(record: Mapping, objectives: Sequence[str], senses: Sequence[str]):
    """Objective vector with every component flipped to 'smaller is better'."""
    return tuple(
        metric(record, name) if sense == "min" else -metric(record, name)
        for name, sense in zip(objectives, senses)
    )


def _check_senses(
    objectives: Sequence[str], senses: Sequence[str] | None
) -> Sequence[str]:
    if senses is None:
        senses = ("min",) * len(objectives)
    if len(senses) != len(objectives):
        raise ValueError("need one sense per objective")
    for sense in senses:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    return senses


def _dominates(a: tuple, b: tuple) -> bool:
    """Whether signed vector ``a`` dominates ``b``: no worse anywhere,
    strictly better somewhere (``a != b`` once ``a <= b`` holds)."""
    return all(map(le, a, b)) and a != b


def pareto_frontier(
    records: Iterable[Mapping],
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    senses: Sequence[str] | None = None,
) -> list[Mapping]:
    """The non-dominated subset of ``records``.

    A record is dominated when another is no worse on every objective and
    strictly better on at least one.  Ties (identical vectors) all stay
    on the frontier.  Input order is preserved.  One pass through a
    :class:`ParetoTracker`: ``records`` is read once, and only the
    frontier-so-far is held.
    """
    tracker = ParetoTracker(objectives, senses)
    for record in records:
        tracker.add(record)
    return tracker.frontier


class ParetoTracker:
    """Incrementally maintained Pareto frontier over streamed records.

    Feed records as they arrive (e.g. from ``iter_sweep``) and read
    :attr:`frontier` at any time for the frontier of everything seen so
    far: survivors keep their arrival order, and ties (identical
    objective vectors) all stay.  Dominance is transitive, so a record
    dominated by anything seen is dominated by a current member, and
    each offer costs one scan of the frontier.
    """

    def __init__(
        self,
        objectives: Sequence[str] = DEFAULT_OBJECTIVES,
        senses: Sequence[str] | None = None,
    ):
        self.objectives = tuple(objectives)
        self.senses = tuple(_check_senses(self.objectives, senses))
        self._entries: list[tuple[Mapping, tuple]] = []
        self.seen = 0

    def add(self, record: Mapping) -> bool:
        """Offer one record; returns whether it joined the frontier."""
        self.seen += 1
        vec = _signed(record, self.objectives, self.senses)
        kept = []
        for entry in self._entries:
            if _dominates(entry[1], vec):
                # The frontier is an antichain, so a dominated newcomer
                # dominates no member either: nothing changes.
                return False
            if not _dominates(vec, entry[1]):
                kept.append(entry)
        kept.append((record, vec))
        self._entries = kept
        return True

    @property
    def frontier(self) -> list[Mapping]:
        return [record for record, _ in self._entries]

    def __len__(self) -> int:
        return len(self._entries)


def _check_k(k) -> int:
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    return k


def top_k(
    records: Iterable[Mapping], objective: str, k: int = 10, sense: str = "min"
) -> list[Mapping]:
    """The ``k`` best records by one metric, ties in input order.

    ``heapq.nsmallest`` is documented equal to ``sorted(records,
    key=...)[:k]``, ties included, but holds ``k`` records instead of
    all of them.  ``k`` must be an int >= 0.
    """
    k = _check_k(k)
    (sense,) = _check_senses((objective,), (sense,))
    if sense == "min":
        return heapq.nsmallest(k, records, key=lambda r: metric(r, objective))
    return heapq.nsmallest(k, records, key=lambda r: -metric(r, objective))


def _matches(record: Mapping, where: Mapping) -> bool:
    return all(record.get(key) == value for key, value in where.items())


def geomean_speedup(
    records: Iterable[Mapping],
    baseline: Mapping,
    candidate: Mapping,
    objective: str = "total_seconds",
) -> float:
    """Geomean of per-workload baseline/candidate ratios.

    ``baseline`` and ``candidate`` are field filters, e.g.
    ``{"platform": "BPVeC", "memory": "DDR4"}``; records are paired by
    (workload, policy, batch).  For time-like metrics the ratio
    baseline/candidate > 1 means the candidate is faster.
    """
    records = list(records)

    def select(where: Mapping) -> dict:
        picked: dict = {}
        for record in records:
            if not _matches(record, where):
                continue
            key = (record["workload"], record["policy"], record["batch"])
            if key in picked and picked[key] is not record:
                raise ValueError(
                    f"filter {dict(where)!r} is ambiguous for workload key {key}"
                )
            picked[key] = record
        return picked

    base, cand = select(baseline), select(candidate)
    common = [key for key in base if key in cand]
    if not common:
        raise ValueError("no common workloads between baseline and candidate")
    return geomean(
        metric(base[key], objective) / metric(cand[key], objective)
        for key in common
    )


def attach_policy_metric(
    records: Iterable[Mapping],
    values_by_policy: Mapping[str, float],
    name: str = "accuracy",
) -> list[dict]:
    """Join a per-policy value (e.g. searched accuracy) into records.

    Returns *copies* -- record dicts are shared with the engine memo and
    the store, so augmentation must never mutate them in place.  Every
    record's ``policy`` must have a value; a missing policy raises with
    the known keys listed.
    """
    return list(_joined(records, values_by_policy, name))


def _joined(
    records: Iterable[Mapping], values_by_policy: Mapping[str, float], name: str
) -> Iterator[dict]:
    """:func:`attach_policy_metric`, one record at a time."""
    for record in records:
        policy = record.get("policy")
        if policy not in values_by_policy:
            raise KeyError(
                f"no {name} known for policy {policy!r}; "
                f"have {sorted(values_by_policy)}"
            )
        yield {
            **record,
            "metrics": {**record["metrics"], name: values_by_policy[policy]},
        }


def accuracy_perf_frontier(
    records: Iterable[Mapping],
    accuracy_by_policy: Mapping[str, float],
    objective: str = "total_seconds",
    sense: str = "min",
) -> list[dict]:
    """Accuracy-vs-performance Pareto frontier of a policy-axis sweep.

    The co-exploration question: which (bitwidth policy, hardware
    point) pairs are worth keeping once both the policy's searched
    accuracy and the point's simulated performance count?  Joins
    ``accuracy_by_policy`` into the records (as metric ``"accuracy"``)
    and keeps the non-dominated set under (``objective`` at ``sense``,
    accuracy maximized).  Returned records carry the joined accuracy,
    so downstream rendering and queries see it as a regular metric.
    """
    return pareto_frontier(
        _joined(records, accuracy_by_policy, "accuracy"),
        objectives=(objective, "accuracy"),
        senses=(sense, "max"),
    )


#: Query names `run_query` dispatches -- the server's /query/<name> routes.
QUERY_NAMES = ("pareto", "top-k", "accuracy-frontier")


def filter_records(
    records: Iterable[Mapping], where: Mapping | None = None
) -> list[Mapping]:
    """Records whose top-level fields equal every ``where`` entry.

    ``where={"workload": "LSTM", "memory": "DDR4"}`` keeps only that
    slice; ``None`` or an empty mapping keeps everything.  This is the
    shared pre-filter of every served query.
    """
    return list(_where_filter(records, where))


def _check_where(where) -> Mapping | None:
    """``where`` as a non-empty mapping, or ``None`` for no filter."""
    if where is not None and not isinstance(where, Mapping):
        # Type-check before the emptiness check: a falsy non-mapping
        # ([], "", 0) is a caller bug, not "no filter".
        raise ValueError(
            '"where" must be an object of {field: value} equality filters, '
            f"got {type(where).__name__}"
        )
    return where or None


def _where_filter(records: Iterable[Mapping], where) -> Iterable[Mapping]:
    """:func:`filter_records`, lazily: ``where`` is checked at once, and
    records are tested as they are read."""
    where = _check_where(where)
    if where is None:
        return records
    return (record for record in records if _matches(record, where))


def _check_objectives(names: Iterable) -> tuple[str, ...]:
    names = tuple(names)
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"objectives must be metric names, got {name!r}")
    return names


def prepare_query(
    query: str, params: Mapping | None = None
) -> Callable[[Iterable[Mapping]], list[Mapping]]:
    """Check one named query; return the reduction that runs it.

    Every parameter is validated here, before a single record is read,
    so a service rejects a bad query without touching its store.  The
    returned callable reads its records once, in order, and holds only
    the answer (see the module docstring).  Unknown queries and unknown
    or malformed parameters raise ``KeyError`` / ``ValueError``, which a
    service maps straight to a client error.
    """
    params = dict(params or {})
    where = _check_where(params.pop("where", None))
    if query == "pareto":
        objectives = params.pop("objectives", DEFAULT_OBJECTIVES)
        senses = params.pop("senses", None)
        # A bare string would iterate per character ("total_seconds" ->
        # 13 one-letter objectives) and fail with a baffling KeyError.
        if isinstance(objectives, str) or isinstance(senses, str):
            raise ValueError(
                '"objectives"/"senses" must be lists, not bare strings '
                '(top-k takes a singular "objective")'
            )
        objectives = _check_objectives(objectives)
        reduce = partial(
            pareto_frontier,
            objectives=objectives,
            senses=_check_senses(objectives, senses),
        )
    elif query in ("top-k", "accuracy-frontier"):
        objective = params.pop("objective", "total_seconds")
        (objective,) = _check_objectives((objective,))
        (sense,) = _check_senses((objective,), (params.pop("sense", "min"),))
        if query == "top-k":
            k = _check_k(params.pop("k", 10))
            reduce = partial(top_k, objective=objective, k=k, sense=sense)
        else:
            accuracy = params.pop("accuracy_by_policy", None)
            if not isinstance(accuracy, Mapping) or not accuracy:
                raise ValueError(
                    "accuracy-frontier needs a non-empty accuracy_by_policy "
                    "mapping of {policy name: accuracy}"
                )
            reduce = partial(
                accuracy_perf_frontier,
                accuracy_by_policy=accuracy,
                objective=objective,
                sense=sense,
            )
    else:
        raise KeyError(
            f"unknown query {query!r}; choose from {sorted(QUERY_NAMES)}"
        )
    if params:
        raise ValueError(f"unknown {query} parameters: {sorted(params)}")
    return lambda records: reduce(_where_filter(records, where))


def run_query(
    records: Iterable[Mapping], query: str, params: Mapping | None = None
) -> list[Mapping]:
    """Dispatch one named reduction over records -- the served entry point.

    ``query`` is one of :data:`QUERY_NAMES`; ``params`` carries the
    query's keyword arguments plus an optional ``where`` equality
    filter applied first.  All parameters are checked before ``records``
    is read (:func:`prepare_query`), which is then read once.
    """
    return prepare_query(query, params)(records)


def render_records(records: Sequence[Mapping]) -> str:
    """Plain-text table of records (the ``repro dse`` default output)."""
    rows = []
    for record in records:
        metrics = record["metrics"]
        rows.append(
            (
                record["workload"],
                record["platform"],
                record["memory"] or "-",
                record["policy"],
                record["batch"] if record["batch"] is not None else "-",
                metrics["total_seconds"] * 1e3,
                metrics["total_energy_j"] * 1e3,
                metrics["perf_per_watt"] / 1e9,
            )
        )
    return format_table(
        [
            "Workload",
            "Platform",
            "Memory",
            "Policy",
            "Batch",
            "Time (ms)",
            "Energy (mJ)",
            "GOPS/W",
        ],
        rows,
    )
