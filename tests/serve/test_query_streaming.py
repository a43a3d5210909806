"""Served queries read the store in one pass and hold only the answer.

``SweepService.query`` checks a query's parameters before it touches
the store, then feeds ``store.iter_page(version=EVAL_VERSION)`` -- the
current-version records in hash order -- through the reduction once.
These tests pin the answers (``run_query`` over the store's records in
hash order, on every backend) and the bounds: an invalid query never
calls ``iter_page``, the iterator is closed however the query ends, and
the decoded records alive at once never outnumber the answer by more
than a small constant.
"""

import hashlib
import weakref

import pytest

from repro.dse import EVAL_VERSION, clear_memo, run_query
from repro.serve import SweepService

#: Decoded records a reduction may hold beyond its answer: the one
#: being read, plus the last one read and the last one that passed the
#: ``where`` filter while loop names still bind them.
SLACK = 3

#: The Pareto frontier of :func:`_bounded_records`, in hash order.
FRONTIER = [(3.0, 3.0), (1.0, 5.0), (2.0, 4.0), (4.0, 2.0), (5.0, 1.0)]

QUERIES = [
    ("pareto", {}),
    ("pareto", {"where": {"workload": "A"}}),
    ("top-k", {"k": 5}),
    ("top-k", {"k": 5, "objective": "perf_per_watt", "sense": "max"}),
    ("top-k", {"k": 4, "where": {"workload": "A"}}),
    ("accuracy-frontier", {"accuracy_by_policy": {"p": 0.5, "q": 0.75}}),
    (
        "accuracy-frontier",
        {"accuracy_by_policy": {"p": 0.5, "q": 0.75}, "where": {"workload": "A"}},
    ),
]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _record(key: str, seconds: float, energy: float, index: int) -> dict:
    return {
        "hash": key,
        "version": EVAL_VERSION,
        "workload": "AB"[index % 2],
        "policy": "pq"[index // 2 % 2],
        "metrics": {
            "total_seconds": seconds,
            "total_energy_j": energy,
            "perf_per_watt": float(index % 7),
        },
    }


def _bounded_records(count: int = 600) -> list[dict]:
    """Records, hash order = index order, whose running frontier never
    outgrows the final one: (3, 3) comes first and dominates every
    record off :data:`FRONTIER`, whose other points are spread out."""
    records = []
    for index in range(count):
        if index % 120 == 0:
            seconds, energy = FRONTIER[index // 120]
        else:
            seconds, energy = 10.0 + index % 37, 10.0 + index % 41
        records.append(_record(f"{index:064x}", seconds, energy, index))
    return records


def _tied_records(count: int = 80) -> list[dict]:
    """Records with many equal metrics, stored out of hash order."""
    return [
        _record(
            hashlib.sha256(str(index).encode()).hexdigest(),
            float(1 + index % 4),
            float(1 + index * 7 % 5),
            index,
        )
        for index in range(count)
    ]


class _Decoded(dict):
    """A decoded record that can be weakly referenced."""


class _Census:
    """Wraps a record stream; counts the decoded records alive at once."""

    def __init__(self):
        self.alive = self.peak = self.read = 0
        self.closed = False

    def _release(self):
        self.alive -= 1

    def decode(self, records):
        try:
            for record in records:
                decoded = _Decoded(record)
                weakref.finalize(decoded, self._release)
                self.alive += 1
                self.read += 1
                self.peak = max(self.peak, self.alive)
                yield decoded
        finally:
            self.closed = True


def _spy_pages(service) -> tuple[_Census, list]:
    census, calls = _Census(), []
    original = service.store.iter_page

    def iter_page(**kwargs):
        calls.append(kwargs)
        return census.decode(original(**kwargs))

    service.store.iter_page = iter_page
    return census, calls


class TestAnswers:
    @pytest.mark.parametrize("kind", ["sqlite"])
    def test_served_answers_equal_run_query_in_hash_order(self, tmp_path, kind):
        records = _tied_records()
        stale = {**records[0], "hash": "0" * 64, "version": EVAL_VERSION - 1}
        service = SweepService(store=tmp_path / f"s.{kind}")
        service.ingest(records + [stale])
        in_hash_order = sorted(records, key=lambda record: record["hash"])
        for name, params in QUERIES:
            expected = run_query(in_hash_order, name, params)
            assert service.query(name, params) == expected, (name, params)


class TestOnePass:
    @pytest.mark.parametrize(
        "name, params",
        [
            ("bogus", {}),
            ("pareto", {"objectivs": ["total_seconds"]}),
            ("pareto", {"objectives": [1, 2]}),
            ("pareto", {"senses": ["min"]}),
            ("pareto", {"where": ["A"]}),
            ("top-k", {"k": 2.5}),
            ("top-k", {"k": True}),
            ("top-k", {"k": "3"}),
            ("top-k", {"k": -3}),
            ("top-k", {"sense": "down"}),
            ("top-k", {"objective": ["total_seconds"]}),
            ("accuracy-frontier", {}),
            ("accuracy-frontier", {"accuracy_by_policy": {"p": 1.0}, "x": 1}),
        ],
    )
    def test_invalid_query_never_reads_the_store(self, tmp_path, name, params):
        service = SweepService(store=tmp_path / "s.sqlite")
        service.ingest(_tied_records(4))
        _, calls = _spy_pages(service)
        with pytest.raises((KeyError, ValueError)):
            service.query(name, params)
        assert calls == []

    def test_query_reads_current_records_once_in_hash_order(self, tmp_path):
        service = SweepService(store=tmp_path / "s.sqlite")
        service.ingest(_tied_records(10))
        census, calls = _spy_pages(service)
        service.query("pareto")
        assert calls == [{"version": EVAL_VERSION}]
        assert census.read == 10 and census.closed

    def test_iterator_is_closed_when_the_query_raises(self, tmp_path):
        service = SweepService(store=tmp_path / "s.sqlite")
        service.ingest(_tied_records(10))
        census, _ = _spy_pages(service)
        with pytest.raises(KeyError, match="no_such_metric"):
            service.query("pareto", {"objectives": ["no_such_metric"]})
        assert census.read == 1 and census.closed


class TestMemoryBound:
    @pytest.mark.parametrize("name, params", QUERIES)
    def test_run_query_holds_the_answer_not_the_input(self, name, params):
        census = _Census()
        answer = run_query(census.decode(_bounded_records()), name, params)
        assert census.read == 600
        assert census.peak <= len(answer) + SLACK

    @pytest.mark.parametrize("name, params", QUERIES)
    def test_served_query_holds_the_answer_not_the_store(
        self, tmp_path, name, params
    ):
        service = SweepService(store=tmp_path / "s.sqlite")
        service.ingest(_bounded_records())
        census, _ = _spy_pages(service)
        answer = service.query(name, params)
        assert census.read == 600
        assert census.peak <= len(answer) + SLACK
