"""Keyset-pagination contract of the SQLite store.

``iter_page(after, limit, version)`` is the primitive behind
``GET /records?after=&limit=`` and the served queries: the store the
service serves (SQLite, the only served backend) streams resolution
survivors in hash order via ``ORDER BY hash LIMIT`` without
materializing the store.  The contract:

* records come in strict hash (string sort) order, survivors only --
  the same survivors a JSONL store fed the same writes resolves to;
* ``after=H`` resumes strictly past ``H`` -- including mid-dump writes:
  a record upserted behind the cursor is invisible, one ahead of it is
  served;
* ``limit`` is exact (no off-by-one at page boundaries);
* an exhausted cursor yields an empty page, the termination signal.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dse import open_store

#: Only SQLite pages: the JSONL store has no keyset page of its own.
BACKENDS = ("sqlite",)
_SUFFIX = {"jsonl": ".jsonl", "sqlite": ".sqlite"}


def _record(key, value=1.0, version=1):
    return {"hash": key, "version": version, "metrics": {"total_seconds": value}}


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def make_store(backend, tmp_path):
    def _make(name="s"):
        return open_store(tmp_path / f"{name}{_SUFFIX[backend]}", backend=backend)

    _make.backend = backend
    return _make


def _fill(store, count, prefix="k"):
    # Zero-padded keys so string sort order is also numeric order.
    records = [_record(f"{prefix}{i:04d}", float(i)) for i in range(count)]
    store.append(records)
    return sorted(record["hash"] for record in records)


def _page(store, after=None, limit=None, version=None):
    return list(store.iter_page(after=after, limit=limit, version=version))


class TestPageContract:
    def test_full_walk_equals_load(self, make_store):
        store = make_store()
        keys = _fill(store, 25)
        pages, after = [], None
        while True:
            page = _page(store, after=after, limit=10)
            if not page:
                break
            pages.append(page)
            after = page[-1]["hash"]
        assert [len(page) for page in pages] == [10, 10, 5]
        walked = [record for page in pages for record in page]
        assert [record["hash"] for record in walked] == keys
        assert {r["hash"]: r for r in walked} == store.load()

    def test_missing_store_yields_nothing(self, make_store):
        assert _page(make_store("absent"), limit=5) == []

    def test_limit_boundaries_are_exact(self, make_store):
        store = make_store()
        _fill(store, 10)
        assert len(_page(store, limit=9)) == 9
        assert len(_page(store, limit=10)) == 10
        assert len(_page(store, limit=11)) == 10
        assert len(_page(store, limit=1)) == 1
        assert len(_page(store)) == 10  # no limit: everything

    def test_invalid_limit_rejected(self, make_store):
        store = make_store()
        _fill(store, 3)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="limit"):
                _page(store, limit=bad)

    def test_after_is_strict_and_terminates(self, make_store):
        store = make_store()
        keys = _fill(store, 10)
        assert [r["hash"] for r in _page(store, after=keys[3])] == keys[4:]
        # A cursor between keys (no such record) still resumes cleanly.
        assert [r["hash"] for r in _page(store, after=keys[3] + "0")] == keys[4:]
        assert _page(store, after=keys[-1]) == []  # exhausted: empty page
        assert _page(store, after="zzzz") == []

    def test_resumes_across_concurrent_upsert(self, make_store):
        # The dump-consistency story: a write landing mid-dump behind
        # the cursor is invisible; ahead of the cursor it is served at
        # its new value.  No record is ever seen twice.
        store = make_store()
        keys = _fill(store, 8)
        first = _page(store, limit=4)
        cursor = first[-1]["hash"]
        store.append(
            [
                _record(keys[0], 99.0),  # behind the cursor: invisible
                _record(keys[6], 42.0),  # ahead of the cursor: served fresh
            ]
        )
        rest = _page(store, after=cursor)
        assert [r["hash"] for r in rest] == keys[4:]
        by_hash = {r["hash"]: r for r in first + rest}
        assert len(by_hash) == 8  # nothing served twice
        assert by_hash[keys[6]]["metrics"]["total_seconds"] == 42.0
        assert by_hash[keys[0]]["metrics"]["total_seconds"] == 0.0

    def test_version_filter_applies_after_resolution(self, make_store):
        store = make_store()
        store.append(
            [
                _record("a", version=2),
                _record("b", version=1),
                _record("c", version=2),
            ]
        )
        store.append([_record("b", version=2)])  # b upgraded
        assert [r["hash"] for r in _page(store, version=2)] == ["a", "b", "c"]
        assert _page(store, version=1) == []  # the stale b line is dead

    def test_page_json_is_the_encoded_page(self, make_store):
        # The serving path's raw read: each record's wire text, exactly
        # what json.dumps(sort_keys=True) makes of the decoded page.
        store = make_store()
        _fill(store, 12)
        odd = {"hash": "k9999", "version": 1, "label": "naïve – 電卓", "n": 2**70}
        store.append([_record("k0005", -0.0), _record("k0006", 1e-300), odd])
        pairs = list(store.iter_page_json(after="k0002", limit=20, version=1))
        page = _page(store, after="k0002", limit=20, version=1)
        assert pairs == [(r["hash"], json.dumps(r, sort_keys=True)) for r in page]
        assert pairs[-1][1] == json.dumps(odd, sort_keys=True)
        with pytest.raises(ValueError, match="limit"):
            list(store.iter_page_json(limit=0))

    def test_pages_are_bit_identical_across_backends(self, backend, tmp_path):
        # The serialized page must equal the same slice of a JSONL
        # store fed the same writes: resolution does not depend on the
        # backend.
        stores = {
            name: open_store(tmp_path / f"x{_SUFFIX[name]}", backend=name)
            for name in ("jsonl", backend)
        }
        for store in stores.values():
            _fill(store, 17)
            store.append([_record("k0003", 123.456)])
        resolved = stores["jsonl"].load()
        reference = [resolved[key] for key in sorted(resolved) if key > "k0001"]
        page = _page(stores[backend], after="k0001", limit=7)
        assert json.dumps(page, sort_keys=True) == json.dumps(
            reference[:7], sort_keys=True
        )


class TestPaginationProperty:
    """Paginated walk == unpaginated dump, for any store content."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seeds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),  # key id
                st.integers(min_value=0, max_value=3),  # version
                st.integers(min_value=0, max_value=99),  # payload
            ),
            max_size=60,
        ),
        page_size=st.integers(min_value=1, max_value=9),
        version=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    )
    def test_walk_equals_dump(self, tmp_path_factory, seeds, page_size, version):
        root = tmp_path_factory.mktemp("pagination")
        for backend in BACKENDS:
            store = open_store(
                root / f"s{_SUFFIX[backend]}", backend=backend
            )
            for key_id, record_version, payload in seeds:
                store.append(
                    [_record(f"k{key_id:02d}", float(payload), record_version)]
                )
            walked, after = [], None
            while True:
                page = _page(store, after=after, limit=page_size, version=version)
                if not page:
                    break
                assert len(page) <= page_size
                walked.extend(page)
                after = page[-1]["hash"]
            expected = [
                store.load()[key]
                for key in sorted(store.load())
                if version is None
                or store.load()[key].get("version", 0) == version
            ]
            assert walked == expected
