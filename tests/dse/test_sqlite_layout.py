"""The SQLite store's table layout: query plans, old stores, DDL-free reads.

New stores declare ``records`` as an ordinary rowid table whose only
index is the hash primary key's autoindex.  Stores written before that
layout hold a ``WITHOUT ROWID`` table plus a ``records_version`` index.
These tests pin what the store promises on both:

* every read it makes -- the warm point lookup, a keyset page, the
  full hash-order pass -- searches the hash index, never the version
  index and never a temporary sort B-tree;
* an old-layout store still opens, reads, pages, takes upserts and
  counts, and ``repro dse-merge NEW.sqlite OLD.sqlite`` copies it into
  the current layout with identical rows;
* reads run no DDL: only writers create the table, so a reader meets a
  file without one as an empty store, and a file that is not SQLite as
  the usual ``ValueError``.
"""

import sqlite3
from contextlib import closing

import pytest

from repro.cli import main
from repro.dse import EVAL_VERSION, SQLiteStore

#: The DDL every store was created with before the rowid layout.
OLD_SCHEMA = (
    "CREATE TABLE records ("
    " hash TEXT PRIMARY KEY,"
    " version INTEGER NOT NULL DEFAULT 0,"
    " record TEXT NOT NULL"
    ") WITHOUT ROWID",
    "CREATE INDEX records_version ON records (version)",
)
LAYOUTS = ("rowid", "old")


def _record(index, version=EVAL_VERSION, value=1.0):
    return {
        "hash": f"{index:064x}",
        "version": version,
        "metrics": {"total_seconds": value},
    }


def _make_store(path, layout):
    if layout == "old":
        with closing(sqlite3.connect(path)) as db:
            for statement in OLD_SCHEMA:
                db.execute(statement)
    return SQLiteStore(path)


def _rows(path):
    with closing(sqlite3.connect(path)) as db:
        return db.execute(
            "SELECT hash, version, record FROM records ORDER BY hash"
        ).fetchall()


def _schema(path):
    """``{name: sql}`` of every table and index in the file."""
    with closing(sqlite3.connect(path)) as db:
        return dict(db.execute("SELECT name, sql FROM sqlite_master"))


@pytest.fixture
def traced(monkeypatch):
    """Every SQL statement the store runs, as SQLite expands it."""
    statements: list[str] = []
    real_open = SQLiteStore._open

    def tracing_open(self):
        connection = real_open(self)
        connection.set_trace_callback(statements.append)
        return connection

    monkeypatch.setattr(SQLiteStore, "_open", tracing_open)
    return statements


@pytest.fixture(params=LAYOUTS)
def layout(request):
    return request.param


@pytest.fixture
def filled(layout, tmp_path):
    """A 300-record store of the parametrized layout, plus one stale row."""
    store = _make_store(tmp_path / "s.sqlite", layout)
    store.append([_record(i) for i in range(300)])
    store.append([_record(1000, version=EVAL_VERSION - 1)])
    return store


def _plan(path, statement):
    with closing(sqlite3.connect(path)) as db:
        return [row[3] for row in db.execute("EXPLAIN QUERY PLAN " + statement)]


def _searches_hash_index(layout, detail):
    if layout == "rowid":
        return "INDEX sqlite_autoindex_records_1" in detail
    # A WITHOUT ROWID table *is* its primary-key B-tree, so a plain
    # scan of it walks the hashes in order.
    return "USING PRIMARY KEY" in detail or detail == "SCAN records"


class TestQueryPlans:
    def test_fresh_store_has_the_rowid_layout(self, tmp_path):
        store = SQLiteStore(tmp_path / "s.sqlite")
        store.append([_record(1)])
        schema = _schema(store.path)
        assert set(schema) == {"records", "sqlite_autoindex_records_1"}
        assert "WITHOUT ROWID" not in schema["records"]
        assert "hash TEXT PRIMARY KEY NOT NULL" in schema["records"]

    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(
                lambda s: s.entries_for(
                    [f"{i:064x}" for i in range(0, 600, 3)], version=EVAL_VERSION
                ),
                id="point-lookup",
            ),
            pytest.param(
                lambda s: list(
                    s.iter_page(after=f"{40:064x}", limit=50, version=EVAL_VERSION)
                ),
                id="keyset-page",
            ),
            pytest.param(
                lambda s: list(s.iter_page(version=EVAL_VERSION)),
                id="full-pass",
            ),
        ],
    )
    def test_reads_search_the_hash_index(self, filled, layout, traced, read):
        assert read(filled)
        (statement,) = [s for s in traced if s.startswith("SELECT")]
        plan = _plan(filled.path, statement)
        assert plan, statement
        for detail in plan:
            assert "records_version" not in detail, (statement, plan)
            assert "TEMP B-TREE" not in detail, (statement, plan)
            assert _searches_hash_index(layout, detail), (statement, plan)

    def test_version_is_still_filtered(self, filled):
        stale = f"{1000:064x}"
        assert stale in filled
        assert filled.records_for([stale], version=EVAL_VERSION) == {}
        hashes = [r["hash"] for r in filled.iter_page(version=EVAL_VERSION)]
        assert stale not in hashes and len(hashes) == 300


class TestOldLayout:
    def test_old_store_reads_pages_counts_and_takes_upserts(self, tmp_path):
        store = _make_store(tmp_path / "old.sqlite", "old")
        store.append([_record(i) for i in range(20)])
        assert len(store) == 20 and f"{3:064x}" in store
        assert set(store.load()) == {f"{i:064x}" for i in range(20)}
        hits = store.entries_for([f"{i:064x}" for i in (2, 5, 99)], EVAL_VERSION)
        assert set(hits) == {f"{2:064x}", f"{5:064x}"}

        pages, after = [], None
        while page := list(store.iter_page_json(after=after, limit=7)):
            pages.append(page)
            after = page[-1][0]
        assert [len(page) for page in pages] == [7, 7, 6]
        assert [key for page in pages for key, _ in page] == sorted(store.load())

        # The upsert's rule holds on the old table: a tie or a newer
        # version replaces, a stale one does not.
        assert store.append([_record(2, value=2.0)]) == 1
        assert store.append([_record(3, version=EVAL_VERSION - 1, value=9.0)]) == 0
        loaded = store.load()
        assert loaded[f"{2:064x}"]["metrics"]["total_seconds"] == 2.0
        assert loaded[f"{3:064x}"]["metrics"]["total_seconds"] == 1.0
        with store.appender() as persist:
            persist([_record(20)])
        assert len(store) == 21

        # Writes leave the old layout as it was.
        schema = _schema(store.path)
        assert "WITHOUT ROWID" in schema["records"]
        assert "records_version" in schema

    def test_dse_merge_converts_an_old_store(self, capsys, tmp_path):
        old = _make_store(tmp_path / "old.sqlite", "old")
        old.append([_record(i, value=i / 7) for i in range(50)])
        old.append([_record(99, version=EVAL_VERSION - 1)])
        new = tmp_path / "new.sqlite"
        assert main(["dse-merge", str(new), str(old.path)]) == 0
        assert "51 records" in capsys.readouterr().out
        schema = _schema(new)
        assert set(schema) == {"records", "sqlite_autoindex_records_1"}
        assert "WITHOUT ROWID" not in schema["records"]
        assert _rows(new) == _rows(old.path)


class TestReadsRunNoDdl:
    READS = {
        "load": lambda s: s.load(),
        "iter_lines": lambda s: list(s.iter_lines()),
        "records_for": lambda s: s.records_for([f"{1:064x}"], EVAL_VERSION),
        "entries_for": lambda s: s.entries_for([f"{1:064x}"], EVAL_VERSION),
        "iter_page": lambda s: list(s.iter_page(limit=5, version=EVAL_VERSION)),
        "len": len,
        "contains": lambda s: f"{1:064x}" in s,
        "stats": lambda s: s.stats()["records"],
    }

    def test_only_writers_create_the_schema(self, tmp_path, traced):
        store = SQLiteStore(tmp_path / "s.sqlite")
        store.append([_record(1)])
        assert any(s.startswith("CREATE") for s in traced)
        traced.clear()
        for read in self.READS.values():
            read(store)
        assert traced and not [s for s in traced if not s.startswith("SELECT")]

    @pytest.mark.parametrize("name", sorted(READS))
    def test_a_file_without_the_table_reads_empty(self, tmp_path, name):
        path = tmp_path / "s.sqlite"
        path.touch()
        store = SQLiteStore(path)
        assert not self.READS[name](store)
        assert path.stat().st_size == 0  # the read created nothing
        store.append([_record(1)])
        assert self.READS[name](store)

    @pytest.mark.parametrize("name", sorted(READS))
    def test_a_non_sqlite_file_is_a_clean_error(self, tmp_path, name):
        path = tmp_path / "s.sqlite"
        path.write_text('{"hash": "a", "version": 1}\n' * 200)
        with pytest.raises(ValueError, match="not a SQLite store"):
            self.READS[name](SQLiteStore(path))
