"""Store formats: a format-5 file migrates to format 6 when it is opened.

Format 5 kept each coefficient circuit's netlist text in
``coeff_netlists.netlist``; format 6 keeps only its fingerprint.  The
fixture here is a format-5 file written with format 5's own schema and
one row in each table, the grid, variant and coefficient rows taken
from a real exploration so that a warm request on the migrated file
can hit its grid.  Formats this build cannot migrate still refuse.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import closing

import pytest

from repro.service import DesignStore, ExplorationService, ExploreRequest

# The schema of a format-5 store, as that format wrote it.
FORMAT_5_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS variants (
    key        TEXT PRIMARY KEY,
    base_key   TEXT NOT NULL,
    prune_ids  TEXT NOT NULL,
    record     TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_variants_base ON variants(base_key);
CREATE TABLE IF NOT EXISTS grids (
    key        TEXT PRIMARY KEY,
    designs    TEXT NOT NULL,
    meta       TEXT NOT NULL,
    n_designs  INTEGER NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS shards (
    grid_key   TEXT NOT NULL,
    shard      INTEGER NOT NULL,
    taus       TEXT NOT NULL,
    payload    TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (grid_key, shard)
);
CREATE TABLE IF NOT EXISTS coeff_cache (
    key        TEXT PRIMARY KEY,
    payload    TEXT NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS coeff_netlists (
    key         TEXT PRIMARY KEY,
    netlist     TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS shard_leases (
    grid_key   TEXT NOT NULL,
    shard      INTEGER NOT NULL,
    worker     TEXT NOT NULL,
    heartbeat  REAL NOT NULL,
    expiry     REAL NOT NULL,
    created_at REAL NOT NULL,
    token      INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (grid_key, shard)
);
"""

# Tables whose rows the migration must leave untouched.
KEPT = ("variants", "grids", "shards", "shard_leases", "coeff_cache")

REQUEST = ExploreRequest("redwine", "svm_r", base="coeff", e=4,
                         tau_grid=(0.9, 0.99))


def dump(path, table: str) -> list[tuple]:
    with closing(sqlite3.connect(path)) as con:
        return con.execute(f"SELECT * FROM {table} ORDER BY rowid").fetchall()


@pytest.fixture(scope="module")
def explored(tmp_path_factory):
    """A current store after one cold exploration, and its designs."""
    path = tmp_path_factory.mktemp("explored") / "s.sqlite"
    designs, _report = ExplorationService(DesignStore(path)).explore(REQUEST)
    return path, designs


def write_format_5(path, explored_path, fmt: str = "5") -> None:
    """A WAL store in format 5's schema with one row or more per table."""
    with closing(sqlite3.connect(path)) as con, con:
        con.execute("PRAGMA journal_mode=WAL")
        con.executescript(FORMAT_5_SCHEMA)
        con.execute("INSERT INTO store_meta VALUES('format', ?)", (fmt,))
        con.execute("INSERT INTO store_meta VALUES('fence', '7')")
        for table in ("variants", "grids", "coeff_cache"):
            for row in dump(explored_path, table):
                con.execute(f"INSERT INTO {table} VALUES "
                            f"({','.join('?' * len(row))})", row)
        for key, fingerprint, hits, created_at in dump(explored_path,
                                                       "coeff_netlists"):
            con.execute("INSERT INTO coeff_netlists VALUES (?,?,?,?,?)",
                        (key, '{"format_version":1,"gates":[]}',
                         fingerprint, hits + 3, created_at))
        con.execute("INSERT INTO shards VALUES (?,?,?,?,?)",
                    ("a" * 64, 0, "[0.9]", '{"chains":[]}', 1.5))
        con.execute("INSERT INTO shard_leases VALUES (?,?,?,?,?,?,?)",
                    ("a" * 64, 0, "w1", 2.25, 3.125, 1.5, 7))


def test_format_5_migrates_and_keeps_every_row(tmp_path, explored):
    explored_path, designs = explored
    path = tmp_path / "old.sqlite"
    write_format_5(path, explored_path)
    before = {table: dump(path, table) for table in KEPT}
    netlists = dump(path, "coeff_netlists")
    assert all(before.values()) and netlists

    store = DesignStore(path)
    assert dump(path, "store_meta") == [("format", "6"), ("fence", "7")]
    with closing(sqlite3.connect(path)) as con:
        columns = [row[1] for row in con.execute(
            "PRAGMA table_info(coeff_netlists)")]
    assert columns == ["key", "fingerprint", "hits", "created_at"]
    assert {table: dump(path, table) for table in KEPT} == before
    assert dump(path, "coeff_netlists") == [
        (key, fingerprint, hits, created_at)
        for key, _text, fingerprint, hits, created_at in netlists]
    assert store.integrity_ok()

    # A warm request on the migrated file resolves its base through the
    # kept fingerprint and hits the grid.
    warm, report = ExplorationService(store).explore(REQUEST)
    assert report.grid_hit and warm == designs
    # Reopening a migrated store changes nothing.
    DesignStore(path)
    assert dump(path, "store_meta") == [("format", "6"), ("fence", "7")]


def test_two_openers_migrate_once(tmp_path, explored, monkeypatch):
    """Both openers read format 5 while a writer holds the lock; one
    migrates, the other re-reads format 6 and drops nothing."""
    path = tmp_path / "old.sqlite"
    write_format_5(path, explored[0])
    statements: list[str] = []
    open_connection = DesignStore._open

    def traced(self):
        con = open_connection(self)
        con.set_trace_callback(statements.append)
        return con

    monkeypatch.setattr(DesignStore, "_open", traced)
    errors: list[BaseException] = []

    def open_store():
        try:
            DesignStore(path)
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    with closing(sqlite3.connect(path, isolation_level=None)) as holder:
        holder.execute("BEGIN IMMEDIATE")
        threads = [threading.Thread(target=open_store) for _ in range(2)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 20.0
        while statements.count("BEGIN IMMEDIATE") < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        holder.execute("COMMIT")
    for thread in threads:
        thread.join(30)
    assert errors == []
    assert statements.count("BEGIN IMMEDIATE") == 2
    assert sum("DROP COLUMN" in s for s in statements) == 1
    assert dump(path, "store_meta")[0] == ("format", "6")


@pytest.mark.parametrize("fmt", ["4", "7"])
def test_unmigratable_formats_still_refuse(tmp_path, explored, fmt):
    path = tmp_path / "other.sqlite"
    write_format_5(path, explored[0], fmt=fmt)
    with pytest.raises(ValueError,
                       match=f"has format {fmt}, this build expects 6"):
        DesignStore(path)
    assert dump(path, "store_meta")[0] == ("format", fmt)
