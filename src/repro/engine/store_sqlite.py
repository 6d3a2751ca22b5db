"""SQLite-backed result store: idempotent multi-writer merge.

The JSONL store is ideal for one appender per file, but several
campaign processes sharing one database need concurrent writers without
append-file contention.  (Within one campaign only the engine's driver
thread appends; distributed workers submit their results to the
coordinator over HTTP.)  This backend keeps the exact record payload
the JSONL store writes (the sorted-keys JSON line) in a WAL-mode SQLite
table whose primary key is the trial content hash:

* ``INSERT OR IGNORE`` makes every append idempotent - two writers
  landing the same deterministic trial store exactly one row, the same
  first-wins semantics JSONL readers apply at parse time;
* WAL mode + a busy timeout let writers from different processes
  interleave at row granularity, and readers (``campaign status``, the
  ``serve`` follower) scrape concurrently without blocking them;
* a crash mid-append rolls the open transaction back, so at most the
  trial in flight is lost - the same contract as a torn JSONL line,
  recovered the same way (``--resume`` re-executes it).

It shares the JSONL store's read path
(:class:`~repro.engine.store.TrialStore`): the records after a rowid,
and the largest rowid.  :func:`~repro.engine.store.open_store` selects
this backend for ``.sqlite``/``.sqlite3``/``.db`` paths or any file
carrying the SQLite magic.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Iterator

from repro.engine.store import SQLITE_MAGIC, Records, TrialStore, parse_record
from repro.engine.trial import TrialResult

#: Writers wait this long (ms) for a competing writer's transaction.
BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS trials (
    key     TEXT PRIMARY KEY,
    app     TEXT NOT NULL,
    region  TEXT NOT NULL,
    idx     INTEGER NOT NULL,
    payload TEXT NOT NULL
)
"""


def _query(path: Path, sql: str, args: tuple = ()) -> Iterator[tuple]:
    """The rows of one read, on a connection of its own (robust against
    the database file being replaced underneath a long-lived follower).
    A store not created yet, or whose table is not there yet, reads as
    empty."""
    if not path.exists():
        return
    conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_MS / 1000.0)
    try:
        try:
            cursor = conn.execute(sql, args)
        except sqlite3.OperationalError:  # no trials table yet
            return
        yield from cursor
    finally:
        conn.close()


def _is_database(path: Path) -> bool:
    """A missing or empty file becomes a new database; any other file
    must carry the SQLite magic."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(SQLITE_MAGIC))
    except FileNotFoundError:
        return True
    return not head or head == SQLITE_MAGIC


class SQLiteResultStore(TrialStore):
    """Content-hash-keyed SQLite store of :class:`TrialResult` records.

    A path whose file exists but is not a database is refused here
    (``ValueError``), so every consumer fails before it reads or runs
    anything.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        if not _is_database(self.path):
            raise ValueError(f"{self.path}: not a SQLite database")

    def append(self, result: TrialResult) -> None:
        if self._conn is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Autocommit (isolation_level=None): every append is its own
            # transaction, so a crash loses at most the trial in flight.
            # check_same_thread off: an engine driven from a background
            # thread uses a store that another thread built.  Only the
            # engine's driver thread appends, so calls never overlap.
            conn = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_MS / 1000.0,
                isolation_level=None,
                check_same_thread=False,
            )
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SCHEMA)
            self._conn = conn
        payload = json.dumps(result.to_json(), sort_keys=True)
        self._conn.execute(
            "INSERT OR IGNORE INTO trials (key, app, region, idx, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            (result.key, result.app, result.region.value, result.index, payload),
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def records_after(self, position: int) -> Records:
        """The rows after rowid ``position``, streamed off the cursor."""
        rows = _query(
            self.path,
            "SELECT rowid, payload FROM trials WHERE rowid > ? ORDER BY rowid",
            (position,),
        )
        for rowid, payload in rows:
            yield rowid, parse_record(payload)

    def end(self) -> int:
        """The largest rowid; a store with no rows ends at 0."""
        for (rowid,) in _query(self.path, "SELECT MAX(rowid) FROM trials"):
            return rowid or 0
        return 0
