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

Interface-compatible with :class:`~repro.engine.store.ResultStore`:
``append``, ``load``, ``iter_results``, ``status``, ``follower``,
context-manager close.  :func:`~repro.engine.store.open_store` selects
this backend for ``.sqlite``/``.sqlite3``/``.db`` paths or any file
carrying the SQLite magic.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Iterator

from repro.engine.store import StoreStatus, StoreSummary, parse_result_line
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


def _configure(conn: sqlite3.Connection) -> sqlite3.Connection:
    conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


class SQLiteResultStore:
    """Content-hash-keyed SQLite store of :class:`TrialResult` records."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None

    # ------------------------------------------------------------------
    # connection
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
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
            _configure(conn).execute(_SCHEMA)
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "SQLiteResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, result: TrialResult) -> None:
        payload = json.dumps(result.to_json(), sort_keys=True)
        self._connect().execute(
            "INSERT OR IGNORE INTO trials (key, app, region, idx, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            (result.key, result.app, result.region.value, result.index, payload),
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def load(self) -> dict[str, TrialResult]:
        """All stored results, keyed by trial key."""
        return {result.key: result for result in self.iter_results()}

    def iter_results(self) -> Iterator[TrialResult]:
        """Stream stored results in insertion order.

        Keys are unique by construction (primary key), so no seen-set
        is needed: memory stays bounded by the cursor window.
        """
        if not self.path.exists():
            return
        cursor = self._connect().execute(
            "SELECT payload FROM trials ORDER BY rowid"
        )
        for (payload,) in cursor:
            result = parse_result_line(payload)
            if result is not None:
                yield result

    def status(self) -> list[StoreStatus]:
        """Stored-trial summaries grouped by (app, region), sorted -
        the same rows the JSONL backend produces for the same trials."""
        return StoreSummary.from_results(self.iter_results()).rows()

    def follower(self) -> "SQLiteFollower":
        return SQLiteFollower(self.path)


class SQLiteFollower:
    """Incremental reader over a SQLite store: the ``rowid`` analogue of
    the JSONL byte-offset follower.

    Each ``poll`` opens a fresh read connection (robust against the
    database file being replaced underneath a long-lived server) and
    fetches only rows appended since the previous poll.  A max rowid
    below the remembered high-water mark means the store was rebuilt;
    the poll reports a reset so the consumer restarts its fold.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._last_rowid = 0

    def poll(self) -> tuple[list[TrialResult], bool]:
        """``(newly appended results in rowid order, reset_flag)``."""
        if not self.path.exists():
            reset = self._last_rowid > 0
            self._last_rowid = 0
            return [], reset
        try:
            conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_MS / 1000.0)
            try:
                conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
                (max_rowid,) = conn.execute(
                    "SELECT COALESCE(MAX(rowid), 0) FROM trials"
                ).fetchone()
                reset = False
                if max_rowid < self._last_rowid:  # rebuilt: start over
                    self._last_rowid = 0
                    reset = True
                rows = conn.execute(
                    "SELECT rowid, payload FROM trials WHERE rowid > ? "
                    "ORDER BY rowid",
                    (self._last_rowid,),
                ).fetchall()
            finally:
                conn.close()
        except sqlite3.Error:
            # Mid-creation or foreign file; leave state for the next poll.
            return [], False
        results = []
        for rowid, payload in rows:
            self._last_rowid = rowid
            result = parse_result_line(payload)
            if result is not None:
                results.append(result)
        return results, reset
