"""Result stores: resume, merge, status, incremental following.

Two interchangeable backends share one read path, :class:`TrialStore`:

* :class:`ResultStore` - append-only JSONL, one line per completed
  trial.  Appends are flushed per line so an interrupted campaign loses
  at most the trial in flight.
* :class:`~repro.engine.store_sqlite.SQLiteResultStore` - a WAL-mode
  SQLite table keyed by the trial content hash, for several writer
  processes sharing one database (separate campaigns merging without
  append-file contention) and readers following a running campaign.

Within one campaign, distributed or not, only the engine's driver
thread appends: distributed workers submit their results to the
coordinator over HTTP, and its engine stores them.

Both are keyed by the trial content hash (see
:func:`repro.engine.trial.trial_key`).  Because trial execution is
deterministic, duplicate keys always carry identical results, and every
reader deduplicates by key.  :func:`open_store` picks the backend from
the path (``.sqlite``/``.sqlite3``/``.db`` suffixes or the SQLite file
magic); :func:`merge_stores` merges any mix of backends into either.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.engine.trial import TrialResult
from repro.injection.outcomes import Manifestation
from repro.sampling.theory import achieved_error


#: What a store's ``records_after`` and :func:`read_jsonl` stream: each
#: record with the position just past it, as a JSON object or ``None``.
Records = Iterator[tuple[int, dict | None]]


def parse_record(text: str | bytes) -> dict | None:
    """One stored record's text as a JSON object, or ``None`` (JSON
    nested too deep to parse raises ``RecursionError``)."""
    try:
        record = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return record if isinstance(record, dict) else None


def read_jsonl(path: str | os.PathLike, offset: int = 0) -> Records:
    """Each complete line of the JSONL file ``path`` after byte
    ``offset``, with the offset just past it.

    The one reader of every JSONL file the program reads back: a result
    store, and an artifact run's ``events.jsonl`` and ``metrics.jsonl``.
    A last line without its newline is left unread, even when it parses:
    it may be a write still in flight, and a reader that took it would
    disagree with one that read a moment earlier.  A missing file reads
    as empty.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        fh.seek(offset)
        for line in fh:
            if not line.endswith(b"\n"):
                return
            offset += len(line)
            yield offset, parse_record(line)


def _decode(record: dict | None) -> TrialResult | None:
    """A stored record as a result, or ``None`` for one to skip: a torn
    line, or a field of the wrong type."""
    try:
        return TrialResult.from_json(record)
    except ValueError:
        return None


@dataclass
class StoreStatus:
    """Per-(app, region) summary of stored trials."""

    app: str
    region: str
    trials: int
    errors: int
    #: Trial count per manifestation class (``correct``, ``crash``, ...).
    manifestations: dict[str, int] = field(default_factory=dict)
    #: Trials satisfied by the static masking oracle, which every design
    #: asks, recognisable by their ``pruned:<reason>`` detail marker.  A
    #: stratified run never dispatches its ``masked`` stratum, the same
    #: proof, so its rows count none.
    pruned: int = 0

    @property
    def error_rate_percent(self) -> float:
        return 100.0 * self.errors / self.trials if self.trials else 0.0

    @property
    def achieved_d_percent(self) -> float:
        return 100.0 * achieved_error(self.trials) if self.trials else float("nan")

    def to_json(self) -> dict:
        return {
            "app": self.app,
            "region": self.region,
            "trials": self.trials,
            "errors": self.errors,
            "error_rate_percent": self.error_rate_percent,
            "achieved_d_percent": self.achieved_d_percent,
            "manifestations": self.manifestations,
            "pruned": self.pruned,
        }


class StoreSummary:
    """Incremental, order-independent fold of trial results.

    ``add`` ingests one result at a time into per-``(app, region)``
    counters plus a fixed-bucket error-latency histogram, so a summary
    over a million-trial store holds a handful of dicts - not the
    results.  Both ``campaign status`` and the live telemetry server
    fold through this one authority; because every field is a sum, the
    fold is identical for any ingestion order (streaming a store,
    driver completion order at any worker count, or a merge of both).
    """

    def __init__(self) -> None:
        #: ``(app, region) -> {"trials": n, "errors": n, "pruned":
        #: {reason: n}, "manifestations": {class: n}}``
        self._groups: dict[tuple[str, str], dict] = {}
        #: ``(app, region) -> latency Histogram`` (only trials whose
        #: timeline recorded a divergence latency contribute).
        self._latency: dict[tuple[str, str], object] = {}

    @classmethod
    def from_results(cls, results: Iterable[TrialResult]) -> "StoreSummary":
        summary = cls()
        for result in results:
            summary.add(result)
        return summary

    def add(self, result: TrialResult) -> None:
        key = (result.app, result.region.value)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = {
                "trials": 0,
                "errors": 0,
                "pruned": {},
                "manifestations": {},
            }
        group["trials"] += 1
        if result.manifestation is not Manifestation.CORRECT:
            group["errors"] += 1
        if result.detail.startswith("pruned:"):
            reason = result.detail.split(":", 1)[1]
            group["pruned"][reason] = group["pruned"].get(reason, 0) + 1
        name = result.manifestation.value
        tally = group["manifestations"]
        tally[name] = tally.get(name, 0) + 1
        if result.latency_blocks is not None:
            from repro.observability.metrics import Histogram

            hist = self._latency.get(key)
            if hist is None:
                hist = self._latency[key] = Histogram()
            hist.observe(result.latency_blocks)

    @property
    def trials(self) -> int:
        return sum(g["trials"] for g in self._groups.values())

    @property
    def errors(self) -> int:
        return sum(g["errors"] for g in self._groups.values())

    def rows(self) -> list[StoreStatus]:
        """Per-(app, region) summaries, sorted - the exact rows the
        legacy full-load ``status`` produced."""
        return [
            StoreStatus(
                app=app,
                region=region,
                trials=group["trials"],
                errors=group["errors"],
                manifestations=dict(sorted(group["manifestations"].items())),
                pruned=sum(group["pruned"].values()),
            )
            for (app, region), group in sorted(self._groups.items())
        ]

    def fill_registry(self, registry) -> None:
        """Write the fold's campaign metric families into a metrics
        registry: trials done and errors per (app, region), outcomes,
        pruned trials per (region, reason) and error latencies.  The one
        writer of these families, for a live campaign and a followed
        store alike."""
        for (app, region), group in sorted(self._groups.items()):
            registry.gauge(
                "repro_campaign_trials_done", app=app, region=region
            ).set(group["trials"])
            registry.gauge(
                "repro_campaign_errors", app=app, region=region
            ).set(group["errors"])
            for name, count in sorted(group["manifestations"].items()):
                counter = registry.counter(
                    "repro_trial_outcomes_total", manifestation=name
                )
                counter.value += count
            for reason, count in sorted(group["pruned"].items()):
                counter = registry.counter(
                    "repro_trials_pruned_total", region=region, reason=reason
                )
                counter.value += count
        for (app, region), hist in sorted(self._latency.items()):
            mirror = registry.histogram(
                "repro_error_latency_blocks", region=region
            )
            for i, count in enumerate(hist.counts):
                mirror.counts[i] += count
            mirror.sum += hist.sum
            mirror.count += hist.count


class TrialStore:
    """The reads both result stores share, built on two primitives a
    backend defines beside ``append`` and ``close``:

    * ``records_after(position)`` - each record stored after
      ``position`` (0 is the start), streamed in append order with the
      position just past it (:data:`Records`): a byte offset for JSONL,
      a rowid for SQLite;
    * ``end()`` - the position of the store's end.

    Every record decodes through
    :meth:`~repro.engine.trial.TrialResult.from_json`, so every reader
    skips a torn or mistyped record the same way.  Each read opens its
    own handle, so a follower keeps working after its store is closed.
    """

    path: Path

    def records_after(self, position: int) -> Records:
        raise NotImplementedError

    def end(self) -> int:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def iter_results(self) -> Iterator[TrialResult]:
        """Stream stored results in append order, the first of each key.

        Only the keys seen so far stay resident, never the records, so
        folding a million-trial store (see :class:`StoreSummary`) needs
        memory for the key set.  Duplicate keys carry identical payloads,
        because trial execution is deterministic.
        """
        seen: set[str] = set()
        for _, record in self.records_after(0):
            result = _decode(record)
            if result is not None and result.key not in seen:
                seen.add(result.key)
                yield result

    def load(self) -> dict[str, TrialResult]:
        """All stored results, keyed by trial key."""
        return {result.key: result for result in self.iter_results()}

    def status(self) -> list[StoreStatus]:
        """Stored-trial summaries grouped by (app, region), sorted:
        streamed, so ``campaign status`` and ``/status`` stay
        bounded-memory on arbitrarily large stores."""
        return StoreSummary.from_results(self.iter_results()).rows()

    def follower(self) -> "StoreFollower":
        """An incremental reader over this store (see
        :class:`StoreFollower`)."""
        return StoreFollower(self)


class StoreFollower:
    """Incremental reader over a result store of either backend.

    ``poll`` decodes only the records stored since the previous call
    and reports whether the store's end fell below the position it had
    reached, which means the store was rewritten and any fold over
    previous polls must restart from zero.  Results are *not*
    key-deduplicated here; the consumer owns the seen set so it can
    clear it on reset.
    """

    def __init__(self, store: TrialStore) -> None:
        self.store = store
        #: The position just past the last record read.
        self.position = 0

    def poll(self) -> tuple[list[TrialResult], bool]:
        """``(newly stored results in append order, reset_flag)``.  A
        read that raises moves nothing: the next poll reads the same
        records."""
        reset = self.store.end() < self.position
        position = 0 if reset else self.position
        results = []
        for position, record in self.store.records_after(position):
            result = _decode(record)
            if result is not None:
                results.append(result)
        self.position = position
        return results, reset


class ResultStore(TrialStore):
    """Append-only JSONL store of :class:`TrialResult` records."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None

    def append(self, result: TrialResult) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # A crash mid-write leaves a partial line with no trailing
            # newline; appending straight after it would glue the new
            # record onto the fragment and corrupt both.  Terminate the
            # fragment first so only the interrupted trial is lost.
            needs_newline = False
            if self.path.exists() and self.path.stat().st_size > 0:
                with open(self.path, "rb") as fh:
                    fh.seek(-1, os.SEEK_END)
                    needs_newline = fh.read(1) != b"\n"
            self._fh = open(self.path, "a")
            if needs_newline:
                self._fh.write("\n")
        self._fh.write(json.dumps(result.to_json(), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def records_after(self, position: int) -> Records:
        """The complete lines after byte ``position``."""
        return read_jsonl(self.path, position)

    def end(self) -> int:
        """The file's size; a missing file ends at 0."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0


#: Path suffixes that select the SQLite backend in :func:`open_store`.
SQLITE_SUFFIXES = frozenset({".sqlite", ".sqlite3", ".db"})

#: The first 16 bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


def is_sqlite_path(path: str | os.PathLike) -> bool:
    """Should ``path`` be opened as a SQLite store?  Decided by suffix
    for new files, and by the file magic for existing ones (so a
    renamed store still opens with the right backend)."""
    p = Path(path)
    if p.suffix.lower() in SQLITE_SUFFIXES:
        return True
    try:
        with open(p, "rb") as fh:
            return fh.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


def open_store(store):
    """Coerce a path (or pass through an existing store object) to a
    result-store backend.  The one factory every store consumer - the
    campaign engine, ``campaign status``/``merge``, ``repro serve``,
    the distributed coordinator - resolves paths through."""
    if isinstance(store, TrialStore):
        return store
    if is_sqlite_path(store):
        from repro.engine.store_sqlite import SQLiteResultStore

        return SQLiteResultStore(store)
    return ResultStore(store)


def merge_stores(
    inputs: Iterable[str | os.PathLike], output: str | os.PathLike
) -> int:
    """Merge stores (any backend mix) into ``output`` (backend chosen
    by its path), deduplicating by key; returns the number of unique
    trials written.  The output is rewritten from scratch in sorted
    ``(app, region, index)`` order, so merging the same inputs always
    produces byte-identical output, and exists even when empty.  A
    missing input raises :class:`FileNotFoundError` before the output
    is touched."""
    merged: dict[str, TrialResult] = {}
    for path in inputs:
        if not Path(path).exists():
            raise FileNotFoundError(f"no such store: {path}")
        store = open_store(path)
        merged.update(store.load())
        store.close()
    ordered = sorted(
        merged.values(), key=lambda r: (r.app, r.region.value, r.index)
    )
    out_path = Path(output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # Rewrite from scratch; stale WAL sidecars must go with the old db,
    # or a fresh database behind them would fail to open.
    for stale in (out_path, *(
        out_path.with_name(out_path.name + ext) for ext in ("-wal", "-shm")
    )):
        if stale.exists():
            stale.unlink()
    out_path.touch()
    with open_store(out_path) as out:
        for result in ordered:
            out.append(result)
    return len(ordered)
