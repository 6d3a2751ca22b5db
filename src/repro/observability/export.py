"""Chrome ``trace_event`` export and validation.

The JSON-object format (``{"traceEvents": [...]}``) loads directly in
Perfetto (https://ui.perfetto.dev) and the legacy ``chrome://tracing``
viewer.  Timestamps are simulated basic blocks; ``displayTimeUnit`` is
milliseconds, so one block renders as one microsecond.

:class:`TraceCollector` is the campaign sink that merges per-trial event
lists: each trial becomes one Perfetto "process" (``pid``), each MPI
rank one thread, with metadata events naming both.  Trials are sorted
by ``(region, index)`` before pid assignment, so the merged trace is
deterministic regardless of executor completion order.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any

from repro.engine.progress import TrialSink

_VALID_PHASES = {"X", "B", "E", "i", "I", "C", "M", "b", "e", "n", "s", "t", "f"}


def chrome_trace(
    events: list[dict[str, Any]], *, metadata: dict | None = None
) -> dict:
    """Wrap an event list in the Chrome JSON-object trace format."""
    return {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(
    path: str | Path, events: list[dict[str, Any]], *, metadata: dict | None = None
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(chrome_trace(events, metadata=metadata), fh, sort_keys=True)
        fh.write("\n")
    return path


def validate_chrome_trace(obj: Any) -> list[str]:
    """Schema-check a parsed trace; returns a list of problems (empty =
    valid).  Checks the structural invariants Perfetto relies on: the
    ``traceEvents`` array, required event fields, known phases, and
    non-negative integer timestamps."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, int) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: bad {key} {event.get(key)!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if len(problems) >= 50:
            problems.append("... (truncated)")
            break
    return problems


def trace_categories(obj: dict) -> set[str]:
    """Categories present in a parsed trace (layer-coverage check)."""
    return {
        e.get("cat", "")
        for e in obj.get("traceEvents", [])
        if isinstance(e, dict) and e.get("ph") != "M"
    }


class TraceCollector(TrialSink):
    """A campaign sink that accumulates per-trial event lists into one
    merged trace; it reads each trial's ``trace_events``.

    ``max_trials`` bounds memory for large campaigns.  Beyond it trials
    are *dropped*, never silently: the count lands in the trace
    metadata, in the campaign's ``repro_trace_trials_dropped_total``
    counter (when a metrics registry is attached), and in a one-shot
    :class:`UserWarning` naming the cap to raise.
    """

    reads = frozenset({"trace_events"})

    def __init__(self, max_trials: int = 256) -> None:
        self.max_trials = max_trials
        self.dropped = 0
        #: Campaign metrics registry (the CLI attaches its telemetry
        #: hub's) so every dropped trial is visible on the scrape path;
        #: written under the registry's lock.
        self.metrics = None
        self._warned = False
        #: ``(region, index) -> (label, events)``
        self._trials: dict[tuple[str, int], tuple[str, list[dict]]] = {}

    def add_trial(
        self, region: str, index: int, label: str, events: list[dict]
    ) -> bool:
        """File one trial's events; returns False when the
        ``max_trials`` cap dropped it."""
        key = (region, index)
        if key in self._trials:
            return True
        if len(self._trials) >= self.max_trials:
            self.dropped += 1
            if self.metrics is not None:
                with self.metrics.lock:
                    self.metrics.counter("repro_trace_trials_dropped_total").inc()
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"trace collector reached max_trials={self.max_trials}; "
                    "further trials are counted in "
                    "repro_trace_trials_dropped_total and omitted from the "
                    "merged trace (raise max_trials to keep them)",
                    stacklevel=2,
                )
            return False
        self._trials[key] = (label, events)
        return True

    def trial(self, result) -> None:
        if result.trace_events is not None:
            self.add_trial(
                result.region.value,
                result.index,
                f"{result.app} {result.region.value}#{result.index}",
                result.trace_events,
            )

    def __len__(self) -> int:
        return len(self._trials)

    def merged_events(self) -> list[dict]:
        """All events with pids assigned by sorted (region, index) and
        process-name metadata prepended."""
        merged: list[dict] = []
        for pid, (key, (label, events)) in enumerate(
            sorted(self._trials.items()), start=1
        ):
            merged.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
            ranks = sorted({e.get("tid", 0) for e in events})
            for rank in ranks:
                merged.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": rank,
                        "args": {"name": f"rank {rank}"},
                    }
                )
            for event in events:
                remapped = dict(event)
                remapped["pid"] = pid
                merged.append(remapped)
        return merged

    def write(self, path: str | Path, *, metadata: dict | None = None) -> Path:
        meta = {"trials": len(self._trials), "dropped_trials": self.dropped}
        meta.update(metadata or {})
        return write_chrome_trace(path, self.merged_events(), metadata=meta)
