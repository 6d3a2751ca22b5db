"""Artifact-grade campaign run directories.

``campaign run --artifacts DIR`` turns one campaign into a
self-contained, reproducible record:

``manifest.json``
    The run's identity: the campaign's
    :meth:`~repro.injection.campaign.Campaign.manifest` (app, ranks,
    app params, seeds) at top level, the run's regions and design, CLI
    argv, ``git describe``, schema version.  Written once, at start.
``events.jsonl``
    Trial lifecycle events, appended live: ``campaign_start``, one
    ``trial`` event per finished trial (the stored result fields plus a
    wall-clock stamp), the engine's throttled ``progress`` events,
    ``region_final`` rows (with stratified estimates when present),
    ``campaign_end``.
``metrics.jsonl``
    Periodic flushes of the campaign's
    :class:`~repro.observability.metrics.MetricsSnapshot`, read from its
    telemetry hub (every ``metrics_interval`` trials and once at the
    end), so metric time-series survive the run.
``summary.json`` / ``report.html``
    Final tallies, stratified estimates, wall time/throughput, and the
    dashboard - both are *pure functions of the three files above*:
    :func:`build_summary` reads only ``manifest.json`` +
    ``events.jsonl`` + ``metrics.jsonl``, so ``python -m repro report
    DIR`` regenerates them bit-identically at any later time.
``reproduce.sh``
    The exact command that produced the run (same seeds, same trial
    keys, same stored bytes).

The discipline mirrors per-run isolation in embedding-training repos:
every number in a paper table must trace to a directory that can
regenerate it.
"""

from __future__ import annotations

import json
import os
import shlex
import stat
import subprocess
import time
from pathlib import Path
from typing import IO

from repro.engine.progress import TrialSink
from repro.engine.store import StoreSummary, read_jsonl
from repro.engine.trial import TrialResult

#: Version of the run-directory layout and of every JSON payload in it.
ARTIFACT_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"
METRICS_NAME = "metrics.jsonl"
SUMMARY_NAME = "summary.json"
REPORT_NAME = "report.html"
REPRODUCE_NAME = "reproduce.sh"

#: Default trials between metric snapshot flushes.
DEFAULT_METRICS_INTERVAL = 25


def git_describe() -> str | None:
    """``git describe --always --dirty`` of the working tree, or
    ``None`` outside a repository / without git."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _stratified_json(estimate) -> dict:
    """JSON view of a :class:`~repro.sampling.theory.StratifiedEstimate`."""
    return {
        "pool": estimate.pool,
        "alpha": estimate.alpha,
        "executed": estimate.executed,
        "error_rate": estimate.error_rate,
        "half_width": estimate.half_width,
        "cells": [
            {
                "name": cell.name,
                "population": cell.population,
                "executed": cell.executed,
                "errors": cell.errors,
                "known_zero": cell.known_zero,
            }
            for cell in estimate.cells
        ],
    }


class RunArtifacts(TrialSink):
    """Writer half of one artifact run directory.

    A :class:`~repro.engine.progress.TrialSink`: the campaign engine
    hands it every trial, progress event and region-final row as they
    happen; every line is flushed, so an interrupted campaign still
    leaves a parseable record.  Given the campaign's
    :class:`~repro.observability.serve.TelemetryHub` as ``hub``, it
    also appends the hub's metrics snapshot to ``metrics.jsonl`` every
    ``metrics_interval`` trials; list it after the hub among the
    engine's sinks, so each flush includes the trial the hub just
    folded.  :meth:`finalize` stamps
    ``campaign_end``, flushes the final metrics snapshot, and derives
    ``summary.json`` + ``report.html`` *from the files just written* -
    the same derivation ``python -m repro report DIR`` re-runs later,
    which is what makes regeneration bit-identical by construction.

    A directory holds one run: one that already holds a manifest or an
    event log raises :class:`FileExistsError` before anything is
    written, so a second run cannot fold its trials into the first's.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        manifest: dict | None = None,
        *,
        metrics_interval: int = DEFAULT_METRICS_INTERVAL,
        hub=None,
    ) -> None:
        self.directory = Path(directory)
        for name in (MANIFEST_NAME, EVENTS_NAME):
            if (self.directory / name).exists():
                raise FileExistsError(
                    f"{self.directory} already holds a run ({name}); "
                    f"use a new directory"
                )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics_interval = max(1, metrics_interval)
        self.hub = hub
        self._events: IO[str] | None = None
        self._metrics: IO[str] | None = None
        self._trials = 0
        self._since_flush = 0
        self._flushes = 0
        self._finalized = False

        payload = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "created_unix": time.time(),
            "git_describe": git_describe(),
            "metrics_interval": self.metrics_interval,
        }
        payload.update(manifest or {})
        (self.directory / MANIFEST_NAME).write_text(_dump(payload))
        self.manifest = payload
        command = payload.get("command")
        if command:
            self._write_reproduce(command)
        self.note_event("campaign_start")

    # ------------------------------------------------------------------
    # the sink (engine-facing)
    # ------------------------------------------------------------------
    def _append(self, name: str, text: str) -> IO[str]:
        attr = "_events" if name == EVENTS_NAME else "_metrics"
        fh = getattr(self, attr)
        if fh is None:
            fh = open(self.directory / name, "a")
            setattr(self, attr, fh)
        fh.write(text)
        fh.flush()
        return fh

    def note_event(self, kind: str, **fields) -> None:
        event = {"type": kind, "t": time.time()}
        event.update(fields)
        self._append(EVENTS_NAME, _dump_line(event))

    def trial(self, result: TrialResult) -> None:
        self._trials += 1
        self._since_flush += 1
        self.note_event("trial", resumed=result.resumed, **result.to_json())
        if self.hub is not None and self._since_flush >= self.metrics_interval:
            self._flush_metrics()

    def progress(self, event) -> None:
        self.note_event(
            "progress",
            app=event.app,
            region=event.region,
            done=event.done,
            planned=event.planned,
            resumed=event.resumed,
            errors=event.errors,
            achieved_d=event.achieved_d,
            target_d=event.target_d,
            final=event.final,
        )

    def region_final(self, app: str, region_result) -> None:
        self.note_event(
            "region_final",
            app=app,
            region=region_result.region.value,
            trials=region_result.executions,
            errors=region_result.tally.errors,
            resumed=region_result.resumed,
            pruned=region_result.pruned,
            adaptive_d=region_result.adaptive_d,
            stratified=(
                _stratified_json(region_result.stratified)
                if region_result.stratified is not None
                else None
            ),
        )

    def _flush_metrics(self) -> None:
        self._flushes += 1
        self._since_flush = 0
        self._append(
            METRICS_NAME,
            _dump_line(
                {
                    "seq": self._flushes,
                    "t": time.time(),
                    "trials": self._trials,
                    "snapshot": self.hub.metrics_snapshot().to_json(),
                }
            ),
        )

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def finalize(self) -> dict:
        """Close the run: final metrics flush, ``campaign_end``, then
        derive ``summary.json`` and ``report.html`` from the files."""
        if self._finalized:
            return build_summary(self.directory)
        self._finalized = True
        if self.hub is not None:
            self._flush_metrics()
        self.note_event("campaign_end", trials=self._trials)
        self.close()
        return write_outputs(self.directory)

    def close(self) -> None:
        for attr in ("_events", "_metrics"):
            fh = getattr(self, attr)
            if fh is not None:
                fh.close()
                setattr(self, attr, None)

    def _write_reproduce(self, command: str) -> None:
        path = self.directory / REPRODUCE_NAME
        path.write_text(
            "#!/bin/sh\n"
            "# Regenerates this campaign run: same seeds, same trial keys,\n"
            "# same stored bytes (artifact/serve paths included verbatim).\n"
            "set -e\n"
            f"exec {command}\n"
        )
        path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP)


def reproduce_command(argv: list[str] | None = None) -> str:
    """The shell command reproducing the current invocation."""
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    return shlex.join(["python", "-m", "repro", *args])


# ----------------------------------------------------------------------
# summary derivation (the pure-function half)
# ----------------------------------------------------------------------
def _objects(path: Path):
    """The JSON objects of a run log, its torn tail left unread."""
    return (obj for _, obj in read_jsonl(path) if obj is not None)


def build_summary(directory: str | os.PathLike) -> dict:
    """Derive the run summary from ``manifest.json`` + ``events.jsonl``
    + ``metrics.jsonl`` *alone* - no live state, no store - so any later
    ``python -m repro report DIR`` reproduces it bit-identically."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{manifest_path}: not an artifact run directory"
        )
    manifest = json.loads(manifest_path.read_text())

    fold = StoreSummary()
    region_finals: list[dict] = []
    progress_events = 0
    resumed = 0
    t_start = t_end = None
    for obj in _objects(directory / EVENTS_NAME):
        kind = obj.get("type")
        if kind == "campaign_start":
            t_start = obj.get("t")
        elif kind == "campaign_end":
            t_end = obj.get("t")
        elif kind == "progress":
            progress_events += 1
        elif kind == "region_final":
            row = {k: v for k, v in obj.items() if k not in ("type", "t")}
            region_finals.append(row)
        elif kind == "trial":
            try:
                result = TrialResult.from_json(obj)
            except ValueError:
                continue
            fold.add(result)
            if obj.get("resumed"):
                resumed += 1

    last_metrics = None
    metrics_flushes = 0
    for obj in _objects(directory / METRICS_NAME):
        metrics_flushes += 1
        last_metrics = obj
    final_snapshot = (
        last_metrics.get("snapshot") if last_metrics is not None else None
    )

    wall = (
        t_end - t_start
        if t_start is not None and t_end is not None
        else None
    )
    trials = fold.trials
    stratified = {
        row["region"]: row.get("stratified")
        for row in region_finals
        if row.get("stratified") is not None
    }
    regions = []
    for row in fold.rows():
        payload = row.to_json()
        payload["stratified"] = stratified.get(row.region)
        regions.append(payload)
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "app": manifest.get("app"),
        "seed": manifest.get("seed"),
        "trials": trials,
        "errors": fold.errors,
        "resumed": resumed,
        "regions": regions,
        "region_finals": region_finals,
        "progress_events": progress_events,
        "metrics_flushes": metrics_flushes,
        "metrics": final_snapshot,
        "wall_seconds": wall,
        "throughput_trials_per_second": (
            trials / wall if wall else None
        ),
    }


def write_outputs(directory: str | os.PathLike) -> dict:
    """(Re)derive and write ``summary.json`` + ``report.html``."""
    directory = Path(directory)
    summary = build_summary(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    (directory / SUMMARY_NAME).write_text(_dump(summary))
    (directory / REPORT_NAME).write_text(render_report(manifest, summary))
    return summary


def check_outputs(directory: str | os.PathLike) -> list[str]:
    """Names of derived files whose on-disk bytes differ from a fresh
    derivation (empty = bit-identical, the CI gate)."""
    directory = Path(directory)
    summary = build_summary(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    expected = {
        SUMMARY_NAME: _dump(summary),
        REPORT_NAME: render_report(manifest, summary),
    }
    stale = []
    for name, text in expected.items():
        path = directory / name
        if not path.exists() or path.read_text() != text:
            stale.append(name)
    return stale


# ----------------------------------------------------------------------
# report.html - the self-contained dashboard
# ----------------------------------------------------------------------
#: Fixed manifestation -> categorical slot assignment (identity is
#: never cycled; the order is the palette's validated adjacency order).
_OUTCOME_SLOTS = (
    ("correct", "var(--series-1)"),
    ("crash", "var(--series-2)"),
    ("hang", "var(--series-3)"),
    ("incorrect", "var(--series-4)"),
    ("app_detected", "var(--series-5)"),
    ("mpi_detected", "var(--series-6)"),
)

_REPORT_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary); background: var(--page);
  margin: 0; padding: 24px; min-height: 100vh; box-sizing: border-box;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
  }
}
.viz-root h1 { font-size: 18px; margin: 0 0 2px; }
.viz-root h2 { font-size: 14px; margin: 28px 0 10px; }
.viz-root .sub { color: var(--text-secondary); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 110px;
}
.tile .v { font-size: 22px; }
.tile .k { color: var(--muted); font-size: 11px; text-transform: uppercase;
  letter-spacing: 0.04em; }
.panel { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px; }
.row { display: flex; align-items: center; gap: 10px; margin: 6px 0; }
.row .lbl { width: 110px; color: var(--text-secondary); text-align: right;
  flex: none; }
.row .n { width: 90px; color: var(--muted); flex: none;
  font-variant-numeric: tabular-nums; }
.bar { display: flex; flex: 1; height: 14px; gap: 2px; }
.seg { border-radius: 4px; min-width: 1px; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin-top: 10px;
  color: var(--text-secondary); }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; vertical-align: -1px; }
.hist { display: flex; align-items: flex-end; gap: 2px; height: 84px;
  border-bottom: 1px solid var(--baseline); padding: 0 2px; }
.hist .hb { flex: 1; background: var(--series-1);
  border-radius: 4px 4px 0 0; min-height: 1px; }
.hx { display: flex; gap: 2px; padding: 2px 2px 0; color: var(--muted);
  font-size: 10px; }
.hx span { flex: 1; text-align: center; }
.grid2 { display: grid; gap: 12px;
  grid-template-columns: repeat(auto-fit, minmax(260px, 1fr)); }
.viz-root table { border-collapse: collapse; width: 100%; }
.viz-root th, .viz-root td { text-align: right; padding: 4px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
.viz-root th { color: var(--muted); font-weight: 500; }
.viz-root th:first-child, .viz-root td:first-child { text-align: left; }
"""


def _esc(text: object) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _tile(label: str, value: str) -> str:
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(label)}</div></div>'
    )


def _outcome_section(regions: list[dict]) -> str:
    rows = []
    for row in regions:
        trials = row["trials"] or 1
        segments = []
        for name, color in _OUTCOME_SLOTS:
            count = row["manifestations"].get(name, 0)
            if not count:
                continue
            pct = 100.0 * count / trials
            segments.append(
                f'<div class="seg" style="flex:{count} {count} 0;'
                f'background:{color}" title="{_esc(name)}: {count} '
                f"({pct:.1f}%)\"></div>"
            )
        rows.append(
            f'<div class="row"><div class="lbl">{_esc(row["region"])}</div>'
            f'<div class="bar">{"".join(segments)}</div>'
            f'<div class="n">{row["trials"]} trials</div></div>'
        )
    legend = "".join(
        f'<span><span class="sw" style="background:{color}"></span>'
        f"{_esc(name)}</span>"
        for name, color in _OUTCOME_SLOTS
    )
    table_rows = "".join(
        "<tr><td>{region}</td><td>{trials}</td><td>{errors}</td>"
        "<td>{rate:.1f}</td><td>{d:.1f}</td><td>{pruned}</td></tr>".format(
            region=_esc(row["region"]),
            trials=row["trials"],
            errors=row["errors"],
            rate=row["error_rate_percent"],
            d=row["achieved_d_percent"],
            pruned=row["pruned"],
        )
        for row in regions
    )
    return (
        '<h2>Outcome mix per region</h2><div class="panel">'
        + "".join(rows)
        + f'<div class="legend">{legend}</div></div>'
        + '<h2>Region tallies</h2><div class="panel"><table>'
        + "<tr><th>region</th><th>trials</th><th>errors</th>"
        + "<th>error %</th><th>d %</th><th>pruned</th></tr>"
        + table_rows
        + "</table></div>"
    )


def _latency_section(metrics: dict | None) -> str:
    if not metrics:
        return ""
    hists = {
        sample: h
        for sample, h in (metrics.get("histograms") or {}).items()
        if sample.startswith("repro_error_latency_blocks")
    }
    if not hists:
        return ""
    panels = []
    for sample in sorted(hists):
        hist = hists[sample]
        bounds, counts = hist["bounds"], hist["counts"]
        region = sample.split('region="', 1)[-1].rstrip('"}')
        # Trim empty tail buckets (keep at least four for shape).
        last = max(
            [i for i, c in enumerate(counts) if c] + [3]
        )
        shown = counts[: last + 1]
        peak = max(shown) or 1
        bars = "".join(
            f'<div class="hb" style="height:{max(100.0 * c / peak, 1.0):.0f}%"'
            f' title="&le; {_esc(_bucket_label(bounds, i))} blocks: {c}">'
            "</div>"
            for i, c in enumerate(shown)
        )
        ticks = "".join(
            f"<span>{_esc(_bucket_label(bounds, i))}</span>"
            for i in range(len(shown))
        )
        panels.append(
            f'<div class="panel"><div class="sub">{_esc(region)} '
            f'(n={hist["count"]})</div>'
            f'<div class="hist">{bars}</div><div class="hx">{ticks}</div></div>'
        )
    return (
        "<h2>Error latency (blocks from injection to first divergence)</h2>"
        f'<div class="grid2">{"".join(panels)}</div>'
    )


def _bucket_label(bounds: list, i: int) -> str:
    if i >= len(bounds):
        return "inf"
    bound = bounds[i]
    return str(int(bound)) if float(bound).is_integer() else str(bound)


def _fastpath_section(metrics: dict | None) -> str:
    if not metrics:
        return ""
    counters = {
        sample: value
        for sample, value in (metrics.get("counters") or {}).items()
        if sample.startswith("repro_vm_fastpath_total")
    }
    if not counters:
        return ""
    rows = "".join(
        "<tr><td>{kind}</td><td>{value}</td></tr>".format(
            kind=_esc(sample.split('kind="', 1)[-1].rstrip('"}')),
            value=int(value),
        )
        for sample, value in sorted(counters.items())
    )
    return (
        '<h2>Translated fast path</h2><div class="panel"><table>'
        "<tr><th>kind</th><th>count</th></tr>" + rows + "</table></div>"
    )


def render_report(manifest: dict, summary: dict) -> str:
    """The self-contained dashboard: stat tiles, per-region outcome
    bars, error-latency histograms, fast-path counters.  Pure function
    of its inputs (no clocks), so regeneration is bit-identical."""
    trials = summary["trials"]
    errors = summary["errors"]
    wall = summary.get("wall_seconds")
    throughput = summary.get("throughput_trials_per_second")
    tiles = [
        _tile("trials", str(trials)),
        _tile("errors", str(errors)),
        _tile(
            "error rate",
            f"{100.0 * errors / trials:.1f}%" if trials else "n/a",
        ),
        _tile("wall", f"{wall:.1f}s" if wall is not None else "n/a"),
        _tile(
            "throughput",
            f"{throughput:.2f}/s" if throughput else "n/a",
        ),
        _tile("regions", str(len(summary["regions"]))),
    ]
    describe = manifest.get("git_describe") or "untracked"
    header = (
        f"<h1>Campaign run: {_esc(manifest.get('app', '?'))}</h1>"
        f'<p class="sub">seed {_esc(manifest.get("seed", "?"))}'
        f" &middot; {_esc(describe)}"
        f" &middot; schema v{_esc(summary['schema_version'])}</p>"
    )
    body = (
        header
        + f'<div class="tiles">{"".join(tiles)}</div>'
        + _outcome_section(summary["regions"])
        + _latency_section(summary.get("metrics"))
        + _fastpath_section(summary.get("metrics"))
    )
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>repro campaign: {_esc(manifest.get('app', '?'))}</title>"
        f"<style>{_REPORT_CSS}</style></head>"
        f'<body class="viz-root">{body}</body></html>\n'
    )
