"""Campaign observability: the trial sink protocol and progress events.

Everything a campaign emits besides its result rows is a view of the
same trials.  The engine feeds each view through one protocol,
:class:`TrialSink`: it announces every region it starts, hands over
every finished trial, publishes a :class:`ProgressEvent` every
``log_interval`` completed trials per region (and once at region end),
and passes on each region's final row.  The live telemetry hub (the
campaign's one metrics fold), the merged Chrome trace, the artifact
run directory, the CLI's stderr :class:`ProgressPrinter` and the
:class:`TrialCollector` that gives Python callers every trial's result
are sinks.  A sink declares which optional per-trial observations it
reads (:attr:`TrialSink.reads`); trials collect only those.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class ProgressEvent:
    """Snapshot of one region's campaign progress."""

    app: str
    region: str
    #: Trials finished so far (executed + resumed from the store).
    done: int
    #: Planned trials, or ``None`` in adaptive mode (open-ended).
    planned: int | None
    #: Trials satisfied from the result store without execution.
    resumed: int
    #: Manifested errors among the finished trials.
    errors: int
    #: Half-width d the design's stopping rule uses (fraction, not
    #: percent): the uniform Cochran d, or the stratified estimate's
    #: (infinite until every live stratum has a result).
    achieved_d: float
    #: Adaptive-mode target half-width, or ``None`` for fixed-n runs.
    target_d: float | None = None
    #: True for the final event of a region.
    final: bool = False

    @property
    def error_rate_percent(self) -> float:
        return 100.0 * self.errors / self.done if self.done else 0.0


class TrialSink:
    """One consumer of a campaign's trials; every method is a no-op.

    A sink overrides what it needs.  The engine calls the methods from
    its driver thread only, in campaign order, and holds no lock: a
    sink whose state other threads read (a scrape, say) guards that
    state itself.
    """

    #: The optional :class:`~repro.engine.trial.TrialResult` fields this
    #: sink reads: ``"metrics"`` (the trial's metrics snapshot) and/or
    #: ``"trace_events"``.  Executors collect a field only when some
    #: sink of the campaign reads it (see :func:`observations`).
    reads: frozenset[str] = frozenset()

    def region_start(self, app: str, region: str, planned: int | None) -> None:
        """A region begins; ``planned`` is ``None`` for adaptive runs."""

    def trial(self, result) -> None:
        """One finished :class:`~repro.engine.trial.TrialResult`
        (executed, pruned or resumed from the store)."""

    def progress(self, event: ProgressEvent) -> None:
        """A periodic or region-final :class:`ProgressEvent`."""

    def region_final(self, app: str, row) -> None:
        """A region's finished
        :class:`~repro.injection.campaign.RegionResult`."""


#: Every optional :class:`~repro.engine.trial.TrialResult` field a sink
#: may read.
OBSERVATIONS = frozenset({"metrics", "trace_events"})


def observations(sinks) -> list[str]:
    """The optional result fields any of ``sinks`` reads, sorted: what
    an engine's trials collect, and what a distributed campaign's
    manifest asks its workers to send."""
    return sorted(set().union(*(sink.reads for sink in sinks)))


def format_progress(event: ProgressEvent) -> str:
    """One human-readable progress line."""
    total = f"/{event.planned}" if event.planned is not None else ""
    line = (
        f"[{event.app}:{event.region}] {event.done}{total} trials"
        f" ({event.resumed} resumed), error rate "
        f"{event.error_rate_percent:.1f}%, d = {100 * event.achieved_d:.1f}%"
    )
    if event.target_d is not None:
        line += f" (target {100 * event.target_d:.1f}%)"
    if event.final:
        line += " [done]"
    return line


class ProgressPrinter(TrialSink):
    """Prints each progress event to stderr as one
    :func:`format_progress` line: the CLI's progress output."""

    def progress(self, event: ProgressEvent) -> None:
        print(format_progress(event), file=sys.stderr)


class TrialCollector(TrialSink):
    """Keeps every finished trial's result in ``results``, in the order
    the engine ingests them.  Executed trials carry their
    :class:`~repro.injection.faults.InjectionRecord` in ``record``;
    pruned and resumed ones carry ``None`` there."""

    def __init__(self) -> None:
        self.results: list = []

    def trial(self, result) -> None:
        self.results.append(result)
