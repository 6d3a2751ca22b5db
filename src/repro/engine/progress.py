"""Campaign observability: per-region progress events.

The engine routes progress through a :class:`ProgressEmitter`: every
``log_interval`` *completed trials* per ``(app, region)`` (and once at
region end) it builds a :class:`ProgressEvent`, mirrors it into the
campaign's metrics registry when one is attached, and forwards it to
the legacy ``progress`` callback when one is set.  The callback is a
deprecated shim - new consumers should read the registry
(``repro_campaign_trials_done`` et al.) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.observability.metrics import MetricsRegistry


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


@dataclass
class ProgressEmitter:
    """Trial-count-driven progress throttle and fan-out.

    ``note_trial`` counts completed trials per ``(app, region)`` and
    reports when a periodic event is due; ``emit`` publishes an event to
    the metrics registry (gauges + an event counter) and to the
    deprecated ``callback`` shim.  Emission works with either sink
    absent, so a campaign run with only ``--metrics`` still surfaces
    progress without any callback wired.
    """

    #: Deprecated: pre-observability consumers passed a callable here
    #: (the engine's old ``progress=`` argument routes to it unchanged).
    callback: Callable[[ProgressEvent], None] | None = None
    #: Completed trials per region between periodic events (0 = only
    #: final events).
    log_interval: int = 0
    metrics: MetricsRegistry | None = None
    _since: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def active(self) -> bool:
        return self.callback is not None or self.metrics is not None

    def note_trial(self, app: str, region: str) -> bool:
        """Count one completed trial; True when a periodic emission is
        due for that region."""
        if not self.log_interval or not self.active:
            return False
        key = (app, region)
        count = self._since.get(key, 0) + 1
        if count >= self.log_interval:
            self._since[key] = 0
            return True
        self._since[key] = count
        return False

    def emit(self, event: ProgressEvent) -> None:
        metrics = self.metrics
        if metrics is not None:
            labels = {"app": event.app, "region": event.region}
            metrics.gauge("repro_campaign_trials_done", **labels).set(event.done)
            metrics.gauge("repro_campaign_errors", **labels).set(event.errors)
            metrics.gauge("repro_campaign_achieved_d", **labels).set(
                event.achieved_d
            )
            metrics.counter(
                "repro_campaign_progress_events_total", **labels
            ).inc()
        if self.callback is not None:
            self.callback(event)


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
