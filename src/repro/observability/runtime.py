"""Per-process observability activation.

Instrumented layers (the VM, the MPI stack, the injectors, the
detectors) consult three module globals.  The contract that keeps the
disabled path essentially free:

* every instrumentation site begins with a plain ``runtime.TRACER is
  None`` / ``runtime.METRICS is None`` / ``runtime.TIMELINE is None``
  check and does nothing else when the global is unset;
* sites fire at *event* granularity (a kernel call, a packet, an MPI
  call, a bit flip) - never per instruction - so even the enabled path
  scales with communication and call volume, not with executed blocks.

:func:`activate` installs a scope (one trial) and restores the previous
state on exit, which makes it safe under fork-based workers: whatever
scope the parent had active at fork time, each trial runs under exactly
the scope its execution context requested.  Outside a scope every
global is ``None``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.observability.metrics import MetricsRegistry
from repro.observability.timeline import PropagationTimeline, TimelineEvent
from repro.observability.tracer import Tracer

#: Active tracer (None = tracing disabled).
TRACER: Tracer | None = None
#: Active metrics registry (None = metrics disabled).
METRICS: MetricsRegistry | None = None
#: Active propagation timeline (None = no trial in scope).
TIMELINE: PropagationTimeline | None = None


@contextmanager
def activate(
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    timeline: PropagationTimeline | None = None,
):
    """Install an observability scope, restoring the prior one on exit."""
    global TRACER, METRICS, TIMELINE
    prior = (TRACER, METRICS, TIMELINE)
    TRACER, METRICS, TIMELINE = tracer, metrics, timeline
    try:
        yield
    finally:
        TRACER, METRICS, TIMELINE = prior


# ----------------------------------------------------------------------
# shared event helpers (rare events; fine to pay a call when active)
# ----------------------------------------------------------------------
def note_detector(
    family: str,
    *,
    rank: int | None = None,
    blocks: int | None = None,
    corrected: bool = False,
    detail: str = "",
) -> None:
    """A detector fired: count it by family and stamp the timeline.

    Called from the detector modules *before* they raise (or, for
    correcting detectors like ABFT, instead of raising), so the
    first-divergence instant is the firing itself, not the eventual
    job teardown.
    """
    metrics = METRICS
    if metrics is not None:
        metrics.counter(
            "repro_detector_firings_total",
            family=family,
            result="corrected" if corrected else "detected",
        ).inc()
    timeline = TIMELINE
    if timeline is not None:
        timeline.note_divergence(
            TimelineEvent(
                kind=f"detector:{family}",
                rank=rank,
                blocks=blocks,
                detail=detail,
            )
        )
    tracer = TRACER
    if tracer is not None:
        tracer.instant(
            f"detector:{family}",
            "detector",
            blocks or 0,
            tid=rank or 0,
            args={"detail": detail} if detail else None,
        )


def note_injection(
    *,
    rank: int,
    blocks: int,
    insns: int | None = None,
    byte_offset: int | None = None,
    region: str = "",
    detail: str = "",
) -> None:
    """A fault was delivered: stamp the timeline and count the flip."""
    timeline = TIMELINE
    if timeline is not None:
        timeline.note_injection(
            TimelineEvent(
                kind="injection",
                rank=rank,
                blocks=blocks,
                insns=insns,
                byte_offset=byte_offset,
                detail=detail,
            )
        )
    metrics = METRICS
    if metrics is not None:
        metrics.counter("repro_injection_flips_total", region=region or "?").inc()
    tracer = TRACER
    if tracer is not None:
        args = {"region": region}
        if detail:
            args["detail"] = detail
        if byte_offset is not None:
            args["byte_offset"] = byte_offset
        tracer.instant("inject:flip", "injection", blocks, tid=rank, args=args)


def note_checkpoint_restore(
    *, switch_round: int, blocks_skipped: int, calls_skipped: int = 0
) -> None:
    """A trial replays the golden recording: count the restore and the
    interpreter work its plan skips before the natural switch round,
    and stamp a tracer instant at the start of the trial (replay begins
    at block 0)."""
    metrics = METRICS
    if metrics is not None:
        metrics.counter("repro_checkpoint_restore_total").inc()
        metrics.counter("repro_checkpoint_blocks_skipped_total").inc(
            blocks_skipped
        )
    tracer = TRACER
    if tracer is not None:
        tracer.instant(
            "checkpoint:restore",
            "checkpoint",
            0,
            args={
                "switch_round": switch_round,
                "blocks_skipped": blocks_skipped,
                "calls_skipped": calls_skipped,
            },
        )


def note_checkpoint_rejoin(*, rank: int, blocks: int) -> None:
    """The faulted rank's state matched the golden run again after a
    real call: count the rejoin and stamp a tracer instant at the
    call's end clock on that rank (every later call replays)."""
    metrics = METRICS
    if metrics is not None:
        metrics.counter("repro_checkpoint_rejoin_total").inc()
    tracer = TRACER
    if tracer is not None:
        tracer.instant("checkpoint:rejoin", "checkpoint", blocks, tid=rank)


def note_termination(kind: str, *, rank: int | None, blocks: int | None, detail: str = "") -> None:
    """The job ended abnormally: record it as a divergence instant (the
    weakest evidence; detector firings recorded earlier take precedence
    because the timeline keeps the first divergence)."""
    timeline = TIMELINE
    if timeline is not None:
        timeline.note_divergence(
            TimelineEvent(kind=kind, rank=rank, blocks=blocks, detail=detail)
        )
    tracer = TRACER
    if tracer is not None:
        tracer.instant(
            f"end:{kind}",
            "trial",
            blocks or 0,
            tid=rank or 0,
            args={"detail": detail} if detail else None,
        )
