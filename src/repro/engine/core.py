"""The single-trial execution authority.

Everything that runs one faulty job flows through this module: golden
replay, injector install, execution, and outcome classification,
under the :class:`ExecutionContext` that
:meth:`~repro.injection.campaign.Campaign.execution_context` builds.
The executors call :func:`execute_trial`; ``Campaign.run_injection``
calls :func:`run_observed` for a hand-made fault.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine import checkpoint as _checkpoint
from repro.engine.trial import TrialResult, TrialSpec, restore_rng
from repro.injection.faults import FaultSpec, InjectionRecord
from repro.injection.outcomes import Manifestation, classify
from repro.injection.wrappers import install
from repro.mpi.simulator import Job, JobConfig, JobResult
from repro.observability import runtime as _obs_runtime
from repro.observability.metrics import MetricsRegistry, MetricsSnapshot
from repro.observability.timeline import PropagationTimeline, TimelineEvent
from repro.observability.tracer import Tracer


@dataclass
class ExecutionContext:
    """Everything needed to execute and classify one trial.

    Built by :meth:`~repro.injection.campaign.Campaign.execution_context`
    from the campaign's reference run, its hang budgets and its golden
    recording.  Plain data, picklable whenever ``factory`` is (a
    module-level callable or class, or a :func:`functools.partial` of
    one); the parallel executor ships one context per worker.
    """

    app: str
    factory: Callable[[], object]
    config: JobConfig
    reference: JobResult
    round_limit: int
    block_limit: int
    #: Collect per-trial trace events / metrics snapshots.  Plain flags
    #: (set through :meth:`observe` from what the campaign's sinks read)
    #: so they ship to workers inside the pickled context; each trial
    #: then activates exactly the observability scope these request.
    trace: bool = False
    collect_metrics: bool = False
    #: The :class:`~repro.engine.checkpoint.GoldenRecording` of the
    #: campaign's reference run, which every trial replays around the
    #: calls its fault can reach (``None``: trials run from block 0,
    #: the differential tests' oracle).  Every fork worker receives the
    #: one recording exactly once, inside the context.
    checkpoint: object | None = field(default=None, repr=False, compare=False)
    #: The :class:`~repro.engine.checkpoint.TextIndex` TEXT trials read,
    #: built by the first one in each process (``None`` until then).
    text_index: object | None = field(default=None, repr=False, compare=False)

    def observe(self, fields) -> None:
        """Collect exactly the optional result fields named in
        ``fields``: ``"metrics"`` and/or ``"trace_events"``."""
        self.collect_metrics = "metrics" in fields
        self.trace = "trace_events" in fields

    def job_config(self) -> JobConfig:
        return JobConfig(
            nprocs=self.config.nprocs,
            seed=self.config.seed,
            track_memory=False,
            round_limit=self.round_limit,
            block_limit=self.block_limit,
        )


@dataclass
class TrialObservation:
    """Observability artifacts of one executed trial."""

    timeline: PropagationTimeline
    metrics: MetricsSnapshot | None = None
    trace_events: list | None = None


def _finalize_timeline(
    timeline: PropagationTimeline,
    manifestation: Manifestation,
    result: JobResult,
) -> None:
    """Stamp the weakest divergence evidence - an output mismatch found
    only at classification time - at the end-of-run clock.  Correct runs
    keep ``divergence = None``."""
    if manifestation is Manifestation.INCORRECT and timeline.divergence is None:
        end = max(result.blocks_per_rank) if result.blocks_per_rank else None
        timeline.note_divergence(
            TimelineEvent(kind="output_mismatch", rank=None, blocks=end)
        )


def _harvest_job_metrics(
    registry: MetricsRegistry,
    job: Job,
    result: JobResult,
    ctx: ExecutionContext,
) -> None:
    """End-of-job counter sweep (per-trial registry, merged in the
    driver): VM work, channel traffic, per-worker throughput, and
    hang-budget consumption."""
    registry.counter("repro_worker_trials_total", worker=f"pid{os.getpid()}").inc()
    for vm in job.vms:
        registry.counter("repro_vm_instructions_total").inc(vm.instructions_retired)
        registry.counter("repro_vm_blocks_total").inc(vm.clock.blocks)
        for key, value in vm.fastpath_stats.items():
            registry.counter("repro_vm_fastpath_total", kind=key).inc(value)
    for endpoint in job.endpoints:
        stats = endpoint.stats
        registry.counter("repro_channel_packets_total", kind="control").inc(
            stats.control_packets
        )
        registry.counter("repro_channel_packets_total", kind="data").inc(
            stats.data_packets
        )
        registry.counter("repro_channel_bytes_total", kind="header").inc(
            stats.header_bytes
        )
        registry.counter("repro_channel_bytes_total", kind="payload").inc(
            stats.payload_bytes
        )
    if ctx.round_limit:
        registry.histogram(
            "repro_hang_budget_consumed_percent",
            buckets=(5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0),
        ).observe(100.0 * result.rounds / ctx.round_limit)


def run_observed(
    ctx: ExecutionContext,
    fault: FaultSpec,
    rng: np.random.Generator,
) -> tuple[Manifestation, InjectionRecord, JobResult, TrialObservation]:
    """Execute one fresh job with one fault armed, under the
    observability scope the context requests, and classify it.

    The propagation timeline is always collected (it costs a handful of
    dataclass appends per trial); the tracer and metrics registry exist
    only when the context's ``trace`` / ``collect_metrics`` flags are
    set.
    """
    plan = _checkpoint.prepare_replay(ctx, fault)
    tracer = Tracer() if ctx.trace else None
    registry = MetricsRegistry() if ctx.collect_metrics else None
    timeline = PropagationTimeline()
    with _obs_runtime.activate(
        tracer=tracer, metrics=registry, timeline=timeline
    ):
        job = Job(ctx.factory(), ctx.job_config())
        if plan is not None:
            _checkpoint.install_replay(job, plan)
            _obs_runtime.note_checkpoint_restore(
                switch_round=plan.switch_round,
                blocks_skipped=plan.blocks_skipped,
                calls_skipped=plan.calls_skipped,
            )
        record = install(job, fault, rng)
        result = job.run()
        manifestation = classify(result, ctx.reference)
        _finalize_timeline(timeline, manifestation, result)
        if registry is not None:
            _harvest_job_metrics(registry, job, result, ctx)
    observation = TrialObservation(
        timeline=timeline,
        metrics=registry.snapshot() if registry is not None else None,
        trace_events=tracer.events if tracer is not None else None,
    )
    return manifestation, record, result, observation


def execute_trial(ctx: ExecutionContext, spec: TrialSpec) -> TrialResult:
    """Execute one :class:`TrialSpec`, resuming its captured RNG stream."""
    manifestation, record, _, observation = run_observed(
        ctx, spec.fault, restore_rng(spec.rng_state)
    )
    digest = observation.timeline.summary()
    return TrialResult(
        key=spec.key,
        app=ctx.app,
        region=spec.region,
        index=spec.index,
        manifestation=manifestation,
        delivered=record.delivered,
        detail=record.detail,
        record=record,
        injected_at_blocks=digest.get("injected_at_blocks"),
        injected_at_insns=digest.get("injected_at_insns"),
        injected_byte=digest.get("injected_byte"),
        diverged_at_blocks=digest.get("diverged_at_blocks"),
        divergence_kind=digest.get("divergence_kind"),
        latency_blocks=digest.get("latency_blocks"),
        metrics=observation.metrics,
        trace_events=observation.trace_events,
    )
