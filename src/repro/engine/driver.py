"""The campaign engine: parallel, resumable, adaptive trial dispatch.

:class:`CampaignEngine` is built from its
:class:`~repro.injection.campaign.Campaign` and owns everything between
"a trial's ``(region, index)``" and "a filled-in
:class:`~repro.injection.campaign.RegionResult`":

* a trial is a pure function of its campaign and its ``(region,
  index)``: :meth:`CampaignEngine.make_spec` computes its key and
  samples its fault from one deterministic RNG stream per ``(campaign
  seed, region, index)``.  Specs are executed through a pluggable
  executor - serial, a process pool with ``jobs`` workers, or leased
  batches on remote workers, which make the same specs from the same
  pairs (:class:`~repro.engine.coordination.LeaseExecutor`) - with
  bit-identical results whichever runs them;
* an optional append-only :class:`~repro.engine.store.ResultStore`
  records every finished trial, enabling ``resume`` of interrupted or
  extended campaigns (only missing trials execute);
* one region loop runs every sampling design.  A design yields waves
  of trial specs, sees every ingested result, and owns the stopping
  rule: :class:`_Uniform` runs the plan's sample size in one wave
  (fixed-n) or dispatches waves until the observed Cochran half-width
  *d* drops below ``target_d``, capped by the section-4.3 oversampling
  bound, which guarantees termination (adaptive); :class:`_Stratified`
  Neyman-allocates its waves across predicted-outcome strata.  Each
  wave reaches the executor as one dispatch;
* every view of the trials - campaign metrics and live telemetry, the
  merged trace, an artifact run directory, the CLI's progress line - is
  a :class:`~repro.engine.progress.TrialSink` in ``sinks``: each one
  sees every region start, every finished trial, a
  :class:`~repro.engine.progress.ProgressEvent` every ``log_interval``
  trials per region and at region end (reporting the d the design's
  stopping rule uses), and every region's final row.  Trials collect a
  metrics snapshot or trace events only when a sink reads them.

The layers above delegate here: ``Campaign.engine`` is
``CampaignEngine(campaign, **options)``, ``Campaign.run_region``/``run``
build an engine per call, and the CLI ``campaign`` subcommand runs one
through ``Campaign.run``.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Sequence

from repro.engine.executors import make_executor
from repro.engine.progress import ProgressEvent, TrialSink, observations
from repro.engine.store import ResultStore, open_store
from repro.engine.trial import TrialResult, TrialSpec, trial_key, trial_rng
from repro.injection.faults import FaultSpec, Region
from repro.injection.outcomes import Manifestation
from repro.sampling.theory import (
    StratifiedEstimate,
    StratumCell,
    neyman_allocation,
    sample_size_oversampled,
    z_alpha,
)

#: Trials per adaptive dispatch wave.  Not scaled by ``jobs``: the
#: stopping check runs after complete waves, so a fixed wave keeps the
#: executed trial set - and every tally - identical for any worker
#: count.
ADAPTIVE_BATCH = 8

#: Stratified mode: pilot trials per stratum (enough for a first
#: variance estimate), trials per Neyman wave, and the classification
#: pool floor.  The wave size is deliberately *not* scaled by ``jobs``:
#: allocation decisions depend only on complete-wave tallies, so the
#: executed trial set - and therefore every tally - is bit-identical
#: for any worker count.
STRATIFIED_PILOT = 8
STRATIFIED_BATCH = 32
STRATIFIED_MIN_POOL = 512

#: Strata whose error rate is statically proven zero and which are
#: therefore never executed.  The outcome predictor labels a site
#: ``masked`` exactly when the masking oracle proves it, the proof that
#: lets every design tally a pruned site as a synthetic CORRECT.
KNOWN_ZERO_STRATA = frozenset({"masked"})


def observed_half_width(errors: int, n: int, alpha: float = 0.05) -> float:
    """Cochran half-width d for the observed error proportion.

    The proportion is clamped away from the degenerate 0/1 endpoints
    (where the normal approximation collapses to zero width) so small
    all-correct batches cannot stop an adaptive campaign prematurely.
    """
    if n <= 0:
        return float("inf")
    floor = 1.0 / (n + 1)
    p = min(max(errors / n, floor), 1.0 - floor)
    return z_alpha(alpha) * math.sqrt(p * (1.0 - p) / n)


class _Uniform:
    """Uniform sampling over trial indices ``0, 1, ...``.

    Fixed-n (``target_d is None``) is one wave of ``n`` trials.
    Adaptive dispatches waves of :data:`ADAPTIVE_BATCH` until the
    observed half-width drops below ``target_d`` or the oversampling
    bound is reached.
    """

    def __init__(self, engine: "CampaignEngine", region: Region, n, target_d) -> None:
        self.engine = engine
        self.region = region
        self.target_d = target_d
        self.alpha = engine.plan.alpha
        #: The fixed budget, or ``None`` for an open-ended adaptive run.
        self.planned = n if target_d is None else None

    def _specs(self, start: int, stop: int) -> list[TrialSpec]:
        return [self.engine.make_spec(self.region, i) for i in range(start, stop)]

    def waves(self, row):
        if self.planned is not None:
            yield self._specs(0, self.planned)
            return
        cap = sample_size_oversampled(self.target_d, self.alpha)
        done = 0
        while done < cap and self.half_width(row) > self.target_d:
            stop = min(done + ADAPTIVE_BATCH, cap)
            yield self._specs(done, stop)
            done = stop

    def observe(self, result: TrialResult) -> None:
        pass

    def half_width(self, row) -> float:
        return observed_half_width(row.tally.errors, row.executions, self.alpha)

    def finish(self, row) -> None:
        if self.target_d is not None:
            row.adaptive_d = self.half_width(row)


class _Stratified:
    """Predicted-outcome stratified sampling.

    1. **Classify** a uniform pool of sampled trial specs (free: the
       stratifier is static analysis, no execution), giving the stratum
       weights ``W_h`` and, per stratum, a deterministic ordered stream
       of concrete specs.
    2. **Pilot** :data:`STRATIFIED_PILOT` trials in every stratum whose
       rate is not statically known, for first variance estimates.  The
       oracle-proven masked stratum (:data:`KNOWN_ZERO_STRATA`) keeps
       its weight but executes nothing.
    3. **Waves** of :data:`STRATIFIED_BATCH` trials, Neyman-allocated by
       observed per-stratum variance, until the importance-weighted
       half-width drops below ``target_d`` (adaptive) or the budget
       ``n`` is spent (fixed-n).

    A wave joins its strata's slices in sorted stratum order.  Every
    allocation decision is a pure function of complete-wave tallies,
    which are order-independent sums, so the executed trial set and all
    counts are bit-identical for any ``jobs``.  The row carries the raw
    (allocation-biased) tally plus the unbiased
    :class:`~repro.sampling.theory.StratifiedEstimate` in its
    ``stratified`` field.
    """

    def __init__(self, engine: "CampaignEngine", region: Region, n, target_d) -> None:
        self.target_d = target_d
        self.alpha = engine.plan.alpha
        self.planned = n if target_d is None else None
        #: Trials to spend: the fixed budget, or the oversampling bound.
        self.budget = (
            n if target_d is None else sample_size_oversampled(target_d, self.alpha)
        )
        self.pool = max(STRATIFIED_MIN_POOL, 4 * self.budget)
        self.specs: dict[str, list[TrialSpec]] = {}
        #: Stratum of each pool member, by trial index.
        self.stratum_of: list[str] = []
        for index in range(self.pool):
            spec = engine.make_spec(region, index)
            name = engine.stratifier(spec.fault)
            self.specs.setdefault(name, []).append(spec)
            self.stratum_of.append(name)
        self.names = sorted(self.specs)
        #: Specs handed out per stratum.  Kept apart from the observed
        #: counts below, so an estimate taken mid-wave counts only the
        #: trials already ingested.
        self.cursor = dict.fromkeys(self.names, 0)
        self.executed = dict.fromkeys(self.names, 0)
        self.errors = dict.fromkeys(self.names, 0)

    def _take(self, alloc: dict[str, int]) -> list[TrialSpec]:
        wave: list[TrialSpec] = []
        for name in self.names:
            lo = self.cursor[name]
            hi = min(lo + alloc.get(name, 0), len(self.specs[name]))
            wave += self.specs[name][lo:hi]
            self.cursor[name] = hi
        return wave

    def _estimate(self) -> StratifiedEstimate:
        cells = tuple(
            StratumCell(
                name=name,
                population=len(self.specs[name]),
                executed=self.executed[name],
                errors=self.errors[name],
                known_zero=name in KNOWN_ZERO_STRATA,
            )
            for name in self.names
        )
        return StratifiedEstimate(self.pool, cells, self.alpha)

    def waves(self, row):
        pilot: dict[str, int] = {}
        remaining = self.budget
        for name in self.names:
            if name not in KNOWN_ZERO_STRATA:
                pilot[name] = min(STRATIFIED_PILOT, len(self.specs[name]), remaining)
                remaining -= pilot[name]
        yield self._take(pilot)
        while True:
            spent = sum(self.cursor.values())
            if spent >= self.budget:
                return
            estimate = self._estimate()
            if self.target_d is not None and estimate.half_width <= self.target_d:
                return
            alloc = neyman_allocation(
                estimate.cells, self.pool, min(STRATIFIED_BATCH, self.budget - spent)
            )
            if not any(alloc.values()):
                return  # every live stratum exhausted its pool
            yield self._take(alloc)

    def observe(self, result: TrialResult) -> None:
        name = self.stratum_of[result.index]
        self.executed[name] += 1
        self.errors[name] += result.manifestation is not Manifestation.CORRECT

    def half_width(self, row) -> float:
        return self._estimate().half_width

    def finish(self, row) -> None:
        row.stratified = self._estimate()
        if self.target_d is not None:
            row.adaptive_d = row.stratified.half_width


class _RegionState:
    """Mutable aggregation state for one region's run."""

    def __init__(self, result, design, resume: bool, prune) -> None:
        self.result = result  # RegionResult
        self.design = design  # _Uniform | _Stratified
        self.resume = resume
        #: ``FaultSpec -> PruneVerdict``, the campaign's masking oracle
        #: (see :mod:`repro.staticanalysis.propagation.pruning`).
        self.prune = prune
        #: Completed trials since the last periodic progress event.
        self.since_event = 0


class CampaignEngine:
    """Executes injection trials for one application campaign.

    :meth:`run_region` is the one region loop: it builds the region's
    design (:class:`_Stratified` with a ``stratifier``, else
    :class:`_Uniform`), dispatches each wave the design yields as one
    ``executor.run`` call after the store and the masking oracle have
    satisfied what they can, and hands every ingested result back to
    the design, which decides when to stop, which d to report and what
    to write on the row.  The designs read only :meth:`make_spec`,
    ``plan`` and ``stratifier``.

    What trials exist and how they execute comes from the campaign: its
    execution context (factory, reference run, hang budgets, golden
    recording), its sampler and seed (the root of every per-trial RNG
    stream), its ``identity`` (the start of every trial key, so stores
    of different programs or configurations never alias), its plan
    (default per-region sample sizes) and its masking oracle, which
    each region loop asks for every spec the store does not hold, in
    every design; :meth:`run_trials` asks no oracle, so an engine that
    only runs explicit trials builds none.  Specs with a masked verdict
    are not executed: a synthetic CORRECT result
    (``detail="pruned:<reason>"``) is tallied and stored in their
    place.  Because the pruned stratum is statically proven
    outcome-free, crediting its samples as correct keeps every region
    rate unbiased - this is the stratified estimator with a known-zero
    stratum, which is what an importance-weighted tally correction
    reduces to under uniform sampling.

    Parameters
    ----------
    campaign:
        The :class:`~repro.injection.campaign.Campaign` whose trials
        this engine runs.
    jobs:
        Worker processes; ``None`` reads ``REPRO_CAMPAIGN_JOBS``
        (default 1 = serial in-process).
    store:
        ``ResultStore`` or path; every finished trial is appended.
    log_interval:
        Completed trials per region between periodic progress events
        (0: only each region's final event).  A periodic event that
        would duplicate the final one is skipped.
    stratify:
        Run the stratified design: a classification pool is labeled by
        the campaign's outcome predictor up front, trials are
        Neyman-allocated across strata per wave, and the region
        estimate is the importance-weighted
        :class:`~repro.sampling.theory.StratifiedEstimate`.  The
        campaign's oracle is then the predictor's own, whose masked
        verdicts are the predictor's ``masked`` stratum, which is never
        dispatched.
    sinks:
        :class:`~repro.engine.progress.TrialSink` objects, called in
        order for every region start, finished trial, progress event
        and region-final row.  Campaign metrics are a
        :class:`~repro.observability.serve.TelemetryHub` sink, the
        merged trace a :class:`~repro.observability.export.TraceCollector`
        sink; executed trials collect the optional result fields these
        sinks read and nothing else.
    executor:
        A prebuilt executor used instead of ``make_executor(context,
        jobs)``, e.g. a :class:`~repro.engine.coordination.LeaseExecutor`
        for a distributed campaign.
    """

    def __init__(
        self,
        campaign,
        *,
        jobs: int | None = 1,
        store: ResultStore | str | os.PathLike | None = None,
        log_interval: int = 0,
        stratify: bool = False,
        sinks: Sequence[TrialSink] = (),
        executor=None,
    ) -> None:
        self.campaign = campaign
        self.context = context = campaign.execution_context()
        self.plan = campaign.plan
        #: ``FaultSpec -> stratum name``, set for the stratified design.
        self.stratifier: Callable[[FaultSpec], str] | None = None
        if stratify:
            predictor = campaign.outcome_predictor()
            self.stratifier = lambda fault: predictor.stratum(fault).value
        self.jobs = jobs
        if store is not None:
            store = open_store(store)
        self.store = store
        self.log_interval = log_interval
        self.sinks = tuple(sinks)
        # The context ships to workers; flags must be set before the
        # executor pickles it.
        context.observe(observations(self.sinks))
        self._executor = executor
        self._stored: dict[str, TrialResult] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def executor(self):
        """The trial executor: the prebuilt one, or a local one built on
        first use."""
        if self._executor is None:
            self._executor = make_executor(self.context, self.jobs)
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # trial planning
    # ------------------------------------------------------------------
    def make_spec(self, region: Region, index: int) -> TrialSpec:
        """Trial ``index`` of ``region``, the one place a pair becomes a
        spec: its key, then its fault sampled from the trial's RNG
        stream, whose state is captured so the injector resumes it."""
        rng = trial_rng(self.campaign.seed, region, index)
        return TrialSpec(
            key=trial_key(*self.campaign.identity, region, index),
            region=region,
            index=index,
            fault=self.campaign.sample_spec(region, rng),
            rng_state=rng.bit_generator.state,
        )

    def _stored_results(self, resume: bool) -> dict[str, TrialResult]:
        if not resume or self.store is None:
            return {}
        if self._stored is None:
            self._stored = self.store.load()
        return self._stored

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _emit(self, state: _RegionState, final: bool) -> None:
        if not self.sinks:
            return
        row, design = state.result, state.design
        event = ProgressEvent(
            app=self.context.app,
            region=row.region.value,
            done=row.executions,
            planned=design.planned,
            resumed=row.resumed,
            errors=row.tally.errors,
            achieved_d=design.half_width(row),
            target_d=design.target_d,
            final=final,
        )
        for sink in self.sinks:
            sink.progress(event)

    def _ingest(self, state: _RegionState, result: TrialResult) -> None:
        row = state.result
        row.tally.add(result.manifestation)
        row.delivered += int(result.delivered)
        if result.detail.startswith("pruned:") and not result.resumed:
            # Counted off the detail string (the marker survives the
            # store round-trip); a rehydrated pruned trial counts as
            # resumed, like any other stored result.
            row.pruned += 1
        if result.resumed:
            row.resumed += 1
        elif self.store is not None:
            self.store.append(result)
        state.design.observe(result)
        for sink in self.sinks:
            sink.trial(result)
        state.since_event += 1
        if not self.log_interval or state.since_event < self.log_interval:
            return
        state.since_event = 0
        # When log_interval divides the planned count, the last trial's
        # periodic event would duplicate the region-final event emitted
        # by run_region (same done count), so sinks would see the
        # region-complete state twice.  Suppress the periodic one.
        planned = state.design.planned
        if planned is None or row.executions < planned:
            self._emit(state, final=False)

    def _pruned_result(self, spec: TrialSpec, reason: str) -> TrialResult:
        """The synthetic outcome of a statically-proven-masked trial.
        Delivered is True - the flip would have landed (static regions
        resolve their address up front); the proof is that landing
        changes nothing."""
        return TrialResult(
            key=spec.key,
            app=self.context.app,
            region=spec.region,
            index=spec.index,
            manifestation=Manifestation.CORRECT,
            delivered=True,
            detail=f"pruned:{reason}",
        )

    def _run_specs(self, state: _RegionState, specs: list[TrialSpec]) -> None:
        """Execute one wave into ``state``, satisfying what it can from
        the store, then the masking oracle, and dispatching the rest
        through the executor in one call.  Tally ingestion commutes, so
        the aggregated counts are identical for any worker count."""
        stored = self._stored_results(state.resume)
        missing: list[TrialSpec] = []
        for spec in specs:
            hit = stored.get(spec.key)
            if hit is not None:
                self._ingest(state, hit)
                continue
            verdict = state.prune(spec.fault)
            if verdict.masked:
                self._ingest(state, self._pruned_result(spec, verdict.reason))
                continue
            missing.append(spec)
        for result in self.executor().run(missing):
            self._ingest(state, result)

    def run_trials(self, specs: list[TrialSpec]) -> list[TrialResult]:
        """Execute explicit trial specs through the executor, handing
        each result to the sinks (no tallying, no store resume);
        returns results in trial order.  The ``trace`` CLI uses this to
        trace a single chosen trial, and a distributed worker to run
        its leased batches."""
        out = []
        for result in self.executor().run(specs):
            for sink in self.sinks:
                sink.trial(result)
            if self.store is not None and not result.resumed:
                self.store.append(result)
            out.append(result)
        return out

    def run_region(
        self,
        region: Region,
        n: int | None = None,
        *,
        target_d: float | None = None,
        resume: bool = False,
    ):
        """Run one region; returns a filled
        :class:`~repro.injection.campaign.RegionResult`.

        Fixed-n (``target_d is None``) spends a budget of ``n`` trials
        (default: the plan's sample size).  Adaptive runs until the
        design's half-width drops below ``target_d``, capped by the
        oversampling bound.  The row holds tallies only; every trial's
        result goes to the sinks and the store.
        """
        from repro.injection.campaign import RegionResult

        if target_d is None:
            n = self.plan.n_for(region.value) if n is None else n
        elif not 0.0 < target_d < 1.0:
            raise ValueError(f"target_d must be in (0, 1): {target_d}")
        design_cls = _Uniform if self.stratifier is None else _Stratified
        design = design_cls(self, region, n, target_d)
        # Asked here, not at construction: an engine that only runs
        # explicit trials never builds an oracle.
        prune = self.campaign.masking_oracle().verdict
        state = _RegionState(RegionResult(region), design, resume, prune)
        for sink in self.sinks:
            sink.region_start(self.context.app, region.value, design.planned)
        for specs in design.waves(state.result):
            self._run_specs(state, specs)
        design.finish(state.result)
        self._emit(state, final=True)
        for sink in self.sinks:
            sink.region_final(self.context.app, state.result)
        return state.result

    def run(
        self,
        regions: Iterable[Region] = tuple(Region),
        n: int | None = None,
        *,
        target_d: float | None = None,
        resume: bool = False,
    ):
        """Run a set of regions, each once however often it is named;
        returns a :class:`~repro.injection.campaign.CampaignResult`."""
        from repro.injection.campaign import CampaignResult

        result = CampaignResult(
            app_name=self.context.app,
            nprocs=self.context.config.nprocs,
            seed=self.campaign.seed,
        )
        for region in dict.fromkeys(regions):
            result.regions[region] = self.run_region(
                region, n, target_d=target_d, resume=resume
            )
        return result
