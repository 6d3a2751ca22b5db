"""Fault-injection campaigns: the experiment driver behind Tables 2-4.

A campaign (1) runs the application once fault-free to obtain the
reference outputs, the per-rank basic-block totals (the injection time
axis), the per-rank received message volume (the message-byte axis),
the hang budgets and the golden recording every trial replays
around the calls its fault can reach (:mod:`repro.engine.checkpoint`);
(2) samples fault specifications uniformly over the paper's three-axis
injection space for each region; (3) executes one fresh job per
injection with the fault armed; and (4) classifies every outcome into
the six manifestation classes, reporting the same columns as the
paper's tables together with the sampling-theory estimation error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine import checkpoint
from repro.engine.budgets import block_budget, round_budget
from repro.engine.trial import canonical_params
from repro.injection.dictionary import FaultDictionary
from repro.injection.faults import (
    FP_TOTAL_BITS,
    FaultSpec,
    InjectionRecord,
    Region,
    fp_target_from_bitindex,
)
from repro.injection.outcomes import Manifestation, OutcomeTally
from repro.mpi.simulator import Job, JobConfig, JobResult
from repro.sampling.plans import CampaignPlan, default_plan
from repro.sampling.theory import StratifiedEstimate, achieved_error

@dataclass
class ReferenceProfile:
    """Fault-free baseline measurements driving fault sampling."""

    result: JobResult
    blocks_per_rank: list[int]
    received_bytes_per_rank: list[int]
    rounds: int
    dictionary: FaultDictionary
    #: Rank-0 symbol table of the linked image the dictionary was built
    #: from (all ranks link identically); lets static analyses resolve a
    #: sampled fault address back to its symbol.
    symtab: object = None
    #: The :class:`~repro.engine.checkpoint.GoldenRecording` made during
    #: the reference run; every execution context carries it.
    recording: object = None

    @property
    def block_limit(self) -> int:
        return block_budget(max(self.blocks_per_rank))

    @property
    def round_limit(self) -> int:
        return round_budget(self.rounds)


@dataclass
class RegionResult:
    """Per-region campaign outcome: one row of Tables 2-4.

    Tallies only, the same whichever executor ran the region: per-trial
    results (each executed trial's :class:`InjectionRecord`) reach a
    :class:`~repro.engine.progress.TrialSink` passed as ``sinks=``, and
    the result store.
    """

    region: Region
    tally: OutcomeTally = field(default_factory=OutcomeTally)
    delivered: int = 0
    #: Trials satisfied from a result store instead of being executed.
    resumed: int = 0
    #: Observed Cochran half-width at the end of an adaptive run
    #: (``None`` for fixed-n campaigns).
    adaptive_d: float | None = None
    #: Trials satisfied by the static masking oracle instead of being
    #: executed; they are tallied as CORRECT.  Every design asks the
    #: oracle.  A stratified run never dispatches its ``masked``
    #: stratum, which is the same proof, so its rows count none here.
    pruned: int = 0
    #: Importance-weighted estimate from a stratified run
    #: (``campaign run --stratify``).  When present, the raw ``tally``
    #: reflects the Neyman *allocation* (rare strata oversampled) and
    #: this estimate is the unbiased region rate.
    stratified: "StratifiedEstimate | None" = None

    @property
    def executions(self) -> int:
        return self.tally.executions

    @property
    def executed(self) -> int:
        """Trials that actually ran a job (neither pruned nor resumed)."""
        return self.executions - self.pruned - self.resumed

    @property
    def error_rate_percent(self) -> float:
        return self.tally.error_rate_percent

    @property
    def estimation_error_percent(self) -> float:
        """The section-4.3 oversampled estimation error for this sample
        size, in percent."""
        n = self.executions
        return 100.0 * achieved_error(n) if n else float("nan")

    def manifestation_percent(self, m: Manifestation) -> float:
        return self.tally.manifestation_percent(m)


@dataclass
class CampaignResult:
    """All region rows for one application."""

    app_name: str
    nprocs: int
    seed: int
    regions: dict[Region, RegionResult] = field(default_factory=dict)

    def row(self, region: Region) -> RegionResult:
        return self.regions[region]

    def total_injections(self) -> int:
        return sum(r.executions for r in self.regions.values())


class Campaign:
    """Runs the full Table-2/3/4 experiment for one application.

    It is the one way to run a fault: :meth:`run_injection` runs a
    hand-made :class:`FaultSpec` and its engines run sampled ones, all
    under the context :meth:`execution_context` builds.

    Parameters
    ----------
    app_factory:
        Zero-argument callable producing a *fresh* application instance
        (each injection run gets pristine process images).  The app it
        builds names the program: its ``name`` and the ``params`` that
        differ from its ``DEFAULTS`` (``app_params``) go into every
        trial key, so result stores of different programs never alias.
    config:
        Job configuration (nprocs, seed).
    plan:
        Injections per region; defaults honour ``REPRO_CAMPAIGN_N``.
    """

    def __init__(
        self,
        app_factory: Callable[[], object],
        config: JobConfig,
        plan: CampaignPlan | None = None,
        seed: int = 20040607,
    ) -> None:
        self.app_factory = app_factory
        self.config = config
        self.plan = plan or default_plan()
        self.seed = seed
        app = app_factory()
        self.app_name = getattr(app, "name", type(app).__name__)
        defaults = getattr(app, "DEFAULTS", {})
        self.app_params = {
            key: value
            for key, value in getattr(app, "params", {}).items()
            if key not in defaults or value != defaults[key]
        }
        #: What names this campaign's trials: every trial key starts with
        #: it.
        self.identity = (
            self.app_name,
            canonical_params(self.app_params),
            config.nprocs,
            config.seed,
            seed,
        )
        self._reference: ReferenceProfile | None = None
        self._oracle = None
        self._predictor = None

    @classmethod
    def from_registry(
        cls,
        app: str,
        *,
        nprocs: int = 8,
        app_params: dict | None = None,
        seed: int = 20040607,
        config_seed: int = JobConfig.seed,
    ) -> "Campaign":
        """Build a campaign over a suite application by name; the
        keywords are those :meth:`manifest` names.

        The resulting factory (``functools.partial`` of the application
        class) is picklable, so the campaign can run with ``jobs > 1``.
        """
        from repro.apps import APPLICATION_SUITE

        try:
            app_cls = APPLICATION_SUITE[app]
        except KeyError:
            raise KeyError(
                f"unknown application {app!r}; known: "
                f"{', '.join(sorted(APPLICATION_SUITE))}"
            ) from None
        factory = functools.partial(app_cls, **app_params) if app_params else app_cls
        return cls(factory, JobConfig(nprocs=nprocs, seed=config_seed), seed=seed)

    def manifest(self) -> dict:
        """This campaign's name as JSON: exactly the keywords of
        :meth:`from_registry`, so ``Campaign.from_registry(**c.manifest())``
        rebuilds a campaign with ``c.identity``.  A distributed
        campaign's ``/manifest``, an artifact run's ``manifest.json``
        and a trace's metadata all carry it."""
        return {
            "app": self.app_name,
            "nprocs": self.config.nprocs,
            "app_params": dict(self.app_params),
            "seed": self.seed,
            "config_seed": self.config.seed,
        }

    # ------------------------------------------------------------------
    # reference run
    # ------------------------------------------------------------------
    def reference(self) -> ReferenceProfile:
        if self._reference is not None:
            return self._reference
        job = Job(self.app_factory(), self.config)
        result, recording = checkpoint.record_golden(job)
        if not result.completed:
            raise RuntimeError(
                f"fault-free reference run failed ({result.status}): {result.detail}"
            )
        dict_rng = np.random.default_rng([self.seed, 0xD1C7])
        self._reference = ReferenceProfile(
            result=result,
            blocks_per_rank=list(result.blocks_per_rank),
            received_bytes_per_rank=[
                job.received_bytes(r) for r in range(self.config.nprocs)
            ],
            rounds=result.rounds,
            dictionary=FaultDictionary(job.images[0], dict_rng),
            symtab=job.images[0].symtab,
            recording=recording,
        )
        return self._reference

    # ------------------------------------------------------------------
    # fault sampling (uniform over the b x m x t space)
    # ------------------------------------------------------------------
    def sample_spec(self, region: Region, rng: np.random.Generator) -> FaultSpec:
        ref = self.reference()
        rank = int(rng.integers(self.config.nprocs))
        blocks = max(ref.blocks_per_rank[rank], 1)
        time = int(rng.integers(1, blocks + 1))
        if region is Region.REGULAR_REG:
            return FaultSpec(
                region,
                rank,
                time_blocks=time,
                bit=int(rng.integers(32)),
                reg_index=int(rng.integers(8)),
            )
        if region is Region.FP_REG:
            target, bit = fp_target_from_bitindex(int(rng.integers(FP_TOTAL_BITS)))
            return FaultSpec(region, rank, time_blocks=time, bit=bit, fp_target=target)
        if region in (Region.TEXT, Region.DATA, Region.BSS):
            entry = ref.dictionary.sample(region.value, rng)
            return FaultSpec(
                region,
                rank,
                time_blocks=time,
                bit=int(rng.integers(8)),
                address=entry.address,
            )
        if region is Region.HEAP:
            return FaultSpec(region, rank, time_blocks=time, bit=int(rng.integers(8)))
        if region is Region.STACK:
            return FaultSpec(region, rank, time_blocks=time, bit=int(rng.integers(8)))
        if region is Region.MESSAGE:
            volume = max(ref.received_bytes_per_rank[rank], 1)
            return FaultSpec(
                region,
                rank,
                bit=int(rng.integers(8)),
                target_byte=int(rng.integers(volume)),
            )
        raise ValueError(f"unknown region {region!r}")

    # ------------------------------------------------------------------
    # engine delegation
    # ------------------------------------------------------------------
    def execution_context(self):
        """The single-trial execution authority for this campaign: the
        only place an :class:`~repro.engine.core.ExecutionContext` and
        its hang budgets are made."""
        from repro.engine.core import ExecutionContext

        ref = self.reference()
        return ExecutionContext(
            app=self.app_name,
            factory=self.app_factory,
            config=self.config,
            reference=ref.result,
            round_limit=ref.round_limit,
            block_limit=ref.block_limit,
            checkpoint=ref.recording,
        )

    def masking_oracle(self):
        """The static masking oracle for this campaign's application
        (see :mod:`repro.staticanalysis.propagation.pruning`), built
        once: every engine and the outcome predictor share it."""
        if self._oracle is None:
            from repro.staticanalysis.propagation.pruning import MaskingOracle

            self._oracle = MaskingOracle.from_campaign(self)
        return self._oracle

    def outcome_predictor(self):
        """The static outcome predictor for this campaign's application
        (see :mod:`repro.staticanalysis.outcomes`), built once, from
        this campaign's masking oracle: the stratifier classifies
        thousands of pool specs."""
        if self._predictor is None:
            from repro.staticanalysis.outcomes.predictor import OutcomePredictor

            self._predictor = OutcomePredictor.from_campaign(self)
        return self._predictor

    def engine(self, **options):
        """A :class:`~repro.engine.driver.CampaignEngine` built from this
        campaign; ``options`` are the engine's keyword arguments."""
        from repro.engine.driver import CampaignEngine

        return CampaignEngine(self, **options)

    # ------------------------------------------------------------------
    # single injection experiment
    # ------------------------------------------------------------------
    def run_injection(
        self, spec: FaultSpec, rng: np.random.Generator
    ) -> tuple[Manifestation, InjectionRecord, JobResult]:
        """Run one job with ``spec`` armed, replaying the golden run,
        and classify it against the reference run; ``rng`` drives the
        injector's draws."""
        from repro.engine.core import run_observed

        return run_observed(self.execution_context(), spec, rng)[:3]

    # ------------------------------------------------------------------
    # region and full campaign
    # ------------------------------------------------------------------
    def run_region(
        self,
        region: Region,
        n: int | None = None,
        *,
        target_d: float | None = None,
        resume: bool = False,
        **engine_options,
    ) -> RegionResult:
        """Run one region through the campaign engine.

        Adaptive ``target_d`` and ``resume`` are run options; everything
        else (``jobs``, ``store``, ``sinks``, ``executor``...) goes to
        :meth:`engine`.  A caller that wants every trial's result passes
        a sink, e.g. a :class:`~repro.engine.progress.TrialCollector`.
        """
        with self.engine(**engine_options) as eng:
            return eng.run_region(region, n, target_d=target_d, resume=resume)

    def run(
        self,
        regions: tuple[Region, ...] = tuple(Region),
        n: int | None = None,
        *,
        target_d: float | None = None,
        resume: bool = False,
        **engine_options,
    ) -> CampaignResult:
        """Run a set of regions; options as for :meth:`run_region`."""
        with self.engine(**engine_options) as eng:
            return eng.run(regions, n, target_d=target_d, resume=resume)
