"""Validate predicted-outcome strata against dynamic ground truth.

The outcome predictor earns its strata the same way the masking oracle
earned its proofs: by running real campaign trials and checking the
prediction against the observed manifestation.  Three claims are
scored, per app:

* **masked precision** - every trial in the masked stratum must come
  back CORRECT.  The stratum is oracle-proof-only by construction, so
  the floor is 1.0: one counterexample means a proof rule is wrong;
* **crash enrichment** - the dynamic crash rate inside the crash-prone
  stratum over the app-wide base crash rate.  The stratified sampler
  only beats uniform Cochran sampling if the strata concentrate
  variance, so the floor is a real separation
  (:data:`ENRICHMENT_FLOOR`, 3x);
* **hang enrichment** - same ratio for the hang-prone stratum against
  the base hang rate.

Sites are drawn from the engine's own deterministic uniform spec
stream (``make_spec``), classified, and collected per stratum until a
quota fills - exactly the rejection walk the stratified campaign
performs - then every collected site is executed unpruned.  The base
rates come from a separate uniform prefix of the same stream, so both
sides of each ratio are measured, not assumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.injection.faults import Region
from repro.staticanalysis.outcomes.predictor import OutcomePredictor, Stratum

#: Minimum P(CORRECT | masked): the oracle-proof contract.
MASKED_PRECISION_FLOOR = 1.0
#: Minimum stratum-vs-base rate ratio for crash-prone and hang-prone.
ENRICHMENT_FLOOR = 3.0

#: Regions the validation samples: the statically steerable ones. HEAP
#: and STACK are uniformly uncertain (fire-time targets) and would only
#: dilute both sides of every ratio.
VALIDATION_REGIONS = (
    Region.REGULAR_REG,
    Region.FP_REG,
    Region.TEXT,
    Region.DATA,
    Region.BSS,
    Region.MESSAGE,
)

#: Manifestation groups of the confusion matrix, in render order.
_MANIFESTATIONS = (
    "correct",
    "crash",
    "hang",
    "incorrect",
    "app_detected",
    "mpi_detected",
)


@dataclass(frozen=True)
class StratumOutcomes:
    """One row of the per-app confusion matrix."""

    stratum: Stratum
    #: manifestation value -> dynamic count.
    outcomes: tuple[tuple[str, int], ...]

    @property
    def trials(self) -> int:
        return sum(n for _, n in self.outcomes)

    def count(self, manifestation: str) -> int:
        return dict(self.outcomes).get(manifestation, 0)

    def rate(self, manifestation: str) -> float:
        return self.count(manifestation) / self.trials if self.trials else 0.0


@dataclass(frozen=True)
class OutcomeValidation:
    """Confusion matrix + enrichment scores for one app."""

    app: str
    rows: tuple[StratumOutcomes, ...]
    #: Uniform-sample manifestation counts: the app-wide base rates.
    base: tuple[tuple[str, int], ...]

    def row(self, stratum: Stratum) -> StratumOutcomes | None:
        for r in self.rows:
            if r.stratum is stratum:
                return r
        return None

    def base_rate(self, manifestation: str) -> float:
        total = sum(n for _, n in self.base)
        return dict(self.base).get(manifestation, 0) / total if total else 0.0

    @property
    def masked_precision(self) -> float:
        """P(CORRECT | masked); vacuous 1.0 when nothing was masked."""
        row = self.row(Stratum.MASKED)
        if row is None or not row.trials:
            return 1.0
        return row.rate("correct")

    def enrichment(self, stratum: Stratum, manifestation: str) -> float:
        """Stratum rate over base rate; inf when the base never shows
        the manifestation but the stratum does, nan with no trials."""
        row = self.row(stratum)
        if row is None or not row.trials:
            return float("nan")
        base = self.base_rate(manifestation)
        rate = row.rate(manifestation)
        if base == 0.0:
            return float("inf") if rate > 0.0 else float("nan")
        return rate / base

    @property
    def crash_enrichment(self) -> float:
        return self.enrichment(Stratum.CRASH_PRONE, "crash")

    @property
    def hang_enrichment(self) -> float:
        return self.enrichment(Stratum.HANG_PRONE, "hang")

    @property
    def passed(self) -> bool:
        checks = [self.masked_precision >= MASKED_PRECISION_FLOOR]
        for value in (self.crash_enrichment, self.hang_enrichment):
            if value == value:  # stratum was sampled: enforce the floor
                checks.append(value >= ENRICHMENT_FLOOR)
        return all(checks)

    def render(self) -> str:
        lines = [
            f"[{self.app}] "
            + f"{'stratum':<12} {'trials':>6} "
            + " ".join(f"{m:>12}" for m in _MANIFESTATIONS)
        ]
        for r in self.rows:
            lines.append(
                f"{'':<{len(self.app) + 3}}{r.stratum.value:<12} "
                f"{r.trials:>6} "
                + " ".join(f"{r.count(m):>12}" for m in _MANIFESTATIONS)
            )
        lines.append(
            f"masked precision: {self.masked_precision:.3f} "
            f"(floor {MASKED_PRECISION_FLOOR})"
        )
        lines.append(
            f"crash enrichment: {self.crash_enrichment:.2f}x, "
            f"hang enrichment: {self.hang_enrichment:.2f}x "
            f"(floor {ENRICHMENT_FLOOR}x)"
        )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _manifestation_value(m) -> str:
    return m.value if hasattr(m, "value") else str(m)


def collect_stratum_specs(
    predictor: OutcomePredictor,
    eng,
    *,
    per_stratum: int,
    scan_limit: int,
    regions=VALIDATION_REGIONS,
):
    """Walk the engine's deterministic uniform spec stream per region,
    classify each site, and keep up to ``per_stratum`` sites per
    stratum.  Returns ``[(trial_spec, stratum), ...]`` in a stable
    order.  This is the same rejection walk the stratified campaign
    driver performs."""
    quota: dict[Stratum, list] = {s: [] for s in Stratum}
    for region in regions:
        for i in range(scan_limit):
            if all(len(v) >= per_stratum for v in quota.values()):
                break
            spec = eng.make_spec(region, i)
            stratum = predictor.stratum(spec.fault)
            if len(quota[stratum]) < per_stratum:
                quota[stratum].append((spec, stratum))
    out = []
    for s in Stratum:
        out.extend(quota[s])
    return out


def validate_app(
    app_name: str,
    *,
    nprocs: int = 2,
    seed: int = 20040607,
    per_stratum: int = 12,
    base_per_region: int = 15,
    scan_limit: int = 2000,
    regions=VALIDATION_REGIONS,
    jobs: int | None = 1,
) -> OutcomeValidation:
    """Score one app's strata against executed campaign trials."""
    from repro.injection.campaign import Campaign

    campaign = Campaign.from_registry(app_name, nprocs=nprocs, seed=seed)
    predictor = campaign.outcome_predictor()
    with campaign.engine(jobs=jobs) as eng:
        picked = collect_stratum_specs(
            predictor,
            eng,
            per_stratum=per_stratum,
            scan_limit=scan_limit,
            regions=regions,
        )
        results = {r.key: r for r in eng.run_trials([s for s, _ in picked])}
        per_stratum_counts: dict[Stratum, Counter] = {s: Counter() for s in Stratum}
        for spec, stratum in picked:
            res = results.get(spec.key)
            if res is None:
                continue
            per_stratum_counts[stratum][
                _manifestation_value(res.manifestation)
            ] += 1

        base_specs = [
            eng.make_spec(region, i)
            for region in regions
            for i in range(base_per_region)
        ]
        base_results = eng.run_trials(base_specs)
        base = Counter(
            _manifestation_value(r.manifestation) for r in base_results
        )

    rows = tuple(
        StratumOutcomes(
            stratum=s,
            outcomes=tuple(sorted(per_stratum_counts[s].items())),
        )
        for s in Stratum
        if per_stratum_counts[s]
    )
    return OutcomeValidation(
        app=app_name, rows=rows, base=tuple(sorted(base.items()))
    )


def validate_suite(
    apps=("wavetoy", "moldyn", "climate"),
    **kwargs,
) -> tuple[OutcomeValidation, ...]:
    """The full benchmark over the paper's suite (EXPERIMENTS E18)."""
    return tuple(validate_app(app, **kwargs) for app in apps)
