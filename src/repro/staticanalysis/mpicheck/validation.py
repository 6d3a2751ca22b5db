"""Cross-validation of the message-vulnerability map.

The static side predicts, per ``(application, rank)``, the structural
(Crash + Hang) manifestation rate of a uniform single-bit flip in that
rank's incoming byte stream.  The dynamic side *measures* it: a
channel-layer injection campaign (``Region.MESSAGE``, the paper's
section 3.3 injector) flips one bit per run and classifies the outcome.
The two are compared with the same tie-aware Spearman used by the
register-side validation, over every ``(app, rank)`` point with at
least one delivered injection.

The headline prediction is the per-application ordering: the
control-dominated atmosphere model's stream is mostly critical framing
and so must rank above the molecular-dynamics code (moderate header
share), which ranks above the halo-exchange solver (payload-dominated,
near-zero structural rate) - ``climate > moldyn > wavetoy``, the
message-fault sensitivity ordering of the paper's Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.progress import TrialCollector
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.injection.outcomes import Manifestation
from repro.mpi.simulator import JobConfig
from repro.staticanalysis.mpicheck.skeleton import extract_skeleton
from repro.staticanalysis.mpicheck.vulnmap import build_vulnerability_map
from repro.staticanalysis.validation import spearman

#: Outcomes counted as structural: the message fault broke the run's
#: control structure instead of (or before) corrupting its answer.
STRUCTURAL = (Manifestation.CRASH, Manifestation.HANG)


@dataclass
class MessageValidationReport:
    """Static prediction vs dynamic measurement, per app and rank."""

    nprocs: int
    trials_per_app: int
    static_scores: dict[tuple[str, int], float] = field(default_factory=dict)
    dynamic_rates: dict[tuple[str, int], float] = field(default_factory=dict)
    app_static: dict[str, float] = field(default_factory=dict)
    app_dynamic: dict[str, float] = field(default_factory=dict)
    rank_correlation: float = 0.0

    @property
    def predicted_ordering(self) -> list[str]:
        return sorted(self.app_static, key=self.app_static.get, reverse=True)

    @property
    def observed_ordering(self) -> list[str]:
        return sorted(self.app_dynamic, key=self.app_dynamic.get, reverse=True)

    @property
    def ordering_agrees(self) -> bool:
        return self.predicted_ordering == self.observed_ordering

    @property
    def text(self) -> str:
        lines = [
            f"message-vulnerability validation "
            f"({self.nprocs} ranks, {self.trials_per_app} injections/app)",
            f"  Spearman rho over (app, rank) points: "
            f"{self.rank_correlation:+.3f}",
            f"  predicted ordering: {' > '.join(self.predicted_ordering)}",
            f"  observed ordering:  {' > '.join(self.observed_ordering)}",
        ]
        for app in self.predicted_ordering:
            lines.append(
                f"  {app:8s} static {100 * self.app_static[app]:5.1f}%  "
                f"dynamic {100 * self.app_dynamic[app]:5.1f}%"
            )
        return "\n".join(lines)


def validate_message_vulnerability(
    trials: int = 60,
    nprocs: int = 4,
    *,
    seed: int = 20040607,
    dry_run_seed: int = 12345,
    apps: dict | None = None,
) -> MessageValidationReport:
    """Predict statically, measure dynamically, correlate.

    ``apps`` maps name -> zero-argument application factory; defaults to
    the shipped suite at its paper-default parameters.
    """
    if apps is None:
        from repro.apps import APPLICATION_SUITE

        apps = dict(APPLICATION_SUITE)
    report = MessageValidationReport(nprocs=nprocs, trials_per_app=trials)

    for name, factory in apps.items():
        # Static side: dry-run skeleton -> per-rank vulnerability map.
        skeleton = extract_skeleton(factory(), nprocs, seed=dry_run_seed)
        vmap = build_vulnerability_map(skeleton)
        for entry in vmap.ranks:
            report.static_scores[(name, entry.rank)] = entry.structural_score
        report.app_static[name] = vmap.structural_score

        # Dynamic side: one channel-layer injection campaign per app.
        campaign = Campaign(factory, JobConfig(nprocs=nprocs), seed=seed)
        collector = TrialCollector()
        campaign.run_region(Region.MESSAGE, trials, sinks=[collector])
        per_rank_total = [0] * nprocs
        per_rank_structural = [0] * nprocs
        for result in collector.results:
            rank = result.record.spec.rank
            per_rank_total[rank] += 1
            per_rank_structural[rank] += result.manifestation in STRUCTURAL
        for rank in range(nprocs):
            if per_rank_total[rank]:
                report.dynamic_rates[(name, rank)] = (
                    per_rank_structural[rank] / per_rank_total[rank]
                )
        report.app_dynamic[name] = sum(per_rank_structural) / max(trials, 1)

    points = sorted(set(report.static_scores) & set(report.dynamic_rates))
    report.rank_correlation = spearman(
        [report.static_scores[p] for p in points],
        [report.dynamic_rates[p] for p in points],
    )
    return report
