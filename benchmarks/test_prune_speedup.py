"""Provably-masked pruning benchmark.

Every campaign prunes.  On the static regions (text, data, bss - where
cold padding, cold tables, and benign encoding bits dominate) a
campaign must execute at least 1.5x fewer trials than the unpruned
reference (a masking oracle that proves nothing) while reporting
region error rates within the reference's Cochran half-width.  Trial
counts, not wall-clock, are the metric: the saving is real skipped
executions, independent of machine speed.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.driver import observed_half_width
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from tests.conftest import prune_nothing

APP = "wavetoy"
NPROCS = 2
SEED = 2004
REGIONS = (Region.TEXT, Region.DATA, Region.BSS)
N_PER_REGION = int(os.environ.get("REPRO_CAMPAIGN_N", "25"))
MIN_TRIAL_REDUCTION = 1.5


def make_campaign():
    return Campaign.from_registry(APP, nprocs=NPROCS, seed=SEED)


@pytest.mark.slow
def test_pruned_campaign_executes_fewer_trials(benchmark, monkeypatch):
    with monkeypatch.context() as mp:
        prune_nothing(mp)
        full = make_campaign().run(REGIONS, N_PER_REGION)

    pruned = benchmark.pedantic(
        lambda: make_campaign().run(REGIONS, N_PER_REGION),
        rounds=1,
        iterations=1,
    )

    total = sum(pruned.row(r).executions for r in REGIONS)
    executed = sum(pruned.row(r).executed for r in REGIONS)
    reduction = total / executed if executed else float("inf")

    lines = []
    for region in REGIONS:
        f_row, p_row = full.row(region), pruned.row(region)
        assert f_row.executions == p_row.executions == N_PER_REGION
        d = observed_half_width(f_row.tally.errors, f_row.executions)
        gap = abs(f_row.error_rate_percent - p_row.error_rate_percent) / 100.0
        assert gap <= d, region.value
        lines.append(
            f"{region.value:>6}: {p_row.executed}/{p_row.executions} executed, "
            f"{p_row.pruned} pruned, rate {p_row.error_rate_percent:.1f}% "
            f"(full {f_row.error_rate_percent:.1f}%, d={100 * d:.1f}%)"
        )

    benchmark.extra_info["n_per_region"] = N_PER_REGION
    benchmark.extra_info["trials_total"] = total
    benchmark.extra_info["trials_executed"] = executed
    benchmark.extra_info["trial_reduction"] = reduction
    print("\npruned campaign (" + APP + "):")
    print("\n".join(lines))
    print(f"trial reduction {reduction:.1f}x (floor {MIN_TRIAL_REDUCTION}x)")
    assert reduction >= MIN_TRIAL_REDUCTION
