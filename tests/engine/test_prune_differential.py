"""Differential test for the prune seam: every campaign prunes, and
must reproduce the statistics of the unpruned reference (an oracle
that proves nothing) while executing fewer trials; pruned trials must
round-trip through the result store."""

import pytest

from repro.engine.driver import observed_half_width
from repro.engine.store import ResultStore
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from tests.conftest import prune_nothing

APP = "wavetoy"
SEED = 123
N = 10
REGIONS = (Region.TEXT, Region.DATA)


@pytest.fixture(scope="module")
def full_and_pruned():
    with pytest.MonkeyPatch.context() as mp:
        prune_nothing(mp)
        full = Campaign.from_registry(APP, nprocs=2, seed=SEED).run(REGIONS, N)
    pruned = Campaign.from_registry(APP, nprocs=2, seed=SEED).run(REGIONS, N)
    return full, pruned


class TestDifferential:
    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.value)
    def test_trial_counts_match(self, full_and_pruned, region):
        full, pruned = full_and_pruned
        assert full.row(region).executions == N
        assert pruned.row(region).executions == N

    def test_pruning_actually_prunes(self, full_and_pruned):
        full, pruned = full_and_pruned
        assert all(full.row(r).pruned == 0 for r in REGIONS)
        total_pruned = sum(pruned.row(r).pruned for r in REGIONS)
        assert total_pruned > 0
        # pruned trials are the ones that did not execute
        for r in REGIONS:
            row = pruned.row(r)
            assert row.executed == N - row.pruned

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.value)
    def test_rates_within_cochran_half_width(self, full_and_pruned, region):
        full, pruned = full_and_pruned
        p_full = full.row(region).error_rate_percent / 100.0
        p_pruned = pruned.row(region).error_rate_percent / 100.0
        d = observed_half_width(full.row(region).tally.errors, N)
        assert abs(p_full - p_pruned) <= d

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.value)
    def test_tallied_rate_is_the_stratified_estimator(
        self, full_and_pruned, region
    ):
        from repro.sampling.theory import stratified_error_rate

        _, pruned = full_and_pruned
        row = pruned.row(region)
        expected = stratified_error_rate(
            row.tally.errors, row.executed, row.pruned, pruned_rate=0.0
        )
        assert row.error_rate_percent / 100.0 == pytest.approx(expected)

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.value)
    def test_same_seed_same_errors(self, full_and_pruned, region):
        # stronger than the statistical bound: with the same seed the
        # sampled specs are identical, and the oracle is sound, so the
        # synthetic CORRECT verdicts match what execution would produce
        full, pruned = full_and_pruned
        assert (
            full.row(region).tally.errors == pruned.row(region).tally.errors
        )


class TestStoreRoundTrip:
    def test_pruned_trials_persist_and_resume_as_resumed(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        first_run = Campaign.from_registry(APP, nprocs=2, seed=SEED)
        with ResultStore(path) as store:
            first = first_run.run((Region.TEXT,), N, store=store)
        row = first.row(Region.TEXT)
        assert row.pruned > 0

        status = ResultStore(path).status()
        assert len(status) == 1
        assert status[0].trials == N
        assert status[0].pruned == row.pruned

        # resuming from the store executes nothing: every trial - the
        # pruned ones included - rehydrates, and rehydrated trials count
        # as resumed, not pruned
        second_run = Campaign.from_registry(APP, nprocs=2, seed=SEED)
        with ResultStore(path) as store:
            second = second_run.run((Region.TEXT,), N, store=store, resume=True)
        row2 = second.row(Region.TEXT)
        assert row2.resumed == N
        assert row2.executed == 0
        assert row2.pruned == 0
        assert row2.tally.errors == row.tally.errors
