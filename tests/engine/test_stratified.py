"""Stratified campaign sampling (``campaign run --stratify``).

The contracts under test:

* determinism - the executed trial set, per-stratum counts and raw
  tallies are bit-identical for any worker count, because every
  allocation decision is a pure function of complete-wave tallies;
* the known-zero masked stratum keeps its population weight but never
  executes a trial (the oracle already proved the outcome);
* the importance-weighted estimate is unbiased (``sum W_h p_h``) and
  reaches the target half-width with far fewer executed trials than
  the uniform Cochran budget;
* the store/resume path applies per wave exactly as in uniform mode;
* the one region loop treats the stratified design like any other: a
  wave reaches the executor in one dispatch, and progress reports the
  d and the plan the design uses.
"""

import pytest

from repro.engine import driver
from repro.engine.executors import SerialExecutor
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.observability.serve import TelemetryHub
from repro.sampling.theory import sample_size_oversampled
from tests.conftest import SMALL_WAVETOY, RecordingSink

APP = "wavetoy"
SEED = 123
TARGET_D = 0.08


def make_campaign(shared_predictor):
    campaign = Campaign.from_registry(APP, nprocs=2, seed=SEED)
    campaign._predictor = shared_predictor  # identical; skip the rebuild
    return campaign


@pytest.fixture(scope="module")
def shared_predictor():
    return Campaign.from_registry(APP, nprocs=2, seed=SEED).outcome_predictor()


@pytest.fixture(scope="module")
def text_row(shared_predictor):
    return make_campaign(shared_predictor).run_region(
        Region.TEXT, target_d=TARGET_D, stratify=True
    )


def cell_view(row):
    return [
        (c.name, c.population, c.executed, c.errors, c.known_zero)
        for c in row.stratified.cells
    ]


class TestDeterminism:
    def test_jobs1_and_jobs4_are_bit_identical(self, shared_predictor, text_row):
        jobs4 = make_campaign(shared_predictor).run_region(
            Region.TEXT, target_d=TARGET_D, stratify=True, jobs=4
        )
        assert cell_view(jobs4) == cell_view(text_row)
        assert jobs4.tally.counts == text_row.tally.counts
        assert jobs4.stratified.error_rate == text_row.stratified.error_rate
        assert jobs4.stratified.half_width == text_row.stratified.half_width


class TestEstimate:
    def test_masked_stratum_has_weight_but_no_trials(self, text_row):
        masked = [c for c in text_row.stratified.cells if c.name == "masked"]
        assert masked and masked[0].known_zero
        assert masked[0].population > 0
        assert masked[0].executed == 0

    def test_rate_is_the_importance_weighted_sum(self, text_row):
        est = text_row.stratified
        expected = sum(est.weight(c) * c.rate for c in est.cells)
        assert est.error_rate == pytest.approx(expected)

    def test_reaches_target_with_a_fraction_of_cochran(self, text_row):
        est = text_row.stratified
        assert est.half_width <= TARGET_D
        uniform_budget = sample_size_oversampled(TARGET_D)
        assert 2 * est.executed <= uniform_budget
        assert text_row.adaptive_d == est.half_width

    def test_agrees_with_the_uniform_estimate(self, shared_predictor, text_row):
        uniform = make_campaign(shared_predictor).run_region(
            Region.TEXT, target_d=TARGET_D
        )
        uniform_rate = uniform.tally.errors / uniform.executions
        diff = abs(text_row.stratified.error_rate - uniform_rate)
        assert diff <= text_row.stratified.half_width + uniform.adaptive_d


class TestBudgetAndResume:
    def test_fixed_budget_is_respected(self, shared_predictor):
        row = make_campaign(shared_predictor).run_region(
            Region.TEXT, 24, stratify=True
        )
        assert row.stratified.executed == row.executions <= 24
        assert sum(c.executed for c in row.stratified.cells) == row.executions

    def test_resume_executes_nothing_and_reproduces(
        self, shared_predictor, tmp_path
    ):
        store = tmp_path / "stratified.jsonl"
        first = make_campaign(shared_predictor).run_region(
            Region.TEXT, 24, stratify=True, store=store
        )
        again = make_campaign(shared_predictor).run_region(
            Region.TEXT, 24, stratify=True, store=store, resume=True
        )
        assert again.resumed == again.executions == first.executions
        assert again.executed == 0  # no trial ran a job the second time
        assert cell_view(again) == cell_view(first)
        assert again.tally.counts == first.tally.counts


def small_campaign():
    # Campaign caches the predictor per (app, params, nprocs, seed).
    return Campaign.from_registry(APP, nprocs=2, app_params=SMALL_WAVETOY)


class TestOneLoop:
    def test_a_wave_reaches_the_executor_in_one_call(self, monkeypatch):
        calls = []

        class Counting(SerialExecutor):
            def run(self, specs):
                calls.append(list(specs))
                return super().run(calls[-1])

        monkeypatch.setattr(driver, "make_executor", lambda ctx, jobs: Counting(ctx))
        campaign = small_campaign()
        row = campaign.run_region(Region.TEXT, 24, stratify=True)
        predictor = campaign.outcome_predictor()
        live = {c.name for c in row.stratified.cells if not c.known_zero}
        pilot = {predictor.stratum(spec.fault).value for spec in calls[0]}
        assert len(live) > 1
        assert pilot == live
        assert sum(map(len, calls)) == row.executed

    def test_progress_reports_the_stratified_half_width(self):
        sink = RecordingSink()
        row = small_campaign().run_region(
            Region.TEXT, target_d=0.15, stratify=True, sinks=[sink]
        )
        final = sink.events[-1]
        assert final.final
        assert final.achieved_d == row.adaptive_d == row.stratified.half_width
        assert final.achieved_d <= 0.15

    def test_fixed_budget_emits_one_event_at_its_budget(self):
        sink = RecordingSink()
        small_campaign().run_region(
            Region.TEXT, 24, stratify=True, sinks=[sink], log_interval=8
        )
        assert [(e.done, e.planned, e.final) for e in sink.events] == [
            (8, 24, False), (16, 24, False), (24, 24, True)
        ]

    def test_adaptive_region_is_open_ended_on_progress(self):
        hub = TelemetryHub()
        small_campaign().run_region(
            Region.TEXT, target_d=0.15, stratify=True, sinks=[hub]
        )
        assert hub.progress_payload()["trials_planned"] is None
