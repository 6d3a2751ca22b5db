"""Campaign-engine behaviour: determinism across executors, resume,
adaptive sampling, and what trial sinks see.

The parallel tests use a module-level factory (picklable by reference)
so trials can cross process boundaries.
"""

import functools

import pytest

from repro.apps import WavetoyApp
from repro.engine import ResultStore, driver
from repro.engine.driver import observed_half_width
from repro.engine.executors import ParallelExecutor, SerialExecutor
from repro.engine.progress import TrialCollector
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.mpi.simulator import JobConfig
from repro.observability.export import TraceCollector
from repro.observability.serve import TelemetryHub
from repro.sampling.plans import CampaignPlan
from repro.sampling.theory import sample_size_oversampled
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY, RecordingSink

#: Regions exercised by the cross-executor tests (kept small for speed;
#: message/heap/regular cover the channel, memory and register paths).
REGIONS = (Region.REGULAR_REG, Region.HEAP, Region.MESSAGE)
N_PER_REGION = 3

small_factory = functools.partial(WavetoyApp, **SMALL_WAVETOY)


def small_campaign(seed=3, n=N_PER_REGION):
    return Campaign(
        small_factory,
        JobConfig(nprocs=SMALL_NPROCS),
        plan=CampaignPlan(per_region={r.value: n for r in Region}),
        seed=seed,
    )


def tallies(result):
    return {
        region: (row.tally.counts, row.delivered)
        for region, row in result.regions.items()
    }


class TestDeterminism:
    def test_jobs1_jobs4_and_serial_identical(self):
        serial = small_campaign().run(REGIONS)
        jobs1 = small_campaign().run(REGIONS, jobs=1)
        jobs4 = small_campaign().run(REGIONS, jobs=4)
        assert tallies(serial) == tallies(jobs1) == tallies(jobs4)

    def test_sinks_see_the_same_calls_at_any_jobs(self):
        sinks = {jobs: RecordingSink() for jobs in (1, 4)}
        for jobs, sink in sinks.items():
            small_campaign().run(REGIONS, jobs=jobs, sinks=[sink], log_interval=2)
        assert sinks[1].events and sinks[1].calls == sinks[4].calls

    def test_repeated_region_runs_once(self, tmp_path):
        store, hub = tmp_path / "campaign.jsonl", TelemetryHub()
        result = small_campaign().run(
            (Region.MESSAGE, Region.MESSAGE), 3, store=store, sinks=[hub]
        )
        assert sum(1 for _ in open(store)) == 3
        assert result.regions[Region.MESSAGE].executions == 3
        assert hub.progress_payload()["trials_done"] == 3
        assert [row["trials"] for row in hub.status_payload()["regions"]] == [3]

    def test_parallel_region_matches_serial_records(self):
        """A collecting sink sees the same injection records and
        outcomes, in the same order, from the serial and the parallel
        engine."""
        records = {}
        for jobs in (1, 2):
            sink = TrialCollector()
            small_campaign().run_region(Region.MESSAGE, 4, jobs=jobs, sinks=[sink])
            records[jobs] = [(r.record, r.manifestation) for r in sink.results]
        assert len(records[1]) == 4
        assert records[1] == records[2]

    def test_unpicklable_factory_fails_loudly(self):
        campaign = Campaign(
            lambda: WavetoyApp(**SMALL_WAVETOY),
            JobConfig(nprocs=SMALL_NPROCS),
            plan=CampaignPlan(per_region={r.value: 2 for r in Region}),
        )
        with pytest.raises(TypeError, match="picklable"):
            campaign.run_region(Region.HEAP, 2, jobs=2)

    def test_parallel_executor_rejects_single_job(self):
        with pytest.raises(ValueError):
            ParallelExecutor(small_campaign().execution_context(), jobs=1)


class TestResume:
    def test_resume_executes_only_missing_trials(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        small_campaign().run_region(Region.MESSAGE, 2, store=store)
        assert sum(1 for _ in open(store)) == 2

        resumed = small_campaign().run_region(
            Region.MESSAGE, 5, store=store, resume=True
        )
        assert resumed.resumed == 2
        assert resumed.executions == 5
        assert sum(1 for _ in open(store)) == 5

        uninterrupted = small_campaign().run_region(Region.MESSAGE, 5)
        assert resumed.tally.counts == uninterrupted.tally.counts
        assert resumed.delivered == uninterrupted.delivered

    def test_full_resume_executes_nothing(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        first = small_campaign().run(REGIONS, store=store)
        again = small_campaign().run(REGIONS, store=store, resume=True)
        assert tallies(first) == tallies(again)
        assert all(row.resumed == row.executions for row in again.regions.values())

    def test_resume_ignores_other_campaigns(self, tmp_path):
        """Keys embed app/params/seeds: a store from one campaign never
        satisfies another."""
        store = tmp_path / "campaign.jsonl"
        small_campaign(seed=3).run_region(Region.MESSAGE, 3, store=store)
        other = small_campaign(seed=4).run_region(
            Region.MESSAGE, 3, store=store, resume=True
        )
        assert other.resumed == 0

    def test_resume_reruns_trial_lost_to_truncated_line(self, tmp_path):
        """A write cut short mid-line (the crash --resume exists for)
        costs exactly that one trial: the loader skips the partial
        record and resume re-executes it, with no crash and no
        double-count."""
        store = tmp_path / "campaign.jsonl"
        small_campaign().run_region(Region.MESSAGE, 3, store=store)
        lines = store.read_text().splitlines()
        assert len(lines) == 3
        store.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        resumed = small_campaign().run_region(
            Region.MESSAGE, 3, store=store, resume=True
        )
        assert resumed.resumed == 2
        assert resumed.executions == 3
        assert len(ResultStore(store).load()) == 3

        uninterrupted = small_campaign().run_region(Region.MESSAGE, 3)
        assert resumed.tally.counts == uninterrupted.tally.counts
        assert resumed.delivered == uninterrupted.delivered

    def test_without_resume_flag_store_entries_unused(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        small_campaign().run_region(Region.MESSAGE, 2, store=store)
        row = small_campaign().run_region(Region.MESSAGE, 2, store=store)
        assert row.resumed == 0
        # Re-execution appends duplicates; loaders dedup by key.
        assert sum(1 for _ in open(store)) == 4
        assert len(ResultStore(store).load()) == 2


class TestAdaptive:
    def test_stops_once_target_reached(self, monkeypatch):
        monkeypatch.setattr(driver, "ADAPTIVE_BATCH", 2)
        row = small_campaign().run_region(Region.MESSAGE, target_d=0.5)
        assert row.executions >= 2
        assert row.adaptive_d is not None
        assert row.adaptive_d <= 0.5

    def test_capped_by_oversampling_bound(self):
        # The bound cuts the first wave short of ADAPTIVE_BATCH.
        cap = sample_size_oversampled(0.6)
        assert cap == 3 < driver.ADAPTIVE_BATCH
        row = small_campaign().run_region(Region.MESSAGE, target_d=0.6)
        assert row.executions == cap

    def test_default_cap_is_cochran(self, monkeypatch):
        monkeypatch.setattr(driver, "ADAPTIVE_BATCH", 4)
        target = 0.3
        campaign = small_campaign()
        row = campaign.run_region(Region.MESSAGE, target_d=target)
        assert row.executions <= sample_size_oversampled(target)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            small_campaign().run_region(Region.MESSAGE, target_d=1.5)

    def test_waves_do_not_scale_with_jobs(self, monkeypatch):
        """The stopping check runs between waves, so a wave sized by the
        worker count would move the stopping point and the tallies."""
        serial = small_campaign(seed=20040607).run_region(
            Region.MESSAGE, target_d=0.15
        )

        class EightWide(SerialExecutor):
            jobs = 8

        monkeypatch.setattr(driver, "make_executor", lambda ctx, jobs: EightWide(ctx))
        wide = small_campaign(seed=20040607).run_region(
            Region.MESSAGE, target_d=0.15
        )
        assert serial.executions % 16, "a stop at a multiple of 16 proves nothing"
        assert wide.executions == serial.executions
        assert wide.tally.counts == serial.tally.counts

    def test_half_width_properties(self):
        assert observed_half_width(0, 0) == float("inf")
        # clamped away from the degenerate p = 0 endpoint
        assert observed_half_width(0, 10) > 0
        # more trials, tighter interval
        assert observed_half_width(5, 100) < observed_half_width(2, 40)


class TestProgress:
    def test_events_fire_each_interval_and_at_end(self):
        sink = RecordingSink()
        small_campaign().run_region(
            Region.MESSAGE, 4, sinks=[sink], log_interval=2
        )
        events = sink.events
        # One periodic event at done=2, one final at done=4.  (The last
        # trial's periodic emission is suppressed: it would duplicate
        # the region-complete event when log_interval divides n.)
        assert [e.done for e in events] == [2, 4]
        assert [e.final for e in events] == [False, True]
        assert all(e.region == "message" and e.app == "wavetoy" for e in events)
        assert events[-1].planned == 4
        assert events[-1].achieved_d > 0

    def test_legacy_callback_and_metrics_never_double_fire_final(self):
        """Regression from the progress-callback days: with a callback
        AND a metrics registry attached, a region whose trial count is a
        multiple of log_interval used to get two done=n events
        (periodic + final).  A sink and the hub's metrics must each see
        exactly one."""
        hub, sink = TelemetryHub(), RecordingSink()
        small_campaign().run_region(
            Region.MESSAGE, 4, sinks=[sink, hub], log_interval=2
        )
        events = sink.events
        finals = [e for e in events if e.final]
        assert len(finals) == 1
        assert finals[0].done == 4
        assert [e.done for e in events] == [2, 4]
        emitted = hub.metrics_snapshot().counters[(
            "repro_campaign_progress_events_total",
            (("app", "wavetoy"), ("region", "message")),
        )]
        assert emitted == len(events) == 2

    def test_interval_one_fires_once_per_trial_single_final(self):
        sink = RecordingSink()
        small_campaign().run_region(
            Region.MESSAGE, 4, sinks=[sink], log_interval=1
        )
        events = sink.events
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert [e.final for e in events] == [False, False, False, True]

    def test_resumed_counts_visible(self, tmp_path):
        store = tmp_path / "campaign.jsonl"
        small_campaign().run_region(Region.MESSAGE, 2, store=store)
        sink = RecordingSink()
        small_campaign().run_region(
            Region.MESSAGE, 4, store=store, resume=True,
            sinks=[sink], log_interval=1,
        )
        events = sink.events
        assert events[-1].resumed == 2
        assert events[-1].done == 4


class TestObservations:
    """Trials collect the optional result fields the engine's sinks
    read, and nothing else - in the driver and in pool workers, which
    receive the context pickled."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sinks_that_read_nothing_collect_nothing(self, jobs):
        collector = TrialCollector()
        small_campaign().run_region(
            Region.MESSAGE, 2, jobs=jobs, sinks=[collector, RecordingSink()]
        )
        assert len(collector.results) == 2
        for result in collector.results:
            assert result.metrics is None and result.trace_events is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_read_collects_its_field(self, jobs):
        seen = {}
        for sink in (TelemetryHub(), TraceCollector()):
            collector = TrialCollector()
            small_campaign().run_region(
                Region.MESSAGE, 2, jobs=jobs, sinks=[sink, collector]
            )
            seen[type(sink).__name__] = [
                (r.metrics is not None, r.trace_events is not None)
                for r in collector.results
            ]
        assert seen == {
            "TelemetryHub": [(True, False)] * 2,
            "TraceCollector": [(False, True)] * 2,
        }
