"""Progress events through the trial sink protocol: the engine's
per-region throttle and its fan-out to every sink, the telemetry hub's
metrics included."""

import pytest

from repro.engine import driver
from repro.engine.progress import (
    ProgressEvent,
    ProgressPrinter,
    TrialSink,
    format_progress,
)
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.observability.serve import TelemetryHub
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY, RecordingSink


@pytest.fixture(scope="module")
def campaign():
    return Campaign.from_registry(
        "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY, seed=20260808
    )


def run_events(campaign, regions, n, **options):
    """``(region, done, final)`` of every progress event a sink saw."""
    sink = RecordingSink()
    campaign.run(regions, n, sinks=[sink], **options)
    return [(e.region, e.done, e.final) for e in sink.events]


def make_event(done=10, final=False, target_d=None):
    return ProgressEvent(
        app="wavetoy",
        region="stack",
        done=done,
        planned=20,
        resumed=1,
        errors=2,
        achieved_d=0.12,
        target_d=target_d,
        final=final,
    )


class TestThrottle:
    def test_every_nth_trial_per_region(self, campaign):
        events = run_events(campaign, [Region.MESSAGE], 7, log_interval=3)
        assert events == [
            ("message", 3, False), ("message", 6, False), ("message", 7, True)
        ]

    def test_regions_counted_independently(self, campaign):
        # A count shared across regions would carry message's third
        # trial into heap and fire at heap's first.
        events = run_events(
            campaign, [Region.MESSAGE, Region.HEAP], 3, log_interval=2
        )
        assert events == [
            ("message", 2, False), ("message", 3, True),
            ("heap", 2, False), ("heap", 3, True),
        ]

    def test_zero_interval_never_due(self, campaign):
        events = run_events(campaign, [Region.MESSAGE], 4, log_interval=0)
        assert events == [("message", 4, True)]

    def test_one_final_event_when_interval_divides_n(self, campaign):
        events = run_events(campaign, [Region.MESSAGE], 4, log_interval=2)
        assert events == [("message", 2, False), ("message", 4, True)]

    def test_each_run_of_a_region_counts_from_zero(self, campaign):
        sink = RecordingSink()
        with campaign.engine(sinks=[sink], log_interval=2) as eng:
            eng.run_region(Region.MESSAGE, 3)
            eng.run_region(Region.MESSAGE, 3)
        assert [(e.done, e.final) for e in sink.events] == [
            (2, False), (3, True), (2, False), (3, True)
        ]

    def test_unobserved_engine_builds_no_event(self, campaign, monkeypatch):
        built = []

        def counting(**fields):
            built.append(fields)
            return ProgressEvent(**fields)

        monkeypatch.setattr(driver, "ProgressEvent", counting)
        campaign.run_region(Region.MESSAGE, 3, log_interval=1)
        assert built == []
        campaign.run_region(Region.MESSAGE, 3, log_interval=1, sinks=[TrialSink()])
        assert len(built) == 3


class TestFanOut:
    def test_metrics_only_emission(self, campaign):
        hub = TelemetryHub()
        row = campaign.run_region(Region.MESSAGE, 3, sinks=[hub], log_interval=1)
        snap = hub.metrics_snapshot()
        labels = (("app", "wavetoy"), ("region", "message"))
        assert snap.gauges[("repro_campaign_trials_done", labels)] == 3.0
        assert snap.gauges[("repro_campaign_errors", labels)] == row.tally.errors
        # periodic at 1 and 2, then the final one
        assert snap.counters[("repro_campaign_progress_events_total", labels)] == 3

    def test_both_sinks_fed(self, campaign):
        sink, hub = RecordingSink(), TelemetryHub()
        campaign.run_region(Region.MESSAGE, 3, sinks=[sink, hub], log_interval=2)
        assert [(e.done, e.final) for e in sink.events] == [(2, False), (3, True)]
        labels = (("app", "wavetoy"), ("region", "message"))
        counters = hub.metrics_snapshot().counters
        assert counters[("repro_campaign_progress_events_total", labels)] == 2

    def test_sink_sees_the_region_in_order(self, campaign):
        sink = RecordingSink()
        row = campaign.run_region(Region.MESSAGE, 2, sinks=[sink], log_interval=1)
        kinds = [call[0] for call in sink.calls]
        assert kinds == [
            "region_start", "trial", "progress", "trial", "progress", "region_final"
        ]
        assert sink.calls[0] == ("region_start", "wavetoy", "message", 2)
        assert sink.calls[-1] == ("region_final", "wavetoy", row)

    def test_printer_sink_prints_each_event(self, campaign, capsys):
        sink = RecordingSink()
        campaign.run_region(
            Region.MESSAGE, 3, sinks=[sink, ProgressPrinter()], log_interval=2
        )
        assert capsys.readouterr().err.splitlines() == [
            format_progress(event) for event in sink.events
        ]


class TestFormat:
    def test_line_contents(self):
        line = format_progress(make_event(final=True, target_d=0.05))
        assert "[wavetoy:stack]" in line
        assert "10/20 trials" in line
        assert "(target 5.0%)" in line
        assert line.endswith("[done]")
