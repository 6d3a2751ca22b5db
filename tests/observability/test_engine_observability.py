"""End-to-end observability through the campaign engine.

The acceptance bar for the subsystem: a traced trial carries spans from
all three execution layers (VM kernel, MPI channel, injection), metrics
merge bit-identically across worker counts, and error-latency data
survives the result-store round trip.
"""

import json

import pytest

from repro.engine.trial import TrialResult
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.injection.outcomes import Manifestation
from repro.observability import runtime
from repro.observability.export import TraceCollector, validate_chrome_trace
from repro.observability.metrics import MetricsRegistry
from repro.observability.serve import TelemetryHub
from repro.observability.tracer import Tracer
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY, RecordingSink

SEED = 20260806
N = 4


@pytest.fixture(scope="module")
def campaign():
    return Campaign.from_registry(
        "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY, seed=SEED
    )


def _comparable(snapshot):
    """Snapshot content that must be identical across worker counts:
    everything except gauges (driver-local) and the pid-labelled
    per-worker throughput counter."""
    counters = {
        k: v
        for k, v in snapshot.counters.items()
        if k[0] != "repro_worker_trials_total"
    }
    return counters, snapshot.histograms


class TestTracedTrial:
    def test_all_three_layers_present(self, campaign, tmp_path):
        coll = TraceCollector()
        with campaign.engine(sinks=[TelemetryHub(), coll]) as eng:
            specs = [eng.make_spec(Region.STACK, i) for i in range(N)]
            results = eng.run_trials(specs)
        obj = json.loads(
            coll.write(tmp_path / "t.json", metadata={}).read_text()
        )
        assert validate_chrome_trace(obj) == []
        cats = {
            e.get("cat")
            for e in obj["traceEvents"]
            if e.get("ph") != "M"
        }
        assert {"vm", "mpi", "channel"} <= cats
        if any(r.delivered for r in results):
            assert "injection" in cats

    def test_trial_timeline_fields_filled(self, campaign):
        with campaign.engine(sinks=[TelemetryHub()]) as eng:
            results = eng.run_trials(
                [eng.make_spec(Region.STACK, i) for i in range(N)]
            )
        for r in results:
            if r.delivered:
                assert r.injected_at_blocks is not None
                assert r.injected_at_insns is not None
            if r.manifestation is not Manifestation.CORRECT:
                assert r.divergence_kind is not None
            if r.manifestation is Manifestation.CORRECT:
                assert r.latency_blocks is None


class TestResultRoundTrip:
    def test_json_preserves_timeline_digest(self):
        result = TrialResult(
            key="k",
            app="wavetoy",
            region=Region.MESSAGE,
            index=3,
            manifestation=Manifestation.APP_DETECTED,
            delivered=True,
            detail="payload",
            injected_at_blocks=120,
            injected_at_insns=480,
            injected_byte=9000,
            diverged_at_blocks=150,
            divergence_kind="detector:checksum",
            latency_blocks=30,
        )
        back = TrialResult.from_json(result.to_json())
        assert back.injected_at_blocks == 120
        assert back.injected_byte == 9000
        assert back.divergence_kind == "detector:checksum"
        assert back.latency_blocks == 30
        assert back.resumed

    def test_old_store_lines_still_load(self):
        # Pre-observability JSONL lines have no timeline fields.
        back = TrialResult.from_json(
            {
                "key": "k",
                "app": "wavetoy",
                "region": "stack",
                "index": 0,
                "manifestation": "crash",
                "delivered": True,
            }
        )
        assert back.latency_blocks is None
        assert back.divergence_kind is None


class TestDeterminism:
    def test_metrics_identical_serial_vs_parallel(self, campaign):
        snaps = []
        for jobs in (1, 2):
            hub = TelemetryHub()
            campaign.run_region(Region.STACK, N, jobs=jobs, sinks=[hub])
            snaps.append(hub.metrics_snapshot())
        assert _comparable(snaps[0]) == _comparable(snaps[1])

    def test_latency_histogram_survives_store_resume(self, campaign, tmp_path):
        store = tmp_path / "store.jsonl"
        fresh = TelemetryHub()
        campaign.run_region(Region.STACK, N, store=str(store), sinks=[fresh])
        resumed = TelemetryHub()
        result = campaign.run_region(
            Region.STACK, N, store=str(store), resume=True, sinks=[resumed]
        )
        assert result.resumed == N
        fresh, resumed = fresh.metrics_snapshot(), resumed.metrics_snapshot()
        name = "repro_error_latency_blocks"
        assert {
            k: v for k, v in fresh.histograms.items() if k[0] == name
        } == {
            k: v for k, v in resumed.histograms.items() if k[0] == name
        }
        # outcome tallies rebuild identically too
        name = "repro_trial_outcomes_total"
        assert {k: v for k, v in fresh.counters.items() if k[0] == name} == {
            k: v for k, v in resumed.counters.items() if k[0] == name
        }


class TestPrunedCounter:
    def test_pruned_trials_are_counted_with_reasons(self, campaign):
        hub = TelemetryHub()
        result = campaign.run_region(Region.TEXT, 6, sinks=[hub])
        assert result.pruned > 0
        snap = hub.metrics_snapshot()
        pruned_counts = {
            dict(k[1])["reason"]: v
            for k, v in snap.counters.items()
            if k[0] == "repro_trials_pruned_total"
        }
        assert sum(pruned_counts.values()) == result.pruned
        assert all(
            dict(k[1])["region"] == "text"
            for k in snap.counters
            if k[0] == "repro_trials_pruned_total"
        )
        # reasons are the oracle's proof-rule names, not free text
        assert set(pruned_counts) <= {
            "benign-text-bit", "cold-text", "cold-symbol", "fp-bookkeeping"
        }


class TestForkSafety:
    def test_ambient_runtime_survives_parallel_campaign(self, campaign):
        """An observability scope active in the parent neither leaks
        into trial scopes nor is clobbered by fork-based workers, and
        the tallies equal the serial run's."""
        baseline = campaign.run_region(Region.MESSAGE, 2, jobs=1)
        tracer, metrics = Tracer(), MetricsRegistry()
        with runtime.activate(tracer=tracer, metrics=metrics):
            scoped = campaign.run_region(Region.MESSAGE, 2, jobs=2)
            assert runtime.TRACER is tracer
            assert runtime.METRICS is metrics
        assert runtime.TRACER is None and runtime.METRICS is None
        assert tracer.events == [] and len(metrics) == 0
        assert scoped.tally.counts == baseline.tally.counts

    def test_engine_progress_sink_and_registry(self, campaign):
        sink, hub = RecordingSink(), TelemetryHub()
        campaign.run_region(
            Region.MESSAGE,
            2,
            sinks=[sink, hub],
            log_interval=1,
        )
        events = sink.events
        assert events and events[-1].final
        assert all(e.region == "message" for e in events)
        snap = hub.metrics_snapshot()
        labels = (("app", campaign.app_name), ("region", "message"))
        assert snap.counters[("repro_campaign_progress_events_total", labels)] > 0
        assert snap.gauges[("repro_campaign_trials_done", labels)] == 2.0


class TestCli:
    def test_campaign_status_json(self, campaign, tmp_path, capsys):
        from repro.__main__ import main

        store = tmp_path / "store.jsonl"
        campaign.run_region(Region.STACK, 2, store=str(store))
        assert main(["campaign", "status", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["regions"]
        assert row["region"] == "stack"
        assert row["trials"] == 2
        assert sum(row["manifestations"].values()) == 2
        assert row["achieved_d_percent"] > 0

    def test_trace_check_cli(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.observability.tracer import Tracer

        t = Tracer()
        t.complete("kernel:k", "vm", ts=0, dur=3)
        t.instant("channel:recv", "channel", ts=1)
        coll = TraceCollector()
        coll.add_trial("stack", 0, "s0", t.events)
        path = coll.write(tmp_path / "t.json")
        assert (
            main(["trace", "check", "--trace", str(path), "--require", "vm,channel"])
            == 0
        )
        assert (
            main(
                ["trace", "check", "--trace", str(path), "--require", "injection"]
            )
            == 1
        )
        out = capsys.readouterr()
        assert "missing required category" in out.err
