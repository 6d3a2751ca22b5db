"""The live telemetry service.

Acceptance bar (ISSUE 9): a mid-run ``/metrics`` scrape parses with
``parse_prometheus``; final endpoint totals equal the merged campaign
registry exactly, at any worker count; the standalone store follower
ingests only appended bytes and recovers from truncation.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine.store import ResultStore
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.observability.metrics import (
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)
from repro.observability.serve import (
    SERVE_SCHEMA_VERSION,
    StoreTelemetry,
    TelemetryHub,
    TelemetryServer,
    parse_endpoint,
)
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY

SEED = 20260808
N = 4


@pytest.fixture(scope="module")
def campaign():
    return Campaign.from_registry(
        "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY, seed=SEED
    )


def _get(url: str) -> str:
    return urllib.request.urlopen(url, timeout=10).read().decode()


def _comparable(samples):
    """Samples that must agree across worker counts: everything except
    the pid-labelled per-worker throughput counter and driver gauges
    (final-state timing artifacts aside, gauges are set identically -
    but the worker counter genuinely differs by jobs)."""
    return {
        key: value
        for key, value in samples.items()
        if not key[0].startswith("repro_worker_trials_total")
    }


class TestParseEndpoint:
    def test_bare_port_binds_loopback(self):
        assert parse_endpoint("9100") == ("127.0.0.1", 9100)

    def test_host_and_port(self):
        assert parse_endpoint("0.0.0.0:8080") == ("0.0.0.0", 8080)

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_endpoint("localhost:http")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_endpoint("70000")


class TestTelemetryHub:
    def test_final_metrics_equal_merged_registry(self, campaign):
        hub = TelemetryHub()
        with TelemetryServer(hub) as srv:
            with campaign.engine(sinks=[hub]) as eng:
                eng.run_region(Region.STACK, N)
            text = _get(srv.url + "/metrics")
        # The scrape and the end-of-run export read the same hub.
        assert text == hub.metrics_text()
        samples = parse_prometheus(text)
        assert (
            samples[
                (
                    "repro_trial_outcomes_total",
                    (("manifestation", "correct"),),
                )
            ]
            + sum(
                v
                for (name, labels), v in samples.items()
                if name == "repro_trial_outcomes_total"
                and labels != (("manifestation", "correct"),)
            )
            == N
        )

    def test_status_and_progress_payloads(self, campaign):
        hub = TelemetryHub()
        with TelemetryServer(hub) as srv:
            with campaign.engine(sinks=[hub]) as eng:
                eng.run_region(Region.STACK, N)
            status = json.loads(_get(srv.url + "/status"))
            progress = json.loads(_get(srv.url + "/progress"))
        assert status["schema_version"] == SERVE_SCHEMA_VERSION
        (row,) = status["regions"]
        assert row["app"] == "wavetoy"
        assert row["region"] == "stack"
        assert row["trials"] == N
        assert row["achieved_d_percent"] > 0.0
        assert progress["trials_done"] == N
        assert progress["trials_planned"] == N
        assert progress["throughput_trials_per_second"] > 0.0
        assert progress["regions"] == [
            {"app": "wavetoy", "region": "stack", "planned": N}
        ]

    def test_midrun_scrapes_always_parse(self, campaign):
        """Scrape continuously while the campaign runs; every response
        must parse (a torn render would raise ValueError here)."""
        hub = TelemetryHub()
        done = threading.Event()
        failures: list[Exception] = []

        def run():
            try:
                with campaign.engine(sinks=[hub]) as eng:
                    eng.run_region(Region.STACK, 3 * N)
                    eng.run_region(Region.HEAP, 3 * N)
            finally:
                done.set()

        with TelemetryServer(hub) as srv:
            worker = threading.Thread(target=run)
            worker.start()
            scrapes = 0
            while not done.is_set() or scrapes == 0:
                try:
                    parse_prometheus(_get(srv.url + "/metrics"))
                    json.loads(_get(srv.url + "/status"))
                    json.loads(_get(srv.url + "/progress"))
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)
                    break
                scrapes += 1
            worker.join()
        assert failures == []
        assert scrapes >= 1

    def test_endpoint_totals_identical_across_jobs(self, campaign):
        """jobs=1 and jobs=4 campaigns expose identical /metrics totals
        (modulo the per-worker pid counter) and identical /status rows."""
        payloads = {}
        for jobs in (1, 4):
            hub = TelemetryHub()
            with TelemetryServer(hub) as srv:
                with campaign.engine(sinks=[hub], jobs=jobs) as eng:
                    eng.run_region(Region.STACK, N)
                payloads[jobs] = (
                    _comparable(parse_prometheus(_get(srv.url + "/metrics"))),
                    json.loads(_get(srv.url + "/status"))["regions"],
                )
        assert payloads[1] == payloads[4]

    def test_unknown_endpoint_404(self):
        with TelemetryServer(TelemetryHub()) as srv:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(srv.url + "/nope")
            assert err.value.code == 404

    def test_index_names_endpoints(self):
        with TelemetryServer(TelemetryHub()) as srv:
            index = _get(srv.url + "/")
        for endpoint in ("/metrics", "/status", "/progress"):
            assert endpoint in index


class TestStoreTelemetry:
    def _store_with(self, tmp_path, results):
        store = ResultStore(tmp_path / "s.jsonl")
        for result in results:
            store.append(result)
        store.close()
        return store.path

    def test_follows_appends_incrementally(self, tmp_path):
        from tests.engine.test_trial_store import make_result

        path = self._store_with(tmp_path, [make_result(index=i) for i in range(3)])
        telemetry = StoreTelemetry(path)
        assert telemetry.status_payload()["regions"][0]["trials"] == 3
        offset_after_first = telemetry._follower.position

        store = ResultStore(path)
        store.append(make_result(index=7))
        store.close()
        payload = telemetry.status_payload()
        assert payload["regions"][0]["trials"] == 4
        # Only the appended bytes were parsed.
        assert telemetry._follower.position > offset_after_first

    def test_follows_a_store_not_yet_written(self, tmp_path):
        from tests.engine.test_trial_store import make_result

        telemetry = StoreTelemetry(tmp_path / "s.jsonl")
        assert telemetry.status_payload()["regions"] == []
        self._store_with(tmp_path, [make_result(index=i) for i in range(2)])
        assert telemetry.status_payload()["regions"][0]["trials"] == 2

    def test_partial_trailing_line_deferred(self, tmp_path):
        from tests.engine.test_trial_store import make_result

        path = self._store_with(tmp_path, [make_result(index=i) for i in range(2)])
        with open(path, "a") as fh:
            fh.write('{"key": "torn')  # no newline: an in-flight append
        telemetry = StoreTelemetry(path)
        assert telemetry.status_payload()["regions"][0]["trials"] == 2
        with open(path, "a") as fh:
            fh.write('en line"}\n')  # completed, but not a valid result
        assert telemetry.status_payload()["regions"][0]["trials"] == 2

    def test_truncation_resets_the_fold(self, tmp_path):
        from tests.engine.test_trial_store import make_result

        path = self._store_with(tmp_path, [make_result(index=i) for i in range(5)])
        telemetry = StoreTelemetry(path)
        assert telemetry.progress_payload()["trials_done"] == 5

        path.write_text("")  # store rewritten from scratch
        store = ResultStore(path)
        store.append(make_result(index=0))
        store.close()
        assert telemetry.progress_payload()["trials_done"] == 1

    def test_metrics_endpoint_from_store(self, tmp_path):
        from tests.engine.test_trial_store import make_result

        path = self._store_with(tmp_path, [make_result(index=i) for i in range(3)])
        with TelemetryServer(StoreTelemetry(path)) as srv:
            samples = parse_prometheus(_get(srv.url + "/metrics"))
        assert (
            samples[
                ("repro_trial_outcomes_total", (("manifestation", "correct"),))
            ]
            == 3
        )
        assert (
            samples[
                (
                    "repro_campaign_trials_done",
                    (("app", "wavetoy"), ("region", "heap")),
                )
            ]
            == 3
        )

    def test_follower_serves_the_live_campaign_families(self, campaign, tmp_path):
        """A followed store and the live hub that fed it render the
        campaign families through one fold, pruned trials by (region,
        reason) included."""
        path = tmp_path / "pruned.jsonl"
        live = TelemetryHub()
        row = campaign.run_region(Region.TEXT, 6, store=path, sinks=[live])
        assert row.pruned > 0
        followed = StoreTelemetry(path).metrics_snapshot()

        def families(snapshot, names):
            return [
                {k: v for k, v in getattr(snapshot, kind).items() if k[0] in names}
                for kind in ("counters", "gauges", "histograms")
            ]

        pruned = families(followed, {"repro_trials_pruned_total"})[0]
        assert sum(pruned.values()) == row.pruned
        assert {dict(labels)["region"] for _, labels in pruned} == {"text"}
        served = {
            name
            for kind in ("counters", "gauges", "histograms")
            for name, _ in getattr(followed, kind)
        }
        assert families(followed, served) == families(
            live.metrics_snapshot(), served
        )
