"""Chrome trace export, validation, and multi-trial merging."""

import json

import pytest

from repro.observability.export import (
    TraceCollector,
    chrome_trace,
    trace_categories,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observability.tracer import Tracer


def _events():
    t = Tracer()
    t.complete("kernel:step", "vm", ts=0, dur=10, tid=0)
    t.instant("channel:recv", "channel", ts=4, tid=1)
    t.instant("inject:flip", "injection", ts=6, tid=0)
    return t.events


class TestValidation:
    def test_valid_trace_passes(self):
        assert validate_chrome_trace(chrome_trace(_events())) == []

    def test_top_level_must_be_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"other": 1}) != []

    def test_bad_phase_and_missing_name(self):
        obj = chrome_trace(
            [{"name": "x", "ph": "Z", "ts": 0, "pid": 0, "tid": 0}]
        )
        assert any("bad phase" in p for p in validate_chrome_trace(obj))
        obj = chrome_trace([{"ph": "i", "ts": 0, "pid": 0, "tid": 0}])
        assert any("missing name" in p for p in validate_chrome_trace(obj))

    def test_negative_ts_and_missing_dur(self):
        obj = chrome_trace(
            [{"name": "x", "ph": "i", "ts": -5, "pid": 0, "tid": 0}]
        )
        assert any("bad ts" in p for p in validate_chrome_trace(obj))
        obj = chrome_trace([{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}])
        assert any("bad dur" in p for p in validate_chrome_trace(obj))

    def test_metadata_events_skip_ts_check(self):
        obj = chrome_trace(
            [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {}}]
        )
        assert validate_chrome_trace(obj) == []

    def test_problem_list_truncates(self):
        events = [{"bogus": True}] * 200
        problems = validate_chrome_trace(chrome_trace(events))
        assert problems[-1] == "... (truncated)"
        assert len(problems) <= 51

    def test_categories(self):
        obj = chrome_trace(_events())
        assert trace_categories(obj) == {"vm", "channel", "injection"}


class TestWrite:
    def test_file_round_trip(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "t.json", _events(), metadata={"app": "wavetoy"}
        )
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []
        assert obj["otherData"]["app"] == "wavetoy"
        assert obj["displayTimeUnit"] == "ms"


class TestCollector:
    def test_pids_sorted_by_region_and_index(self):
        coll = TraceCollector()
        # insertion order deliberately scrambled (parallel completion)
        coll.add_trial("stack", 1, "s1", _events())
        coll.add_trial("heap", 0, "h0", _events())
        coll.add_trial("stack", 0, "s0", _events())
        merged = coll.merged_events()
        names = {
            e["pid"]: e["args"]["name"]
            for e in merged
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert names == {1: "h0", 2: "s0", 3: "s1"}

    def test_thread_metadata_per_rank(self):
        coll = TraceCollector()
        coll.add_trial("stack", 0, "s0", _events())
        threads = [
            e
            for e in coll.merged_events()
            if e.get("ph") == "M" and e["name"] == "thread_name"
        ]
        assert {t["tid"] for t in threads} == {0, 1}

    def test_duplicate_trials_ignored(self):
        coll = TraceCollector()
        coll.add_trial("stack", 0, "first", _events())
        coll.add_trial("stack", 0, "second", _events())
        assert len(coll) == 1

    def test_max_trials_counts_dropped(self):
        coll = TraceCollector(max_trials=2)
        with pytest.warns(UserWarning, match="max_trials=2"):
            for i in range(5):
                coll.add_trial("stack", i, f"s{i}", _events())
        assert len(coll) == 2
        assert coll.dropped == 3

    def test_write_validates(self, tmp_path):
        coll = TraceCollector()
        coll.add_trial("message", 0, "m0", _events())
        path = coll.write(tmp_path / "merged.json", metadata={"seed": 1})
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []
        assert obj["otherData"] == {"trials": 1, "dropped_trials": 0, "seed": 1}


class TestDropAccounting:
    """The ``max_trials`` cap never drops silently (ISSUE 9): a counter
    on the metrics path plus a one-shot warning."""

    def test_drop_increments_attached_metrics(self):
        from repro.observability.metrics import MetricsRegistry

        reg = MetricsRegistry()
        coll = TraceCollector(max_trials=1)
        coll.metrics = reg
        with pytest.warns(UserWarning, match="max_trials=1"):
            for i in range(4):
                coll.add_trial("stack", i, f"s{i}", _events())
        assert coll.dropped == 3
        assert reg.counter_value("repro_trace_trials_dropped_total") == 3

    def test_drop_is_safe_against_a_concurrent_scrape(self):
        """The first drop inserts the counter while a scraping thread
        may be iterating the registry; the collector takes the
        registry's lock for that write.  A registry padded with filler
        keeps each scrape iterating long enough to overlap the drop."""
        import sys
        import threading
        import time
        import warnings as _warnings

        from repro.observability.serve import TelemetryHub

        def round_fails():
            hub = TelemetryHub()
            for i in range(3000):
                hub.registry.counter("filler_total", i=i).inc()
            coll = TraceCollector(max_trials=0)
            coll.metrics = hub.registry
            failures, stop = [], threading.Event()

            def scrape():
                while not stop.is_set():
                    try:
                        hub.metrics_snapshot()
                    except RuntimeError as exc:  # dict changed size
                        failures.append(exc)
                        return

            scraper = threading.Thread(target=scrape)
            scraper.start()
            time.sleep(0.001)
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                coll.add_trial("stack", 0, "s0", _events())
            stop.set()
            scraper.join(timeout=10)
            assert not scraper.is_alive()
            return failures

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            failures = [f for _ in range(20) for f in round_fails()]
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_warning_fires_once(self):
        import warnings as _warnings

        coll = TraceCollector(max_trials=1)
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            for i in range(5):
                coll.add_trial("stack", i, f"s{i}", _events())
        drops = [w for w in caught if "max_trials" in str(w.message)]
        assert len(drops) == 1

    def test_add_trial_reports_acceptance(self):
        coll = TraceCollector(max_trials=1)
        assert coll.add_trial("stack", 0, "s0", _events()) is True
        with pytest.warns(UserWarning):
            assert coll.add_trial("stack", 1, "s1", _events()) is False
        # A duplicate of a kept trial is not a drop.
        assert coll.add_trial("stack", 0, "again", _events()) is True
        assert coll.dropped == 1

    def test_dropped_count_lands_in_trace_metadata(self, tmp_path):
        coll = TraceCollector(max_trials=1)
        with pytest.warns(UserWarning):
            for i in range(3):
                coll.add_trial("stack", i, f"s{i}", _events())
        obj = json.loads(coll.write(tmp_path / "t.json").read_text())
        assert obj["otherData"]["dropped_trials"] == 2
