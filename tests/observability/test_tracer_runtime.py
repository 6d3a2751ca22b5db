"""Tracer event shapes and the runtime activation contract."""

import pytest

from repro.observability import runtime
from repro.observability.metrics import MetricsRegistry
from repro.observability.timeline import PropagationTimeline
from repro.observability.tracer import Tracer


class TestTracer:
    def test_complete_span_shape(self):
        t = Tracer()
        t.complete("kernel:wt_step", "vm", ts=10, dur=5, tid=2, args={"insns": 40})
        (event,) = t.events
        assert event["ph"] == "X"
        assert event["ts"] == 10 and event["dur"] == 5
        assert event["tid"] == 2 and event["pid"] == 0
        assert event["args"] == {"insns": 40}

    def test_zero_duration_span_widened_to_one(self):
        t = Tracer()
        t.complete("k", "vm", ts=0, dur=0)
        assert t.events[0]["dur"] == 1

    def test_instant_and_counter(self):
        t = Tracer()
        t.instant("inject:flip", "injection", ts=3, tid=1)
        t.counter("queue", ts=4, values={"depth": 2})
        assert t.events[0]["ph"] == "i" and t.events[0]["s"] == "t"
        assert t.events[1]["ph"] == "C"
        assert t.categories() == {"injection", "counter"}

    def test_event_cap_counts_drops(self):
        t = Tracer(max_events=2)
        for i in range(5):
            t.instant("e", "vm", ts=i)
        assert len(t) == 2
        assert t.dropped == 3


class TestRuntime:
    def test_disabled_by_default(self):
        assert runtime.TRACER is None
        assert runtime.METRICS is None
        assert runtime.TIMELINE is None

    def test_activate_restores_prior_scope(self):
        outer, metrics = Tracer(), MetricsRegistry()
        with runtime.activate(tracer=outer, metrics=metrics):
            inner = Tracer()
            with runtime.activate(tracer=inner):
                assert runtime.TRACER is inner
                assert runtime.METRICS is None
            assert runtime.TRACER is outer
            assert runtime.METRICS is metrics
        assert runtime.TRACER is None and runtime.METRICS is None

    def test_activate_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with runtime.activate(tracer=Tracer()):
                raise RuntimeError("boom")
        assert runtime.TRACER is None


class TestNoteHelpers:
    def test_note_detector_counts_and_stamps(self):
        reg = MetricsRegistry()
        tl = PropagationTimeline()
        with runtime.activate(metrics=reg, timeline=tl):
            runtime.note_detector("checksum", rank=1, blocks=50)
            runtime.note_detector("abft", corrected=True)
        assert (
            reg.counter_value(
                "repro_detector_firings_total", family="checksum", result="detected"
            )
            == 1
        )
        assert (
            reg.counter_value(
                "repro_detector_firings_total", family="abft", result="corrected"
            )
            == 1
        )
        assert tl.divergence.kind == "detector:checksum"
        assert tl.divergence.blocks == 50

    def test_note_injection_stamps_first_delivery(self):
        tl = PropagationTimeline()
        reg = MetricsRegistry()
        with runtime.activate(metrics=reg, timeline=tl):
            runtime.note_injection(rank=0, blocks=100, insns=400, region="stack")
            runtime.note_injection(rank=0, blocks=200, region="stack")
        assert tl.injection.blocks == 100
        assert tl.injection.insns == 400
        assert (
            reg.counter_value("repro_injection_flips_total", region="stack") == 2
        )

    def test_detector_beats_termination_for_divergence(self):
        tl = PropagationTimeline()
        with runtime.activate(timeline=tl):
            runtime.note_detector("nan", rank=2, blocks=70)
            runtime.note_termination("app_abort", rank=2, blocks=90)
        assert tl.divergence.kind == "detector:nan"
        assert len(tl.events) == 2

    def test_helpers_are_noops_when_disabled(self):
        runtime.note_detector("checksum")
        runtime.note_injection(rank=0, blocks=1)
        runtime.note_termination("hang", rank=0, blocks=2)  # must not raise

    def test_note_termination_traces_instant(self):
        t = Tracer()
        with runtime.activate(tracer=t):
            runtime.note_termination("signal:SIGSEGV", rank=3, blocks=44)
        (event,) = t.events
        assert event["name"] == "end:signal:SIGSEGV"
        assert event["cat"] == "trial"
        assert event["tid"] == 3
