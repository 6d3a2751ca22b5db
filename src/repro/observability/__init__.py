"""Unified observability: tracing, metrics, and propagation timelines.

The paper explains its Crash/Hang/Incorrect/Detected rates through
*where* a fault lands and *how long* it stays latent before a detector
or crash surfaces it.  This package gives the reproduction the
instrumentation that analysis needs, threaded through every execution
layer:

* :mod:`repro.observability.tracer` - a span/event tracer with named
  scopes (trial -> kernel -> basic block; MPI call -> ADI -> channel
  packet; injection install -> flip -> first detector firing), a strict
  no-op when disabled;
* :mod:`repro.observability.metrics` - a registry of counters, gauges
  and histograms with picklable snapshots, merged across
  ``ParallelExecutor`` workers in the driver, exported as a
  Prometheus-style textfile;
* :mod:`repro.observability.timeline` - the per-trial
  fault-propagation timeline: injection instant (basic block,
  instruction index, byte offset) and first-divergence instant (first
  detector firing, signal, protocol abort, hang declaration or output
  mismatch), yielding error-latency histograms per region in the
  spirit of section 5 of the paper;
* :mod:`repro.observability.export` - Chrome ``trace_event`` JSON
  (viewable in Perfetto), validation helpers and the campaign sink that
  merges per-trial traces;
* :mod:`repro.observability.runtime` - the per-trial activation scope
  the instrumented layers consult;
* :mod:`repro.observability.serve` - the live HTTP telemetry service
  (``campaign run --serve``, ``python -m repro serve``): /metrics,
  /status, /progress from a running campaign or a followed store;
* :mod:`repro.observability.artifacts` - artifact-grade run
  directories (``campaign run --artifacts``): manifest, event and
  metric logs, and a summary/report pair regenerable bit-identically
  from those logs alone.

All timestamps are *simulated* clocks (executed basic blocks,
instructions retired, received bytes), so every artifact is
bit-identical across worker counts and completion orders.
"""

from repro.observability.metrics import (
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)
from repro.observability.tracer import Tracer
from repro.observability.timeline import PropagationTimeline, TimelineEvent
from repro.observability.runtime import activate

#: Symbols resolved lazily (PEP 562): ``export``, ``serve`` and
#: ``artifacts`` are campaign sinks and pull in :mod:`repro.engine`,
#: which must not load as a side effect of importing the observability
#: package from low-level layers.
_LAZY_EXPORTS = {
    "TraceCollector": "repro.observability.export",
    "chrome_trace": "repro.observability.export",
    "validate_chrome_trace": "repro.observability.export",
    "write_chrome_trace": "repro.observability.export",
    "TelemetryHub": "repro.observability.serve",
    "TelemetryServer": "repro.observability.serve",
    "StoreTelemetry": "repro.observability.serve",
    "parse_endpoint": "repro.observability.serve",
    "RunArtifacts": "repro.observability.artifacts",
    "build_summary": "repro.observability.artifacts",
    "write_outputs": "repro.observability.artifacts",
    "check_outputs": "repro.observability.artifacts",
    "render_report": "repro.observability.artifacts",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "MetricsRegistry",
    "parse_prometheus",
    "render_prometheus",
    "Tracer",
    "PropagationTimeline",
    "TimelineEvent",
    "activate",
    *sorted(_LAZY_EXPORTS),
]
