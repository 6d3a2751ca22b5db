"""Metrics registry: counters, gauges, histograms, snapshots.

Design constraints, in order:

1. **No overhead when absent.**  Instrumented layers consult
   :mod:`repro.observability.runtime` with a plain ``is None`` check;
   nothing in this module runs unless a registry is active.
2. **Deterministic aggregation.**  Workers never share a registry;
   each trial produces a picklable :func:`MetricsRegistry.snapshot`
   that the driver merges.  Counters and histogram bucket counts are
   sums, so the merged registry is bit-identical regardless of worker
   count or completion order.
3. **Plain-text export.**  :func:`render_prometheus` writes the
   node-exporter textfile format; :func:`parse_prometheus` reads it
   back (used by the CI smoke check).

Metric identity is ``(name, sorted labels)``.  Histograms use fixed
power-of-two bucket bounds by default so merged histograms from
different processes always align.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Iterable

#: Default histogram bounds: powers of two up to ~one million blocks,
#: fixed so snapshots from any process merge bucket-for-bucket.
DEFAULT_BUCKETS = tuple(float(1 << i) for i in range(21))

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_value(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v in (math.inf, -math.inf):
        return "+Inf" if v > 0 else "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format label escaping: backslash, quote,
    and newline (exactly the three the format defines)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _render_labels(labels: LabelItems, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = tuple(labels) + tuple(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """Last-value gauge (driver-side only; snapshots merge by
    overwrite, so worker code should prefer counters/histograms)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be ascending")
        # one count per finite bound plus the +Inf overflow bucket
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts in ``le`` order (Prometheus style)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


@dataclass
class MetricsSnapshot:
    """Picklable, mergeable registry state.

    ``counters``/``gauges`` map ``(name, labels)`` to a value;
    ``histograms`` map it to ``(bounds, counts, sum, count)``.
    """

    counters: dict[tuple[str, LabelItems], float] = field(default_factory=dict)
    gauges: dict[tuple[str, LabelItems], float] = field(default_factory=dict)
    histograms: dict[
        tuple[str, LabelItems], tuple[tuple[float, ...], tuple[int, ...], float, int]
    ] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Sum ``other`` into this snapshot (in place) and return it."""
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        for key, value in other.gauges.items():
            self.gauges[key] = value
        for key, (bounds, counts, total, n) in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = (bounds, counts, total, n)
                continue
            if mine[0] != bounds:
                raise ValueError(f"histogram bound mismatch for {key[0]}")
            merged = tuple(a + b for a, b in zip(mine[1], counts))
            self.histograms[key] = (bounds, merged, mine[2] + total, mine[3] + n)
        return self

    def to_json(self) -> dict:
        """JSON-serializable view (``metrics.jsonl`` lines).  Keys are
        rendered as ``name{label="value",...}`` sample strings - the
        same identity the exposition format uses - and parsed back by
        :meth:`from_json`."""

        def sample(name: str, labels: LabelItems) -> str:
            return f"{name}{_render_labels(labels)}"

        return {
            "counters": {
                sample(*key): value
                for key, value in sorted(self.counters.items())
            },
            "gauges": {
                sample(*key): value
                for key, value in sorted(self.gauges.items())
            },
            "histograms": {
                sample(*key): {
                    "bounds": list(bounds),
                    "counts": list(counts),
                    "sum": total,
                    "count": n,
                }
                for key, (bounds, counts, total, n) in sorted(
                    self.histograms.items()
                )
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MetricsSnapshot":
        def key(sample: str) -> tuple[str, LabelItems]:
            name, brace, rest = sample.partition("{")
            if not brace:
                return name, ()
            labels = tuple(
                (k, _unescape_label_value(v))
                for k, v in _LABEL_RE.findall(rest[:-1])
            )
            return name, labels

        return cls(
            counters={key(s): float(v) for s, v in obj["counters"].items()},
            gauges={key(s): float(v) for s, v in obj["gauges"].items()},
            histograms={
                key(s): (
                    tuple(float(b) for b in h["bounds"]),
                    tuple(int(c) for c in h["counts"]),
                    float(h["sum"]),
                    int(h["count"]),
                )
                for s, h in obj["histograms"].items()
            },
        )


class MetricsRegistry:
    """Process-local registry of named, labelled metrics.

    :attr:`lock` guards the registry, and whatever state is kept in
    step with it, against concurrent readers: the campaign engine
    writes under it and a telemetry hub built on the registry scrapes
    under it (an :class:`~threading.RLock`, because progress emission
    nests inside trial ingestion).  Writers with no concurrent reader
    may ignore it.  Registries stay in their process (workers ship
    :class:`MetricsSnapshot` values), so the lock is never pickled.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._counters: dict[tuple[str, LabelItems], Counter] = {}
        self._gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}

    # ------------------------------------------------------------------
    # creation / lookup
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(buckets)
        return metric

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={
                k: (h.bounds, tuple(h.counts), h.sum, h.count)
                for k, h in self._histograms.items()
            },
        )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker snapshot into this registry: counters and
        histogram buckets sum; gauges overwrite (drivers should only set
        gauges locally)."""
        for (name, labels), value in snapshot.counters.items():
            self.counter(name, **dict(labels)).value += value
        for (name, labels), value in snapshot.gauges.items():
            self.gauge(name, **dict(labels)).value = value
        for (name, labels), (bounds, counts, total, n) in snapshot.histograms.items():
            hist = self.histogram(name, buckets=bounds, **dict(labels))
            if hist.bounds != bounds:
                raise ValueError(f"histogram bound mismatch for {name}")
            for i, c in enumerate(counts):
                hist.counts[i] += c
            hist.sum += total
            hist.count += n

    # ------------------------------------------------------------------
    # queries (for tests and reports)
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        metric = self._counters.get((name, _label_key(labels)))
        return metric.value if metric is not None else 0.0

    def histogram_state(
        self, name: str, **labels
    ) -> tuple[tuple[float, ...], tuple[int, ...], float, int] | None:
        metric = self._histograms.get((name, _label_key(labels)))
        if metric is None:
            return None
        return (metric.bounds, tuple(metric.counts), metric.sum, metric.count)


# ----------------------------------------------------------------------
# Prometheus textfile round trip
# ----------------------------------------------------------------------
def render_prometheus(registry: "MetricsRegistry | MetricsSnapshot") -> str:
    """Render a registry (or an already-taken snapshot) in the
    Prometheus textfile exposition format, deterministically sorted by
    (name, labels).  Accepting a snapshot lets concurrent readers - the
    live ``/metrics`` endpoint - copy the state under a lock and render
    outside it."""
    lines: list[str] = []
    snap = registry if isinstance(registry, MetricsSnapshot) else registry.snapshot()
    seen_types: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for (name, labels), value in sorted(snap.counters.items()):
        type_line(name, "counter")
        lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")
    for (name, labels), value in sorted(snap.gauges.items()):
        type_line(name, "gauge")
        lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")
    for (name, labels), (bounds, counts, total, n) in sorted(
        snap.histograms.items()
    ):
        type_line(name, "histogram")
        running = 0
        for bound, count in zip(bounds, counts):
            running += count
            le = _render_labels(labels, (("le", _format_value(bound)),))
            lines.append(f"{name}_bucket{le} {running}")
        running += counts[-1]
        inf = _render_labels(labels, (("le", "+Inf"),))
        lines.append(f"{name}_bucket{inf} {running}")
        lines.append(f"{name}_sum{_render_labels(labels)} {_format_value(total)}")
        lines.append(f"{name}_count{_render_labels(labels)} {n}")
    return "\n".join(lines) + "\n"


#: One quoted label pair; values may contain any escaped character
#: (including ``}``, quotes, and escaped newlines).
_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:" + _LABEL_PAIR + r")(?:," + _LABEL_PAIR + r")*,?)?\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[tuple[str, LabelItems], float]:
    """Parse a textfile back into ``{(name, labels): value}``.

    Raises :class:`ValueError` on any malformed non-comment line, which
    is exactly what the CI smoke job wants to assert.  Label values are
    unescaped, so ``parse_prometheus(render_prometheus(reg))`` round-
    trips even adversarial values (quotes, backslashes, ``}``,
    newlines).
    """
    out: dict[tuple[str, LabelItems], float] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"malformed metrics line {i}: {line!r}")
        labels_text = m.group("labels") or ""
        labels = tuple(
            (k, _unescape_label_value(v))
            for k, v in _LABEL_RE.findall(labels_text)
        )
        raw = m.group("value")
        if raw == "+Inf":
            value = math.inf
        elif raw == "-Inf":
            value = -math.inf
        elif raw == "NaN":
            value = math.nan
        else:
            value = float(raw)
        out[(m.group("name"), labels)] = value
    return out
