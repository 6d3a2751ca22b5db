"""Host-speed calibration: the slice, and normalization by it.

Raw wall time on a small shared host drifts by more than any useful
regression bound: a fixed pure-Python loop's speed varies with a CV of
several percent over one-second windows, and whole minutes can run a
third slower.  So every trial is bracketed by a *calibration slice* -
a fixed few milliseconds of dict and int work with a KB-sized working
set - run in the trial's own process right before and right after it.
An interval ``t`` is then reported as ``t * (CAL_REF_NS / c) ** EXPONENT``,
where ``c`` is the local slice time: the interval expressed in
"reference host" seconds.  Slice time itself is removed from every
phase.

Stdlib only: the runner, the in-process probe and the self-tests all
import this module.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

#: ``c_ref``: the slice's typical duration on the host the bounds were
#: set on (2 vCPUs, Python 3.11).  Only a scale factor - normalized
#: figures read as seconds on that host.
CAL_REF_NS = 1_800_000

#: Fixed slice size.  Changing it changes every normalized figure.
SLICE_ROUNDS = 3000

#: How strongly a phase's time follows the slice's, for trials and cold
#: starts alike.  On the 2-vCPU host the bounds were set on, the slice
#: ran between 0.8 and 2.1 ms from one set of runs to the next, and some
#: host states slow the tight slice loop more than the campaigns, so full
#: scaling (1.0) over-corrects.  Over six sets of ten seeds per workload,
#: where raw medians moved by up to 95% between sets, 0.85 kept every
#: median within 12% of every other set's: the least worst case of the
#: exponents tried.
EXPONENT = 0.85

#: Neighbouring slices whose median gives the local cost, so one slice
#: hit by an interrupt does not rescale a whole trial.
SMOOTH = 5

clock_ns = time.monotonic_ns  # CLOCK_MONOTONIC: one clock for every process


def calibration_slice(rounds: int = SLICE_ROUNDS) -> int:
    """The fixed unit of host work: an LCG feeding a <=256-key dict."""
    table: dict[int, int] = {}
    x = 0x9E3779B9
    acc = 0
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x >> 24
        table[key] = table.get(key, 0) + (i ^ x) % 977
        acc += table[key] & 0xFF
    return acc


def speed_factor(cost_ns: float) -> float:
    """Reference-host seconds per second at local slice cost ``cost_ns``."""
    return (CAL_REF_NS / cost_ns) ** EXPONENT


def timed_slice() -> tuple[int, int]:
    """Run one slice; returns its ``(start_ns, end_ns)``."""
    t0 = clock_ns()
    calibration_slice()
    return t0, clock_ns()


class SpeedTrack:
    """Local slice cost as a step function of time.

    ``samples`` are ``(start_ns, end_ns)`` slice intervals.  Each sample
    is placed at its midpoint with cost = its duration, smoothed to the
    median of its :data:`SMOOTH` nearest neighbours in time; the cost at
    any instant is that of the nearest sample.
    """

    def __init__(self, samples) -> None:
        pts = sorted(((a + b) / 2, b - a) for a, b in samples)
        if not pts:
            raise ValueError("a speed track needs at least one slice")
        half = SMOOTH // 2
        raw = [c for _, c in pts]
        self.times = [t for t, _ in pts]
        self.costs = [
            statistics.median(raw[max(0, i - half): i + half + 1])
            for i in range(len(raw))
        ]
        self.factors = [speed_factor(c) for c in self.costs]
        # Cost c_i holds on [edges[i-1], edges[i]).
        self.edges = [
            (self.times[i] + self.times[i + 1]) / 2
            for i in range(len(self.times) - 1)
        ]

    def median_cost(self) -> float:
        return statistics.median(self.costs)

    def normalize(self, a: float, b: float) -> float:
        """``integral_a^b speed_factor(c(t)) dt``: the interval in
        reference-host time."""
        if b <= a:
            return 0.0
        i = bisect.bisect_right(self.edges, a)
        total = 0.0
        t = a
        while True:
            stop = self.edges[i] if i < len(self.edges) else math.inf
            seg_end = min(b, stop)
            total += (seg_end - t) * self.factors[i]
            if seg_end >= b:
                return total
            t = seg_end
            i += 1


def phase_seconds(
    start: int,
    end: int,
    excluded: list[tuple[int, int]],
    shared_slices: list[tuple[int, int]],
    jobs: int,
    track: SpeedTrack | None,
) -> float:
    """Seconds of one driver phase ``[start, end]``, normalized by
    ``track`` (raw when ``track`` is None).

    ``excluded`` intervals ran on the driver's own timeline (its
    slices, the golden recording counted as set-up) and are cut out
    whole.  ``shared_slices`` ran inside ``jobs`` pool workers, side by
    side, so they lengthened the phase by their sum over ``jobs``.
    """
    norm = (lambda a, b: b - a) if track is None else track.normalize
    total = norm(start, end)
    total -= sum(norm(a, b) for a, b in excluded)
    total -= sum(norm(a, b) for a, b in shared_slices) / max(jobs, 1)
    return total / 1e9


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (an observed value)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered)))
    return ordered[k - 1]
