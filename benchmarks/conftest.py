"""Benchmark suite configuration.

One benchmark per paper artifact (Tables 1-7, experiments E1-E8).  Each
bench runs its experiment exactly once under pytest-benchmark's pedantic
mode (these are macro-benchmarks; statistical repetition is provided by
the campaigns' own sampling) and prints the regenerated artifact so the
run log doubles as the paper-vs-measured record.

Campaign sizes default to a CI-friendly value; set ``REPRO_CAMPAIGN_N``
(e.g. 500) to reproduce the paper's scale.  Campaign-backed benches also
honour ``REPRO_CAMPAIGN_JOBS``, which their engines read: setting it
(e.g. to 4) runs their injection trials through the engine's
process-pool executor, with results bit-identical to the serial run.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.harness.experiments import EXPERIMENTS

#: Default injections per region for the campaign benches.
BENCH_CAMPAIGN_N = int(os.environ.get("REPRO_CAMPAIGN_N", "25"))


@dataclass
class Interleaved:
    """Per-round timings and results of two sides of a speedup bar."""

    slow_s: list[float] = field(default_factory=list)
    fast_s: list[float] = field(default_factory=list)
    slow: list = field(default_factory=list)
    fast: list = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Median of the per-round ``slow / fast`` time ratios."""
        return statistics.median(s / f for s, f in zip(self.slow_s, self.fast_s))


def interleave(
    slow: Callable[[], tuple[float, object]],
    fast: Callable[[], tuple[float, object]],
    rounds: int,
) -> Interleaved:
    """Time two sides of a speedup bar in alternating rounds.

    Each side returns ``(seconds, result)``.  One untimed run of each
    side goes first (caches fill and a cold or quota-throttled machine
    settles), then every round runs both sides, swapping which goes
    first, so CPU-frequency ramps and container-quota epochs hit both
    alike.  A bar compares the median of the per-round ratios.
    """
    slow()
    fast()
    out = Interleaved()
    for i in range(rounds):
        for side in (slow, fast) if i % 2 == 0 else (fast, slow):
            seconds, result = side()
            if side is slow:
                out.slow_s.append(seconds)
                out.slow.append(result)
            else:
                out.fast_s.append(seconds)
                out.fast.append(result)
    return out


@pytest.fixture
def run_experiment(benchmark, capsys):
    """Run a registry experiment once under the benchmark harness,
    print its artifact, and return its metrics."""

    def runner(exp_id: str, n: int | None = None):
        exp = EXPERIMENTS[exp_id]
        out = benchmark.pedantic(exp.run, args=(n,), rounds=1, iterations=1)
        artifact, metrics = out
        benchmark.extra_info["experiment"] = exp_id
        benchmark.extra_info["paper_artifact"] = exp.paper_artifact
        for key, value in metrics.items():
            if isinstance(value, (int, float, bool)):
                benchmark.extra_info[key] = value
        with capsys.disabled():
            print(f"\n=== {exp.id} ({exp.paper_artifact}): {exp.description} ===")
            print(artifact)
        return metrics

    return runner
