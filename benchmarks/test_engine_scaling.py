"""Engine scaling benchmark: parallel campaign throughput vs serial.

Acceptance for the campaign engine: at ``REPRO_CAMPAIGN_N=25`` a
``jobs=4`` region campaign must (a) produce manifestation tallies
bit-identical to the serial driver and (b) finish at least 2x faster in
wall-clock time on a machine with >= 4 cores (trials are embarrassingly
parallel; the only serial work is fault sampling and aggregation).

The speedup assertion is skipped on machines without enough cores - the
determinism assertion is not.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import BENCH_CAMPAIGN_N
from repro.apps import WavetoyApp
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.mpi.simulator import JobConfig
from repro.sampling.plans import CampaignPlan

JOBS = 4

#: Region used for the throughput measurement: register faults exercise
#: the full ptrace-analogue injection path with mid-run delivery.
SCALING_REGION = Region.REGULAR_REG

#: All eight regions, exercised at a small n for the determinism check.
DETERMINISM_N = 4


def make_campaign(n):
    return Campaign(
        WavetoyApp,
        JobConfig(nprocs=8),
        plan=CampaignPlan(per_region={r.value: n for r in Region}),
    )


def tallies(result):
    return {
        region: (row.tally.counts, row.delivered)
        for region, row in result.regions.items()
    }


@pytest.mark.slow
def test_parallel_speedup(benchmark):
    n = BENCH_CAMPAIGN_N
    serial_campaign = make_campaign(n)
    serial_campaign.reference()  # profile outside the timed section
    t0 = time.perf_counter()
    serial = serial_campaign.run_region(SCALING_REGION, n)
    serial_s = time.perf_counter() - t0

    parallel_campaign = make_campaign(n)
    parallel_campaign.reference()

    timings = {}

    def parallel_run():
        t = time.perf_counter()
        result = parallel_campaign.run_region(SCALING_REGION, n, jobs=JOBS)
        timings["parallel"] = time.perf_counter() - t
        return result

    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_s = timings["parallel"]

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    benchmark.extra_info["region"] = SCALING_REGION.value
    benchmark.extra_info["n"] = n
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["serial_seconds"] = serial_s
    benchmark.extra_info["parallel_seconds"] = parallel_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    print(
        f"\nengine scaling ({SCALING_REGION.value}, n={n}): serial "
        f"{serial_s:.1f}s vs jobs={JOBS} {parallel_s:.1f}s -> "
        f"{speedup:.2f}x on {os.cpu_count()} cores"
    )

    assert serial.tally.counts == parallel.tally.counts
    assert serial.delivered == parallel.delivered
    if (os.cpu_count() or 1) < JOBS:
        pytest.skip(
            f"speedup assertion needs >= {JOBS} cores, have {os.cpu_count()}"
        )
    assert speedup >= 2.0, (
        f"jobs={JOBS} speedup {speedup:.2f}x below the 2x acceptance bar"
    )


@pytest.mark.slow
def test_eight_region_parallel_determinism(benchmark):
    """A wavetoy campaign over all eight regions at jobs=4 produces
    per-region manifestation tallies identical to the serial driver."""
    serial = make_campaign(DETERMINISM_N).run(n=DETERMINISM_N)

    def parallel_run():
        return make_campaign(DETERMINISM_N).run(n=DETERMINISM_N, jobs=JOBS)

    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["n_per_region"] = DETERMINISM_N
    assert tallies(serial) == tallies(parallel)
