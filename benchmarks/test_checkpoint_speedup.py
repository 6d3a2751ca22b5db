"""Checkpointed-campaign speedup benchmark.

Acceptance for the checkpoint subsystem: a late-injection campaign
(stack/heap faults delivered in the last quartile of the golden run,
the regime Lu & Reed's working-set campaigns spend most of their budget
in) must finish at least 3x faster with golden-prefix replay than the
oracle that runs every trial from block 0 (``prepare_replay`` returning
``None``), while producing bit-identical results.  Each timed run builds
a fresh ``Campaign``, so both sides pay for its one fault-free
reference run, which also makes the golden recording; the plain side
pays for the recording without using it, and the checkpointed side
pays for no second run.  The bar thus includes every cost a real
campaign would pay.  After a warm-up the two sides run in alternating
rounds (:func:`benchmarks.conftest.interleave`), and the median of the
per-round ratios must reach the floor.

Both sides run on the interpreter (``VM.fastpath = False``), so the
ratio isolates replay from translation: translated code shrinks the
prefix cost that replay saves, and the two compose (about 5x over the
interpreter from block 0 on a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

import pytest

from repro.apps import WavetoyApp
from repro.cpu.vm import VM
from repro.engine import checkpoint
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.mpi.simulator import JobConfig
from repro.sampling.plans import CampaignPlan

from .conftest import interleave

N_PER_REGION = 20
REGIONS = (Region.STACK, Region.HEAP)
MIN_SPEEDUP = 3.0
NPROCS = 4
#: Interleaved measurement rounds (one run of each side per round).
ROUNDS = 5


def make_campaign():
    return Campaign(
        WavetoyApp,
        JobConfig(nprocs=NPROCS),
        plan=CampaignPlan(per_region={r.value: N_PER_REGION for r in Region}),
        seed=5,
    )


def late_specs(eng, blocks_per_rank):
    """The sampled campaign specs, with delivery times remapped into the
    last quartile of the target rank's golden block budget."""
    specs = []
    for region in REGIONS:
        for index in range(N_PER_REGION):
            spec = eng.make_spec(region, index)
            budget = blocks_per_rank[spec.fault.rank]
            lo = (3 * budget) // 4
            span = max(1, budget - 1 - lo)
            fault = dataclasses.replace(
                spec.fault, time_blocks=lo + spec.fault.time_blocks % span
            )
            specs.append(dataclasses.replace(spec, fault=fault))
    return specs


def fingerprint(results):
    return [(r.key, r.manifestation, r.delivered, r.latency_blocks) for r in results]


def run_specs(specs, *, replay: bool) -> tuple[float, list]:
    """One timed campaign over ``specs`` on a fresh ``Campaign``, so
    both sides pay for its fault-free reference run and the golden
    recording made during it."""
    with pytest.MonkeyPatch.context() as mp:
        if not replay:
            mp.setattr(checkpoint, "prepare_replay", lambda ctx, fault: None)
        t0 = time.perf_counter()
        with make_campaign().engine() as eng:
            results = eng.run_trials(specs)
        return time.perf_counter() - t0, fingerprint(results)


@pytest.mark.slow
@pytest.mark.skipif(os.cpu_count() < 2, reason="needs >= 2 cores")
def test_late_injection_speedup(benchmark, monkeypatch):
    monkeypatch.setattr(VM, "fastpath", False)
    campaign = make_campaign()
    reference = campaign.reference()  # profile outside both timed sections
    with campaign.engine() as eng:
        specs = late_specs(eng, reference.blocks_per_rank)

    run = benchmark.pedantic(
        interleave,
        args=(
            lambda: run_specs(specs, replay=False),
            lambda: run_specs(specs, replay=True),
            ROUNDS,
        ),
        rounds=1,
        iterations=1,
    )

    assert all(fp == run.slow[0] for fp in run.slow + run.fast)

    speedup = run.speedup
    plain_s = statistics.median(run.slow_s)
    checkpointed_s = statistics.median(run.fast_s)
    benchmark.extra_info["regions"] = ",".join(r.value for r in REGIONS)
    benchmark.extra_info["n_per_region"] = N_PER_REGION
    benchmark.extra_info["rounds"] = ROUNDS
    benchmark.extra_info["plain_seconds"] = plain_s
    benchmark.extra_info["checkpointed_seconds"] = checkpointed_s
    benchmark.extra_info["speedup"] = speedup
    print(
        f"\nlate-injection campaign, median of {ROUNDS} rounds: "
        f"plain {plain_s:.2f}s, "
        f"checkpointed {checkpointed_s:.2f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP
