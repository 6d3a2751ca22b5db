"""Checkpointed-campaign speedup benchmark.

Acceptance for the checkpoint subsystem: a late-injection campaign
(stack/heap faults delivered in the last quartile of the golden run,
the regime Lu & Reed's working-set campaigns spend most of their budget
in) must finish at least 3x faster with golden-prefix replay than the
oracle that runs every trial from block 0 (``prepare_replay`` returning
``None``), while producing bit-identical results.  The one-off golden
recording is charged to the checkpointed side, so the bar includes
every cost a real campaign would pay.

Both sides run on the interpreter (``VM.fastpath = False``), so the
ratio isolates replay from translation: translated code shrinks the
prefix cost that replay saves, and the two compose (about 5x over the
interpreter from block 0 on a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.apps import WavetoyApp
from repro.cpu.vm import VM
from repro.engine import checkpoint
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.mpi.simulator import JobConfig
from repro.sampling.plans import CampaignPlan

N_PER_REGION = 20
REGIONS = (Region.STACK, Region.HEAP)
MIN_SPEEDUP = 3.0
NPROCS = 4

PARAMS = dict(nx=32, ny=8, steps=6, cold_heap_factor=3, output_stride=1)


def make_campaign():
    return Campaign(
        WavetoyApp,
        JobConfig(nprocs=NPROCS),
        plan=CampaignPlan(per_region={r.value: N_PER_REGION for r in Region}),
        seed=5,
        app_params=PARAMS,
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


@pytest.mark.slow
@pytest.mark.skipif(os.cpu_count() < 2, reason="needs >= 2 cores")
def test_late_injection_speedup(benchmark, monkeypatch):
    monkeypatch.setattr(VM, "fastpath", False)
    campaign = make_campaign()
    reference = campaign.reference()  # profile outside both timed sections
    with campaign.engine() as eng:
        specs = late_specs(eng, reference.blocks_per_rank)
        eng.executor()  # the plain side pays no recording

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checkpoint, "prepare_replay", lambda ctx, fault: None)
        t0 = time.perf_counter()
        with make_campaign().engine() as eng:
            plain = eng.run_trials(specs)
        plain_s = time.perf_counter() - t0

    # Charge the recording to the checkpointed side.
    checkpoint.default_store().clear()
    timings = {}

    def checkpointed_run():
        t = time.perf_counter()
        with make_campaign().engine() as eng:
            results = eng.run_trials(specs)
        timings["checkpointed"] = time.perf_counter() - t
        return results

    checkpointed = benchmark.pedantic(checkpointed_run, rounds=1, iterations=1)
    checkpointed_s = timings["checkpointed"]

    assert fingerprint(checkpointed) == fingerprint(plain)

    speedup = plain_s / checkpointed_s if checkpointed_s else float("inf")
    benchmark.extra_info["regions"] = ",".join(r.value for r in REGIONS)
    benchmark.extra_info["n_per_region"] = N_PER_REGION
    benchmark.extra_info["stride"] = checkpoint.STRIDE
    benchmark.extra_info["plain_seconds"] = plain_s
    benchmark.extra_info["checkpointed_seconds"] = checkpointed_s
    benchmark.extra_info["speedup"] = speedup
    print(
        f"\nlate-injection campaign: plain {plain_s:.2f}s, "
        f"checkpointed(stride={checkpoint.STRIDE}) {checkpointed_s:.2f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP
