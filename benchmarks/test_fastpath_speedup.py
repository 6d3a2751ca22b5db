"""Translated fast-path speedup benchmarks (PR 8 tentpole acceptance).

Two bars, both paired with bit-identity checks against the interpreter
(``VM.fastpath = False``, the oracle seam):

* a fault-free golden run of a scalar-dominant kernel must be at least
  10x faster under block translation.  Scalar ALU loops are where the
  interpreter's per-instruction decode/dispatch overhead dominates, so
  this is the regime the translator was built for.
* an end-to-end stratified wavetoy campaign must beat the interpreter
  by at least 2x while producing identical per-trial records.  Both
  sides run every trial from block 0 (``prepare_replay`` returning
  ``None``), so the ratio isolates translation from prefix replay.  The
  whole-campaign ratio is bounded well below the scalar figure because
  most of wavetoy's cycle budget is vectorized numpy work, FPU traffic
  and the MPI layer - costs both modes share (EXPERIMENTS.md E19 breaks
  this down; measured medians are recorded in ``extra_info``).

Both bars warm up, then time the two sides in alternating rounds
(:func:`benchmarks.conftest.interleave`) and hold the median of the
per-round ratios to the floor.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.cpu.assembler import Program
from repro.cpu.vm import VM
from repro.engine import checkpoint
from repro.engine.progress import TrialCollector
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.memory.process import ProcessImage
from repro.memory.symbols import Linker

from .conftest import BENCH_CAMPAIGN_N, interleave

MIN_GOLDEN_SPEEDUP = 10.0
MIN_CAMPAIGN_SPEEDUP = 2.0

#: Interleaved measurement rounds (one run of each side per round).
GOLDEN_ROUNDS = 11
CAMPAIGN_ROUNDS = 5

# ----------------------------------------------------------------------
# golden run: scalar-dominant kernel
# ----------------------------------------------------------------------

SCALAR_KERNEL = """
    movi eax, 0
    movi ebx, 0x1234
    movi ecx, 0
    movi edx, 7
    movi esi, 0x7FFF
    movi edi, 1
loop:
    add eax, ecx
    xor eax, ebx
    imul eax, edx
    sub eax, ebx
    and eax, esi
    or eax, edi
    shr eax, 1
    addi ecx, 1
    cmpi ecx, 20000
    jl loop
    ret
"""


def build_scalar_vm() -> tuple[ProcessImage, VM]:
    prog = Program()
    prog.add("k", SCALAR_KERNEL)
    linker = Linker()
    prog.add_to_linker(linker)
    linker.add_bss("scratchpad", 4096)
    image = ProcessImage.from_linker(
        linker, rank=0, heap_size=1 << 16, stack_size=1 << 14
    )
    prog.relocate(image)
    return image, VM(image)


def run_scalar(fastpath: bool) -> tuple[float, tuple]:
    """One timed kernel run on a fresh image (the warm-up fills the
    per-digest translation cache)."""
    _, vm = build_scalar_vm()
    vm.fastpath = fastpath
    t0 = time.perf_counter()
    vm.call("k")
    elapsed = time.perf_counter() - t0
    state = (
        vm.regs.capture_state(),
        vm.fpu.capture_state(),
        vm.clock.blocks,
        vm.instructions_retired,
    )
    return elapsed, state


@pytest.mark.slow
def test_golden_run_speedup(benchmark):
    run = benchmark.pedantic(
        interleave,
        args=(
            lambda: run_scalar(fastpath=False),
            lambda: run_scalar(fastpath=True),
            GOLDEN_ROUNDS,
        ),
        rounds=1,
        iterations=1,
    )

    # registers, FPU, clock, retirement
    assert all(state == run.slow[0] for state in run.slow + run.fast)

    speedup = run.speedup
    interp_s = statistics.median(run.slow_s)
    fast_s = statistics.median(run.fast_s)
    benchmark.extra_info["rounds"] = GOLDEN_ROUNDS
    benchmark.extra_info["interp_seconds"] = interp_s
    benchmark.extra_info["fast_seconds"] = fast_s
    benchmark.extra_info["speedup"] = speedup
    print(
        f"\ngolden run (scalar kernel), median of {GOLDEN_ROUNDS} rounds: "
        f"interp {interp_s * 1000:.1f}ms, translated {fast_s * 1000:.1f}ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_GOLDEN_SPEEDUP


# ----------------------------------------------------------------------
# end-to-end stratified campaign
# ----------------------------------------------------------------------

CAMPAIGN_REGIONS = (Region.TEXT, Region.DATA, Region.REGULAR_REG)
CAMPAIGN_N = max(4, min(BENCH_CAMPAIGN_N, 16))


def run_campaign(fastpath: bool) -> tuple[float, tuple]:
    """One timed campaign; its result is the region rows and every
    trial result a collecting sink saw."""
    campaign = Campaign.from_registry("wavetoy", nprocs=2, seed=7)
    trials = TrialCollector()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VM, "fastpath", fastpath)
        mp.setattr(checkpoint, "prepare_replay", lambda ctx, fault: None)
        # The outcome predictor is static set-up both sides pay alike,
        # so it is built before the timer starts; the campaign's
        # fault-free run, which it reads, is made with it.
        campaign.outcome_predictor()
        t0 = time.perf_counter()
        result = campaign.run(
            CAMPAIGN_REGIONS, CAMPAIGN_N, jobs=1, stratify=True, sinks=[trials]
        )
        return time.perf_counter() - t0, (result, trials.results)


def fingerprint(run) -> list:
    """Per region: the tally and every executed trial's injection
    record and outcome, in trial index order."""
    result, trials = run
    rows = []
    for region in sorted(result.regions, key=lambda r: r.value):
        rr = result.regions[region]
        executed = sorted(
            (t for t in trials if t.region is region and t.record is not None),
            key=lambda t: t.index,
        )
        rows.append(
            (
                region.value,
                {m.value: c for m, c in rr.tally.counts.items()},
                [
                    (
                        t.record.spec,
                        t.record.delivered,
                        t.record.address,
                        t.record.symbol,
                        t.record.detail,
                        t.record.old_value,
                        t.record.new_value,
                        t.manifestation,
                    )
                    for t in executed
                ],
            )
        )
    return rows


@pytest.mark.slow
def test_stratified_campaign_speedup(benchmark):
    # The warm-up fills the per-process link templates and translation
    # cache, which are campaign-independent and should not skew either
    # side; each campaign builds its own predictor before its timer.
    run = benchmark.pedantic(
        interleave,
        args=(
            lambda: run_campaign(fastpath=False),
            lambda: run_campaign(fastpath=True),
            CAMPAIGN_ROUNDS,
        ),
        rounds=1,
        iterations=1,
    )

    want = fingerprint(run.slow[0])
    assert all(fingerprint(result) == want for result in run.slow + run.fast)

    speedup = run.speedup
    interp_s = statistics.median(run.slow_s)
    fast_s = statistics.median(run.fast_s)
    benchmark.extra_info["regions"] = ",".join(r.value for r in CAMPAIGN_REGIONS)
    benchmark.extra_info["n_per_region"] = CAMPAIGN_N
    benchmark.extra_info["rounds"] = CAMPAIGN_ROUNDS
    benchmark.extra_info["interp_seconds"] = interp_s
    benchmark.extra_info["fast_seconds"] = fast_s
    benchmark.extra_info["speedup"] = speedup
    print(
        f"\nstratified wavetoy campaign, median of {CAMPAIGN_ROUNDS} rounds: "
        f"interp {interp_s:.2f}s, fastpath {fast_s:.2f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_CAMPAIGN_SPEEDUP
