"""Rejoin soundness gate.

A transient fault of any region but MESSAGE runs only the faulted
rank's calls from its delivery call for real, and the trial rejoins the
golden replay once that rank's state matches the recording again
(:mod:`repro.engine.checkpoint`).  Against the oracle of
:mod:`tests.engine.test_fastpath_differential` (the interpreter running
every trial from block 0), every ``TrialResult`` field but the
per-trial observability payloads and every metric series but the
engines' own counters must be identical, serially and through the
process pool, for register, FP, text, heap and stack faults of all
three apps; and every app must rejoin, so the equalities cannot pass
vacuously.  Hand-placed faults pin each path a probed rank can take.
"""

import dataclasses

import pytest

from repro.cpu.isa import INSN_SIZE
from repro.cpu.registers import EAX, EBX, ESI
from repro.cpu.vm import VM
from repro.engine import checkpoint
from repro.engine.core import execute_trial
from repro.engine.progress import TrialCollector
from repro.injection.campaign import Campaign
from repro.injection.faults import FaultSpec, Region
from repro.observability.metrics import render_prometheus
from repro.observability.serve import TelemetryHub
from tests.conftest import (
    SMALL_CLIMATE,
    SMALL_MOLDYN,
    SMALL_NPROCS,
    SMALL_WAVETOY,
    prune_nothing,
)
from tests.engine.test_fastpath_differential import TEXT_FAULTS, comparable

REGIONS = (Region.REGULAR_REG, Region.FP_REG, Region.TEXT, Region.HEAP, Region.STACK)
N = 8
SMALL_PARAMS = {
    "wavetoy": SMALL_WAVETOY,
    "moldyn": SMALL_MOLDYN,
    "climate": SMALL_CLIMATE,
}


def make_campaign(app, seed=20040607):
    return Campaign.from_registry(
        app, nprocs=SMALL_NPROCS, app_params=SMALL_PARAMS[app], seed=seed
    )


def fields(result) -> str:
    """A trial's comparable fields, as a repr: an FP fault's record may
    hold NaN old and new values, which no two floats compare equal to,
    while their reprs do."""
    return repr(comparable(result))


def observe(campaign, *, jobs):
    """Every executed trial's comparable fields by key, the metric
    series but the engines' own counters, and the rejoin count."""
    hub, collector = TelemetryHub(), TrialCollector()
    campaign.run(REGIONS, N, jobs=jobs, sinks=[hub, collector])
    metrics = hub.metrics_snapshot()
    results = {r.key: fields(r) for r in collector.results}
    series = [
        line
        for line in render_prometheus(metrics).splitlines()
        if not any(tag in line for tag in ("worker=", "fastpath", "checkpoint"))
    ]
    rejoins = metrics.counters.get(("repro_checkpoint_rejoin_total", ()), 0)
    return results, series, rejoins


_ORACLE: dict[str, tuple] = {}


def oracle(app):
    if app not in _ORACLE:
        with pytest.MonkeyPatch.context() as mp:
            prune_nothing(mp)
            mp.setattr(VM, "fastpath", False)
            mp.setattr(checkpoint, "prepare_replay", lambda ctx, fault: None)
            results, series, rejoins = observe(make_campaign(app), jobs=1)
        assert rejoins == 0
        _ORACLE[app] = (results, series)
    return _ORACLE[app]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("app", sorted(SMALL_PARAMS))
def test_rejoin_is_indistinguishable_from_the_oracle(app, jobs, monkeypatch):
    want_results, want_series = oracle(app)
    prune_nothing(monkeypatch)
    results, series, rejoins = observe(make_campaign(app), jobs=jobs)
    assert rejoins > 0, "no trial rejoined the golden replay"
    assert len(results) == len(REGIONS) * N
    assert results == want_results
    assert series == want_series


# ----------------------------------------------------------------------
# hand-placed faults
# ----------------------------------------------------------------------
class TrialSpy(checkpoint._Trial):
    """Keeps the replay state of the trials it sees."""

    seen: list = []

    def __init__(self, plan):
        super().__init__(plan)
        TrialSpy.seen.append(self)


#: Rank 1 of small wavetoy at seed 16 runs wt_startup (blocks 0-1200),
#: wt_init (1200-1465) and six wt_step calls, the first two ending at
#: 1623 and 1781.  case -> (fault fields, expected path).  A path is
#: "rejoin@B" (the rank rejoined after the call ending at block B),
#: "real" (Python-visible state diverged: every rank runs for real) or
#: "no-rejoin" (it never matched the recording again).
HAND_PLACED = {
    # EBX is rewritten later in the delivery call.
    "overwritten-in-delivery-call": (
        dict(region=Region.REGULAR_REG, reg_index=EBX, bit=3, time_blocks=1500),
        "rejoin@1623",
    ),
    # Flipped after wt_step's last instruction: callee-saved ESI
    # survives into the next call, which overwrites it.
    "callee-saved-survives-the-call": (
        dict(region=Region.REGULAR_REG, reg_index=ESI, bit=3, time_blocks=1623),
        "rejoin@1781",
    ),
    # No instruction reads the x87 instruction pointer.
    "fpu-fip": (
        dict(region=Region.FP_REG, fp_target="fip", bit=4, time_blocks=1500),
        "rejoin@1623",
    ),
    # Empty slot 7 reads as SPECIAL until the next call pushes onto it.
    "fpu-tag-word-reused-slot": (
        dict(region=Region.FP_REG, fp_target="twd", bit=14, time_blocks=1623),
        "rejoin@1781",
    ),
    # Empty slot 0 reads as SPECIAL, and no kernel pushes onto it: the
    # rank runs for real to the end while the other ranks replay.
    "fpu-tag-word-unused-slot": (
        dict(region=Region.FP_REG, fp_target="twd", bit=0, time_blocks=1623),
        "no-rejoin",
    ),
    # The flipped EAX is the call's return value.
    "eax-returned": (
        dict(region=Region.REGULAR_REG, reg_index=EAX, bit=3, time_blocks=1623),
        "real",
    ),
    # The flipped heap byte outlives the delivery call.
    "heap-survives-the-call": (
        dict(region=Region.HEAP, bit=3, time_blocks=1500),
        "real",
    ),
}


def replay_path(got, trial) -> str:
    rejoined = [e for e in got.trace_events if e["name"] == "checkpoint:rejoin"]
    if rejoined:
        return f"rejoin@{rejoined[0]['ts']}"
    return "real" if trial.real else "no-rejoin"


def run_both(app, fault, seed=16):
    """The trial with replay and rejoin, its replay state, and the
    same trial on the oracle."""
    campaign = make_campaign(app, seed=seed)
    with campaign.engine() as eng:
        spec = dataclasses.replace(eng.make_spec(fault.region, 0), fault=fault)
        ctx = eng.context
    ctx.observe({"metrics", "trace_events"})
    TrialSpy.seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checkpoint, "_Trial", TrialSpy)
        got = execute_trial(ctx, spec)
    (trial,) = TrialSpy.seen
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VM, "fastpath", False)
        mp.setattr(checkpoint, "prepare_replay", lambda ctx, fault: None)
        want = execute_trial(ctx, spec)
    return got, trial, want


@pytest.mark.parametrize("case", sorted(HAND_PLACED))
def test_hand_placed_fault(case):
    spec_fields, path = HAND_PLACED[case]
    got, trial, want = run_both("wavetoy", FaultSpec(rank=1, **spec_fields))
    assert want.delivered
    assert replay_path(got, trial) == path
    rejoins = got.metrics.counters.get(("repro_checkpoint_rejoin_total", ()), 0)
    assert rejoins == int(path.startswith("rejoin"))
    assert fields(got) == fields(want)


#: TEXT case -> (fault, whether the text index calls the flipped
#: granule dead, expected path).  A flip in code that already ran is
#: dead and rejoins at once.  A flip in the hot kernel never rejoins:
#: mid-call it corrupts the call's results; flipped right after a
#: call's last instruction (block 1623), the call's state matches the
#: recording but the live text holds the rank until its next call
#: corrupts the results.
TEXT_CASES = {
    "wt_startup-after-run": (TEXT_FAULTS["wt_startup-after-run"], True, "rejoin"),
    "wt_step-mid-run": (TEXT_FAULTS["wt_step-mid-run"], False, "real"),
    "wt_step-after-the-call": (
        ("wavetoy", "wt_step", 24, 4, 1, 1623, "output_mismatch"), False, "real"
    ),
}


@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_hand_placed_text_fault_rejoins_through_the_index(case):
    (app, symbol, insn, byte, bit, at, _), dead, path = TEXT_CASES[case]
    ref = make_campaign(app, seed=16).reference()
    rank = 1
    fault = FaultSpec(
        region=Region.TEXT,
        rank=rank,
        time_blocks=at if isinstance(at, int) else int(at * ref.blocks_per_rank[rank]),
        bit=bit,
        address=ref.symtab.lookup(symbol).addr + insn * INSN_SIZE + byte,
    )
    got, trial, want = run_both(app, fault)
    assert want.delivered and want.record.symbol == symbol
    assert trial.plan.text_dead is dead
    delivery = ref.recording.calls[rank][trial.plan.delivery]
    expected = f"rejoin@{delivery.end_blocks}" if path == "rejoin" else path
    assert replay_path(got, trial) == expected
    assert fields(got) == fields(want)
