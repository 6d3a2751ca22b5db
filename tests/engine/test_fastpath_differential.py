"""Differential gate for the one trial execution path.

Every campaign trial runs translated code (:mod:`repro.cpu.translate`)
and replays the golden prefix (:mod:`repro.engine.checkpoint`).  Both
must be observationally invisible.  The oracle is the interpreter
(``VM.fastpath = False``) running every trial from block 0
(``prepare_replay`` returning ``None``).  Against it, sorted store
lines, ``status()`` rows, region tallies, metric series and
error-latency histograms are bit-identical: serial and through the
process pool (whose forked workers receive the recording pickled
inside the context), on every suite application.
:mod:`tests.checkpoint.test_differential` runs register, stack, heap
and message faults against the same oracle.  Only throughput and the
two engines' own counters (``repro_vm_fastpath_total``,
``repro_checkpoint_*``) may differ.  Both sides execute every sampled
spec: with the masking oracle on, most of the few TEXT and DATA specs
would be pruned and the gate would lose its sampled text coverage.
"""

import dataclasses

import pytest

from repro.cpu.isa import INSN_SIZE
from repro.cpu.vm import VM
from repro.engine import checkpoint
from repro.engine.core import execute_trial
from repro.engine.store import ResultStore
from repro.injection.campaign import Campaign
from repro.injection.faults import FaultSpec, Region
from repro.observability.metrics import render_prometheus
from repro.observability.serve import TelemetryHub
from tests.conftest import SMALL_MOLDYN, SMALL_NPROCS, SMALL_WAVETOY, prune_nothing

N = 4
APPS = ("wavetoy", "moldyn", "climate")
APP_REGIONS = (Region.TEXT, Region.DATA, Region.REGULAR_REG)


def registry_campaign(app):
    return Campaign.from_registry(app, nprocs=2, seed=20040607)


def observe(campaign, regions, store_path, *, jobs=1):
    """One campaign run distilled to its externally visible fingerprint,
    plus the work the two engines did: (translated instructions,
    checkpoint restores)."""
    hub = TelemetryHub()
    with ResultStore(store_path) as store:
        result = campaign.run(regions, N, jobs=jobs, store=store, sinks=[hub])
    metrics = hub.metrics_snapshot()
    # Sorted, so pool completion order cannot matter.
    records = sorted(store_path.read_text().splitlines())
    status = [
        (s.app, s.region, s.trials, s.errors, s.manifestations, s.pruned)
        for s in ResultStore(store_path).status()
    ]
    tallies = {
        region.value: (dict(row.tally.counts), row.delivered)
        for region, row in result.regions.items()
    }
    # Per-worker pids are run-dependent; the engines' own counters are
    # the only series allowed to differ.  The VM instruction and block
    # totals stay in: they pin identical dynamic execution, not just
    # identical verdicts.
    series = [
        line
        for line in render_prometheus(metrics).splitlines()
        if not any(tag in line for tag in ("worker=", "fastpath", "checkpoint"))
    ]
    latency = {
        labels: state
        for (name, labels), state in metrics.histograms.items()
        if name == "repro_error_latency_blocks"
    }
    work = (
        metrics.counters.get(
            ("repro_vm_fastpath_total", (("kind", "translated_insns"),)), 0.0
        ),
        metrics.counters.get(("repro_checkpoint_restore_total", ()), 0.0),
    )
    return (records, status, tallies, series, latency), work


def observe_oracle(campaign, regions, store_path, *, jobs=1):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VM, "fastpath", False)
        mp.setattr(checkpoint, "prepare_replay", lambda ctx, fault: None)
        fingerprint, work = observe(campaign, regions, store_path, jobs=jobs)
    assert work == (0, 0), "the oracle must interpret every trial from block 0"
    return fingerprint


def assert_same(got, want):
    records, status, tallies, series, latency = got
    assert records == want[0], "stored trial records differ"
    assert status == want[1], "status rows differ"
    assert tallies == want[2], "region tallies differ"
    assert series == want[3], "metric series differ"
    assert latency == want[4], "error-latency histograms differ"


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("app", APPS)
def test_fastpath_is_observationally_invisible(app, jobs, tmp_path, monkeypatch):
    prune_nothing(monkeypatch)
    want = observe_oracle(
        registry_campaign(app), APP_REGIONS, tmp_path / "oracle.jsonl", jobs=jobs
    )
    got, (translated, restores) = observe(
        registry_campaign(app), APP_REGIONS, tmp_path / "default.jsonl", jobs=jobs
    )
    assert translated > 0 and restores > 0, "the default path must translate and replay"
    assert_same(got, want)


# ----------------------------------------------------------------------
# hand-placed TEXT faults
# ----------------------------------------------------------------------
# Sampled TEXT specs (N per app above) may miss the paths a text flip
# opens in the translated engine: a flip in code that already ran, in
# the hot kernel mid-run, in never-run padding, and one that leaves an
# undefined opcode.  Each case below places one such flip by hand.
SMALL_PARAMS = {"wavetoy": SMALL_WAVETOY, "moldyn": SMALL_MOLDYN}

#: case -> (app, symbol, instruction index, byte in the word, bit,
#: delivery time as a share of the target rank's golden block budget,
#: the oracle's divergence kind).  Byte 0 is the opcode; every opcode
#: is below 0x80, so bit 7 of it makes an undefined one.  Byte 4 is the
#: low byte of the immediate (an FLDIMM stencil coefficient here).
TEXT_FAULTS = {
    "wt_startup-after-run": ("wavetoy", "wt_startup", 40, 0, 0, 0.75, None),
    "wt_step-mid-run": (
        "wavetoy", "wt_step", 24, 4, 1, 0.7, "output_mismatch"
    ),
    "wt_boundary_cold-padding": (
        "wavetoy", "wt_boundary_cold", 100, 0, 3, 0.7, None
    ),
    "wt_step-undefined-opcode": (
        "wavetoy", "wt_step", 0, 0, 7, 0.7, "signal:SIGILL"
    ),
    "md_startup-after-run": ("moldyn", "md_startup", 40, 0, 0, 0.75, None),
    "md_force-mid-run": (
        "moldyn", "md_force", 14, 4, 0, 0.75, "output_mismatch"
    ),
}


def comparable(result):
    """Every TrialResult field but the per-trial observability payloads."""
    fields = dict(result.__dict__)
    del fields["metrics"], fields["trace_events"]
    return fields


@pytest.mark.parametrize("case", sorted(TEXT_FAULTS))
def test_hand_placed_text_fault(case):
    app, symbol, insn, byte, bit, share, divergence = TEXT_FAULTS[case]
    campaign = Campaign.from_registry(
        app, nprocs=SMALL_NPROCS, app_params=SMALL_PARAMS[app], seed=16
    )
    ref = campaign.reference()
    rank = 1
    fault = FaultSpec(
        region=Region.TEXT,
        rank=rank,
        time_blocks=int(share * ref.blocks_per_rank[rank]),
        bit=bit,
        address=ref.symtab.lookup(symbol).addr + insn * INSN_SIZE + byte,
    )
    with campaign.engine() as eng:
        spec = dataclasses.replace(eng.make_spec(Region.TEXT, 0), fault=fault)
        ctx = eng.context
    ctx.collect_metrics = True
    got = execute_trial(ctx, spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VM, "fastpath", False)
        mp.setattr(checkpoint, "prepare_replay", lambda ctx, fault: None)
        want = execute_trial(ctx, spec)

    work = got.metrics.counters
    assert work[("repro_vm_fastpath_total", (("kind", "translated_insns"),))] > 0
    assert work[("repro_checkpoint_restore_total", ())] > 0
    assert want.delivered and want.record.symbol == symbol
    assert want.divergence_kind == divergence
    assert comparable(got) == comparable(want)
