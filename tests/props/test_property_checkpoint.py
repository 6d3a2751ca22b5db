"""Property tests for the checkpoint layer.

The headline property: for every application and every fault region,
``execute_trial`` on a context carrying the golden recording (replayed
at :data:`~repro.engine.checkpoint.STRIDE`) is bit-identical to the
same trial run from block 0 - same serialized ``TrialResult``, same
injection record, same per-trial metrics (modulo the checkpoint's own
counters, which exist only on the replay side).  Every app replays at
least one of its trials, so the property cannot hold vacuously.

Plus unit properties of the switch-point arithmetic (natural switch
round, stride quantization) on synthetic recordings, and the desync
guard: a tampered recording must raise ``CheckpointDesync`` rather than
silently classify as a fault outcome.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ClimateApp, MoldynApp, WavetoyApp
from repro.engine.checkpoint import (
    STRIDE,
    GoldenRecording,
    default_store,
    install_replay,
    natural_switch_round,
    plan_replay,
    prepare_replay,
    quantize_switch_round,
)
from repro.engine.core import execute_trial
from repro.errors import CheckpointDesync
from repro.injection.campaign import Campaign
from repro.injection.faults import FaultSpec, Region
from repro.mpi.simulator import Job, JobConfig
from repro.sampling.plans import CampaignPlan
from tests.conftest import (
    SMALL_CLIMATE,
    SMALL_MOLDYN,
    SMALL_NPROCS,
    SMALL_WAVETOY,
)

APPS = {
    "wavetoy": (WavetoyApp, SMALL_WAVETOY),
    "moldyn": (MoldynApp, SMALL_MOLDYN),
    "climate": (ClimateApp, SMALL_CLIMATE),
}


def make_campaign(app_name):
    factory, params = APPS[app_name]
    return Campaign(
        functools.partial(factory, **params),
        JobConfig(nprocs=SMALL_NPROCS),
        plan=CampaignPlan(per_region={r.value: 1 for r in Region}),
        seed=11,
        app_params=params,
    )


#: (context without a recording, context carrying one, spec per
#: region), built once per app: the reference profile and golden
#: recording dominate setup cost.
_CACHE: dict[str, tuple] = {}


def app_fixtures(app_name):
    if app_name not in _CACHE:
        campaign = make_campaign(app_name)
        with campaign.engine() as eng:
            specs = {region: eng.make_spec(region, 0) for region in Region}
        plain = campaign.execution_context()
        plain.collect_metrics = True
        replay = campaign.execution_context()
        replay.collect_metrics = True
        replay.checkpoint = default_store().get(replay)
        _CACHE[app_name] = (plain, replay, specs)
    return _CACHE[app_name]


def normalized_metrics(snapshot):
    """Per-trial metrics minus the counters that legitimately differ:
    the checkpoint's own restore/skip accounting, and the translated
    engine's work counts (a replayed prefix translates nothing)."""

    def keep(key):
        return not key[0].startswith(("repro_checkpoint_", "repro_vm_fastpath_"))

    return (
        {k: v for k, v in snapshot.counters.items() if keep(k)},
        {k: v for k, v in snapshot.gauges.items() if keep(k)},
        {k: v for k, v in snapshot.histograms.items() if keep(k)},
    )


def restores(trial):
    return trial.metrics.counters.get(("repro_checkpoint_restore_total", ()), 0)


@pytest.mark.parametrize("region", list(Region), ids=lambda r: r.value)
@pytest.mark.parametrize("app_name", sorted(APPS))
def test_replayed_trial_bit_identical(app_name, region):
    plain, replay, specs = app_fixtures(app_name)
    spec = specs[region]
    want = execute_trial(plain, spec)
    got = execute_trial(replay, spec)
    assert got.to_json() == want.to_json()
    assert got.manifestation is want.manifestation
    assert got.delivered == want.delivered
    assert got.latency_blocks == want.latency_blocks
    assert normalized_metrics(got.metrics) == normalized_metrics(want.metrics)
    replayed = prepare_replay(replay, spec.fault) is not None
    assert restores(got) == int(replayed)
    assert restores(want) == 0


@pytest.mark.parametrize("app_name", sorted(APPS))
def test_some_trial_replays(app_name):
    """Guards the property above against passing vacuously."""
    _, replay, specs = app_fixtures(app_name)
    assert any(
        prepare_replay(replay, spec.fault) is not None for spec in specs.values()
    )


# ----------------------------------------------------------------------
# switch-point arithmetic on synthetic recordings
# ----------------------------------------------------------------------
def synthetic_recording(round_end_blocks):
    n = len(round_end_blocks)
    return GoldenRecording(
        app="synthetic",
        nprocs=1,
        rounds=n,
        calls=((),),
        round_end_blocks=tuple(round_end_blocks),
        round_recv_bytes=tuple((0,) for _ in range(n)),
        blocks_per_rank=(round_end_blocks[-1] if round_end_blocks else 0,),
    )


#: Strictly increasing golden block clocks (one entry per round).
blocks_lists = st.lists(st.integers(1, 500), min_size=1, max_size=20).map(
    lambda deltas: tuple(itertools.accumulate(deltas))
)


class TestSwitchPointProperties:
    @given(blocks_lists, st.integers(0, 25), st.integers(1, 64))
    @settings(max_examples=200)
    def test_quantized_switch_is_bounded_and_restorable(
        self, blocks, natural, stride
    ):
        rec = synthetic_recording(blocks)
        q = quantize_switch_round(rec, natural, stride)
        assert 0 <= q <= min(natural, rec.rounds)
        if q >= 2:
            assert blocks[q - 1] // stride > blocks[q - 2] // stride
        elif q == 1:
            assert blocks[0] // stride > 0

    @given(blocks_lists, st.integers(0, 25))
    @settings(max_examples=100)
    def test_stride_one_never_quantizes(self, blocks, natural):
        """Every round boundary is a checkpoint at stride 1 (the clock
        advances at least one block per round)."""
        rec = synthetic_recording(blocks)
        assert quantize_switch_round(rec, natural, 1) == min(natural, rec.rounds)

    def test_invalid_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            quantize_switch_round(synthetic_recording((10,)), 1, 0)


class TestNaturalSwitchOnRealRecording:
    def recording(self):
        _, replay, _ = app_fixtures("wavetoy")
        return replay.checkpoint

    def test_fault_at_time_zero_replays_nothing(self):
        rec = self.recording()
        fault = FaultSpec(Region.STACK, rank=0, time_blocks=0)
        assert natural_switch_round(rec, fault) == 0
        assert plan_replay(rec, fault, STRIDE) is None

    def test_fault_beyond_activity_replays_everything(self):
        rec = self.recording()
        fault = FaultSpec(Region.STACK, rank=0, time_blocks=10**9)
        assert natural_switch_round(rec, fault) == rec.rounds
        plan = plan_replay(rec, fault, 1)
        assert plan.calls_skipped == rec.total_calls

    def test_message_fault_beyond_traffic_replays_everything(self):
        rec = self.recording()
        fault = FaultSpec(Region.MESSAGE, rank=1, target_byte=10**9)
        assert natural_switch_round(rec, fault) == rec.rounds

    def test_natural_switch_monotone_in_time(self):
        rec = self.recording()
        rounds = [
            natural_switch_round(
                rec, FaultSpec(Region.STACK, rank=0, time_blocks=t)
            )
            for t in range(0, rec.round_end_blocks[-1] + 100, 97)
        ]
        assert rounds == sorted(rounds)


class TestDesyncGuard:
    def test_tampered_recording_raises_not_classifies(self):
        _, replay, _ = app_fixtures("wavetoy")
        rec = replay.checkpoint
        calls = [list(per_rank) for per_rank in rec.calls]
        calls[0][0] = dataclasses.replace(calls[0][0], name="bogus_kernel")
        tampered = dataclasses.replace(
            rec, calls=tuple(tuple(per_rank) for per_rank in calls)
        )
        fault = FaultSpec(Region.STACK, rank=0, time_blocks=10**9)
        plan = plan_replay(tampered, fault, 1)
        job = Job(replay.factory(), replay.job_config())
        install_replay(job, plan)
        # A desync is infrastructure breakage: it must escape the
        # job's outcome classification, not masquerade as a Crash.
        with pytest.raises(CheckpointDesync, match="bogus_kernel"):
            job.run()
