"""Property tests for the checkpoint layer.

The headline property: for every application and every fault region,
``execute_trial`` on a campaign's execution context (which carries the
golden recording of its reference run, replayed up to the natural
switch round) is bit-identical to the same trial run from block 0 on
that context without the recording - same serialized ``TrialResult``,
same injection record, same per-trial metrics (modulo the checkpoint's
own counters, which exist only on the replay side).  Every app replays
at least one of its trials, so the property cannot hold vacuously.

Plus the natural switch round on a real recording, and the desync
guard: a tampered recording must raise ``CheckpointDesync`` rather than
silently classify as a fault outcome.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.apps import ClimateApp, MoldynApp, WavetoyApp
from repro.engine.checkpoint import (
    install_replay,
    natural_switch_round,
    plan_replay,
    prepare_replay,
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
    )


#: (context without a recording, context carrying one, spec per
#: region), built once per app: the reference run, which makes the
#: golden recording, dominates setup cost.
_CACHE: dict[str, tuple] = {}


def app_fixtures(app_name):
    if app_name not in _CACHE:
        campaign = make_campaign(app_name)
        with campaign.engine() as eng:
            specs = {region: eng.make_spec(region, 0) for region in Region}
        replay = campaign.execution_context()
        replay.collect_metrics = True
        plain = dataclasses.replace(replay, checkpoint=None)
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


class TestNaturalSwitchOnRealRecording:
    def recording(self):
        _, replay, _ = app_fixtures("wavetoy")
        return replay.checkpoint

    def test_fault_at_time_zero_replays_nothing(self):
        rec = self.recording()
        fault = FaultSpec(Region.STACK, rank=0, time_blocks=0)
        assert natural_switch_round(rec, fault) == 0
        assert plan_replay(rec, fault) is None

    def test_fault_beyond_activity_replays_everything(self):
        rec = self.recording()
        fault = FaultSpec(Region.STACK, rank=0, time_blocks=10**9)
        assert natural_switch_round(rec, fault) == rec.rounds
        plan = plan_replay(rec, fault)
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
            for t in range(0, rec.calls[0][-1].end_blocks + 100, 97)
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
        plan = plan_replay(tampered, fault)
        job = Job(replay.factory(), replay.job_config())
        install_replay(job, plan)
        # A desync is infrastructure breakage: it must escape the
        # job's outcome classification, not masquerade as a Crash.
        with pytest.raises(CheckpointDesync, match="bogus_kernel"):
            job.run()
