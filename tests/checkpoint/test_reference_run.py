"""A campaign runs its job fault-free exactly once.

``Campaign.reference`` records the golden prefix while it measures the
reference profile, and every execution context the campaign builds
carries that recording: the engine's, and ``Campaign.run_injection``'s,
whose trials therefore replay too.  The replayed trial must equal the
oracle's (the interpreter running from block 0, as in
:mod:`tests.engine.test_fastpath_differential`).
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.apps import MoldynApp, WavetoyApp
from repro.cpu.vm import VM
from repro.engine import checkpoint, executors
from repro.injection.campaign import Campaign
from repro.injection.faults import Persistence, Region
from repro.mpi.simulator import Job, JobConfig
from tests.conftest import SMALL_MOLDYN, SMALL_NPROCS, SMALL_WAVETOY

APPS = {"wavetoy": (WavetoyApp, SMALL_WAVETOY), "moldyn": (MoldynApp, SMALL_MOLDYN)}


def make_campaign(app="wavetoy"):
    factory, params = APPS[app]
    return Campaign(
        functools.partial(factory, **params),
        JobConfig(nprocs=SMALL_NPROCS, seed=17),
        seed=17,
    )


def test_one_fault_free_job_before_the_first_trial(monkeypatch):
    built = []
    init = Job.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Job, "__init__", counted_init)
    before_first_trial = []
    execute = executors.execute_trial

    def first_trial_noted(ctx, spec):
        if not before_first_trial:
            before_first_trial.append(len(built))
        return execute(ctx, spec)

    monkeypatch.setattr(executors, "execute_trial", first_trial_noted)
    row = make_campaign().run_region(Region.STACK, 2)
    assert row.executions == 2
    assert before_first_trial == [1]


def comparable(outcome):
    """A ``run_injection`` triple with the job's exception (compared by
    identity) reduced to its type and message."""
    manifestation, record, result = outcome
    error = repr(result.error)
    return manifestation, record, dataclasses.replace(result, error=None), error


@pytest.mark.parametrize(
    "persistence",
    [Persistence.TRANSIENT, Persistence.STUCK_AT_1],
    ids=lambda p: p.value,
)
@pytest.mark.parametrize("app", sorted(APPS))
def test_run_injection_replays_a_late_register_fault(app, persistence):
    campaign = make_campaign(app)
    ref = campaign.reference()
    fault = campaign.sample_spec(Region.REGULAR_REG, np.random.default_rng(4))
    fault = dataclasses.replace(
        fault,
        time_blocks=(3 * ref.blocks_per_rank[fault.rank]) // 4,
        persistence=persistence,
    )
    assert checkpoint.prepare_replay(campaign.execution_context(), fault) is not None
    got = campaign.run_injection(fault, np.random.default_rng(5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VM, "fastpath", False)
        mp.setattr(checkpoint, "prepare_replay", lambda ctx, fault: None)
        want = campaign.run_injection(fault, np.random.default_rng(5))
    assert want[1].delivered
    assert comparable(got) == comparable(want)
