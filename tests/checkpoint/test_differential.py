"""Differential proof that golden-prefix replay is invisible.

The same small wavetoy campaign runs on the default path, where every
trial replays the reference run's recording up to its natural switch
round, and on the oracle of :mod:`tests.engine.test_fastpath_differential`
(the interpreter running every trial from block 0).  Sorted store
lines, ``status()`` rows, region tallies, metric series and
error-latency histograms must be identical at jobs=1 and through the
process-pool executor at jobs=2, whose forked workers receive the
recording pickled inside the execution context.
"""

import functools

import pytest

from repro.apps import WavetoyApp
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.mpi.simulator import JobConfig
from repro.sampling.plans import CampaignPlan
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY
from tests.engine.test_fastpath_differential import (
    N,
    assert_same,
    observe,
    observe_oracle,
)

#: Stack and heap are the regions replay accelerates most (late
#: delivery); message exercises the always-real channel path; register
#: faults crash with measured latency at this seed, keeping the
#: histogram comparison non-vacuous.
REGIONS = (Region.REGULAR_REG, Region.STACK, Region.HEAP, Region.MESSAGE)


def make_campaign():
    return Campaign(
        functools.partial(WavetoyApp, **SMALL_WAVETOY),
        JobConfig(nprocs=SMALL_NPROCS),
        plan=CampaignPlan(per_region={r.value: N for r in Region}),
        seed=3,
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_replay_is_indistinguishable_from_no_checkpoint(tmp_path, jobs):
    want = observe_oracle(
        make_campaign(), REGIONS, tmp_path / "oracle.jsonl", jobs=jobs
    )
    # Sanity: errors occurred and at least one region recorded
    # latencies, so the equalities cannot pass vacuously.
    assert sum(errors for _, _, _, errors, _, _ in want[1]) > 0
    assert want[4]
    got, (_, restores) = observe(
        make_campaign(), REGIONS, tmp_path / "replay.jsonl", jobs=jobs
    )
    assert restores > 0, "the default path replayed nothing"
    assert_same(got, want)
