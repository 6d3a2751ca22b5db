"""Differential proof that golden-prefix replay is invisible at any stride.

The same small wavetoy campaign runs on the default path with
``checkpoint.STRIDE`` at 1, 7 and 64, and on the oracle of
:mod:`tests.engine.test_fastpath_differential` (the interpreter running
every trial from block 0).  Sorted store lines, ``status()`` rows,
region tallies, metric series and error-latency histograms must be
identical at jobs=1 and through the process-pool executor at jobs=2,
whose forked workers receive the recording pickled inside the
execution context and inherit the patched stride.
"""

import functools

import pytest

from repro.apps import WavetoyApp
from repro.engine import checkpoint
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
STRIDES = (1, 7, 64)


def make_campaign():
    return Campaign(
        functools.partial(WavetoyApp, **SMALL_WAVETOY),
        JobConfig(nprocs=SMALL_NPROCS),
        plan=CampaignPlan(per_region={r.value: N for r in Region}),
        seed=3,
        app_params=SMALL_WAVETOY,
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_stride_is_indistinguishable_from_no_checkpoint(
    tmp_path, monkeypatch, jobs
):
    want = observe_oracle(
        make_campaign(), REGIONS, tmp_path / "oracle.jsonl", jobs=jobs
    )
    # Sanity: errors occurred and at least one region recorded
    # latencies, so the equalities cannot pass vacuously.
    assert sum(errors for _, _, _, errors, _, _ in want[1]) > 0
    assert want[4]
    for stride in STRIDES:
        # Patched before the pool forks, so workers plan at it too.
        monkeypatch.setattr(checkpoint, "STRIDE", stride)
        got, (_, restores) = observe(
            make_campaign(), REGIONS, tmp_path / f"s{stride}.jsonl", jobs=jobs
        )
        assert restores > 0, f"stride={stride} replayed nothing"
        assert_same(got, want)
