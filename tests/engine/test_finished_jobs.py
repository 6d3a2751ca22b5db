"""A finished trial's job is freed before the next trial runs.

A trial's ``Job`` sits in reference cycles (``RankContext.job``, the
ADI router, the error handler closure, generator frames), so without a
collection its buffers, about 1 MB per rank, would wait for the cyclic
collector while later trials build theirs.  Over 60 serial trials per
app, with regions whose trials crash, hang and complete, at most two
jobs may be alive whenever a result is handed over: the trial just
finished and the campaign's reference job.
"""

import weakref

import pytest

from repro.engine.progress import TrialSink
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.mpi import simulator
from tests.checkpoint.test_rejoin import SMALL_PARAMS
from tests.conftest import SMALL_NPROCS, prune_nothing

REGIONS = (Region.REGULAR_REG, Region.STACK, Region.HEAP, Region.TEXT, Region.MESSAGE)


class LiveJobs(TrialSink):
    """Counts the jobs still alive whenever a result arrives."""

    def __init__(self, live: weakref.WeakSet) -> None:
        self.live = live
        self.counts: list[int] = []

    def trial(self, result) -> None:
        self.counts.append(len(self.live))


@pytest.mark.parametrize("app", sorted(SMALL_PARAMS))
def test_at_most_two_jobs_alive_after_each_result(app, monkeypatch):
    prune_nothing(monkeypatch)
    live = weakref.WeakSet()
    init = simulator.Job.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)

    monkeypatch.setattr(simulator.Job, "__init__", tracked)
    campaign = Campaign.from_registry(
        app, nprocs=SMALL_NPROCS, app_params=SMALL_PARAMS[app], seed=20040607
    )
    sink = LiveJobs(live)
    campaign.run(REGIONS, 12, jobs=1, sinks=[sink])
    assert len(sink.counts) == 60
    assert max(sink.counts) <= 2, sink.counts
