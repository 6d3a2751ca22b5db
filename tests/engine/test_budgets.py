"""Regression tests pinning the hang budgets to the one formula home
(`repro.engine.budgets`).

The formula used to live twice - in ``ReferenceProfile`` and inline in
a second single-fault runner - and the copies drifted (the runner added
the +300/+2000 slack terms, the campaign originally did not).  The
runner is gone: ``Campaign.execution_context`` is the only place a
context and its budgets are made.  These tests fail if the profile or the
context grows its own arithmetic again.
"""

import pytest

from repro.engine import budgets
from repro.injection.campaign import Campaign, ReferenceProfile
from repro.mpi.simulator import JobConfig, JobResult, JobStatus


def fake_result(rounds=120, blocks=(900, 1000, 950)):
    return JobResult(
        status=JobStatus.COMPLETED,
        detail="",
        stdout=[],
        stderr=[],
        outputs={},
        rounds=rounds,
        blocks_per_rank=list(blocks),
    )


class TestFormula:
    def test_round_budget(self):
        assert budgets.round_budget(100) == int(100 * 3.0) + 300
        assert budgets.round_budget(0) == 300

    def test_block_budget(self):
        assert budgets.block_budget(1000) == int(1000 * 2.5) + 2000
        assert budgets.block_budget(0) == 2000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            budgets.round_budget(-1)
        with pytest.raises(ValueError):
            budgets.block_budget(-1)


class TestCallSites:
    def test_reference_profile_delegates(self):
        profile = ReferenceProfile(
            result=None,
            blocks_per_rank=[900, 1000, 950],
            received_bytes_per_rank=[0, 0, 0],
            rounds=120,
            dictionary=None,
        )
        assert profile.round_limit == budgets.round_budget(120)
        assert profile.block_limit == budgets.block_budget(1000)

    def test_execution_context_delegates(self):
        """The campaign's context, which every trial runs under, takes
        its budgets from the same formulas."""
        from repro.apps import WavetoyApp

        reference = fake_result()
        campaign = Campaign(WavetoyApp, JobConfig(nprocs=3))
        campaign._reference = ReferenceProfile(
            result=reference,
            blocks_per_rank=list(reference.blocks_per_rank),
            received_bytes_per_rank=[0, 0, 0],
            rounds=reference.rounds,
            dictionary=None,
        )
        ctx = campaign.execution_context()
        assert ctx.round_limit == budgets.round_budget(reference.rounds)
        assert ctx.block_limit == budgets.block_budget(1000)
