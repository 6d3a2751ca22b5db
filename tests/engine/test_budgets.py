"""Regression tests pinning every hang-budget call site to the one
formula home (`repro.engine.budgets`).

The formula used to live twice - in ``ReferenceProfile`` and inline in
``run_with_fault`` - and the copies drifted (the runner added the
+300/+2000 slack terms, the campaign originally did not).  These tests
fail if either call site grows its own arithmetic again.
"""

import pytest

from repro.engine import budgets
from repro.engine.core import ExecutionContext
from repro.injection.campaign import ReferenceProfile
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

    def test_hang_budgets_pair(self):
        assert budgets.hang_budgets(100, [10, 40, 20]) == (
            budgets.round_budget(100),
            budgets.block_budget(40),
        )

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
        """``run_with_fault`` builds its context through
        ``ExecutionContext.from_reference``; its budgets must come from
        the same formulas the campaign uses."""
        reference = fake_result()
        ctx = ExecutionContext.from_reference(
            lambda: object(), JobConfig(nprocs=3), reference
        )
        assert ctx.round_limit == budgets.round_budget(reference.rounds)
        assert ctx.block_limit == budgets.block_budget(1000)

    def test_both_call_sites_agree(self):
        """Campaign profile and runner context produce identical budgets
        from the same fault-free measurements."""
        reference = fake_result(rounds=77, blocks=(123, 456))
        profile = ReferenceProfile(
            result=reference,
            blocks_per_rank=list(reference.blocks_per_rank),
            received_bytes_per_rank=[0, 0],
            rounds=reference.rounds,
            dictionary=None,
        )
        ctx = ExecutionContext.from_reference(
            lambda: object(), JobConfig(nprocs=2), reference
        )
        assert (ctx.round_limit, ctx.block_limit) == (
            profile.round_limit,
            profile.block_limit,
        )
