"""Hang-budget formulas: the single authority.

The paper waited "one minute beyond the expected execution completion
time" before declaring a Hang.  The simulated analogue scales the
fault-free profile (scheduler rounds, per-rank basic blocks) by a
generous factor and adds a constant slack so that short runs still get
a usable margin.  ``repro.injection.campaign.ReferenceProfile`` applies
them to a campaign's reference run, and ``Campaign.execution_context``
hands the result to every trial.
"""

from __future__ import annotations

#: Multiplier applied to the fault-free scheduler-round count.
HANG_ROUND_FACTOR = 3.0
#: Constant slack added to the round budget (covers very short runs).
HANG_ROUND_SLACK = 300
#: Multiplier applied to the fault-free per-rank basic-block maximum.
HANG_BLOCK_FACTOR = 2.5
#: Constant slack added to the block budget.
HANG_BLOCK_SLACK = 2000


def round_budget(reference_rounds: int) -> int:
    """Scheduler-round hang budget for a job whose fault-free execution
    took ``reference_rounds`` rounds."""
    if reference_rounds < 0:
        raise ValueError(f"reference rounds must be non-negative: {reference_rounds}")
    return int(reference_rounds * HANG_ROUND_FACTOR) + HANG_ROUND_SLACK


def block_budget(reference_max_blocks: int) -> int:
    """Per-rank basic-block hang budget for a job whose busiest rank
    executed ``reference_max_blocks`` blocks fault-free."""
    if reference_max_blocks < 0:
        raise ValueError(
            f"reference block count must be non-negative: {reference_max_blocks}"
        )
    return int(reference_max_blocks * HANG_BLOCK_FACTOR) + HANG_BLOCK_SLACK
