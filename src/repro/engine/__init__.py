"""The campaign execution engine.

One authority for single-trial execution (replay, install, classify),
pluggable serial, process-pool and leased remote executors, result stores
with resume/merge, adaptive Cochran-half-width sampling, and the trial
sink protocol every view of a campaign implements.  Every faulted run
comes from a ``Campaign`` - its engine's trials and its
``run_injection`` - so the experiment registry and the ``python -m
repro campaign`` CLI all flow through this package.
"""

from repro.engine.budgets import (
    HANG_BLOCK_FACTOR,
    HANG_BLOCK_SLACK,
    HANG_ROUND_FACTOR,
    HANG_ROUND_SLACK,
    block_budget,
    round_budget,
)
from repro.engine.checkpoint import (
    GoldenRecording,
    ReplayPlan,
    plan_replay,
    record_golden,
)
from repro.engine.coordination import (
    LeaseBook,
    LeaseExecutor,
    WorkerClient,
)
from repro.engine.core import ExecutionContext, execute_trial
from repro.engine.driver import CampaignEngine, observed_half_width
from repro.engine.executors import (
    JOBS_ENV,
    ParallelExecutor,
    SerialExecutor,
    default_jobs,
    make_executor,
)
from repro.engine.progress import (
    ProgressEvent,
    ProgressPrinter,
    TrialCollector,
    TrialSink,
    format_progress,
)
from repro.engine.store import (
    ResultStore,
    StoreStatus,
    StoreSummary,
    merge_stores,
    open_store,
)
from repro.engine.store_sqlite import SQLiteResultStore
from repro.engine.trial import (
    TrialResult,
    TrialSpec,
    canonical_params,
    region_salt,
    restore_rng,
    trial_key,
    trial_rng,
)

__all__ = [
    "HANG_BLOCK_FACTOR",
    "HANG_BLOCK_SLACK",
    "HANG_ROUND_FACTOR",
    "HANG_ROUND_SLACK",
    "block_budget",
    "round_budget",
    "GoldenRecording",
    "ReplayPlan",
    "plan_replay",
    "record_golden",
    "LeaseBook",
    "LeaseExecutor",
    "WorkerClient",
    "ExecutionContext",
    "execute_trial",
    "CampaignEngine",
    "observed_half_width",
    "JOBS_ENV",
    "ParallelExecutor",
    "SerialExecutor",
    "default_jobs",
    "make_executor",
    "ProgressEvent",
    "ProgressPrinter",
    "TrialCollector",
    "TrialSink",
    "format_progress",
    "ResultStore",
    "SQLiteResultStore",
    "StoreStatus",
    "StoreSummary",
    "merge_stores",
    "open_store",
    "TrialResult",
    "TrialSpec",
    "canonical_params",
    "region_salt",
    "restore_rng",
    "trial_key",
    "trial_rng",
]
