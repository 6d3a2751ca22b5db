"""Trial executors: serial and process-pool parallel dispatch.

Both executors consume lists of :class:`~repro.engine.trial.TrialSpec`
and yield :class:`~repro.engine.trial.TrialResult` objects as trials
finish.  Because every trial carries its own derived RNG state and
results are keyed by ``(region, index)``, aggregate campaign results
are bit-identical regardless of executor choice, worker count, or
completion order.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator

from repro.engine.core import ExecutionContext, execute_trial
from repro.engine.trial import TrialResult, TrialSpec

#: Environment variable consulted for the default worker count.
JOBS_ENV = "REPRO_CAMPAIGN_JOBS"


def default_jobs() -> int:
    """Worker count from ``REPRO_CAMPAIGN_JOBS`` (default 1: serial)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


def resolve_jobs(jobs: int | None) -> int:
    """The worker count a local executor runs with: ``jobs`` (at least
    1), or :func:`default_jobs` when it is ``None``."""
    return default_jobs() if jobs is None else max(1, int(jobs))


class SerialExecutor:
    """In-process execution: no pickling constraints, deterministic
    completion order (trial index order)."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context

    def run(self, specs: Iterable[TrialSpec]) -> Iterator[TrialResult]:
        for spec in specs:
            yield execute_trial(self.context, spec)

    def close(self) -> None:  # symmetry with ParallelExecutor
        pass


# ----------------------------------------------------------------------
# worker-side state for the parallel executor
# ----------------------------------------------------------------------
_WORKER_CONTEXT: ExecutionContext | None = None


def _init_worker(context: ExecutionContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _worker_execute(spec: TrialSpec) -> TrialResult:
    assert _WORKER_CONTEXT is not None, "worker initialized without context"
    return execute_trial(_WORKER_CONTEXT, spec)


class ParallelExecutor:
    """``ProcessPoolExecutor``-backed dispatch with ``jobs`` workers.

    The execution context (application factory, reference profile, hang
    budgets) is shipped once per worker via the pool initializer; each
    task then costs one pickled :class:`TrialSpec`.  Results stream back
    in submission (trial index) order, matching the serial executor.
    """

    def __init__(self, context: ExecutionContext, jobs: int) -> None:
        if jobs < 2:
            raise ValueError(f"ParallelExecutor needs jobs >= 2, got {jobs}")
        try:
            pickle.dumps(context)
        except Exception as exc:  # pragma: no cover - message matters, not type
            raise TypeError(
                "parallel campaign execution requires a picklable "
                "application factory (a module-level class/function or a "
                "functools.partial of one); got unpicklable execution "
                f"context: {exc}"
            ) from exc
        self.context = context
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else None
        self._pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=mp.get_context(method) if method else None,
            initializer=_init_worker,
            initargs=(context,),
        )

    def run(self, specs: Iterable[TrialSpec]) -> Iterator[TrialResult]:
        # Yield in submission order, not completion order: workers still
        # execute concurrently, but the driver ingests results in the
        # same sequence as the serial executor.  Float histogram sums
        # are not associative, so completion-order merging would let
        # scheduling jitter (or an engine-speed change) move the merged
        # metric series by an ulp.
        futures = [self._pool.submit(_worker_execute, spec) for spec in specs]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


def make_executor(
    context: ExecutionContext, jobs: int | None
) -> SerialExecutor | ParallelExecutor:
    jobs = resolve_jobs(jobs)
    if jobs == 1:
        return SerialExecutor(context)
    return ParallelExecutor(context, jobs)
