"""Single-execution helpers for examples and tests.

Thin wrappers over the engine's single-trial authority
(:func:`repro.engine.core.run_single`): budget derivation, injector
install, and outcome classification all live in :mod:`repro.engine`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.core import ExecutionContext, run_single
from repro.injection.faults import FaultSpec, InjectionRecord
from repro.injection.outcomes import Manifestation
from repro.mpi.simulator import Job, JobConfig, JobResult


def run_fault_free(app_factory: Callable[[], object], config: JobConfig) -> JobResult:
    """One clean execution; raises if it does not complete."""
    result = Job(app_factory(), config).run()
    if not result.completed:
        raise RuntimeError(f"fault-free run failed ({result.status}): {result.detail}")
    return result


def run_with_fault(
    app_factory: Callable[[], object],
    config: JobConfig,
    spec: FaultSpec,
    *,
    reference: JobResult | None = None,
    seed: int = 0,
) -> tuple[Manifestation, InjectionRecord, JobResult]:
    """Execute once with one fault armed and classify the outcome.

    The reference run (for output comparison and hang budgets) is
    computed on demand when not supplied.
    """
    if reference is None:
        reference = run_fault_free(app_factory, config)
    ctx = ExecutionContext.from_reference(app_factory, config, reference)
    return run_single(ctx, spec, np.random.default_rng(seed))
