"""Error-manifestation taxonomy and outcome classifier (paper section 5.1).

The classifier consumes the externally visible artifacts of a run - the
captured stderr (for MPICH crash diagnostics), the console (for
application abort messages and the error-handler label), the termination
condition, and the application outputs - and produces one of the paper's
six disjoint classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.mpi.simulator import JobResult, JobStatus


class Manifestation(str, enum.Enum):
    """The paper's disjoint outcome classes."""

    CORRECT = "correct"
    CRASH = "crash"
    HANG = "hang"
    INCORRECT = "incorrect"
    APP_DETECTED = "app_detected"
    MPI_DETECTED = "mpi_detected"


#: Classes that count as manifested errors (everything but CORRECT).
ERROR_CLASSES = (
    Manifestation.CRASH,
    Manifestation.HANG,
    Manifestation.INCORRECT,
    Manifestation.APP_DETECTED,
    Manifestation.MPI_DETECTED,
)


def classify(result: JobResult, reference: JobResult) -> Manifestation:
    """Map one faulty run onto the paper's taxonomy.

    Crash detection follows the paper exactly: "Application crashes were
    detected by identifying MPICH error messages in the STDERR output."
    A completed run is Incorrect when its outputs differ in any byte
    from the fault-free reference's.  What masks a perturbation is the
    application's output format (wavetoy's fixed-precision text hides
    low-order flips, section 6.2), not a lenient comparison.
    """
    status = result.status
    if status is JobStatus.HUNG:
        return Manifestation.HANG
    if status is JobStatus.APP_DETECTED:
        return Manifestation.APP_DETECTED
    if status is JobStatus.MPI_DETECTED:
        return Manifestation.MPI_DETECTED
    if status is JobStatus.CRASHED or any(
        "p4_error" in line for line in result.stderr
    ):
        return Manifestation.CRASH
    # Completed: compare outputs against the fault-free reference.
    if result.outputs == reference.outputs:
        return Manifestation.CORRECT
    return Manifestation.INCORRECT


@dataclass
class OutcomeTally:
    """Counts per manifestation class, with the paper's derived ratios."""

    counts: dict[Manifestation, int] = field(
        default_factory=lambda: {m: 0 for m in Manifestation}
    )

    def add(self, m: Manifestation) -> None:
        self.counts[m] += 1

    @property
    def executions(self) -> int:
        return sum(self.counts.values())

    @property
    def errors(self) -> int:
        """Manifested faults (everything except CORRECT)."""
        return self.executions - self.counts[Manifestation.CORRECT]

    @property
    def error_rate_percent(self) -> float:
        """The 'Errors (Percent)' column: manifestations / injections."""
        n = self.executions
        return 100.0 * self.errors / n if n else 0.0

    def manifestation_percent(self, m: Manifestation) -> float:
        """The 'Error Manifestations (Percent)' columns: share of each
        class among *manifested* errors."""
        e = self.errors
        return 100.0 * self.counts[m] / e if e else 0.0

    def breakdown(self) -> dict[Manifestation, float]:
        return {m: self.manifestation_percent(m) for m in ERROR_CLASSES}
