"""Simulated hardware/software fault conditions.

The paper's injector observes the target through UNIX signals and MPICH
error messages.  In the simulated substrate, the equivalent conditions are
raised as Python exceptions and translated by the runtime into the same
externally visible artifacts the paper's classifier keys on: MPICH-style
``p4_error`` lines on the captured stderr for crashes, console abort
messages for application-detected errors, and an invoked error handler for
MPI-detected errors.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all conditions raised by the simulated substrate."""


class SimSignal(SimulationError):
    """A simulated fatal UNIX signal delivered to one MPI process.

    MPICH "handles all critical signals (e.g. SIGSEGV and SIGBUS) due to
    abnormal termination" (paper section 5.1); the runtime catches these and
    prints an MPICH error message to stderr before aborting the job, which
    is how the outcome classifier recognises a Crash.
    """

    #: signal name, e.g. ``"SIGSEGV"``; subclasses override.
    signame = "SIGKILL"

    def __init__(self, message: str = "", rank: int | None = None):
        self.rank = rank
        super().__init__(message or self.signame)


class SimSegfault(SimSignal):
    """Access to an unmapped or out-of-segment virtual address."""

    signame = "SIGSEGV"


class SimBusError(SimSignal):
    """Misaligned or otherwise unserviceable memory access."""

    signame = "SIGBUS"


class SimIllegalInstruction(SimSignal):
    """The VM decoded an invalid opcode (e.g. after a text-segment flip)."""

    signame = "SIGILL"


class SimFPE(SimSignal):
    """Integer division by zero.  x87 FP exceptions are *masked* (the
    default x87 configuration): float division by zero yields Inf/NaN and
    propagates silently, matching the paper's observation that FP faults
    surface as NaN checks or silent corruption rather than signals."""

    signame = "SIGFPE"


class MPIError(SimulationError):
    """An error detected by the MPI library's argument checking.

    Per the paper's reading of MPICH/LAM/LA-MPI, this is the *only* class
    of error that invokes a user-registered error handler; everything else
    aborts the job directly.
    """

    def __init__(self, mpi_class: str, message: str, rank: int | None = None):
        self.mpi_class = mpi_class
        self.rank = rank
        super().__init__(f"{mpi_class}: {message}")


class MPIAbort(SimulationError):
    """The MPI job was aborted (MPI_Abort, peer death, fatal error)."""

    def __init__(self, message: str = "MPI_Abort", exit_code: int = 1):
        self.exit_code = exit_code
        super().__init__(message)


class AppAbort(SimulationError):
    """The application's own consistency check failed and the app aborted.

    The message is printed to the captured console output; the classifier
    labels the run Application Detected.
    """

    def __init__(self, check: str, message: str = ""):
        self.check = check
        super().__init__(f"{check}: {message}" if message else check)


class HangDetected(SimulationError):
    """The scheduler declared the execution hung.

    Either a true deadlock (every rank blocked with no message in flight)
    or the step budget derived from the fault-free execution was exceeded
    (the paper's "one minute beyond the expected execution completion
    time").
    """

    def __init__(self, reason: str, blocks: int | None = None):
        self.reason = reason
        self.blocks = blocks
        super().__init__(reason)


class InvalidFaultSpec(SimulationError):
    """A fault specification referenced a nonexistent target."""


class CheckpointDesync(Exception):
    """Replay of a recorded golden run diverged from live execution.

    Deliberately *not* a :class:`SimulationError`: a desync means the
    checkpoint machinery itself is broken (the recording no longer
    matches the pre-injection execution), so it must escape the job's
    outcome classification rather than masquerade as a Crash.
    """
