"""repro - a reproduction of "Assessing Fault Sensitivity in MPI
Applications" (Charng-da Lu and Daniel A. Reed, SC 2004).

A software-implemented fault-injection (SWIFI) framework over a fully
simulated substrate: an x86-flavoured virtual CPU with an x87 FPU stack,
a Linux-style process address space with a tagging malloc, a
deterministic MPICH-style MPI-1.1 runtime, and a suite of three
miniature scientific applications mirroring Cactus Wavetoy, NAMD and
CAM.  Single-bit faults are injected into registers, the process address
space and MPI message traffic, and outcomes are classified into the
paper's six manifestation classes.

Quick start::

    from repro import Campaign, JobConfig, Region, WavetoyApp

    campaign = Campaign(WavetoyApp, JobConfig(nprocs=8))
    row = campaign.run_region(Region.MESSAGE, 50)
    print(row.error_rate_percent)
"""

from repro._version import __version__
from repro.errors import (
    AppAbort,
    HangDetected,
    MPIAbort,
    MPIError,
    SimBusError,
    SimFPE,
    SimIllegalInstruction,
    SimSegfault,
    SimSignal,
    SimulationError,
)
from repro.clock import Clock
from repro.mpi import Job, JobConfig, JobResult, JobStatus
from repro.injection import (
    Campaign,
    CampaignResult,
    FaultSpec,
    InjectionRecord,
    Manifestation,
    Region,
    classify,
    install,
)
from repro.apps import APPLICATION_SUITE, ClimateApp, MoldynApp, WavetoyApp
from repro.engine import (
    CampaignEngine,
    ExecutionContext,
    ParallelExecutor,
    ProgressEvent,
    ResultStore,
    SerialExecutor,
    TrialCollector,
    TrialResult,
    TrialSink,
    TrialSpec,
)
from repro.harness import EXPERIMENTS
from repro.sampling import achieved_error, sample_size_oversampled
from repro.trace import profile_application, trace_memory

__all__ = [
    "__version__",
    "AppAbort",
    "HangDetected",
    "MPIAbort",
    "MPIError",
    "SimBusError",
    "SimFPE",
    "SimIllegalInstruction",
    "SimSegfault",
    "SimSignal",
    "SimulationError",
    "Clock",
    "Job",
    "JobConfig",
    "JobResult",
    "JobStatus",
    "Campaign",
    "CampaignResult",
    "FaultSpec",
    "InjectionRecord",
    "Manifestation",
    "Region",
    "classify",
    "install",
    "APPLICATION_SUITE",
    "ClimateApp",
    "MoldynApp",
    "WavetoyApp",
    "CampaignEngine",
    "ExecutionContext",
    "ParallelExecutor",
    "ProgressEvent",
    "ResultStore",
    "SerialExecutor",
    "TrialCollector",
    "TrialResult",
    "TrialSink",
    "TrialSpec",
    "EXPERIMENTS",
    "achieved_error",
    "sample_size_oversampled",
    "profile_application",
    "trace_memory",
]
