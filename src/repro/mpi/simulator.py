"""Deterministic cooperative MPI job simulator.

Runs every rank of an MPI application as a generator coroutine under a
round-robin scheduler.  All blocking MPI semantics are expressed as
yielded :class:`~repro.mpi.status.Request` objects; a rank resumes when
its request becomes ready.  Determinism (fixed scheduling order, seeded
RNGs) is what lets the outcome classifier compare a faulty run against a
fault-free reference - the paper's "little variability in execution
times" under exclusive cluster access.

Failure semantics mirror the paper's experimental set-up:

* a simulated signal (SIGSEGV/SIGILL/SIGBUS/SIGFPE) in any rank makes the
  runtime print an MPICH-style ``p4_error`` line to the captured stderr
  and abort the whole job - the classifier recognises a Crash by exactly
  those messages (section 5.1);
* an :class:`~repro.errors.AppAbort` (internal consistency check) prints
  to the console and aborts - Application Detected;
* an :class:`~repro.errors.MPIAbort` raised from a *user* error handler
  is MPI Detected; from the default fatal handler, it is a Crash;
* deadlock (no rank can advance, no packet in flight) or an exceeded
  block/round budget is a Hang (the paper waited "one minute beyond the
  expected execution completion time").
"""

from __future__ import annotations

import enum
import io
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.errors import (
    AppAbort,
    CheckpointDesync,
    HangDetected,
    MPIAbort,
    SimSignal,
    SimulationError,
)
from repro.memory.heap import HeapCorruption
from repro.memory.process import ProcessImage
from repro.memory.stack import StackOverflow
from repro.mpi.adi import AdiEngine, ChannelProtocolError
from repro.mpi.api import Comm
from repro.mpi.channel import ChannelEndpoint
from repro.cpu.vm import VM
from repro.observability import runtime as _obs


class JobStatus(enum.Enum):
    """Raw termination condition of one simulated job execution."""

    COMPLETED = "completed"
    CRASHED = "crashed"
    HUNG = "hung"
    APP_DETECTED = "app_detected"
    MPI_DETECTED = "mpi_detected"


@dataclass
class JobConfig:
    """Execution parameters for one job."""

    nprocs: int
    seed: int = 12345
    track_memory: bool = False
    #: Scheduler-round budget (None: derive nothing; the runner sets it
    #: from a fault-free profile).
    round_limit: int | None = None
    #: Per-rank basic-block budget applied to every VM.
    block_limit: int | None = None


class RankContext:
    """Everything one rank's ``main`` generator can touch."""

    def __init__(self, rank: int, job: "Job", image: ProcessImage, vm: VM, comm: Comm):
        self.rank = rank
        self.nprocs = job.config.nprocs
        self.job = job
        self.image = image
        self.vm = vm
        self.comm = comm
        self.rng = np.random.default_rng([job.config.seed, rank])
        #: True while the static analyzer drives a symbolic dry run: the
        #: VM elides kernel execution, so applications must skip the
        #: consistency checks that read kernel-produced values.
        self.symbolic = False

    def print(self, text: str) -> None:
        """Write a line to the job's captured console (stdout)."""
        self.job.stdout.append(f"[{self.rank}] {text}")

    def write_output(self, name: str, content: str | bytes) -> None:
        """Record an application output artifact (e.g. rank 0's result
        file); the classifier compares these against the reference."""
        self.job.outputs[name] = content

    def abort(self, check: str, message: str = "") -> None:
        """Fail an internal consistency check and abort the application."""
        raise AppAbort(check, message)


@dataclass
class JobResult:
    """Externally visible artifacts of one execution."""

    status: JobStatus
    detail: str
    stdout: list[str]
    stderr: list[str]
    outputs: dict[str, str | bytes]
    rounds: int
    blocks_per_rank: list[int]
    error: BaseException | None = None
    faulting_rank: int | None = None

    @property
    def completed(self) -> bool:
        return self.status is JobStatus.COMPLETED


class Job:
    """One simulated MPI job: N ranks of one application."""

    def __init__(self, app, config: JobConfig) -> None:
        self.app = app
        self.config = config
        n = config.nprocs
        if n < 1:
            raise ValueError(f"nprocs must be >= 1, got {n}")
        self.stdout: list[str] = []
        self.stderr: list[str] = []
        self.outputs: dict[str, str | bytes] = {}
        self.images: list[ProcessImage] = []
        self.vms: list[VM] = []
        self.endpoints: list[ChannelEndpoint] = []
        self.adis: list[AdiEngine] = []
        self.comms: list[Comm] = []
        self.contexts: list[RankContext] = []
        for rank in range(n):
            image, vm = app.build_process(rank, n, config)
            if config.block_limit is not None:
                vm.block_limit = config.block_limit
            endpoint = ChannelEndpoint(rank)
            endpoint.clock = image.clock
            adi = AdiEngine(rank, n, image, endpoint)
            adi.attach_router(self._route)
            comm = Comm(rank, n, adi, image)
            self.images.append(image)
            self.vms.append(vm)
            self.endpoints.append(endpoint)
            self.adis.append(adi)
            self.comms.append(comm)
            self.contexts.append(RankContext(rank, self, image, vm, comm))
        self._current_rank: int = 0
        #: Hooks run once, immediately before the first scheduler round
        #: (the injector uses this to arm per-rank faults after MPI_Init).
        self.pre_run_hooks: list[Callable[["Job"], None]] = []
        #: Scheduler state, live once :meth:`begin` has run.  Exposed as
        #: instance state (rather than locals of ``run``) so the golden
        #: recording can pause between rounds.
        self.rounds: int = 0
        self._gens: list[Generator | None] = []
        self._waiting: list[Any] = []
        self._done: list[bool] = []

    def _route(self, dst: int) -> ChannelEndpoint:
        # Out-of-range destinations can only be produced by corrupted
        # arguments that slipped past validation; a real sender's writev
        # to a closed socket aborts the process.
        if not 0 <= dst < len(self.endpoints):
            raise ChannelProtocolError(f"send to nonexistent rank {dst}")
        return self.endpoints[dst]

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------
    def begin(self) -> JobResult | None:
        """Run the pre-run hooks and construct every rank's generator.

        Returns a :class:`JobResult` when startup itself crashes (a
        construction failure), ``None`` when the job is ready to step.
        """
        n = self.config.nprocs
        for hook in self.pre_run_hooks:
            hook(self)
        self._gens = []
        self.rounds = 0
        try:
            for ctx in self.contexts:
                self._gens.append(self.app.main(ctx))
        except Exception as exc:  # construction failure = startup crash
            return self._result_for_exception(exc, rounds=0)
        self._waiting = [None] * n  # pending Request per rank
        self._done = [False] * n
        return None

    def step_round(self) -> JobResult | None:
        """Execute one scheduler round.

        Returns ``None`` while the job is still running, or the final
        :class:`JobResult` when it terminated (normally or not) during
        this round.  Exception and classification semantics are exactly
        those of the former monolithic loop: any raise inside the round
        - including the hang budget and deadlock sweep - is classified
        here with the current round count.
        """
        n = self.config.nprocs
        try:
            progressed = False
            for rank in range(n):
                if self._done[rank]:
                    continue
                self._current_rank = rank
                if self.adis[rank].progress():
                    progressed = True
                req = self._waiting[rank]
                if req is not None and not req.ready():
                    continue
                self._waiting[rank] = None
                try:
                    item = next(self._gens[rank])
                except StopIteration:
                    self._done[rank] = True
                    progressed = True
                    continue
                self._waiting[rank] = item  # None = voluntary yield
                progressed = True
            self.rounds += 1
            if all(self._done):
                return JobResult(
                    status=JobStatus.COMPLETED,
                    detail="all ranks exited",
                    stdout=self.stdout,
                    stderr=self.stderr,
                    outputs=self.outputs,
                    rounds=self.rounds,
                    blocks_per_rank=[im.clock.blocks for im in self.images],
                )
            if self.config.round_limit is not None and self.rounds > self.config.round_limit:
                raise HangDetected("scheduler round budget exceeded", self.rounds)
            if not progressed:
                # One last progress sweep before declaring deadlock.
                if not any(adi.progress() for adi in self.adis):
                    raise HangDetected("deadlock: all ranks blocked")
            return None
        except BaseException as exc:
            return self._result_for_exception(exc, self.rounds)

    def run(self) -> JobResult:
        """Execute the job to termination and classify how it ended."""
        result = self.begin()
        if result is not None:
            return result
        while True:
            result = self.step_round()
            if result is not None:
                return result

    # ------------------------------------------------------------------
    # failure classification (raw job level)
    # ------------------------------------------------------------------
    def _result_for_exception(self, exc: BaseException, rounds: int) -> JobResult:
        rank = self._current_rank
        if isinstance(exc, (KeyboardInterrupt, SystemExit, CheckpointDesync)):
            raise exc
        status, detail, kind = self._classify(exc, rank)
        if _obs.TIMELINE is not None or _obs.TRACER is not None:
            _obs.note_termination(
                kind,
                rank=rank,
                blocks=self.images[rank].clock.blocks,
                detail=detail,
            )
        return JobResult(
            status=status,
            detail=detail,
            stdout=self.stdout,
            stderr=self.stderr,
            outputs=self.outputs,
            rounds=rounds,
            blocks_per_rank=[im.clock.blocks for im in self.images],
            error=exc,
            faulting_rank=rank,
        )

    def _classify(
        self, exc: BaseException, rank: int
    ) -> tuple[JobStatus, str, str]:
        """Status, detail and timeline kind of an abnormal termination.

        ``"unhandled"`` marks what may be a harness exception rather
        than a modelled failure; the simulation errors without a kind of
        their own (MPIError, InvalidFaultSpec, CFGError) carry it too.
        """
        if isinstance(exc, SimSignal):
            # MPICH catches the fatal signal and prints its diagnostic.
            self.stderr.append(
                f"p4_error: interrupt {exc.signame}: rank {rank}: {exc}"
            )
            self.stderr.append(
                f"p4_error: latest msg from perror: killing all MPI processes"
            )
            return (
                JobStatus.CRASHED, f"{exc.signame} on rank {rank}",
                f"signal:{exc.signame}",
            )
        if isinstance(exc, (ChannelProtocolError, HeapCorruption, StackOverflow)):
            self.stderr.append(f"p4_error: net_recv failed on rank {rank}: {exc}")
            return JobStatus.CRASHED, f"runtime fault on rank {rank}: {exc}", "protocol"
        if isinstance(exc, MemoryError):
            self.stderr.append(f"p4_error: out of memory on rank {rank}: {exc}")
            return JobStatus.CRASHED, f"heap exhaustion on rank {rank}", "oom"
        if isinstance(exc, AppAbort):
            self.stdout.append(f"[{rank}] ABORT {exc}")
            return JobStatus.APP_DETECTED, str(exc), "app_abort"
        if isinstance(exc, MPIAbort):
            if self.comms[rank].errhandler.user_invocations > 0:
                self.stdout.append(f"[{rank}] MPI error handler invoked: {exc}")
                return JobStatus.MPI_DETECTED, str(exc), "mpi_abort"
            self.stderr.append(f"p4_error: {exc} (rank {rank})")
            return JobStatus.CRASHED, str(exc), "mpi_abort"
        if isinstance(exc, HangDetected):
            return JobStatus.HUNG, str(exc), "hang"
        if isinstance(exc, SimulationError):
            self.stderr.append(f"p4_error: {type(exc).__name__} on rank {rank}: {exc}")
            return JobStatus.CRASHED, f"{type(exc).__name__}: {exc}", "unhandled"
        # Anything else is a genuine bug in the *simulator or application
        # harness* unless a fault was injected, in which case corrupted
        # values reaching orchestration code are also a crash (e.g. a
        # flipped size feeding a negative array length into a kernel).
        buf = io.StringIO()
        traceback.print_exception(exc, file=buf)
        self.stderr.append(f"p4_error: unhandled {type(exc).__name__} on rank {rank}")
        self.stderr.append(buf.getvalue())
        return (
            JobStatus.CRASHED, f"unhandled {type(exc).__name__}: {exc}", "unhandled"
        )

    # ------------------------------------------------------------------
    # aggregate queries
    # ------------------------------------------------------------------
    def total_blocks(self) -> int:
        return sum(im.clock.blocks for im in self.images)

    def received_bytes(self, rank: int) -> int:
        return self.endpoints[rank].bytes_received
