"""Scheduler and failure-classification semantics of the Job simulator."""

import pytest

from repro.errors import (
    AppAbort,
    HangDetected,
    InvalidFaultSpec,
    MPIAbort,
    MPIError,
    SimIllegalInstruction,
    SimSegfault,
)
from repro.memory.heap import HeapCorruption
from repro.memory.stack import StackOverflow
from repro.mpi.adi import ChannelProtocolError
from repro.mpi.datatypes import MPI_INT
from repro.mpi.errhandler import ErrorClass
from repro.mpi.simulator import JobConfig, JobStatus
from repro.observability import runtime
from repro.observability.timeline import PropagationTimeline
from repro.staticanalysis.cfg import CFGError
from tests.conftest import (
    SMALL_NPROCS,
    small_climate,
    small_moldyn,
    small_wavetoy,
)
from tests.mpi._util import GenericApp, buf_addr, run_app
from repro.mpi.simulator import Job


class TestCompletion:
    def test_single_rank(self):
        def main(ctx):
            yield None

        result, _ = run_app(main, nprocs=1)
        assert result.status is JobStatus.COMPLETED

    def test_console_and_outputs_collected(self):
        def main(ctx):
            ctx.print("hello")
            if ctx.rank == 0:
                ctx.write_output("result", "data")
            yield None

        result, _ = run_app(main, nprocs=2)
        assert "[0] hello" in result.stdout
        assert result.outputs == {"result": "data"}

    def test_blocks_per_rank_reported(self):
        def main(ctx):
            ctx.image.clock.tick(ctx.rank * 10)
            yield None

        result, _ = run_app(main, nprocs=3)
        assert result.blocks_per_rank == [0, 10, 20]

    def test_determinism_across_runs(self):
        def main(ctx):
            ctx.print(f"draw {float(ctx.rng.random()):.6f}")
            yield from ctx.comm.barrier()

        r1, _ = run_app(main, nprocs=3, seed=5)
        r2, _ = run_app(main, nprocs=3, seed=5)
        assert r1.stdout == r2.stdout

    def test_seed_changes_rng(self):
        def main(ctx):
            ctx.print(f"{float(ctx.rng.random()):.9f}")
            yield None

        r1, _ = run_app(main, nprocs=1, seed=1)
        r2, _ = run_app(main, nprocs=1, seed=2)
        assert r1.stdout != r2.stdout


class TestFailureClassification:
    def test_sim_signal_is_crash_with_p4_error(self):
        def main(ctx):
            if ctx.rank == 1:
                raise SimSegfault("boom", rank=1)
            yield None

        result, _ = run_app(main, nprocs=2)
        assert result.status is JobStatus.CRASHED
        assert result.faulting_rank == 1
        assert any("SIGSEGV" in l for l in result.stderr)
        assert any("p4_error" in l for l in result.stderr)

    def test_app_abort_is_app_detected(self):
        def main(ctx):
            yield None
            if ctx.rank == 0:
                raise AppAbort("NaN check", "energy is NaN")

        result, _ = run_app(main, nprocs=2)
        assert result.status is JobStatus.APP_DETECTED
        assert any("ABORT" in l for l in result.stdout)

    def test_round_limit_is_hang(self):
        def main(ctx):
            while True:
                yield None

        job = Job(GenericApp(lambda ctx: main(ctx)), JobConfig(nprocs=2, round_limit=50))
        result = job.run()
        assert result.status is JobStatus.HUNG

    def test_block_limit_is_hang(self):
        def main(ctx):
            yield None
            while True:
                ctx.vm.clock.tick(10)
                ctx.vm.block_limit = 100
                from repro.errors import HangDetected

                if ctx.vm.clock.blocks > 100:
                    raise HangDetected("block budget exceeded")

        result, _ = run_app(main, nprocs=1)
        assert result.status is JobStatus.HUNG

    def test_unhandled_exception_is_crash_with_traceback(self):
        def main(ctx):
            yield None
            raise ValueError("corrupted value reached orchestration")

        result, _ = run_app(main, nprocs=1)
        assert result.status is JobStatus.CRASHED
        assert any("ValueError" in l for l in result.stderr)

    def test_crash_aborts_whole_job(self):
        """One rank's signal kills every MPI process (MPICH behaviour)."""
        progress = []

        def main(ctx):
            if ctx.rank == 0:
                raise SimSegfault("early death")
            for i in range(100):
                progress.append(ctx.rank)
                yield None

        result, _ = run_app(main, nprocs=3)
        assert result.status is JobStatus.CRASHED
        # Other ranks must not have run to completion (100 iterations).
        assert len(progress) < 10


def run_with_timeline(main_fn, nprocs: int = 2):
    """Run ``main_fn`` under a propagation timeline; returns the result
    and the timeline's divergence kind."""
    timeline = PropagationTimeline()
    with runtime.activate(timeline=timeline):
        result, _ = run_app(main_fn, nprocs=nprocs)
    return result, timeline.summary().get("divergence_kind")


def raising(exc):
    def main(ctx):
        yield None
        if ctx.rank == 0:
            raise exc

    return main


#: ``(exception, status, timeline kind)`` of every termination path.
TERMINATIONS = [
    (SimSegfault("x"), JobStatus.CRASHED, "signal:SIGSEGV"),
    (SimIllegalInstruction("x"), JobStatus.CRASHED, "signal:SIGILL"),
    (ChannelProtocolError("x"), JobStatus.CRASHED, "protocol"),
    (HeapCorruption("x"), JobStatus.CRASHED, "protocol"),
    (StackOverflow("x"), JobStatus.CRASHED, "protocol"),
    (AppAbort("check"), JobStatus.APP_DETECTED, "app_abort"),
    (MPIAbort("killed"), JobStatus.CRASHED, "mpi_abort"),
    (HangDetected("stuck"), JobStatus.HUNG, "hang"),
    (MPIError("MPI_ERR_ARG", "bad"), JobStatus.CRASHED, "unhandled"),
    (InvalidFaultSpec("x"), JobStatus.CRASHED, "unhandled"),
    (CFGError("x"), JobStatus.CRASHED, "unhandled"),
    (ValueError("x"), JobStatus.CRASHED, "unhandled"),
]


class TestTerminationKind:
    """One dispatch decides a failed job's status and its timeline kind;
    ``unhandled`` is the marker of a possible harness exception."""

    def test_heap_exhaustion_is_a_modelled_crash(self):
        def main(ctx):
            yield None
            if ctx.rank == 0:
                ctx.image.heap.malloc(1 << 30)

        result, kind = run_with_timeline(main)
        assert result.status is JobStatus.CRASHED
        assert result.detail == "heap exhaustion on rank 0"
        assert any("out of memory" in line for line in result.stderr)
        assert kind == "oom"

    @pytest.mark.parametrize(
        "exc, status, kind",
        TERMINATIONS,
        ids=[f"{type(exc).__name__}-{kind}" for exc, _, kind in TERMINATIONS],
    )
    def test_status_and_kind(self, exc, status, kind):
        result, got = run_with_timeline(raising(exc))
        assert (result.status, got) == (status, kind)

    def test_user_handler_abort_is_mpi_detected(self):
        def handler(comm, error):
            raise MPIAbort(f"handled {error}")

        def main(ctx):
            ctx.comm.set_errhandler(handler)
            yield None
            if ctx.rank == 0:
                ctx.comm._error(ErrorClass.MPI_ERR_COUNT, "negative count")

        result, kind = run_with_timeline(main)
        assert (result.status, kind) == (JobStatus.MPI_DETECTED, "mpi_abort")


class TestConfig:
    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            run_app(lambda ctx: iter(()), nprocs=0)

    def test_received_bytes_query(self):
        def main(ctx):
            buf = buf_addr(ctx)
            if ctx.rank == 0:
                yield from ctx.comm.send(buf, 4, MPI_INT, 1, 1)
            else:
                yield from ctx.comm.recv(buf, 4, MPI_INT, 0, 1)

        result, job = run_app(main, nprocs=2)
        assert job.received_bytes(1) > 0
        assert job.received_bytes(0) == 0
        assert job.total_blocks() == sum(result.blocks_per_rank)

    def test_pre_run_hooks_fire_once(self):
        calls = []

        def main(ctx):
            yield None

        job = Job(GenericApp(main), JobConfig(nprocs=1))
        job.pre_run_hooks.append(lambda j: calls.append(j))
        job.run()
        assert calls == [job]


class TestSteppingApi:
    """The golden recording drives the scheduler through ``Job.begin``
    and ``Job.step_round``: ``begin`` returns ``None`` on a clean start
    and ``step_round`` returns ``None`` until the job has a result."""

    @pytest.mark.parametrize(
        "make_app",
        [small_climate, small_moldyn, small_wavetoy],
        ids=["climate", "moldyn", "wavetoy"],
    )
    def test_stepping_api_matches_run(self, make_app):
        """begin + step_round loop is exactly ``Job.run``."""

        def fields(result):
            return (
                result.status,
                result.detail,
                result.stdout,
                result.stderr,
                result.outputs,
                result.rounds,
                result.blocks_per_rank,
            )

        job = Job(make_app(), JobConfig(nprocs=SMALL_NPROCS))
        assert job.begin() is None
        stepped = None
        while stepped is None:
            stepped = job.step_round()
        plain = Job(make_app(), JobConfig(nprocs=SMALL_NPROCS)).run()
        assert fields(stepped) == fields(plain)


class TestMpiAbort:
    def test_abort_kills_the_job(self):
        def main(ctx):
            yield None
            if ctx.rank == 1:
                ctx.comm.abort(errorcode=3)

        result, _ = run_app(main, nprocs=3)
        assert result.status is JobStatus.CRASHED
        assert any("MPI_Abort" in l for l in result.stderr)
        assert result.error.exit_code == 3

    def test_abort_without_user_handler_is_not_mpi_detected(self):
        """MPI_Abort is a deliberate job kill, not an argument-check
        error: the user error handler plays no role."""
        def main(ctx):
            ctx.comm.set_errhandler(lambda comm, err: None)
            yield None
            if ctx.rank == 0:
                ctx.comm.abort()

        result, _ = run_app(main, nprocs=2)
        assert result.status is JobStatus.CRASHED
