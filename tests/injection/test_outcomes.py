"""Outcome classification (the paper's six manifestation classes)."""

import pytest

from repro.injection.outcomes import (
    ERROR_CLASSES,
    Manifestation,
    OutcomeTally,
    classify,
)
from repro.mpi.simulator import JobResult, JobStatus


def result(status, outputs=None, stderr=None):
    return JobResult(
        status=status,
        detail="",
        stdout=[],
        stderr=stderr or [],
        outputs=outputs if outputs is not None else {"out": "ok"},
        rounds=1,
        blocks_per_rank=[0],
    )


REF = result(JobStatus.COMPLETED, outputs={"out": "ok"})


class TestClassify:
    def test_correct(self):
        assert classify(result(JobStatus.COMPLETED), REF) is Manifestation.CORRECT

    def test_incorrect_output(self):
        r = result(JobStatus.COMPLETED, outputs={"out": "bad"})
        assert classify(r, REF) is Manifestation.INCORRECT

    def test_crash(self):
        r = result(JobStatus.CRASHED, stderr=["p4_error: x"])
        assert classify(r, REF) is Manifestation.CRASH

    def test_crash_detected_by_stderr_scan(self):
        """The paper identifies crashes by MPICH messages in stderr."""
        r = result(JobStatus.COMPLETED, outputs={"out": "ok"},
                   stderr=["p4_error: interrupt SIGSEGV"])
        assert classify(r, REF) is Manifestation.CRASH

    def test_hang(self):
        assert classify(result(JobStatus.HUNG), REF) is Manifestation.HANG

    def test_app_detected(self):
        assert (
            classify(result(JobStatus.APP_DETECTED), REF)
            is Manifestation.APP_DETECTED
        )

    def test_mpi_detected(self):
        assert (
            classify(result(JobStatus.MPI_DETECTED), REF)
            is Manifestation.MPI_DETECTED
        )


class TestTally:
    def test_error_rate(self):
        t = OutcomeTally()
        for _ in range(6):
            t.add(Manifestation.CORRECT)
        t.add(Manifestation.CRASH)
        t.add(Manifestation.HANG)
        t.add(Manifestation.CRASH)
        t.add(Manifestation.INCORRECT)
        assert t.executions == 10
        assert t.errors == 4
        assert t.error_rate_percent == 40.0

    def test_manifestation_percent_of_errors(self):
        t = OutcomeTally()
        t.add(Manifestation.CORRECT)
        t.add(Manifestation.CRASH)
        t.add(Manifestation.CRASH)
        t.add(Manifestation.HANG)
        assert t.manifestation_percent(Manifestation.CRASH) == pytest.approx(200 / 3)
        assert t.manifestation_percent(Manifestation.HANG) == pytest.approx(100 / 3)
        assert sum(t.breakdown().values()) == pytest.approx(100.0)

    def test_empty_tally(self):
        t = OutcomeTally()
        assert t.error_rate_percent == 0.0
        assert t.manifestation_percent(Manifestation.CRASH) == 0.0

    def test_classes_are_disjoint_and_complete(self):
        assert len(ERROR_CLASSES) == 5
        assert Manifestation.CORRECT not in ERROR_CLASSES
