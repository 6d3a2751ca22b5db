"""Rendezvous-protocol edge cases at the ADI level."""

import numpy as np
import pytest

from repro.mpi.datatypes import MPI_DOUBLE
from repro.mpi.simulator import Job, JobConfig, JobStatus
from tests.mpi._util import GenericApp, buf_addr, run_app

#: Elements that exceed the 2048-byte eager threshold.
BIG = 512


def big_buffer(ctx):
    addr = ctx.image.heap.malloc(BIG * 8)
    return addr, ctx.image.heap_segment.view_f64(addr, BIG)


class TestRendezvousFlow:
    def test_sender_blocks_until_cts(self):
        """A blocking rendezvous send cannot complete before the receiver
        posts - observable through the scheduler round count."""

        def main(ctx):
            addr, view = big_buffer(ctx)
            if ctx.rank == 0:
                view[:] = 7.0
                yield from ctx.comm.send(addr, BIG, MPI_DOUBLE, 1, 1)
                ctx.print("send done")
            else:
                for _ in range(10):
                    yield None  # delay the post
                ctx.print("posting recv")
                yield from ctx.comm.recv(addr, BIG, MPI_DOUBLE, 0, 1)
                assert view[0] == 7.0

        result, _ = run_app(main, nprocs=2)
        assert result.status is JobStatus.COMPLETED
        post = next(i for i, l in enumerate(result.stdout) if "posting" in l)
        done = next(i for i, l in enumerate(result.stdout) if "send done" in l)
        assert post < done

    def test_rts_parked_until_matching_recv(self):
        def main(ctx):
            addr, view = big_buffer(ctx)
            if ctx.rank == 0:
                view[:] = np.arange(BIG)
                yield from ctx.comm.send(addr, BIG, MPI_DOUBLE, 1, 5)
            else:
                # a non-matching recv first: tag 9 (eager from rank 0)
                small = ctx.image.heap.malloc(8)
                req9 = ctx.comm.irecv(small, 1, MPI_DOUBLE, 0, 9)
                yield from ctx.comm.recv(addr, BIG, MPI_DOUBLE, 0, 5)
                np.testing.assert_array_equal(view, np.arange(BIG))
                assert not req9.ready()  # never matched by the RTS

        # A rank may exit with an unmatched posted receive outstanding
        # (real MPI calls this erroneous but it does not hang the job).
        result, _ = run_app(main, nprocs=2)
        assert result.status is JobStatus.COMPLETED

    def test_two_rendezvous_in_flight(self):
        def main(ctx):
            a_addr, a = big_buffer(ctx)
            b_addr, b = big_buffer(ctx)
            if ctx.rank == 0:
                a[:] = 1.0
                b[:] = 2.0
                ra = ctx.comm.isend(a_addr, BIG, MPI_DOUBLE, 1, 1)
                rb = ctx.comm.isend(b_addr, BIG, MPI_DOUBLE, 1, 2)
                yield from ctx.comm.waitall([ra, rb])
            else:
                # receive in reverse order
                yield from ctx.comm.recv(b_addr, BIG, MPI_DOUBLE, 0, 2)
                yield from ctx.comm.recv(a_addr, BIG, MPI_DOUBLE, 0, 1)
                assert b[0] == 2.0 and a[0] == 1.0

        result, _ = run_app(main, nprocs=2)
        assert result.status is JobStatus.COMPLETED

    def test_rendezvous_traffic_has_control_packets(self):
        def main(ctx):
            addr, view = big_buffer(ctx)
            if ctx.rank == 0:
                yield from ctx.comm.send(addr, BIG, MPI_DOUBLE, 1, 1)
            else:
                yield from ctx.comm.recv(addr, BIG, MPI_DOUBLE, 0, 1)

        result, job = run_app(main, nprocs=2)
        assert result.status is JobStatus.COMPLETED
        # receiver sees RTS (control) + RNDV_DATA; sender sees CTS.
        assert job.endpoints[1].stats.control_packets == 1
        assert job.endpoints[1].stats.data_packets == 1
        assert job.endpoints[0].stats.control_packets == 1

    def test_eager_threshold_boundary(self):
        """Exactly-threshold payloads go eager; one byte more goes
        rendezvous."""
        from repro.mpi.adi import EAGER_THRESHOLD

        def main(ctx):
            n_eager = EAGER_THRESHOLD // 8
            addr, _ = big_buffer(ctx)
            if ctx.rank == 0:
                yield from ctx.comm.send(addr, n_eager, MPI_DOUBLE, 1, 1)
                yield from ctx.comm.send(addr, n_eager + 1, MPI_DOUBLE, 1, 2)
            else:
                yield from ctx.comm.recv(addr, n_eager, MPI_DOUBLE, 0, 1)
                yield from ctx.comm.recv(addr, n_eager + 1, MPI_DOUBLE, 0, 2)

        result, job = run_app(main, nprocs=2)
        assert result.status is JobStatus.COMPLETED
        # The threshold-sized message went eager (one data packet); the
        # one-element-larger message negotiated (RTS control + data).
        assert job.endpoints[1].stats.control_packets == 1
        assert job.endpoints[1].stats.data_packets == 2
