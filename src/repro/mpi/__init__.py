"""Simulated MPI-1.1 runtime (MPICH-style API / ADI / Channel layering).

The stack mirrors the paper's Figure 2: the user application calls the
:class:`~repro.mpi.api.Comm` API; the ADI implements matching and the
eager/rendezvous protocols; the Channel carries raw header+payload byte
packets and is the point where the message fault injector flips bits in
incoming traffic.
"""

from repro.mpi.datatypes import (
    ANY_SOURCE,
    ANY_TAG,
    INTERNAL_TAG_BASE,
    MPI_BYTE,
    MPI_CHAR,
    MPI_DOUBLE,
    MPI_FLOAT,
    MPI_INT,
    MPI_LONG,
    MPI_MAX,
    MPI_MIN,
    MPI_PROD,
    MPI_SUM,
    PREDEFINED_DATATYPES,
    PREDEFINED_OPS,
    TAG_UB,
    Datatype,
    ReduceOp,
)
from repro.mpi.status import CompletedRequest, Request, Status
from repro.mpi.errhandler import (
    MPI_ERRORS_ARE_FATAL,
    MPI_ERRORS_RETURN,
    ErrhandlerSlot,
    ErrorClass,
)
from repro.mpi.channel import HEADER_SIZE, ChannelEndpoint, ChannelStats
from repro.mpi.adi import (
    AdiEngine,
    ChannelProtocolError,
    MSG_CTS,
    MSG_EAGER,
    MSG_RNDV_DATA,
    MSG_RTS,
    ParsedMessage,
    pack_header,
    parse_packet,
)
from repro.mpi.api import Comm
from repro.mpi.simulator import Job, JobConfig, JobResult, JobStatus, RankContext
from repro.mpi.library import add_mpi_library
from repro.mpi.pmpi import ProfilingComm
from repro.mpi.traffic import RankTraffic, TrafficSummary, job_traffic, rank_traffic, summarize

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "INTERNAL_TAG_BASE",
    "MPI_BYTE",
    "MPI_CHAR",
    "MPI_DOUBLE",
    "MPI_FLOAT",
    "MPI_INT",
    "MPI_LONG",
    "MPI_MAX",
    "MPI_MIN",
    "MPI_PROD",
    "MPI_SUM",
    "PREDEFINED_DATATYPES",
    "PREDEFINED_OPS",
    "TAG_UB",
    "Datatype",
    "ReduceOp",
    "CompletedRequest",
    "Request",
    "Status",
    "MPI_ERRORS_ARE_FATAL",
    "MPI_ERRORS_RETURN",
    "ErrhandlerSlot",
    "ErrorClass",
    "HEADER_SIZE",
    "ChannelEndpoint",
    "ChannelStats",
    "AdiEngine",
    "ChannelProtocolError",
    "MSG_CTS",
    "MSG_EAGER",
    "MSG_RNDV_DATA",
    "MSG_RTS",
    "ParsedMessage",
    "pack_header",
    "parse_packet",
    "Comm",
    "Job",
    "JobConfig",
    "JobResult",
    "JobStatus",
    "RankContext",
    "add_mpi_library",
    "ProfilingComm",
    "RankTraffic",
    "TrafficSummary",
    "job_traffic",
    "rank_traffic",
    "summarize",
]
