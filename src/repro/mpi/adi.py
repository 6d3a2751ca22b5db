"""The ADI layer (Abstract Device Interface).

Sits between the user-facing API and the Channel, exactly as in MPICH's
three-layer architecture (paper Figure 2).  Responsibilities:

* message framing: a 48-byte header (magic, src, dst, tag, type, payload
  length, sequence number, communicator id, padding) followed by the
  payload bytes;
* the eager/rendezvous protocols: small messages travel in one data
  packet; large ones negotiate with header-only RTS/CTS control packets
  (this is what makes control traffic a measurable fraction of volume,
  as in Table 1);
* receive-side matching: posted receives vs the unexpected-message queue,
  with (source, tag) matching and MPI_ANY_SOURCE / MPI_ANY_TAG wildcards;
* staging unexpected payloads in simulated-heap buffers tagged *MPI*
  (these are the allocations the paper's malloc wrapper marks so the
  heap injector can skip them).

Corrupted headers are handled the way a real ch_p4 device would fail:
bad magic / length mismatch / unknown type abort the process (crash);
a flipped source, destination or tag leaves the message unmatchable or
misdelivered, so the posted receive never completes and the job deadlocks
(hang).  Flips in the sequence/communicator/padding fields are benign -
which is why only roughly 40 percent of header flips corrupt execution,
the fraction the paper measures for Cactus.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.memory.heap import ChunkTag
from repro.observability import runtime as _obs
from repro.memory.process import ProcessImage
from repro.mpi.channel import HEADER_SIZE, ChannelEndpoint
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG, Datatype
from repro.mpi.status import Request, Status

_HEADER = struct.Struct("<IiiiIIII16s")
assert _HEADER.size == HEADER_SIZE

#: Header magic ('MPIH' little-endian).
MAGIC = 0x4849_504D

# Message types.
MSG_EAGER = 1
MSG_RTS = 2
MSG_CTS = 3
MSG_RNDV_DATA = 4
_VALID_TYPES = (MSG_EAGER, MSG_RTS, MSG_CTS, MSG_RNDV_DATA)

#: Payloads at or below this many bytes travel eagerly.
EAGER_THRESHOLD = 2048


class ChannelProtocolError(SimulationError):
    """An unrecoverable framing error - the device aborts the process
    (surfaces as an application crash with a p4_error diagnostic)."""


def pack_header(
    src: int,
    dst: int,
    tag: int,
    mtype: int,
    payload_len: int,
    seq: int,
    comm_id: int = 0,
) -> bytes:
    return _HEADER.pack(MAGIC, src, dst, tag, mtype, payload_len, seq, comm_id, b"")


@dataclass
class ParsedMessage:
    src: int
    dst: int
    tag: int
    mtype: int
    payload_len: int
    seq: int
    comm_id: int
    payload: bytes


def parse_packet(packet: bytes | bytearray) -> ParsedMessage:
    """Parse one packet; raises :class:`ChannelProtocolError` for damage
    that a real device could not survive."""
    if len(packet) < HEADER_SIZE:
        raise ChannelProtocolError(f"short packet ({len(packet)} bytes)")
    magic, src, dst, tag, mtype, plen, seq, comm_id, _pad = _HEADER.unpack_from(
        bytes(packet)
    )
    if magic != MAGIC:
        raise ChannelProtocolError(f"bad message magic 0x{magic:08x}")
    payload = bytes(packet[HEADER_SIZE:])
    if plen != len(payload):
        raise ChannelProtocolError(
            f"header/payload length mismatch ({plen} != {len(payload)})"
        )
    if mtype not in _VALID_TYPES:
        raise ChannelProtocolError(f"unknown message type {mtype}")
    return ParsedMessage(src, dst, tag, mtype, plen, seq, comm_id, payload)


@dataclass
class PostedRecv:
    source: int
    tag: int
    buf_addr: int
    capacity: int  # bytes
    request: Request

    def matches(self, src: int, tag: int) -> bool:
        return (self.source in (ANY_SOURCE, src)) and (self.tag in (ANY_TAG, tag))


@dataclass
class _Unexpected:
    src: int
    tag: int
    seq: int
    heap_addr: int | None  # staged payload in simulated heap (MPI-tagged)
    length: int
    is_rts: bool = False


class AdiEngine:
    """Per-rank ADI state machine."""

    def __init__(
        self,
        rank: int,
        nprocs: int,
        image: ProcessImage,
        endpoint: ChannelEndpoint,
    ) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.image = image
        self.endpoint = endpoint
        self._router = None  # set by the job: rank -> ChannelEndpoint
        self._posted: list[PostedRecv] = []
        self._unexpected: list[_Unexpected] = []
        self._seq = 0
        #: sender side: seq -> (payload bytes, SendRequest)
        self._rndv_pending: dict[int, tuple[bytes, Request]] = {}
        #: receiver side: seq -> PostedRecv awaiting RNDV_DATA
        self._rndv_expected: dict[int, PostedRecv] = {}
        #: messages received at ADI level, by kind (Table-1 profiling)
        self.messages_control = 0
        self.messages_data = 0

    def attach_router(self, router) -> None:
        """``router(dst_rank) -> ChannelEndpoint`` of the destination."""
        self._router = router

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, dst: int, packet: bytes) -> None:
        self._router(dst).push(packet)

    def send(self, dst: int, tag: int, payload: bytes) -> Request:
        """Start a send; the returned request is complete immediately for
        eager messages, or when the CTS arrives for rendezvous."""
        seq = self._next_seq()
        if len(payload) <= EAGER_THRESHOLD:
            header = pack_header(self.rank, dst, tag, MSG_EAGER, len(payload), seq)
            self._push(dst, header + payload)
            req = Request(kind="send")
            req.complete()
            return req
        # Rendezvous: RTS control packet announces the message; the
        # payload is parked until the receiver's CTS.
        header = pack_header(self.rank, dst, tag, MSG_RTS, 0, seq)
        self._push(dst, header)
        req = Request(kind="send")
        self._rndv_pending[seq] = (payload, req)
        return req

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def post_recv(
        self, source: int, tag: int, buf_addr: int, capacity: int
    ) -> Request:
        req = Request(kind="recv")
        posted = PostedRecv(source, tag, buf_addr, capacity, req)
        # Try the unexpected queue first (arrival order).
        for i, u in enumerate(self._unexpected):
            if posted.matches(u.src, u.tag):
                del self._unexpected[i]
                if u.is_rts:
                    self._grant_rts(u, posted)
                else:
                    self._deliver_staged(u, posted)
                return req
        self._posted.append(posted)
        return req

    def probe_unexpected(self, source: int, tag: int):
        """Non-destructive match against the unexpected queue (the
        engine behind MPI_Iprobe): returns ``(src, tag, length)`` of the
        first matching parked message, or None."""
        for u in self._unexpected:
            if (source in (ANY_SOURCE, u.src)) and (tag in (ANY_TAG, u.tag)):
                return u.src, u.tag, u.length
        return None

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def progress(self) -> bool:
        """Drain and dispatch all pending channel packets.  Returns True
        if anything was consumed.  Raises ChannelProtocolError on fatal
        framing damage."""
        progressed = False
        while True:
            packet = self.endpoint.recv()
            if packet is None:
                return progressed
            progressed = True
            msg = parse_packet(packet)
            self._dispatch(msg)

    _MSG_NAMES = {
        MSG_EAGER: "eager",
        MSG_RTS: "rts",
        MSG_CTS: "cts",
        MSG_RNDV_DATA: "rndv_data",
    }

    def _dispatch(self, msg: ParsedMessage) -> None:
        tracer = _obs.TRACER
        if tracer is not None:
            tracer.instant(
                f"adi:{self._MSG_NAMES[msg.mtype]}",
                "adi",
                self.image.clock.blocks,
                tid=self.rank,
                args={"src": msg.src, "tag": msg.tag, "len": msg.payload_len},
            )
        # Misrouted or nonsensical addressing: a real device drops the
        # packet on the floor; whoever was waiting for it deadlocks.
        if msg.dst != self.rank or not 0 <= msg.src < self.nprocs:
            self.endpoint.note_drop()
            return
        if msg.mtype == MSG_EAGER:
            self.messages_data += 1 if msg.payload_len else 0
            self.messages_control += 1 if not msg.payload_len else 0
            self._on_eager(msg)
        elif msg.mtype == MSG_RTS:
            self.messages_control += 1
            self._on_rts(msg)
        elif msg.mtype == MSG_CTS:
            self.messages_control += 1
            self._on_cts(msg)
        elif msg.mtype == MSG_RNDV_DATA:
            self.messages_data += 1
            self._on_rndv_data(msg)

    def _match_posted(self, src: int, tag: int) -> PostedRecv | None:
        for i, p in enumerate(self._posted):
            if p.matches(src, tag):
                del self._posted[i]
                return p
        return None

    def _on_eager(self, msg: ParsedMessage) -> None:
        posted = self._match_posted(msg.src, msg.tag)
        if posted is not None:
            self._copy_in(posted, msg.src, msg.tag, msg.payload)
            return
        # Unexpected: stage the payload in an MPI-tagged heap buffer.
        heap_addr = None
        if msg.payload:
            heap_addr = self.image.heap.malloc(len(msg.payload), ChunkTag.MPI)
            self.image.heap_segment.write_bytes(heap_addr, msg.payload)
        self._unexpected.append(
            _Unexpected(msg.src, msg.tag, msg.seq, heap_addr, len(msg.payload))
        )

    def _on_rts(self, msg: ParsedMessage) -> None:
        posted = self._match_posted(msg.src, msg.tag)
        if posted is not None:
            self._send_cts(msg.src, msg.seq, posted)
            return
        self._unexpected.append(
            _Unexpected(msg.src, msg.tag, msg.seq, None, 0, is_rts=True)
        )

    def _grant_rts(self, u: _Unexpected, posted: PostedRecv) -> None:
        self._send_cts(u.src, u.seq, posted)

    def _send_cts(self, src: int, seq: int, posted: PostedRecv) -> None:
        self._rndv_expected[seq] = posted
        header = pack_header(self.rank, src, seq, MSG_CTS, 0, seq)
        self._push(src, header)

    def _on_cts(self, msg: ParsedMessage) -> None:
        pending = self._rndv_pending.pop(msg.seq, None)
        if pending is None:
            # CTS for an unknown rendezvous (corrupted seq): dropped; the
            # original sender keeps waiting -> deadlock.
            self.endpoint.note_drop()
            return
        payload, req = pending
        header = pack_header(self.rank, msg.src, 0, MSG_RNDV_DATA, len(payload), msg.seq)
        self._push(msg.src, header + payload)
        req.complete()

    def _on_rndv_data(self, msg: ParsedMessage) -> None:
        posted = self._rndv_expected.pop(msg.seq, None)
        if posted is None:
            self.endpoint.note_drop()
            return
        self._copy_in(posted, msg.src, posted.tag, msg.payload)

    def _deliver_staged(self, u: _Unexpected, posted: PostedRecv) -> None:
        payload = b""
        if u.heap_addr is not None:
            payload = self.image.heap_segment.read_bytes(u.heap_addr, u.length)
            self.image.heap.free(u.heap_addr)
        self._copy_in(posted, u.src, u.tag, payload)

    def _copy_in(self, posted: PostedRecv, src: int, tag: int, payload: bytes) -> None:
        if len(payload) > posted.capacity:
            # ch_p4 cannot recover from an over-long body: internal abort.
            raise ChannelProtocolError(
                f"message truncation: {len(payload)} bytes into "
                f"{posted.capacity}-byte buffer"
            )
        if payload:
            self.image.address_space.store_bytes(posted.buf_addr, payload)
        posted.request.complete(
            Status(source=src, tag=tag, count_bytes=len(payload))
        )
