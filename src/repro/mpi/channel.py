"""The Channel layer (the analogue of MPICH's ch_p4 device).

This is the lowest software layer of the simulated MPI stack - the
interface to the "underlying communication software" in the paper's
Figure 2, and the exact place its message fault injector operates:
"We chose to inject the faults into incoming traffic immediately after
MPICH invokes the recv socket routine."

Each rank owns a :class:`ChannelEndpoint` holding a FIFO of raw byte
packets.  When the ADI drains a packet (the ``recv`` call), the endpoint:

1. advances the received-byte counter that the paper's injector watches,
2. offers the raw bytes to the registered injection hook, which may flip
   a bit anywhere in the packet (header or payload), and
3. records traffic statistics (header vs payload bytes, control vs data
   packets) for the Table-1 profiles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.observability import runtime as _obs

#: Hook signature: ``hook(packet, start_byte_offset) -> packet`` where
#: ``start_byte_offset`` is the rank's cumulative received-byte count at
#: the start of this packet.  Returns the (possibly corrupted) packet.
InjectHook = Callable[[bytearray, int], bytearray]

#: Read-only observer signature: ``tap(packet_bytes)`` called for every
#: drained packet *after* injection and accounting.  The static message
#: analyzer uses this to classify each received byte without disturbing
#: the stream.
TapHook = Callable[[bytes], None]

#: Header size in bytes (within the paper's 32-64 byte range).
HEADER_SIZE = 48


@dataclass
class ChannelStats:
    """Per-rank receive-side traffic accounting (Channel level)."""

    packets: int = 0
    control_packets: int = 0  # header-only
    data_packets: int = 0
    header_bytes: int = 0
    payload_bytes: int = 0
    dropped_packets: int = 0

    @property
    def total_bytes(self) -> int:
        return self.header_bytes + self.payload_bytes

    def header_fraction(self) -> float:
        total = self.total_bytes
        return self.header_bytes / total if total else 0.0


class ChannelEndpoint:
    """Receive queue plus counters for one MPI process."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._queue: deque[bytes] = deque()
        self.bytes_received = 0
        self.stats = ChannelStats()
        self.inject_hook: InjectHook | None = None
        self.tap: TapHook | None = None
        #: Simulated clock of the owning rank; attached by the Job so
        #: channel events carry block-accurate timestamps.
        self.clock = None

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def push(self, packet: bytes) -> None:
        """Enqueue a packet arriving from the network."""
        self._queue.append(packet)

    def pending(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # receiver side (where injection happens)
    # ------------------------------------------------------------------
    def recv(self) -> bytearray | None:
        """Drain one packet, applying the injection hook and counters.

        Returns ``None`` when the queue is empty.
        """
        if not self._queue:
            return None
        packet = bytearray(self._queue.popleft())
        start = self.bytes_received
        self.bytes_received += len(packet)
        if self.inject_hook is not None:
            packet = self.inject_hook(packet, start)
        self._account(packet)
        if _obs.TRACER is not None and self.clock is not None:
            payload = len(packet) - min(HEADER_SIZE, len(packet))
            _obs.TRACER.instant(
                "channel:recv",
                "channel",
                self.clock.blocks,
                tid=self.rank,
                args={
                    "bytes": len(packet),
                    "kind": "data" if payload else "control",
                },
            )
        if self.tap is not None:
            self.tap(bytes(packet))
        return packet

    def _account(self, packet: bytearray) -> None:
        stats = self.stats
        stats.packets += 1
        header = min(HEADER_SIZE, len(packet))
        payload = len(packet) - header
        stats.header_bytes += header
        stats.payload_bytes += payload
        if payload == 0:
            stats.control_packets += 1
        else:
            stats.data_packets += 1

    def note_drop(self) -> None:
        self.stats.dropped_packets += 1
