"""x87 FPU model: the register stack, tag word and special registers.

Faithful to the features that mattered in the paper's experiments
(section 6.1.1):

* Eight 80-bit data registers organised as a stack; instructions address
  registers relative to the top.  Compiled kernels typically use only a
  few stack slots, so most data-register flips hit dead values.
* The values are held at 80-bit extended precision (``np.longdouble`` on
  x86); storing to a 64-bit memory double *discards* the low mantissa
  bits, so flips there are masked - one of the paper's three explanations
  for the low FP error rate.
* The TWD (tag word) register classifies each data register as valid,
  zero, special or empty.  A single tag-bit flip can make a valid number
  read back as zero or NaN - the one special register the paper found to
  induce errors.
* The remaining special registers (CWD, SWD, FIP, FCS, FOO, FOS) hold
  state that the data path never consumes, so injections there are
  benign, as observed.
* FP exceptions are masked (the x87 power-on default): division by zero
  and invalid operations produce Inf/NaN and propagate silently.
"""

from __future__ import annotations

import math
import struct

import numpy as np

#: The seven special-purpose x87 registers the paper enumerates.
FPU_SPECIAL_REGS = ("cwd", "swd", "twd", "fip", "fcs", "foo", "fos")

#: Bits of one 80-bit extended-precision data register.
EXTENDED_BITS = 80

_F64 = struct.Struct("<d")


class TagValue:
    VALID = 0
    ZERO = 1
    SPECIAL = 2
    EMPTY = 3


def _classify(value: float) -> int:
    if value == 0.0:
        return TagValue.ZERO
    if math.isnan(value) or math.isinf(value):
        return TagValue.SPECIAL
    return TagValue.VALID


class FPU:
    """x87 floating-point unit state."""

    def __init__(self) -> None:
        # Physical registers as 80-bit extended floats.  The byte layout
        # of np.longdouble on x86 is the genuine 80-bit format (padded to
        # 16 bytes), so bit flips target the real encoding.
        self._phys = np.zeros(8, dtype=np.longdouble)
        #: Python-float shadow of ``_phys``.  The stack-machine hot path
        #: (push/pop/read_st/write_st) works entirely on the shadow; the
        #: 80-bit physical array is synchronized lazily (``_sync``)
        #: before anything consumes its raw bits - fault injection,
        #: checkpoint capture, SPECIAL-tag reads.  A double's extended
        #: encoding is exact, so eager and lazy stores produce the same
        #: physical bytes; the shadow only removes the per-operation
        #: NumPy longdouble scalar conversion cost.
        self._vals = [0.0] * 8
        #: Bitmask of shadow slots newer than ``_phys``.
        self._stale = 0
        self._sig_bytes = min(10, self._phys.itemsize)
        self.top = 0
        self.twd = 0xFFFF  # all empty
        self.cwd = 0x037F  # power-on default: all exceptions masked
        self.swd = 0x0000
        self.fip = 0
        self.fcs = 0
        self.foo = 0
        self.fos = 0
        self.depth = 0  # logical stack depth
        self.max_depth = 0  # high-water mark (liveness statistic)

    # ------------------------------------------------------------------
    # tag helpers
    # ------------------------------------------------------------------
    def tag_of(self, phys: int) -> int:
        return (self.twd >> (2 * phys)) & 0b11

    def _set_tag(self, phys: int, tag: int) -> None:
        self.twd = (self.twd & ~(0b11 << (2 * phys))) | (tag << (2 * phys))

    def _phys_index(self, sti: int) -> int:
        return (self.top + sti) & 7

    def _sync(self) -> None:
        """Flush shadow slots into the 80-bit physical registers."""
        stale = self._stale
        if stale:
            for phys in range(8):
                if stale & (1 << phys):
                    self._phys[phys] = self._vals[phys]
            self._stale = 0

    # ------------------------------------------------------------------
    # stack operations
    # ------------------------------------------------------------------
    def push(self, value: float) -> None:
        value = float(value)
        top = self.top = (self.top - 1) & 7
        self._vals[top] = value
        self._stale |= 1 << top
        # _classify / _set_tag inlined: PUSH is the FPU's hottest entry
        # point and the call overhead dominates the work.
        if value == 0.0:
            tag = TagValue.ZERO
        elif value != value or math.isinf(value):
            tag = TagValue.SPECIAL
        else:
            tag = TagValue.VALID
        self.twd = (self.twd & ~(0b11 << (2 * top))) | (tag << (2 * top))
        depth = self.depth + 1
        if depth > 8:
            depth = 8
        self.depth = depth
        if depth > self.max_depth:
            self.max_depth = depth

    def pop(self) -> float:
        top = self.top
        if (self.twd >> (2 * top)) & 0b11 == TagValue.VALID:
            value = self._vals[top]
        else:
            value = self.read_st(0)
        # EMPTY is 0b11, so tagging the slot empty is a plain OR.
        self.twd |= 0b11 << (2 * top)
        self.top = (top + 1) & 7
        depth = self.depth - 1
        self.depth = depth if depth > 0 else 0
        return value

    def read_st(self, sti: int) -> float:
        """Read ST(i) *through the tag word*, which is how a tag-bit flip
        turns a valid number into zero or NaN (paper section 6.1.1)."""
        phys = (self.top + sti) & 7
        tag = (self.twd >> (2 * phys)) & 0b11
        if tag == TagValue.VALID:
            return self._vals[phys]
        if tag == TagValue.ZERO:
            return 0.0
        if tag == TagValue.SPECIAL:
            self._sync()
            raw = float(self._phys[phys])
            # A register re-tagged "special" is interpreted as a NaN/Inf
            # encoding even if the payload was a plain number.
            return raw if (math.isnan(raw) or math.isinf(raw)) else math.nan
        # EMPTY: masked stack underflow produces the indefinite QNaN.
        self.swd |= 0x0041  # IE + stack fault
        return math.nan

    def write_st(self, sti: int, value: float) -> None:
        value = float(value)
        phys = (self.top + sti) & 7
        self._vals[phys] = value
        self._stale |= 1 << phys
        self._set_tag(phys, _classify(value))

    def exchange(self, sti: int) -> None:
        """FXCH ST(0), ST(i)."""
        a, b = self.read_st(0), self.read_st(sti)
        self.write_st(0, b)
        self.write_st(sti, a)

    # ------------------------------------------------------------------
    # memory conversion
    # ------------------------------------------------------------------
    @staticmethod
    def to_double(value: float) -> float:
        """Store to a 64-bit memory double - the low extended-precision
        mantissa bits are discarded here."""
        return float(np.float64(value))

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def flip_data_bit(self, sti: int, bit: int) -> float:
        """Flip one of the 80 bits of data register ST(i)."""
        if not 0 <= bit < EXTENDED_BITS:
            raise ValueError(f"bit index out of range for 80-bit register: {bit}")
        self._sync()
        phys = self._phys_index(sti)
        raw = bytearray(self._phys[phys : phys + 1].tobytes())
        byte, mask = divmod(bit, 8)
        if byte >= self._sig_bytes:  # pragma: no cover - non-x86 fallback
            byte = byte % self._sig_bytes
        raw[byte] ^= 1 << mask
        self._phys[phys : phys + 1] = np.frombuffer(
            bytes(raw), dtype=np.longdouble, count=1
        )
        self._vals[phys] = float(self._phys[phys])
        return self._vals[phys]

    def flip_special_bit(self, name: str, bit: int) -> int:
        """Flip a bit of one of the seven special registers."""
        if name not in FPU_SPECIAL_REGS:
            raise ValueError(f"unknown x87 special register {name!r}")
        # FIP/FOO are 32-bit pointer offsets; CWD/SWD/TWD and the FCS/FOS
        # segment selectors are 16-bit.
        width = 16 if name in ("cwd", "swd", "twd", "fcs", "fos") else 32
        if not 0 <= bit < width:
            raise ValueError(f"bit {bit} out of range for {name} ({width} bits)")
        value = getattr(self, name) ^ (1 << bit)
        setattr(self, name, value)
        return value

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple:
        """Full picklable FPU state.  The physical registers travel as
        raw bytes so the 80-bit extended encoding round-trips exactly
        (``float()`` conversion would discard mantissa bits).  Only the
        ``_sig_bytes`` of each slot are kept; the padding after them is
        uninitialized memory and is zeroed, so equal states capture
        equal bytes."""
        self._sync()
        raw = self._phys.view(np.uint8).reshape(8, -1).copy()
        raw[:, self._sig_bytes :] = 0
        return (
            raw.tobytes(),
            self.top,
            self.twd,
            self.cwd,
            self.swd,
            self.fip,
            self.fcs,
            self.foo,
            self.fos,
            self.depth,
            self.max_depth,
        )

    def readable_state(self) -> tuple:
        """The state an instruction can read, and nothing else: ``top``,
        the tag word, each VALID slot's value (read from the shadow) and
        each SPECIAL slot's raw bytes (read through the 80-bit
        encoding).  EMPTY and ZERO slots read back as NaN and 0.0
        whatever their payload; CWD, SWD, FIP, FCS, FOO, FOS, ``depth``
        and ``max_depth`` are written but never read by an
        instruction.  Equal readable states make every later
        instruction behave the same."""
        twd = self.twd
        state = [self.top, twd]
        for phys in range(8):
            tag = (twd >> (2 * phys)) & 0b11
            if tag == TagValue.VALID:
                state.append(_F64.pack(self._vals[phys]))
            elif tag == TagValue.SPECIAL:
                self._sync()
                raw = self._phys[phys : phys + 1].tobytes()
                state.append(raw[: self._sig_bytes])
        return tuple(state)

    def restore_state(self, state: tuple) -> None:
        phys, top, twd, cwd, swd, fip, fcs, foo, fos, depth, max_depth = state
        self._phys = np.frombuffer(phys, dtype=np.longdouble).copy()
        self._vals = [float(v) for v in self._phys]
        self._stale = 0
        self.top = top
        self.twd = twd
        self.cwd = cwd
        self.swd = swd
        self.fip = fip
        self.fcs = fcs
        self.foo = foo
        self.fos = fos
        self.depth = depth
        self.max_depth = max_depth

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def registers_in_use(self) -> int:
        """How many data registers currently hold non-empty values."""
        return sum(1 for p in range(8) if self.tag_of(p) != TagValue.EMPTY)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        st = [f"ST{i}={self.read_st(i)!r}" for i in range(self.depth)]
        return f"FPU(top={self.top}, twd={self.twd:04x}, [{', '.join(st)}])"
