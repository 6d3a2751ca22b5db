"""Per-opcode semantics: the single execution authority.

Every opcode's observable behaviour lives here, in one function per
opcode, and both halves of the dual-mode engine consume this module:

* the interpreter (:class:`repro.cpu.vm.VM`) dispatches ``EXEC[op]``
  for every fetched instruction;
* the block translator (:mod:`repro.cpu.translate`) emits specialized
  straight-line code whose effects must match these functions bit for
  bit — the property suite in ``tests/props/test_property_fastpath.py``
  pins the two against each other on random machine states.

The functions preserve *exact* interpreter-visible behaviour, which is
stricter than architectural state: the order of register-file accesses
(the read/write counters feed the section-6.1.1 liveness statistics and
are captured into checkpoint digests), the x87 status-word side effects
of reading an empty stack slot, the flag values left by every ALU op,
and the precise exception type, message and machine state at every
fault point.

The tables at the bottom (:data:`CAN_RAISE`, :data:`VECTOR_OPS`,
:data:`VECTOR_LEN_FIELD`, :data:`VBIN_UFUNC`) describe the properties
the translator and the block-clock cost model need; they are part of
the authority, so changes to an opcode's behaviour belong here and
nowhere else.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimFPE, SimIllegalInstruction, SimSegfault
from repro.cpu.isa import INSN_SIZE, Insn, Op, RedOp, VecOp

_U32_MASK = 0xFFFF_FFFF


def signed(v: int) -> int:
    """Two's-complement reading of a 32-bit value."""
    return v - 0x1_0000_0000 if v & 0x8000_0000 else v


# ----------------------------------------------------------------------
# system
# ----------------------------------------------------------------------
def _nop(vm, i: Insn) -> None:
    return None


def _hlt(vm, i: Insn) -> None:
    # HLT is privileged; in user mode the kernel delivers SIGSEGV.
    raise SimSegfault(
        f"privileged instruction at 0x{vm.regs.eip - INSN_SIZE:08x}"
    )


# ----------------------------------------------------------------------
# data movement
# ----------------------------------------------------------------------
def _movi(vm, i: Insn) -> None:
    vm.regs.put(i.r1, i.imm & _U32_MASK)


def _mov(vm, i: Insn) -> None:
    regs = vm.regs
    regs.put(i.r1, regs.get(i.r2))


def _load(vm, i: Insn) -> None:
    regs = vm.regs
    regs.put(i.r1, vm.space.load_u32((regs.get(i.r2) + i.imm) & _U32_MASK))


def _store(vm, i: Insn) -> None:
    regs = vm.regs
    vm.space.store_u32((regs.get(i.r1) + i.imm) & _U32_MASK, regs.get(i.r2))


def _lea(vm, i: Insn) -> None:
    regs = vm.regs
    regs.put(i.r1, (regs.get(i.r2) + i.imm) & _U32_MASK)


def _push(vm, i: Insn) -> None:
    vm._push_u32(vm.regs.get(i.r1))


def _pop(vm, i: Insn) -> None:
    vm.regs.put(i.r1, vm._pop_u32())


# ----------------------------------------------------------------------
# integer ALU
# ----------------------------------------------------------------------
def _add(vm, i: Insn) -> None:
    regs = vm.regs
    r = signed(regs.get(i.r1)) + signed(regs.get(i.r2))
    regs.put(i.r1, r & _U32_MASK)
    regs.set_flags(signed(r & _U32_MASK))


def _sub(vm, i: Insn) -> None:
    regs = vm.regs
    r = signed(regs.get(i.r1)) - signed(regs.get(i.r2))
    regs.put(i.r1, r & _U32_MASK)
    regs.set_flags(signed(r & _U32_MASK))


def _imul(vm, i: Insn) -> None:
    regs = vm.regs
    r = signed(regs.get(i.r1)) * signed(regs.get(i.r2))
    regs.put(i.r1, r & _U32_MASK)
    regs.set_flags(signed(r & _U32_MASK))


def _idiv(vm, i: Insn) -> None:
    regs = vm.regs
    b = signed(regs.get(i.r2))
    if b == 0:
        raise SimFPE("integer division by zero")
    a = signed(regs.get(i.r1))
    q = int(math.trunc(a / b))  # C truncation semantics
    regs.put(i.r1, q & _U32_MASK)
    regs.set_flags(q)


def _irem(vm, i: Insn) -> None:
    regs = vm.regs
    b = signed(regs.get(i.r2))
    if b == 0:
        raise SimFPE("integer division by zero")
    a = signed(regs.get(i.r1))
    r = a - int(math.trunc(a / b)) * b
    regs.put(i.r1, r & _U32_MASK)
    regs.set_flags(r)


def _and(vm, i: Insn) -> None:
    regs = vm.regs
    r = regs.get(i.r1) & regs.get(i.r2)
    regs.put(i.r1, r)
    regs.set_flags(signed(r))


def _or(vm, i: Insn) -> None:
    regs = vm.regs
    r = regs.get(i.r1) | regs.get(i.r2)
    regs.put(i.r1, r)
    regs.set_flags(signed(r))


def _xor(vm, i: Insn) -> None:
    regs = vm.regs
    r = regs.get(i.r1) ^ regs.get(i.r2)
    regs.put(i.r1, r)
    regs.set_flags(signed(r))


def _shl(vm, i: Insn) -> None:
    regs = vm.regs
    r = (regs.get(i.r1) << (i.imm & 31)) & _U32_MASK
    regs.put(i.r1, r)
    regs.set_flags(signed(r))


def _shr(vm, i: Insn) -> None:
    regs = vm.regs
    r = regs.get(i.r1) >> (i.imm & 31)
    regs.put(i.r1, r)
    regs.set_flags(signed(r))


def _addi(vm, i: Insn) -> None:
    regs = vm.regs
    r = (signed(regs.get(i.r1)) + i.imm) & _U32_MASK
    regs.put(i.r1, r)
    regs.set_flags(signed(r))


def _cmp(vm, i: Insn) -> None:
    regs = vm.regs
    regs.set_flags(signed(regs.get(i.r1)) - signed(regs.get(i.r2)))


def _cmpi(vm, i: Insn) -> None:
    regs = vm.regs
    regs.set_flags(signed(regs.get(i.r1)) - i.imm)


def _neg(vm, i: Insn) -> None:
    regs = vm.regs
    r = (-signed(regs.get(i.r1))) & _U32_MASK
    regs.put(i.r1, r)
    regs.set_flags(signed(r))


# ----------------------------------------------------------------------
# control flow
# ----------------------------------------------------------------------
def _jmp(vm, i: Insn) -> None:
    regs = vm.regs
    regs.eip = (regs.eip + i.imm) & _U32_MASK


def _jz(vm, i: Insn) -> None:
    regs = vm.regs
    if regs.zf:
        regs.eip = (regs.eip + i.imm) & _U32_MASK


def _jnz(vm, i: Insn) -> None:
    regs = vm.regs
    if not regs.zf:
        regs.eip = (regs.eip + i.imm) & _U32_MASK


def _jl(vm, i: Insn) -> None:
    regs = vm.regs
    if regs.sf:
        regs.eip = (regs.eip + i.imm) & _U32_MASK


def _jge(vm, i: Insn) -> None:
    regs = vm.regs
    if not regs.sf:
        regs.eip = (regs.eip + i.imm) & _U32_MASK


def _jg(vm, i: Insn) -> None:
    regs = vm.regs
    if not regs.sf and not regs.zf:
        regs.eip = (regs.eip + i.imm) & _U32_MASK


def _jle(vm, i: Insn) -> None:
    regs = vm.regs
    if regs.sf or regs.zf:
        regs.eip = (regs.eip + i.imm) & _U32_MASK


def _call(vm, i: Insn) -> None:
    regs = vm.regs
    vm._push_u32(regs.eip)
    regs.eip = i.imm & _U32_MASK


def _callr(vm, i: Insn) -> None:
    regs = vm.regs
    vm._push_u32(regs.eip)
    regs.eip = regs.get(i.r1)


def _ret(vm, i: Insn) -> None:
    # The sentinel ends the run at the next step's fetch check.
    vm.regs.eip = vm._pop_u32()


# ----------------------------------------------------------------------
# x87 FPU
# ----------------------------------------------------------------------
def _fld(vm, i: Insn) -> None:
    vm.fpu.push(
        vm.space.load_f64((vm.regs.get(i.r1) + i.imm) & _U32_MASK)
    )


def _fst(vm, i: Insn) -> None:
    fpu = vm.fpu
    vm.space.store_f64(
        (vm.regs.get(i.r1) + i.imm) & _U32_MASK, fpu.to_double(fpu.read_st(0))
    )


def _fstp(vm, i: Insn) -> None:
    fpu = vm.fpu
    vm.space.store_f64(
        (vm.regs.get(i.r1) + i.imm) & _U32_MASK, fpu.to_double(fpu.read_st(0))
    )
    fpu.pop()


def _fldz(vm, i: Insn) -> None:
    vm.fpu.push(0.0)


def _fld1(vm, i: Insn) -> None:
    vm.fpu.push(1.0)


def _fldimm(vm, i: Insn) -> None:
    vm.fpu.push(float(i.imm))


def _faddp(vm, i: Insn) -> None:
    fpu = vm.fpu
    b, a = fpu.pop(), fpu.pop()
    fpu.push(a + b)


def _fsubp(vm, i: Insn) -> None:
    fpu = vm.fpu
    b, a = fpu.pop(), fpu.pop()
    fpu.push(a - b)


def _fmulp(vm, i: Insn) -> None:
    fpu = vm.fpu
    b, a = fpu.pop(), fpu.pop()
    fpu.push(a * b)


def _fdivp(vm, i: Insn) -> None:
    fpu = vm.fpu
    b, a = fpu.pop(), fpu.pop()
    # x87 exceptions are masked: /0 yields signed Inf, 0/0 NaN.
    if b == 0.0:
        fpu.push(
            math.nan
            if a == 0.0 or math.isnan(a)
            else math.copysign(math.inf, a) * math.copysign(1.0, b)
        )
    else:
        fpu.push(a / b)


def _fchs(vm, i: Insn) -> None:
    fpu = vm.fpu
    fpu.write_st(0, -fpu.read_st(0))


def _fabs(vm, i: Insn) -> None:
    fpu = vm.fpu
    fpu.write_st(0, abs(fpu.read_st(0)))


def _fsqrt(vm, i: Insn) -> None:
    fpu = vm.fpu
    v = fpu.read_st(0)
    fpu.write_st(0, math.sqrt(v) if v >= 0.0 else math.nan)


def _fxch(vm, i: Insn) -> None:
    vm.fpu.exchange(i.r1)


def _fcomip(vm, i: Insn) -> None:
    regs, fpu = vm.regs, vm.fpu
    a, b = fpu.read_st(0), fpu.read_st(1)
    if math.isnan(a) or math.isnan(b):
        regs.zf, regs.sf = True, False  # unordered
    else:
        regs.zf, regs.sf = (a == b), (a < b)
    fpu.pop()


def _fdup(vm, i: Insn) -> None:
    fpu = vm.fpu
    fpu.push(fpu.read_st(0))


def _fpop(vm, i: Insn) -> None:
    vm.fpu.pop()


# ----------------------------------------------------------------------
# vector unit
# ----------------------------------------------------------------------
def _vmov(vm, i: Insn) -> None:
    regs, space = vm.regs, vm.space
    n = regs.get(i.r3)
    src = space.vector_f64(regs.get(i.r2), n)
    dst = space.vector_f64(regs.get(i.r1), n, True)
    np.copyto(dst, src)


def _vfill(vm, i: Insn) -> None:
    regs, space, fpu = vm.regs, vm.space, vm.fpu
    n = regs.get(i.r2)
    dst = space.vector_f64(regs.get(i.r1), n, True)
    dst.fill(fpu.to_double(fpu.read_st(0)))


def _vbin_ufunc(i: Insn):
    """The ufunc behind a VBIN/VBINS sub-opcode.  A corrupted sub-opcode
    is SIGILL, raised after the operand views so their SIGSEGVs win."""
    try:
        return VBIN_UFUNC[i.subop]
    except KeyError:
        raise SimIllegalInstruction(
            f"undefined {i.op.name} subop {i.subop}"
        ) from None


def _vbin(vm, i: Insn) -> None:
    regs, space = vm.regs, vm.space
    n = regs.get(i.r4)
    a = space.vector_f64(regs.get(i.r2), n)
    b = space.vector_f64(regs.get(i.r3), n)
    dst = space.vector_f64(regs.get(i.r1), n, True)
    ufunc = _vbin_ufunc(i)
    with np.errstate(all="ignore"):
        ufunc(a, b, out=dst)


def _vbins(vm, i: Insn) -> None:
    regs, space, fpu = vm.regs, vm.space, vm.fpu
    n = regs.get(i.r3)
    a = space.vector_f64(regs.get(i.r2), n)
    dst = space.vector_f64(regs.get(i.r1), n, True)
    s = fpu.to_double(fpu.read_st(0))
    ufunc = _vbin_ufunc(i)
    with np.errstate(all="ignore"):
        ufunc(a, s, out=dst)


def _vaxpy(vm, i: Insn) -> None:
    regs, space, fpu = vm.regs, vm.space, vm.fpu
    n = regs.get(i.r4)
    a = space.vector_f64(regs.get(i.r2), n)
    b = space.vector_f64(regs.get(i.r3), n)
    dst = space.vector_f64(regs.get(i.r1), n, True)
    s = fpu.to_double(fpu.read_st(0))
    with np.errstate(all="ignore"):
        np.add(a, s * b, out=dst)


def _vred(vm, i: Insn) -> None:
    regs, space, fpu = vm.regs, vm.space, vm.fpu
    sub = i.subop
    if sub == RedOp.DOT:
        n = regs.get(i.r3)
        a = space.vector_f64(regs.get(i.r1), n)
        b = space.vector_f64(regs.get(i.r2), n)
        fpu.push(float(np.dot(a, b)))
        return
    n = regs.get(i.r2)
    a = space.vector_f64(regs.get(i.r1), n)
    with np.errstate(all="ignore"):
        return _vred_apply(fpu, sub, a, n)


def _vred_apply(fpu, sub: int, a, n: int) -> None:
    if sub == RedOp.SUM:
        fpu.push(float(np.sum(a)))
    elif sub == RedOp.MIN:
        fpu.push(float(np.min(a)) if n else math.nan)
    elif sub == RedOp.MAX:
        fpu.push(float(np.max(a)) if n else math.nan)
    elif sub == RedOp.NANCOUNT:
        fpu.push(float(np.count_nonzero(~np.isfinite(a))))
    elif sub == RedOp.SUMSQ:
        fpu.push(float(np.dot(a, a)))
    else:
        raise SimIllegalInstruction(f"undefined VRED subop {sub}")


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
#: NumPy ufuncs behind VBIN/VBINS sub-opcodes.
VBIN_UFUNC = {
    int(VecOp.ADD): np.add,
    int(VecOp.SUB): np.subtract,
    int(VecOp.MUL): np.multiply,
    int(VecOp.DIV): np.divide,
    int(VecOp.MIN): np.minimum,
    int(VecOp.MAX): np.maximum,
}

#: Opcodes whose block-clock cost depends on a register (vector length).
VECTOR_OPS = frozenset(
    {Op.VMOV, Op.VFILL, Op.VBIN, Op.VBINS, Op.VAXPY, Op.VRED}
)

#: Insn field naming the element count for each vector opcode (VRED
#: uses r3 when the sub-opcode is DOT).
VECTOR_LEN_FIELD = {
    Op.VMOV: "r3",
    Op.VFILL: "r2",
    Op.VBIN: "r4",
    Op.VBINS: "r3",
    Op.VAXPY: "r4",
    Op.VRED: "r2",
}

#: Opcodes that can raise a simulated fault partway through execution
#: (a corrupted VBIN/VBINS/VRED sub-opcode is SIGILL).  The translator
#: plants exact machine state (eip, partial clock/retirement) before
#: each of these.
CAN_RAISE = frozenset(
    {
        Op.HLT,
        Op.LOAD,
        Op.STORE,
        Op.PUSH,
        Op.POP,
        Op.IDIV,
        Op.IREM,
        Op.CALL,
        Op.CALLR,
        Op.RET,
        Op.FLD,
        Op.FST,
        Op.FSTP,
    }
    | VECTOR_OPS
)


def vector_len_reg(insn: Insn) -> int:
    """Register index (masked to the 8 GPRs) holding the element count
    of a vector instruction."""
    field = VECTOR_LEN_FIELD[insn.op]
    if insn.op is Op.VRED and insn.subop == RedOp.DOT:
        field = "r3"
    return getattr(insn, field) & 7


#: Interpreter dispatch: every defined opcode has exactly one entry.
EXEC = {
    Op.NOP: _nop,
    Op.HLT: _hlt,
    Op.MOVI: _movi,
    Op.MOV: _mov,
    Op.LOAD: _load,
    Op.STORE: _store,
    Op.LEA: _lea,
    Op.PUSH: _push,
    Op.POP: _pop,
    Op.ADD: _add,
    Op.SUB: _sub,
    Op.IMUL: _imul,
    Op.IDIV: _idiv,
    Op.IREM: _irem,
    Op.AND: _and,
    Op.OR: _or,
    Op.XOR: _xor,
    Op.SHL: _shl,
    Op.SHR: _shr,
    Op.ADDI: _addi,
    Op.CMP: _cmp,
    Op.CMPI: _cmpi,
    Op.NEG: _neg,
    Op.JMP: _jmp,
    Op.JZ: _jz,
    Op.JNZ: _jnz,
    Op.JL: _jl,
    Op.JGE: _jge,
    Op.JG: _jg,
    Op.JLE: _jle,
    Op.CALL: _call,
    Op.CALLR: _callr,
    Op.RET: _ret,
    Op.FLD: _fld,
    Op.FST: _fst,
    Op.FSTP: _fstp,
    Op.FLDZ: _fldz,
    Op.FLD1: _fld1,
    Op.FLDIMM: _fldimm,
    Op.FADDP: _faddp,
    Op.FSUBP: _fsubp,
    Op.FMULP: _fmulp,
    Op.FDIVP: _fdivp,
    Op.FCHS: _fchs,
    Op.FABS: _fabs,
    Op.FSQRT: _fsqrt,
    Op.FXCH: _fxch,
    Op.FCOMIP: _fcomip,
    Op.FDUP: _fdup,
    Op.FPOP: _fpop,
    Op.VMOV: _vmov,
    Op.VFILL: _vfill,
    Op.VBIN: _vbin,
    Op.VBINS: _vbins,
    Op.VAXPY: _vaxpy,
    Op.VRED: _vred,
}

assert set(EXEC) == set(Op), "every opcode needs a semantic function"
