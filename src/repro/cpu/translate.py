"""Block translation on first entry: the fast half of the dual-mode VM.

ZOFI-style architecture (PAPERS.md, arXiv:1906.09390): run free of
per-instruction instrumentation wherever no observer can see
intermediate state, and fall back to the interpreter exactly where one
can.  Each *translation unit* — a straight-line instruction run inside
one CFG basic block — compiles once into a specialized Python function
that replays the interpreter's observable effects bit for bit:

* register values **and** access counters (they feed the section-6.1.1
  liveness statistics and checkpoint digests), flags, FPU state
  including the status-word side effects of empty-slot reads, memory
  through the same checked :class:`AddressSpace` paths;
* ``blocks_executed`` and ``instructions_retired`` accounting — the
  unit's block-clock cost is precomputed from entry-time register
  values, which is sound because a unit is split before any vector
  instruction whose length register was written earlier in the unit;
* on a mid-unit fault: the exception type and message, ``eip``, and
  the partial cost/retirement of the completed prefix.

Unit boundaries come from the PR 1 CFG (:mod:`repro.staticanalysis.cfg`)
plus three split rules on top of basic blocks: after CALL/CALLR
(control leaves the block even though the CFG keeps building through
calls), before a vector instruction with a dynamic entry cost (see
above — the split makes it the *first* instruction of its unit, where
entry-time cost is exact again), and before an instruction the
translator cannot reproduce (a corrupted VBIN/VBINS/VRED sub-opcode,
whose SIGILL — raised after the operand views, so their SIGSEGVs come
first — is left to the interpreter).

Every generated unit takes the caller's *budget*: the distance (in
blocks) to the nearest observer horizon — the next ``schedule_hook``
or the hang budget.  A unit whose total cost would reach the horizon
refuses to run (returns True) before touching any state; the dispatch
loop then interprets instruction by instruction, so hooks fire and
``HangDetected`` raises at exactly the same instruction boundary as a
pure interpreter run.

The VM translates one linked text object at a time, the first time
execution enters it (:meth:`repro.cpu.vm.VM._run_fast`), so code that
never runs is never compiled.  A text flip only empties the VM's
dispatch table; the flipped object recompiles against its corrupted
bytes only if it runs again.  Translations are cached per ``(code
digest, base address)``, so every rank, trial and campaign wave sharing
a program shares one compile of each pristine object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cpu import ops, semantics
from repro.cpu.decoder import code_digest, decode_stream, try_decode_stream
from repro.cpu.isa import INSN_SIZE, Insn, Op, RedOp, UndefinedOpcode
from repro.errors import SimFPE, SimSegfault

_M = 0xFFFF_FFFF

#: Conditional branches (they read flags; JMP does not).
_COND_BRANCHES = frozenset(
    {Op.JZ, Op.JNZ, Op.JL, Op.JGE, Op.JG, Op.JLE}
)

#: Flag-writing opcodes (the dead-flag elimination authority is
#: :mod:`repro.cpu.semantics`; mirrored here as a set for speed).
_FLAG_WRITERS = frozenset(
    {
        Op.ADD, Op.SUB, Op.IMUL, Op.IDIV, Op.IREM, Op.AND, Op.OR,
        Op.XOR, Op.SHL, Op.SHR, Op.ADDI, Op.CMP, Op.CMPI, Op.NEG,
        Op.FCOMIP,
    }
)

_REDOPS = frozenset(int(r) for r in RedOp)

_VRED_APPLY_SRC = {
    int(RedOp.SUM): "fpu.push(float(np.sum(a)))",
    int(RedOp.MIN): "fpu.push(float(np.min(a)) if n else math.nan)",
    int(RedOp.MAX): "fpu.push(float(np.max(a)) if n else math.nan)",
    int(RedOp.NANCOUNT): "fpu.push(float(np.count_nonzero(~np.isfinite(a))))",
    int(RedOp.SUMSQ): "fpu.push(float(np.dot(a, a)))",
}


#: Globals bound into every generated module.
_GLOBALS = {
    "S": ops.signed,
    "M": _M,
    "math": math,
    "np": np,
    "SimFPE": SimFPE,
    "SimSegfault": SimSegfault,
}
_GLOBALS.update({f"uf{k}": fn for k, fn in ops.VBIN_UFUNC.items()})


def translatable_subop(insn: Insn) -> bool:
    """Whether the translator can reproduce this instruction's
    sub-opcode (corrupted ones are left to the interpreter so their
    exact failure mode is preserved)."""
    if insn.op in (Op.VBIN, Op.VBINS):
        return insn.subop in ops.VBIN_UFUNC
    if insn.op is Op.VRED:
        return insn.subop in _REDOPS
    return True


# ----------------------------------------------------------------------
# unit planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitPlan:
    """One translation unit: instruction indices [start, end) and why
    the unit ends there."""

    start: int
    end: int
    #: "terminator" (branch/RET/HLT sets eip), "call" (CALL/CALLR),
    #: "fallthrough" (block boundary), "cost_split" (next insn has a
    #: dynamic vector cost), "invalid_next" (next insn untranslatable).
    end_kind: str


@dataclass(frozen=True)
class FunctionPlan:
    name: str
    n_insns: int
    n_blocks: int
    units: tuple[UnitPlan, ...]
    #: (insn index, reason) of instructions left to the interpreter.
    skipped: tuple[tuple[int, str], ...]
    cost_splits: int
    call_splits: int
    #: Function-level reason nothing was translated (None = translated).
    reason: str | None = None

    @property
    def translated_insns(self) -> int:
        return sum(u.end - u.start for u in self.units)


def plan_function(name: str, insns, cfg) -> FunctionPlan:
    """Split a function's basic blocks into translation units."""
    units: list[UnitPlan] = []
    skipped: list[tuple[int, str]] = []
    cost_splits = call_splits = 0
    for block in cfg.blocks:
        start = block.start
        written: set[int] = set()
        j = block.start
        while j < block.end:
            insn = insns[j]
            if insn.op in ops.VECTOR_OPS:
                if not translatable_subop(insn):
                    if j > start:
                        units.append(UnitPlan(start, j, "invalid_next"))
                    skipped.append((j, "invalid_subop"))
                    j += 1
                    start = j
                    written = set()
                    continue
                if ops.vector_len_reg(insn) in written:
                    # Entry-time cost would be stale: start a new unit
                    # at the vector insn, where entry regs are exact.
                    units.append(UnitPlan(start, j, "cost_split"))
                    cost_splits += 1
                    start = j
                    written = set()
            written |= semantics.effects(insn).writes
            if insn.op in (Op.CALL, Op.CALLR):
                units.append(UnitPlan(start, j + 1, "call"))
                call_splits += 1
                start = j + 1
                written = set()
            j += 1
        if start < block.end:
            last = insns[block.end - 1]
            kind = (
                "terminator" if semantics.is_terminator(last) else "fallthrough"
            )
            units.append(UnitPlan(start, block.end, kind))
    return FunctionPlan(
        name=name,
        n_insns=len(insns),
        n_blocks=len(cfg.blocks),
        units=tuple(units),
        skipped=tuple(skipped),
        cost_splits=cost_splits,
        call_splits=call_splits,
    )


# ----------------------------------------------------------------------
# code generation
# ----------------------------------------------------------------------
class _Emitter:
    """Accumulates generated lines; batches register-access counter
    increments between observation points (any point where a fault can
    surface machine state) so the hot path stays short."""

    def __init__(self, indent: int) -> None:
        self.lines: list[str] = []
        self.indent = indent
        self._pending: dict[tuple[str, int], int] = {}

    def line(self, s: str) -> None:
        self.lines.append("    " * self.indent + s)

    def r(self, k: int, n: int = 1) -> None:
        self._pending[("rc", k)] = self._pending.get(("rc", k), 0) + n

    def w(self, k: int, n: int = 1) -> None:
        self._pending[("wc", k)] = self._pending.get(("wc", k), 0) + n

    def flush(self) -> None:
        for arr, k in sorted(self._pending):
            self.line(f"{arr}[{k}] += {self._pending[(arr, k)]}")
        self._pending.clear()


def _addr_expr(k: int, imm: int) -> str:
    return f"rr[{k}]" if imm == 0 else f"(rr[{k}] + {imm}) & M"


def _flag_liveness(body) -> list[bool]:
    """Backward pass: a flag write may be skipped iff no conditional
    branch, fault point or unit end can observe it before the next
    write."""
    live = [False] * len(body)
    observed = True  # flags at unit end are observable state
    for j in range(len(body) - 1, -1, -1):
        op = body[j].op
        if op in _FLAG_WRITERS:
            live[j] = observed
            observed = False
        if op in _COND_BRANCHES or op in ops.CAN_RAISE:
            observed = True
    return live


def _cost_expr(n_scalar: int, cost_vars: list[str]) -> str:
    """Block-clock cost as a source expression, folding repeated cost
    variables (``3 + 2*c1`` instead of ``3 + c1 + c1``)."""
    counts: dict[str, int] = {}
    for v in cost_vars:
        counts[v] = counts.get(v, 0) + 1
    terms = [str(n_scalar)] + [
        v if c == 1 else f"{c}*{v}" for v, c in counts.items()
    ]
    return " + ".join(terms)


_ALU2_SIGNED = {Op.ADD: "+", Op.SUB: "-", Op.IMUL: "*"}
_ALU2_BITWISE = {Op.AND: "&", Op.OR: "|", Op.XOR: "^"}


def _gen_unit(fname: str, insns, unit: UnitPlan, base: int) -> list[str]:
    body = insns[unit.start : unit.end]
    n = len(body)
    flags_live = _flag_liveness(body)
    can_raise = any(i.op in ops.CAN_RAISE for i in body)

    header = [
        f"def {fname}(vm, regs, rr, rc, wc, space, fpu, clock, budget):"
    ]
    # One cost variable per *distinct* length register: the planner's
    # cost_split rule guarantees no earlier unit instruction writes a
    # later vector insn's length register, so every vector insn reading
    # the same register sees the same entry-time value.
    cost_vars: list[str] = []
    seen_lenregs: set[int] = set()
    for i in body:
        if i.op in ops.VECTOR_OPS:
            reg = ops.vector_len_reg(i)
            cost_vars.append(f"c{reg}")
            if reg not in seen_lenregs:
                seen_lenregs.add(reg)
                header.append(f"    c{reg} = rr[{reg}] >> 3 or 1")
    n_scalar = n - len(cost_vars)
    total = _cost_expr(n_scalar, cost_vars)
    if cost_vars:
        header.append(f"    _t = {total}")
        total = "_t"
        # Monomorphic view lookup: the fast path never runs with
        # working-set tracking enabled (the dispatch gate forces the
        # interpreter), so a cache hit can skip vector_f64 entirely.
        # Misses fall through to the full checked path, raising exactly
        # like the interpreter would.
        header.append("    _vg = space._vec_cache.get")
    header.append(f"    if {total} > budget:")
    header.append("        return True")
    if can_raise:
        header.append("    _st = (0, 0)")
        header.append("    try:")

    em = _Emitter(indent=2 if can_raise else 1)
    ns_done = 0  # scalar instructions emitted so far
    cv_done: list[str] = []  # cost vars of vector insns emitted so far

    def barrier(j: int, addr: int) -> None:
        """Fault point: flush counters, plant the completed-prefix
        accounting and the faulting instruction's post-fetch eip."""
        em.flush()
        em.line(f"_st = ({j}, {_cost_expr(ns_done, cv_done)})")
        em.line(f"regs.eip = {addr + INSN_SIZE}")

    for j, i in enumerate(body):
        addr = base + INSN_SIZE * (unit.start + j)
        _emit_insn(em, i, j, addr, flags_live[j], barrier)
        if i.op in ops.VECTOR_OPS:
            cv_done.append(f"c{ops.vector_len_reg(i)}")
        else:
            ns_done += 1

    tail: list[str] = []
    if can_raise:
        tail += [
            "    except BaseException:",
            "        vm.instructions_retired += _st[0]",
            "        clock.blocks += _st[1]",
            "        raise",
        ]
    closing = _Emitter(indent=1)
    closing._pending = em._pending
    em._pending = {}
    closing.flush()
    closing.line(f"vm.instructions_retired += {n}")
    closing.line(f"clock.blocks += {total}")
    if unit.end_kind in ("fallthrough", "cost_split", "invalid_next"):
        closing.line(f"regs.eip = {base + INSN_SIZE * unit.end}")
    return header + em.lines + tail + closing.lines


def _vec_view(em, var: str, reg: int, write: bool = False) -> None:
    """Emit a float64 view fetch through the unit-local cache getter
    (``_vg``); misses take the full checked ``vector_f64`` path."""
    flag = "True" if write else "False"
    em.line(f"_h = _vg((rr[{reg}], n, {flag}))")
    em.line(
        f"{var} = _h[1] if _h is not None else "
        f"space.vector_f64(rr[{reg}], n{', True' if write else ''})"
    )


def _emit_insn(em, i: Insn, j: int, addr: int, flags_live: bool, barrier):
    op = i.op
    k1, k2, k3, k4 = i.r1 & 7, i.r2 & 7, i.r3 & 7, i.r4 & 7

    def flags(expr: str) -> None:
        """Flags of a plain signed Python int (IDIV/IREM quotients)."""
        if flags_live:
            em.line(f"s = {expr}")
            em.line("regs.zf = s == 0")
            em.line("regs.sf = s < 0")

    def flags_masked(var: str) -> None:
        """Flags of a 32-bit masked result: ``signed(r) == 0`` iff
        ``r == 0`` and ``signed(r) < 0`` iff the sign bit is set, so no
        signed conversion is needed on the hot ALU path."""
        if flags_live:
            em.line(f"regs.zf = {var} == 0")
            em.line(f"regs.sf = {var} >= 2147483648")

    if op is Op.NOP:
        pass
    elif op is Op.HLT:
        barrier(j, addr)
        em.line(
            f'raise SimSegfault("privileged instruction at 0x{addr:08x}")'
        )

    # -------------------------------------------------- data movement
    elif op is Op.MOVI:
        em.w(k1)
        em.line(f"rr[{k1}] = {i.imm & _M}")
    elif op is Op.MOV:
        em.r(k2)
        em.w(k1)
        em.line(f"rr[{k1}] = rr[{k2}]")
    elif op is Op.LOAD:
        em.r(k2)
        barrier(j, addr)
        em.line(f"v = space.load_u32({_addr_expr(k2, i.imm)})")
        em.w(k1)
        em.line(f"rr[{k1}] = v")
    elif op is Op.STORE:
        em.r(k1)
        em.r(k2)
        barrier(j, addr)
        em.line(f"space.store_u32({_addr_expr(k1, i.imm)}, rr[{k2}])")
    elif op is Op.LEA:
        em.r(k2)
        em.w(k1)
        em.line(f"rr[{k1}] = {_addr_expr(k2, i.imm)}")
    elif op is Op.PUSH:
        # value is read before ESP moves (PUSH ESP pushes the old ESP)
        em.r(k1)
        em.r(4)
        em.w(4)
        barrier(j, addr)
        em.line(f"v = rr[{k1}]")
        em.line("e = (rr[4] - 4) & M")
        em.line("rr[4] = e")
        em.line("space.store_u32(e, v)")
    elif op is Op.POP:
        em.r(4)
        barrier(j, addr)
        em.line("e = rr[4]")
        em.line("v = space.load_u32(e)")
        em.w(4)
        em.w(k1)
        em.line("rr[4] = (e + 4) & M")
        em.line(f"rr[{k1}] = v")

    # -------------------------------------------------- integer ALU
    elif op in _ALU2_SIGNED:
        # Two's-complement identity: (signed(a) op signed(b)) & M equals
        # (a op b) & M for +, - and *, so the unsigned register words
        # feed the ALU directly.
        em.r(k1)
        em.r(k2)
        em.w(k1)
        em.line(f"r = (rr[{k1}] {_ALU2_SIGNED[op]} rr[{k2}]) & M")
        em.line(f"rr[{k1}] = r")
        flags_masked("r")
    elif op in (Op.IDIV, Op.IREM):
        em.r(k2)
        barrier(j, addr)
        em.line(f"b = S(rr[{k2}])")
        em.line("if b == 0:")
        em.line("    raise SimFPE('integer division by zero')")
        em.r(k1)
        em.w(k1)
        em.line(f"a = S(rr[{k1}])")
        if op is Op.IDIV:
            em.line("q = int(math.trunc(a / b))")
            em.line(f"rr[{k1}] = q & M")
            flags("q")
        else:
            em.line("q = a - int(math.trunc(a / b)) * b")
            em.line(f"rr[{k1}] = q & M")
            flags("q")
    elif op in _ALU2_BITWISE:
        em.r(k1)
        em.r(k2)
        em.w(k1)
        em.line(f"r = rr[{k1}] {_ALU2_BITWISE[op]} rr[{k2}]")
        em.line(f"rr[{k1}] = r")
        flags_masked("r")
    elif op is Op.SHL:
        em.r(k1)
        em.w(k1)
        em.line(f"r = (rr[{k1}] << {i.imm & 31}) & M")
        em.line(f"rr[{k1}] = r")
        flags_masked("r")
    elif op is Op.SHR:
        em.r(k1)
        em.w(k1)
        em.line(f"r = rr[{k1}] >> {i.imm & 31}")
        em.line(f"rr[{k1}] = r")
        flags_masked("r")
    elif op is Op.ADDI:
        em.r(k1)
        em.w(k1)
        em.line(f"r = (rr[{k1}] + {i.imm}) & M")
        em.line(f"rr[{k1}] = r")
        flags_masked("r")
    elif op is Op.CMP:
        # zf compares the raw words; sf needs a true signed compare
        # (the difference is computed in unbounded ints, so it cannot
        # be reduced to a masked sign bit).
        em.r(k1)
        em.r(k2)
        if flags_live:
            em.line(f"a = rr[{k1}]")
            em.line(f"b = rr[{k2}]")
            em.line("regs.zf = a == b")
            em.line(
                "regs.sf = (a - 4294967296 if a >= 2147483648 else a)"
                " < (b - 4294967296 if b >= 2147483648 else b)"
            )
    elif op is Op.CMPI:
        em.r(k1)
        if flags_live:
            em.line(f"a = rr[{k1}]")
            em.line(f"regs.zf = a == {i.imm & _M}")
            em.line(
                f"regs.sf = (a - 4294967296 if a >= 2147483648 else a)"
                f" < {i.imm}"
            )
    elif op is Op.NEG:
        em.r(k1)
        em.w(k1)
        em.line(f"r = (-rr[{k1}]) & M")
        em.line(f"rr[{k1}] = r")
        flags_masked("r")

    # -------------------------------------------------- control flow
    elif op in (Op.JMP, *_COND_BRANCHES):
        taken = (addr + INSN_SIZE + i.imm) & _M
        fall = addr + INSN_SIZE
        if op is Op.JMP:
            em.line(f"regs.eip = {taken}")
        elif op is Op.JZ:
            em.line(f"regs.eip = {taken} if regs.zf else {fall}")
        elif op is Op.JNZ:
            em.line(f"regs.eip = {fall} if regs.zf else {taken}")
        elif op is Op.JL:
            em.line(f"regs.eip = {taken} if regs.sf else {fall}")
        elif op is Op.JGE:
            em.line(f"regs.eip = {fall} if regs.sf else {taken}")
        elif op is Op.JG:
            em.line(
                f"regs.eip = {fall} if (regs.sf or regs.zf) else {taken}"
            )
        else:  # JLE
            em.line(
                f"regs.eip = {taken} if (regs.sf or regs.zf) else {fall}"
            )
    elif op is Op.CALL:
        em.r(4)
        em.w(4)
        barrier(j, addr)
        em.line("e = (rr[4] - 4) & M")
        em.line("rr[4] = e")
        em.line(f"space.store_u32(e, {addr + INSN_SIZE})")
        em.line(f"regs.eip = {i.imm & _M}")
    elif op is Op.CALLR:
        em.r(4)
        em.w(4)
        barrier(j, addr)
        em.line("e = (rr[4] - 4) & M")
        em.line("rr[4] = e")
        em.line(f"space.store_u32(e, {addr + INSN_SIZE})")
        em.r(k1)
        em.line(f"regs.eip = rr[{k1}]")
    elif op is Op.RET:
        em.r(4)
        barrier(j, addr)
        em.line("e = rr[4]")
        em.line("v = space.load_u32(e)")
        em.w(4)
        em.line("rr[4] = (e + 4) & M")
        em.line("regs.eip = v")

    # -------------------------------------------------- x87 FPU
    elif op is Op.FLD:
        em.r(k1)
        barrier(j, addr)
        em.line(f"fpu.push(space.load_f64({_addr_expr(k1, i.imm)}))")
    elif op in (Op.FST, Op.FSTP):
        em.r(k1)
        barrier(j, addr)
        em.line(
            f"space.store_f64({_addr_expr(k1, i.imm)}, "
            f"fpu.to_double(fpu.read_st(0)))"
        )
        if op is Op.FSTP:
            em.line("fpu.pop()")
    elif op is Op.FLDZ:
        em.line("fpu.push(0.0)")
    elif op is Op.FLD1:
        em.line("fpu.push(1.0)")
    elif op is Op.FLDIMM:
        em.line(f"fpu.push({float(i.imm)!r})")
    elif op in (Op.FADDP, Op.FSUBP, Op.FMULP):
        sym = {Op.FADDP: "+", Op.FSUBP: "-", Op.FMULP: "*"}[op]
        em.line("b = fpu.pop()")
        em.line("a = fpu.pop()")
        em.line(f"fpu.push(a {sym} b)")
    elif op is Op.FDIVP:
        em.line("b = fpu.pop()")
        em.line("a = fpu.pop()")
        em.line("if b == 0.0:")
        em.line(
            "    fpu.push(math.nan if a == 0.0 or math.isnan(a) else "
            "math.copysign(math.inf, a) * math.copysign(1.0, b))"
        )
        em.line("else:")
        em.line("    fpu.push(a / b)")
    elif op is Op.FCHS:
        em.line("fpu.write_st(0, -fpu.read_st(0))")
    elif op is Op.FABS:
        em.line("fpu.write_st(0, abs(fpu.read_st(0)))")
    elif op is Op.FSQRT:
        em.line("v = fpu.read_st(0)")
        em.line("fpu.write_st(0, math.sqrt(v) if v >= 0.0 else math.nan)")
    elif op is Op.FXCH:
        em.line(f"fpu.exchange({i.r1})")
    elif op is Op.FCOMIP:
        em.line("a, b = fpu.read_st(0), fpu.read_st(1)")
        if flags_live:
            em.line("if math.isnan(a) or math.isnan(b):")
            em.line("    regs.zf, regs.sf = True, False")
            em.line("else:")
            em.line("    regs.zf, regs.sf = (a == b), (a < b)")
        em.line("fpu.pop()")
    elif op is Op.FDUP:
        em.line("fpu.push(fpu.read_st(0))")
    elif op is Op.FPOP:
        em.line("fpu.pop()")

    # -------------------------------------------------- vector unit
    # No per-insn ``np.errstate`` here: the dispatch loop holds one
    # ``errstate(all="ignore")`` across the whole fast run, which is
    # observationally identical to the interpreter's per-op scope (the
    # policy only suppresses NumPy warnings; values are unaffected).
    elif op is Op.VMOV:
        em.r(k3)
        em.r(k2)
        barrier(j, addr)
        em.line(f"n = rr[{k3}]")
        _vec_view(em, "src", k2)
        em.line(f"rc[{k1}] += 1")
        _vec_view(em, "dst", k1, write=True)
        em.line("np.copyto(dst, src)")
    elif op is Op.VFILL:
        em.r(k2)
        em.r(k1)
        barrier(j, addr)
        em.line(f"n = rr[{k2}]")
        _vec_view(em, "dst", k1, write=True)
        em.line("dst.fill(fpu.to_double(fpu.read_st(0)))")
    elif op is Op.VBIN:
        em.r(k4)
        em.r(k2)
        barrier(j, addr)
        em.line(f"n = rr[{k4}]")
        _vec_view(em, "a", k2)
        em.line(f"rc[{k3}] += 1")
        # Same source register twice: the second view lookup would hit
        # the same cache entry, so alias it (raise behavior identical).
        if k3 == k2:
            em.line("b = a")
        else:
            _vec_view(em, "b", k3)
        em.line(f"rc[{k1}] += 1")
        _vec_view(em, "dst", k1, write=True)
        em.line(f"uf{i.subop}(a, b, out=dst)")
    elif op is Op.VBINS:
        em.r(k3)
        em.r(k2)
        barrier(j, addr)
        em.line(f"n = rr[{k3}]")
        _vec_view(em, "a", k2)
        em.line(f"rc[{k1}] += 1")
        _vec_view(em, "dst", k1, write=True)
        em.line("s = fpu.to_double(fpu.read_st(0))")
        em.line(f"uf{i.subop}(a, s, out=dst)")
    elif op is Op.VAXPY:
        em.r(k4)
        em.r(k2)
        barrier(j, addr)
        em.line(f"n = rr[{k4}]")
        _vec_view(em, "a", k2)
        em.line(f"rc[{k3}] += 1")
        if k3 == k2:
            em.line("b = a")
        else:
            _vec_view(em, "b", k3)
        em.line(f"rc[{k1}] += 1")
        _vec_view(em, "dst", k1, write=True)
        em.line("s = fpu.to_double(fpu.read_st(0))")
        em.line("np.add(a, s * b, out=dst)")
    elif op is Op.VRED:
        if i.subop == RedOp.DOT:
            em.r(k3)
            em.r(k1)
            barrier(j, addr)
            em.line(f"n = rr[{k3}]")
            _vec_view(em, "a", k1)
            em.line(f"rc[{k2}] += 1")
            if k2 == k1:
                em.line("b = a")
            else:
                _vec_view(em, "b", k2)
            em.line("fpu.push(float(np.dot(a, b)))")
        else:
            em.r(k2)
            em.r(k1)
            barrier(j, addr)
            em.line(f"n = rr[{k2}]")
            _vec_view(em, "a", k1)
            em.line(_VRED_APPLY_SRC[i.subop])
    else:  # pragma: no cover - the planner excludes everything else
        raise AssertionError(f"unplanned opcode {op!r}")


# ----------------------------------------------------------------------
# compilation + cache
# ----------------------------------------------------------------------
#: (code digest, base address) -> {entry addr: (unit fn, n insns)}.
_TRANSLATIONS: dict[tuple[bytes, int], dict] = {}


def translation_for(name: str, code: bytes, base: int) -> dict:
    """Translate one linked text object (already relocated) laid out at
    ``base``.  Returns ``{}`` for objects that cannot be translated as
    a whole (undecodable or misaligned); cached per content digest."""
    key = (code_digest(code), base)
    cached = _TRANSLATIONS.get(key)
    if cached is None:
        cached = _TRANSLATIONS[key] = _translate(name, code, base)
    return cached


def _translate(name: str, code: bytes, base: int) -> dict:
    from repro.staticanalysis.cfg import ControlFlowGraph

    if len(code) % INSN_SIZE or not code:
        return {}
    insns = try_decode_stream(bytes(code))
    if insns is None:
        return {}
    cfg = ControlFlowGraph.from_code(name, bytes(code))
    plan = plan_function(name, insns, cfg)
    return compile_plan(name, insns, plan, base)


def compile_plan(name: str, insns, plan: FunctionPlan, base: int) -> dict:
    """Compile every unit of a plan into its specialized function."""
    lines: list[str] = []
    for ui, unit in enumerate(plan.units):
        lines += _gen_unit(f"u{ui}", insns, unit, base)
    namespace = dict(_GLOBALS)
    exec(
        compile(
            "\n".join(lines), f"<fastpath:{name}@0x{base:08x}>", "exec"
        ),
        namespace,
    )
    return {
        base + INSN_SIZE * u.start: (namespace[f"u{ui}"], u.end - u.start)
        for ui, u in enumerate(plan.units)
    }


# ----------------------------------------------------------------------
# translatability audit (the `analyze --translate` emitter)
# ----------------------------------------------------------------------
def audit_function(fn) -> dict:
    """Static translatability report for one assembled function."""
    from repro.staticanalysis.cfg import ControlFlowGraph

    try:
        insns = decode_stream(bytes(fn.code))
    except (UndefinedOpcode, ValueError) as exc:
        return {
            "name": fn.name,
            "insns": len(fn.code) // INSN_SIZE,
            "blocks": 0,
            "units": 0,
            "translated_insns": 0,
            "interpreted_insns": len(fn.code) // INSN_SIZE,
            "cost_splits": 0,
            "call_splits": 0,
            "untranslatable": [],
            "reason": f"undecodable: {exc}",
        }
    cfg = ControlFlowGraph.from_function(fn)
    plan = plan_function(fn.name, insns, cfg)
    translated = plan.translated_insns
    return {
        "name": fn.name,
        "insns": plan.n_insns,
        "blocks": plan.n_blocks,
        "units": len(plan.units),
        "translated_insns": translated,
        "interpreted_insns": plan.n_insns - translated,
        "cost_splits": plan.cost_splits,
        "call_splits": plan.call_splits,
        "untranslatable": [
            {"index": idx, "reason": reason} for idx, reason in plan.skipped
        ],
        "reason": None,
    }
