"""Loop-bound analysis: which fault sites can stall a kernel?

The paper's hang manifestation is an execution that exceeds its time
budget without crashing - in this suite, tripping the
:mod:`repro.engine.budgets` block or round limits.  Statistically the
cheapest way to get there is corrupting loop-termination state: the
counter register, its increment, its bound, or the back-edge branch
itself.  This module finds those sites from the CFG alone.

Two refinements keep the stratum honest:

* a counter that also *indexes memory* does not hang when corrupted -
  the very next iteration dereferences the corrupted value and faults.
  Those counters are handed to the interval/crash analysis instead
  (the ``memory_indexed`` set), matching the empirical behaviour of the
  suite's kernels, whose row counters feed address arithmetic;
* raising a loop bound only hangs if the *extra iterations* exceed the
  block budget; :func:`hang_bit_floor` converts the engine's budget
  into the minimum bit position worth flagging, so low immediate bits
  (bound 100 -> 101) stay out of the stratum.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu import semantics
from repro.cpu.isa import BRANCH_OPS, Insn, Op
from repro.staticanalysis.cfg import ControlFlowGraph

#: Sign bit of the 32-bit immediate: flipping it negates (well, offsets
#: by 2^31) an increment or bound, which for an up-counting loop means
#: the exit test never fires.
_SIGN_BIT = 31


def hang_bit_floor(block_limit: int) -> int:
    """Minimum immediate bit ``k`` such that adding ``2^k`` iterations
    to a loop bound must exceed ``block_limit`` executed blocks, under
    the conservative assumption of one block per iteration."""
    if block_limit <= 0:
        raise ValueError(f"block limit must be positive: {block_limit}")
    return max(0, (block_limit - 1).bit_length())


@dataclass(frozen=True)
class Loop:
    """One natural loop of a kernel CFG."""

    header: int
    tail: int
    body: frozenset[int]
    depth: int
    #: Counter registers incremented in the body and tested by the
    #: loop-controlling comparison, split by whether they also feed
    #: address computations inside the body.
    pure_counters: frozenset[int]
    memory_indexed_counters: frozenset[int]
    #: Instruction indices of loop-control state in the text image.
    bound_cmp_insns: frozenset[int]
    increment_insns: frozenset[int]
    control_branch_insns: frozenset[int]
    #: True when iteration ends on an exact-match test (JZ/JNZ): a
    #: corrupted counter that skips past the bound then never equals it
    #: again, so the loop wraps the full u32 range - the one counter
    #: corruption that hangs rather than merely re-running a bounded
    #: number of iterations.
    exact_exit: bool = False

    @property
    def counters(self) -> frozenset[int]:
        return self.pure_counters | self.memory_indexed_counters


class HangAnalysis:
    """Natural-loop and counter analysis of one kernel CFG."""

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        self.loops: list[Loop] = self._find_loops()

    # ------------------------------------------------------------------
    def _natural_loop_body(self, tail: int, header: int) -> frozenset[int]:
        """Blocks of the natural loop of back edge ``tail -> header``."""
        body = {header, tail}
        work = [tail]
        while work:
            b = work.pop()
            if b == header:
                continue
            for p in self.cfg.blocks[b].preds:
                if p not in body:
                    body.add(p)
                    work.append(p)
        return frozenset(body)

    def _address_regs(self, insn_ids: list[int]) -> frozenset[int]:
        """Registers feeding memory addresses within the loop body,
        closed under data flow inside the body (a reg copied into an
        address base is itself address-feeding)."""
        addr: set[int] = set()
        for i in insn_ids:
            for acc in semantics.memory_accesses(self.cfg.insns[i]):
                addr.add(acc.base & 7)
        changed = True
        while changed:
            changed = False
            for i in insn_ids:
                eff = semantics.effects(self.cfg.insns[i])
                if eff.writes & addr:
                    grown = eff.reads - addr
                    if grown:
                        addr |= grown
                        changed = True
        return frozenset(addr)

    def _find_loops(self) -> list[Loop]:
        cfg = self.cfg
        dom = cfg.dominators()
        loops: list[Loop] = []
        for block in cfg.blocks:
            for succ in block.succs:
                if succ not in dom[block.index]:
                    continue
                header, tail = succ, block.index
                body = self._natural_loop_body(tail, header)
                insn_ids = [
                    i for b in sorted(body)
                    for i in cfg.blocks[b].insn_indices()
                ]
                loops.append(self._analyze_loop(header, tail, body, insn_ids))
        loops.sort(key=lambda lp: (lp.header, lp.tail))
        return loops

    def _analyze_loop(
        self,
        header: int,
        tail: int,
        body: frozenset[int],
        insn_ids: list[int],
    ) -> Loop:
        cfg = self.cfg

        # 1. conditional branches that decide whether iteration continues:
        #    the back-edge branch itself plus any in-body conditional
        #    branch with a successor outside the body (a loop exit).
        control: set[int] = set()
        comparisons: dict[int, tuple[int, Insn]] = {}
        for b in sorted(body):
            block = cfg.blocks[b]
            last = block.end - 1
            insn = cfg.insns[last]
            is_back_edge = b == tail and header in block.succs
            exits = any(s not in body for s in block.succs)
            if insn.op in semantics.COND_BRANCH_OPS and (is_back_edge or exits):
                # The flag producer is the nearest preceding CMP/CMPI in
                # the same block (flags survive only within one block in
                # the kernels' codegen).
                control.add(last)
                for j in range(last - 1, block.start - 1, -1):
                    if cfg.insns[j].op in (Op.CMP, Op.CMPI):
                        comparisons[last] = (j, cfg.insns[j])
                        break

        # 2. registers tested by a loop-controlling comparison.
        tested: set[int] = set()
        bound_cmps: set[int] = set()
        for branch in control:
            if branch not in comparisons:
                continue
            cmp_idx, cmp_insn = comparisons[branch]
            tested.add(cmp_insn.r1 & 7)
            if cmp_insn.op is Op.CMP:
                tested.add(cmp_insn.r2 & 7)
            bound_cmps.add(cmp_idx)

        # 3. counters: tested registers stepped in the body.  ADDI is
        # the immediate-step form (its imm is a steerable text site);
        # ADD/SUB self-updates are variable-step counters (the vector
        # kernels' remaining-count pattern: ``sub ecx, eax``).
        increments: set[int] = set()
        counters: set[int] = set()
        for i in insn_ids:
            insn = cfg.insns[i]
            if (insn.r1 & 7) not in tested:
                continue
            if insn.op is Op.ADDI and insn.imm != 0:
                counters.add(insn.r1 & 7)
                increments.add(i)
            elif insn.op in (Op.ADD, Op.SUB):
                counters.add(insn.r1 & 7)

        addr_regs = self._address_regs(insn_ids)
        memory_indexed = frozenset(counters & addr_regs)
        exact = any(
            cfg.insns[b].op in (Op.JZ, Op.JNZ) for b in control
        )
        return Loop(
            header=header,
            tail=tail,
            body=body,
            depth=cfg.blocks[header].loop_depth,
            pure_counters=frozenset(counters - addr_regs),
            memory_indexed_counters=memory_indexed,
            bound_cmp_insns=frozenset(bound_cmps),
            increment_insns=frozenset(increments),
            control_branch_insns=frozenset(control),
            exact_exit=exact,
        )

    # ------------------------------------------------------------------
    # register-level summary
    # ------------------------------------------------------------------
    def pure_counter_regs(self) -> frozenset[int]:
        """Registers acting as a pure (non-address) loop counter in at
        least one loop and never indexing memory in any loop - the
        register stratum where a flip stalls rather than crashes."""
        pure: set[int] = set()
        indexed: set[int] = set()
        for loop in self.loops:
            pure |= loop.pure_counters
            indexed |= loop.memory_indexed_counters
        return frozenset(pure - indexed)

    # ------------------------------------------------------------------
    # text-level summary
    # ------------------------------------------------------------------
    def hang_prone_text_bits(self, block_limit: int) -> frozenset[tuple[int, int]]:
        """(insn_index, bit) pairs in the text image whose flip is
        predicted to stall the kernel past ``block_limit`` blocks.

        Three mechanisms, all on loop-control instructions:

        * back-edge/exit **branch** opcode flips that decode to another
          branch (condition inversion or JMP: iteration decision breaks
          while control stays inside the function);
        * **bound** (CMPI) immediate bits that are currently 0 at or
          above :func:`hang_bit_floor` - setting one adds at least
          ``2^k >= block_limit`` iterations - plus the sign bit;
        * **increment** (ADDI) immediate flips that zero the step
          (``imm == 2^k``) or flip its sign.
        """
        floor = hang_bit_floor(block_limit)
        out: set[tuple[int, int]] = set()
        for loop in self.loops:
            for i in loop.control_branch_insns:
                op = int(self.cfg.insns[i].op)
                for b in range(8):
                    flipped = op ^ (1 << b)
                    try:
                        if Op(flipped) in BRANCH_OPS:
                            out.add((i, b))
                    except ValueError:
                        continue  # undefined opcode: crash, not hang
            for i in loop.bound_cmp_insns:
                insn = self.cfg.insns[i]
                if insn.op is not Op.CMPI:
                    continue  # register-register bound: no immediate to flip
                imm = insn.imm & 0xFFFF_FFFF
                for k in range(floor, 31):
                    if not imm & (1 << k):
                        out.add((i, 32 + k))
                out.add((i, 32 + _SIGN_BIT))
            for i in loop.increment_insns:
                imm = self.cfg.insns[i].imm & 0xFFFF_FFFF
                for k in range(32):
                    if imm == (1 << k):
                        out.add((i, 32 + k))
                out.add((i, 32 + _SIGN_BIT))
        return frozenset(out)


__all__ = ["HangAnalysis", "Loop", "hang_bit_floor"]
