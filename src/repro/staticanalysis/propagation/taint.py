"""Flow-sensitive taint analysis: the static propagation cone of a fault.

Given an injection site - "the value this instruction just wrote into
this register is corrupt" - the analysis computes every location the
corruption can subsequently reach: registers, the flags, the x87 stack,
and memory at symbol granularity.  The cone is the static counterpart
of the dynamic propagation timeline (:mod:`repro.observability.timeline`):
the timeline records where one injected trial actually went, the cone
bounds where *any* trial at that site could go.

Soundness contract
------------------
The analysis only ever **over**-taints: joins are unions, memory taint
is never killed, unknown pointers match every tainted memory region, and
a call instruction taints the return register, the x87 stack and memory
wholesale.  The one claim downstream consumers build on is therefore the
*negative* one - a cone with no escape is **provably masked**: no
execution from that site can alter the function's observable behaviour.
Everything that inflates the cone shrinks the set of provably-masked
sites, never the reverse.

Two analyses cooperate:

* a **may-points-to** pre-pass (computed once per function, reused by
  every site query) tracks which memory region each register can
  address: a linked symbol (``sym:<name>``, from ``$sym`` relocations),
  the hardware stack (``stackmem``, seeded into ESP/EBP), or an unknown
  region (``unk``, the result of any memory load);
* the **taint fixpoint** itself, seeded mid-block at the injection site
  and run to convergence over the same worklist engine the liveness and
  reaching-definitions passes use (:func:`repro.staticanalysis.dataflow.solve`).
  Its block walks go through memos that every query on one analysis
  shares, so sweeping all of a function's sites evaluates each distinct
  ``(taint state, instruction)`` step about once.

Escape conditions (any one makes the site not-masked):

* taint reaches any memory location (symbols, heap, stack, or the
  ``anymem`` wildcard a write through an unknown/tainted pointer
  produces) - memory outlives the cone's intraprocedural view;
* a conditional branch tests tainted flags (``branch``): past that
  point the *path* is corrupt and the cone is only a lower bound, so
  the site is a control-flow risk by definition;
* the return value (EAX), the x87 stack, or the flags are tainted when
  the function exits (``ret`` / ``x87`` / ``flags``) - the caller can
  observe them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu import semantics
from repro.cpu.assembler import AssembledFunction, assemble_function
from repro.cpu.isa import Insn, Op
from repro.cpu.registers import EAX, EBP, ESP, REG_NAMES
from repro.staticanalysis.cfg import ControlFlowGraph
from repro.staticanalysis.dataflow import solve

#: GPR count (register file masks indices with & 7).
_NREGS = 8

#: Pointer-mangling ops: the result may leave the operand's region.
_MANGLE_OPS = frozenset({Op.IMUL, Op.IDIV, Op.IREM, Op.SHL, Op.SHR, Op.NEG})

#: Pointer-preserving arithmetic (base + offset stays in the region).
_PRESERVE_OPS = frozenset({Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR})


def _is_mem_token(token: str) -> bool:
    return (
        token in ("heap", "stackmem", "anymem") or token.startswith("sym:")
    )


@dataclass(frozen=True)
class PropagationCone:
    """Everything a corrupted value can reach from one injection site."""

    function: str
    site: str
    #: Every taint token that held at any program point:
    #: ``reg:<i>``, ``flags``, ``x87``, ``sym:<name>``, ``heap``,
    #: ``stackmem``, ``anymem``, ``branch``, ``wild_read``, ``wild_store``.
    tainted: frozenset[str]
    #: Normalised escape tokens (``stackmem`` reported as ``stack``,
    #: EAX-at-exit as ``ret``).  Empty means provably masked.
    escapes: frozenset[str]

    @property
    def masked(self) -> bool:
        return not self.escapes

    @property
    def branch_tainted(self) -> bool:
        return "branch" in self.tainted

    @property
    def wild_store(self) -> bool:
        return "wild_store" in self.tainted

    @property
    def wild_read(self) -> bool:
        return "wild_read" in self.tainted

    @property
    def registers(self) -> tuple[str, ...]:
        """Names of GPRs ever tainted, in register-file order."""
        hit = {
            int(t.split(":", 1)[1])
            for t in self.tainted
            if t.startswith("reg:")
        }
        return tuple(REG_NAMES[i] for i in sorted(hit))

    @property
    def symbols(self) -> tuple[str, ...]:
        """Linked symbols whose memory the taint can reach."""
        return tuple(
            sorted(
                t.split(":", 1)[1]
                for t in self.tainted
                if t.startswith("sym:")
            )
        )

    @property
    def memory_tokens(self) -> frozenset[str]:
        """Escaped memory locations in the model grammar of
        :mod:`repro.staticanalysis.propagation.model` (``sym:<name>``,
        ``heap``, ``stack``)."""
        out: set[str] = set()
        for t in self.escapes:
            if t.startswith("sym:") or t in ("heap", "stack"):
                out.add(t)
            elif t == "anymem":  # unknown destination: could be either
                out.update(("heap", "stack"))
        return frozenset(out)


class TaintAnalysis:
    """Per-function taint queries over a shared points-to pre-pass."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        reloc_symbols: dict[int, str] | None = None,
    ) -> None:
        self.cfg = cfg
        self.reloc_symbols = dict(reloc_symbols or {})
        self._reachable = cfg.reachable()
        #: points-to state *before* each instruction: per-insn tuple of
        #: per-register frozensets of region tokens.
        self._pt_before = self._points_to()
        # Both memos below are sound because the step transfer is a pure
        # function of (taint, insn) once the points-to pre-pass is fixed,
        # and they are shared by every query on this analysis: the site
        # queries of one function reach the same states at the same
        # instructions over and over, because every site's walk soon
        # converges to one of a few steady states.
        #: ``(taint before insn i, i)`` -> ``(taint at the end of i's
        #: block, union of every state from before i to there)``.  A walk
        #: stops at the first state an earlier walk passed through.
        self._walks: dict[
            tuple[frozenset[str], int], tuple[frozenset[str], frozenset[str]]
        ] = {}
        #: ``(block-entry taint, block)`` -> ``(states, unions)``:
        #: ``states[k]`` is the taint before the block's k-th instruction
        #: (``states[-1]`` after its last) and ``unions[k]`` the union of
        #: ``states[:k + 1]``.  A site seeds its block mid-way, so every
        #: site in a block starts from one of these prefixes.
        self._prefixes: dict[
            tuple[frozenset[str], int],
            tuple[tuple[frozenset[str], ...], tuple[frozenset[str], ...]],
        ] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_function(cls, fn: AssembledFunction) -> "TaintAnalysis":
        return cls(
            ControlFlowGraph.from_function(fn),
            {r.insn_index: r.symbol for r in fn.relocations},
        )

    @classmethod
    def from_source(cls, name: str, source: str) -> "TaintAnalysis":
        return cls.from_function(assemble_function(name, source))

    # ------------------------------------------------------------------
    # may-points-to pre-pass
    # ------------------------------------------------------------------
    def _pt_step(self, state: frozenset, i: int) -> frozenset:
        """One instruction of points-to transfer.  ``state`` is a
        frozenset of ``(reg, region)`` pairs."""
        insn = self.cfg.insns[i]
        op = insn.op

        def regions(r: int) -> frozenset[str]:
            return frozenset(t for rr, t in state if rr == r)

        def assign(r: int, toks: frozenset[str]) -> frozenset:
            kept = frozenset(p for p in state if p[0] != r)
            return kept | frozenset((r, t) for t in toks)

        r1, r2 = insn.r1 & 7, insn.r2 & 7
        if op is Op.MOVI:
            if i in self.cfg.relocated:
                sym = self.reloc_symbols.get(i)
                toks = frozenset({f"sym:{sym}"} if sym else {"unk"})
            else:
                toks = frozenset()  # plain constant, not an address
            return assign(r1, toks)
        if op in (Op.MOV, Op.LEA):
            return assign(r1, regions(r2))
        if op in _PRESERVE_OPS:
            return assign(r1, regions(r1) | regions(r2))
        if op is Op.ADDI:
            return state  # base + constant offset stays put
        if op in _MANGLE_OPS:
            merged = regions(r1) | regions(r2)
            return assign(r1, merged | {"unk"} if merged else frozenset())
        if op in (Op.LOAD, Op.POP):
            return assign(r1, frozenset({"unk"}))
        if op in (Op.CALL, Op.CALLR):
            return assign(EAX, frozenset({"unk"}))
        # Remaining ops write no GPR (or only move ESP, which stays
        # pointing at the stack).
        return state

    def _points_to(self) -> list[tuple[frozenset[str], ...]]:
        cfg = self.cfg
        entry = frozenset({(ESP, "stackmem"), (EBP, "stackmem")})

        def transfer(b: int, state: frozenset) -> frozenset:
            for i in cfg.blocks[b].insn_indices():
                state = self._pt_step(state, i)
            return state

        block_in, _ = solve(
            cfg, backward=False, boundary=entry, transfer=transfer
        )
        before: list[tuple[frozenset[str], ...]] = [
            tuple(frozenset() for _ in range(_NREGS))
        ] * len(cfg.insns)
        for block in cfg.blocks:
            state = block_in[block.index]
            if block.index == 0:
                state = state | entry
            for i in block.insn_indices():
                before[i] = tuple(
                    frozenset(t for rr, t in state if rr == r)
                    for r in range(_NREGS)
                )
                state = self._pt_step(state, i)
        return before

    # ------------------------------------------------------------------
    # taint fixpoint
    # ------------------------------------------------------------------
    def _mem_read_hits(
        self, base_regions: frozenset[str], taint: frozenset[str]
    ) -> tuple[bool, bool]:
        """Does a read through a pointer with ``base_regions`` observe
        any tainted memory?  Returns ``(hit, wild)`` where ``wild``
        marks a conservative match through an unknown pointer."""
        mem = frozenset(t for t in taint if _is_mem_token(t))
        if not mem:
            return False, False
        if "anymem" in mem:
            return True, False
        if not base_regions or "unk" in base_regions:
            return True, True
        return bool(base_regions & mem), False

    def _taint_step(self, taint: frozenset[str], i: int) -> frozenset[str]:
        insn: Insn = self.cfg.insns[i]
        op = insn.op
        eff = semantics.effects(insn)
        pt = self._pt_before[i]
        new = set(taint)

        src = any(f"reg:{r}" in taint for r in eff.reads)
        if op in semantics.X87_READERS and "x87" in taint:
            src = True

        mem_src = False
        accesses = semantics.memory_accesses(insn)
        for acc in accesses:
            if acc.mode != "r":
                continue
            base_tainted = f"reg:{acc.base}" in taint
            hit, wild = self._mem_read_hits(pt[acc.base], taint)
            if base_tainted or hit:
                mem_src = True
            if wild and not base_tainted:
                new.add("wild_read")
        tainted_input = src or mem_src

        if op in semantics.COND_BRANCH_OPS and "flags" in taint:
            new.add("branch")

        for r in eff.writes:
            if tainted_input:
                new.add(f"reg:{r}")
            else:
                new.discard(f"reg:{r}")
        if op in semantics.FLAG_WRITING_OPS:
            new.discard("flags")
            if tainted_input:
                new.add("flags")
        if op in semantics.X87_WRITERS and tainted_input:
            new.add("x87")  # sticky: the x87 stack is one coarse cell

        for acc in accesses:
            if acc.mode != "w":
                continue
            base_tainted = f"reg:{acc.base}" in taint
            if base_tainted:
                # A corrupted pointer writes somewhere unpredictable.
                new.update(("anymem", "wild_store"))
            if tainted_input:
                regions = pt[acc.base]
                if regions and "unk" not in regions:
                    new.update(regions)
                else:
                    new.update(("anymem", "wild_store"))

        if op in (Op.CALL, Op.CALLR):
            if op is Op.CALLR and f"reg:{insn.r1 & 7}" in taint:
                new.update(("branch", "anymem", "wild_store"))
            if new:
                # The callee can observe and spread anything we hold.
                new.update((f"reg:{EAX}", "x87", "anymem"))
        return frozenset(new)

    def _walk(
        self, taint: frozenset[str], i: int
    ) -> tuple[frozenset[str], frozenset[str]]:
        """``(state at the end of i's block, union of every state on the
        way)`` for ``taint`` before instruction ``i``, through
        :attr:`_walks`."""
        walks = self._walks
        out = walks.get((taint, i))
        if out is not None:
            return out
        end = self.cfg.blocks[self.cfg.block_of[i]].end
        path = []
        while out is None:
            path.append((taint, i))
            taint = self._taint_step(taint, i)
            i += 1
            out = (taint, taint) if i == end else walks.get((taint, i))
        final, union = out
        for key in reversed(path):
            if not key[0] <= union:  # else the union is reused, not copied
                union = union | key[0]
            walks[key] = out = (final, union)
        return out

    def _prefix(
        self, taint: frozenset[str], b: int
    ) -> tuple[tuple[frozenset[str], ...], tuple[frozenset[str], ...]]:
        """Block ``b``'s unseeded states and running unions from entry
        state ``taint``, through :attr:`_prefixes`."""
        key = (taint, b)
        out = self._prefixes.get(key)
        if out is None:
            states, unions = [taint], [taint]
            for i in self.cfg.blocks[b].insn_indices():
                taint = self._taint_step(taint, i)
                states.append(taint)
                union = unions[-1]
                unions.append(union if taint <= union else union | taint)
            out = self._prefixes[key] = (tuple(states), tuple(unions))
        return out

    def _run(
        self,
        seed_entry: frozenset[str],
        seed_site: tuple[int, int] | None,
        site_label: str,
    ) -> PropagationCone:
        cfg = self.cfg
        seeded = -1
        if seed_site is not None:
            site, reg = seed_site
            seeded = cfg.block_of[site]
            seed = frozenset({f"reg:{reg}"})

        def walk(b: int, taint: frozenset) -> tuple[frozenset, frozenset]:
            block = cfg.blocks[b]
            if b != seeded:
                return self._walk(taint, block.start)
            states, unions = self._prefix(taint, b)
            k = site - block.start
            after = states[k + 1] | seed
            final, union = (
                self._walk(after, site + 1)
                if site + 1 < block.end
                else (after, after)
            )
            return final, unions[k] | union

        block_in, block_out = solve(
            cfg,
            backward=False,
            boundary=seed_entry,
            transfer=lambda b, taint: walk(b, taint)[0],
        )

        ever: frozenset[str] = frozenset()
        for b in self._reachable:
            ever |= walk(b, block_in[b])[1]
        exits = [b for b in self._reachable if not cfg.blocks[b].succs]
        # An infinite loop has no exit block: every reachable point "exits".
        exit_state = frozenset().union(
            *(block_out[b] for b in exits or self._reachable)
        )

        escapes: set[str] = set()
        for t in ever:
            if t == "stackmem":
                escapes.add("stack")
            elif _is_mem_token(t):
                escapes.add(t)
            elif t in ("branch", "wild_store"):
                escapes.add(t)
        if "x87" in exit_state:
            escapes.add("x87")
        if "flags" in exit_state:
            escapes.add("flags")
        if f"reg:{EAX}" in exit_state:
            escapes.add("ret")
        return PropagationCone(
            function=cfg.name,
            site=site_label,
            tainted=ever,
            escapes=frozenset(escapes),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cone_after(self, insn_index: int, reg: int) -> PropagationCone:
        """Cone of "``reg`` is corrupt right after instruction
        ``insn_index`` executes" - the register-injection site model."""
        if not 0 <= insn_index < len(self.cfg.insns):
            raise IndexError(f"no instruction {insn_index}")
        if not 0 <= reg < _NREGS:
            raise IndexError(f"no register {reg}")
        label = f"insn {insn_index} reg {REG_NAMES[reg]}"
        if self.cfg.block_of[insn_index] not in self._reachable:
            # The site never executes: the empty cone, by construction.
            return PropagationCone(
                function=self.cfg.name,
                site=label,
                tainted=frozenset(),
                escapes=frozenset(),
            )
        return self._run(frozenset(), (insn_index, reg), label)

    def cone_from_tokens(self, tokens: frozenset[str]) -> PropagationCone:
        """Cone of "this memory is corrupt when the function starts" -
        the data/bss-injection site model.  ``tokens`` use the model
        grammar (``sym:<name>``, ``heap``, ``stack``)."""
        seed = frozenset(
            "stackmem" if t == "stack" else t for t in tokens
        )
        for t in seed:
            if not _is_mem_token(t):
                raise ValueError(f"not a memory token: {t!r}")
        return self._run(seed, None, "entry " + ",".join(sorted(tokens)))

    def written_gprs(self, insn_index: int) -> tuple[int, ...]:
        """GPRs this instruction writes - the register sites it hosts.
        ESP/EBP are excluded: corrupting the stack or frame pointer is a
        crash-class event the AVF layer already models, not a dataflow
        cone."""
        eff = semantics.effects(self.cfg.insns[insn_index])
        return tuple(
            sorted(r for r in eff.writes if r not in (ESP, EBP))
        )
