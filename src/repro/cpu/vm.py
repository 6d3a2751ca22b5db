"""The virtual machine interpreter.

Executes assembled kernels against a :class:`~repro.memory.process.ProcessImage`.
Every design choice serves the fault-injection experiment:

* Execution halts *between* instructions at scheduled basic-block counts
  so the injector can overwrite registers or memory and resume - the
  analogue of the paper's ``ptrace``-based injector waking up periodically.
* Scalar instructions advance the clock by one block; vector instructions
  advance it in proportion to the element count they replace, so the
  uniform injection-time sampling lands in compute loops with realistic
  density.
* Instruction words are fetched (and the text working set recorded)
  through the address space; decoded words are cached against the text
  segment's version counter, so a bit flip in text invalidates the cache
  and the corrupted word is re-decoded - possibly into a different valid
  instruction, possibly into SIGILL.
* A block budget models the paper's hang criterion ("one minute beyond
  the expected execution completion time").
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import HangDetected, SimIllegalInstruction
from repro.observability import runtime as _obs
from repro.cpu import ops as _ops
from repro.cpu.decoder import try_decode_stream
from repro.cpu.fpu import FPU
from repro.cpu.isa import INSN_SIZE, Insn, UndefinedOpcode, decode
from repro.cpu.registers import EAX, EBP, ESP, RegisterFile
from repro.cpu.translate import translation_for
from repro.memory.process import ProcessImage

#: Return address marking the outermost frame of a ``VM.call``.  It lies
#: in kernel space, so a corrupted return address that *doesn't* exactly
#: match it faults on the next fetch - as on real hardware.
RET_SENTINEL = 0xFFFF_FFF0

_U32_MASK = 0xFFFF_FFFF

#: Budget handed to translated units when no hook or hang limit is
#: armed - far beyond any reachable block count.
_NO_HORIZON = 1 << 62

_signed = _ops.signed


def primed_decode_table(image: ProcessImage) -> dict[int, tuple[int, Insn]]:
    """The per-address decode table ``{addr: (text version, insn)}`` of
    ``image``'s text, from the shared stream decoder
    (:mod:`repro.cpu.decoder`), one stream per text symbol.  The fetch
    path and the static CFG therefore consume the *same* decode of
    every shipped kernel."""
    text = image.text
    version = text.version
    table = {}
    for sym in image.symtab.symbols("text"):
        if sym.size == 0 or sym.size % INSN_SIZE:
            continue
        insns = try_decode_stream(text.read_bytes(sym.addr, sym.size))
        if insns is None:
            continue
        addr = sym.addr
        for insn in insns:
            table[addr] = (version, insn)
            addr += INSN_SIZE
    return table


class VM:
    """One virtual CPU bound to one process image."""

    #: Run translated units wherever no observer needs per-instruction
    #: state.  Always on; tests set it False to reach the interpreter,
    #: the oracle the translated engine is proven bit-identical to.
    fastpath = True

    def __init__(self, image: ProcessImage) -> None:
        self.image = image
        self.space = image.address_space
        self.clock = image.clock
        self.regs = RegisterFile()
        self.fpu = FPU()
        #: Hard block budget; exceeded -> HangDetected (None = unlimited).
        self.block_limit: int | None = None
        #: Scheduled injection callbacks: sorted [(block_count, fn), ...].
        self._hooks: list[tuple[int, Callable[["VM"], None]]] = []
        self._next_hook: int | None = None
        #: The image's primed decode table, shared by every VM of one
        #: template (:meth:`ProcessImage.fresh`) while
        #: ``_decode_shared``; ``_fetch`` copies it before its first
        #: write.  No write may reach a shared table: text versions are
        #: not unique across VMs, since two trials that flip different
        #: bits reach the same version number.  An image no template
        #: produced gets a private table.
        self._decode_cache = image.decode_table
        self._decode_shared = self._decode_cache is not None
        if not self._decode_shared:
            self._decode_cache = primed_decode_table(image)
        self._running = False
        self.instructions_retired = 0
        #: Optional control-flow signature monitor
        #: (:mod:`repro.detectors.cfcheck`); called per retired
        #: instruction with (addr, insn, next_eip).
        self.cf_checker = None
        #: Fastpath accounting, harvested into campaign metrics.
        #: ``retranslations`` counts dispatch-table invalidations by a
        #: mid-run text-version bump, not compiles: the objects that run
        #: again are translated on their next entry.
        self.fastpath_stats = {
            "translated_units": 0,
            "translated_insns": 0,
            "interpreted_insns": 0,
            "horizon_insns": 0,
            "retranslations": 0,
            "observer_runs": 0,
        }
        #: Dispatch table (entry addr -> unit) of the text objects
        #: entered since the text segment reached ``_fast_version``.
        self._fast_table: dict = {}
        self._fast_loaded: set[str] = set()
        self._fast_version = -1
        #: Working-set tracking needs per-access events, which only the
        #: interpreter emits.
        self._tracked = any(
            seg.tracking for seg in self.space.segments()
        )

    # ------------------------------------------------------------------
    # injection scheduling (the ptrace analogue)
    # ------------------------------------------------------------------
    def schedule_hook(self, at_blocks: int, callback: Callable[["VM"], None]) -> None:
        """Run ``callback(vm)`` at the first instruction boundary at or
        after ``at_blocks`` executed blocks."""
        self._hooks.append((at_blocks, callback))
        self._hooks.sort(key=lambda h: h[0])
        self._next_hook = self._hooks[0][0]

    def _fire_hooks(self) -> None:
        while self._hooks and self.clock.blocks >= self._hooks[0][0]:
            _, callback = self._hooks.pop(0)
            callback(self)
        self._next_hook = self._hooks[0][0] if self._hooks else None

    def pending_hooks(self) -> int:
        return len(self._hooks)

    # ------------------------------------------------------------------
    # stack helpers (operate through the *register-file* ESP, so a
    # corrupted ESP derails pushes and pops exactly as on hardware)
    # ------------------------------------------------------------------
    def _push_u32(self, value: int) -> None:
        esp = (self.regs.get(ESP) - 4) & _U32_MASK
        self.regs.put(ESP, esp)
        self.space.store_u32(esp, value)

    def _pop_u32(self) -> int:
        esp = self.regs.get(ESP)
        value = self.space.load_u32(esp)
        self.regs.put(ESP, (esp + 4) & _U32_MASK)
        return value

    # ------------------------------------------------------------------
    # top-level entry
    # ------------------------------------------------------------------
    def call(self, function: str | int, args: Sequence[int] = ()) -> int:
        """Call an assembled function with 32-bit arguments (cdecl);
        returns EAX.  Floating-point results are left on the FPU stack."""
        entry = (
            self.image.entry_points[function]
            if isinstance(function, str)
            else function
        )
        stack = self.image.stack
        for a in reversed([int(x) & _U32_MASK for x in args]):
            stack.push_u32(a)
        stack.push_u32(RET_SENTINEL)
        self.regs.poke(ESP, stack.esp)
        self.regs.poke(EBP, stack.ebp)
        self.regs.eip = entry
        tracer = _obs.TRACER
        if tracer is None:
            self._run()
        else:
            # Kernel span: one "X" event per VM.call, stamped on the
            # simulated block clock; emitted even when the kernel dies
            # mid-flight so a crashing trial shows the truncated span.
            name = function if isinstance(function, str) else f"fn@0x{entry:08x}"
            t0 = self.clock.blocks
            i0 = self.instructions_retired
            try:
                self._run()
            finally:
                tracer.complete(
                    f"kernel:{name}",
                    "vm",
                    t0,
                    self.clock.blocks - t0,
                    tid=self.image.rank,
                    args={"insns": self.instructions_retired - i0},
                )
        # Caller pops the arguments (cdecl); ESP is just above the
        # (now consumed) return-address slot.
        stack.esp = (self.regs.peek(ESP) + 4 * len(args)) & _U32_MASK
        stack.ebp = self.regs.peek(EBP)
        return self.regs.peek(EAX)

    def _run(self) -> None:
        self._running = True
        try:
            if self.fastpath and self.cf_checker is None and not self._tracked:
                self._run_fast()
            else:
                if self.fastpath:
                    self.fastpath_stats["observer_runs"] += 1
                while self._running:
                    self.step()
        finally:
            self._running = False

    def _run_fast(self) -> None:
        """Dual-mode dispatch: run translated units wherever no observer
        can see intermediate state, interpret everywhere else.

        A text object is translated the first time execution enters it
        (a dispatch miss inside an object not yet loaded at this text
        version), so code that never runs never compiles.  A unit
        refuses to run (and we interpret one instruction) when its
        block cost would reach the next ``schedule_hook`` horizon or
        cross the hang budget, so hooks fire and :class:`HangDetected`
        raises at exactly the interpreter's instruction boundary.  A
        text-segment fault (version bump) only empties the table: an
        object that runs again is re-translated against its *current*
        bytes on its next entry (unchanged objects hit the per-digest
        cache), and a flip in code that never runs again compiles
        nothing.  Objects whose corrupted bytes no longer decode
        translate to nothing and fall back to the interpreter.
        """
        text = self.image.text
        resolve = self.image.symtab.resolve
        if self._fast_version != text.version:
            self._fast_table = {}
            self._fast_loaded = set()
            self._fast_version = text.version
        table = self._fast_table
        loaded = self._fast_loaded
        regs = self.regs
        rr = regs.r
        rc = regs.read_count
        wc = regs.write_count
        space, fpu, clock = self.space, self.fpu, self.clock
        version = self._fast_version
        units = fast = slow = horizon = retrans = 0
        # One errstate scope for the whole run: translated units elide
        # the interpreter's per-op ``errstate(all="ignore")`` blocks.
        try:
            with np.errstate(all="ignore"):
                while self._running:
                    if text.version != version:
                        retrans += 1
                        table = self._fast_table = {}
                        loaded = self._fast_loaded = set()
                        version = self._fast_version = text.version
                        continue
                    entry = table.get(regs.eip)
                    if entry is None:
                        eip = regs.eip
                        if eip == RET_SENTINEL:
                            self._running = False
                            break
                        sym = resolve(eip)
                        if (
                            sym is not None
                            and sym.section == "text"
                            and sym.name not in loaded
                        ):
                            # First entry at this version: translate,
                            # then retry the lookup.
                            loaded.add(sym.name)
                            table.update(
                                translation_for(
                                    sym.name,
                                    text.read_bytes(sym.addr, sym.size),
                                    sym.addr,
                                )
                            )
                            continue
                        slow += 1
                        self.step()
                        continue
                    nh = self._next_hook
                    bl = self.block_limit
                    if nh is None and bl is None:
                        budget = _NO_HORIZON
                    else:
                        at = (
                            nh - 1
                            if bl is None
                            else (bl if nh is None else min(nh - 1, bl))
                        )
                        budget = at - clock.blocks
                    fn, n = entry
                    if fn(self, regs, rr, rc, wc, space, fpu, clock, budget):
                        horizon += 1
                        self.step()
                        continue
                    units += 1
                    fast += n
        finally:
            stats = self.fastpath_stats
            stats["translated_units"] += units
            stats["translated_insns"] += fast
            stats["interpreted_insns"] += slow
            stats["horizon_insns"] += horizon
            stats["retranslations"] += retrans

    # ------------------------------------------------------------------
    # fetch/decode
    # ------------------------------------------------------------------
    def _fetch(self, eip: int) -> Insn:
        text = self.image.text
        if text.contains(eip, INSN_SIZE):
            cached = self._decode_cache.get(eip)
            if cached is not None and cached[0] == text.version:
                text.note_exec(eip, INSN_SIZE)
                return cached[1]
            word = text.read_bytes(eip, INSN_SIZE)
            text.note_exec(eip, INSN_SIZE)
        else:
            # Jumped outside text: fetch through the checked path, which
            # raises SIGSEGV for unmapped/execute-denied addresses.
            word = self.space.fetch_code(eip, INSN_SIZE)
        try:
            insn = decode(word)
        except UndefinedOpcode as exc:
            raise SimIllegalInstruction(
                f"undefined opcode 0x{exc.opcode:02x} at 0x{eip:08x}"
            ) from None
        if text.contains(eip, INSN_SIZE):
            if self._decode_shared:
                self._decode_cache = dict(self._decode_cache)
                self._decode_shared = False
            self._decode_cache[eip] = (text.version, insn)
        return insn

    # ------------------------------------------------------------------
    # single step
    # ------------------------------------------------------------------
    def step(self) -> None:
        eip = self.regs.eip
        if eip == RET_SENTINEL:
            self._running = False
            return
        insn = self._fetch(eip)
        self.regs.eip = eip + INSN_SIZE
        self._execute(insn)
        if self.cf_checker is not None:
            self.cf_checker.check(eip, insn, self.regs.eip)
        self.instructions_retired += 1
        blocks = self.clock.tick(self._cost(insn))
        if self._next_hook is not None and blocks >= self._next_hook:
            self._fire_hooks()
        if self.block_limit is not None and blocks > self.block_limit:
            raise HangDetected("block budget exceeded", blocks)

    def _cost(self, insn: Insn) -> int:
        if insn.op in _ops.VECTOR_OPS:
            n = self.regs.peek(_ops.vector_len_reg(insn))
            return max(1, n >> 3)
        return 1

    # ------------------------------------------------------------------
    # execute
    # ------------------------------------------------------------------
    def _execute(self, i: Insn) -> None:
        # One function per opcode: repro.cpu.ops is the single execution
        # authority, shared with the block translator.
        _EXEC[i.op](self, i)


_EXEC = _ops.EXEC
