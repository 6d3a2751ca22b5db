"""Process image: the full memory state of one simulated MPI process."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clock import Clock
from repro.memory.address_space import AddressSpace
from repro.memory.heap import HeapAllocator
from repro.memory.segments import Segment
from repro.memory.stack import StackManager
from repro.memory.symbols import LinkedImage, Linker, SymbolTable


@dataclass
class ProcessImage:
    """Everything the fault injector can target for one MPI rank."""

    rank: int
    clock: Clock
    address_space: AddressSpace
    symtab: SymbolTable
    text: Segment
    data: Segment
    bss: Segment
    heap_segment: Segment
    stack_segment: Segment
    heap: HeapAllocator
    stack: StackManager
    entry_points: dict[str, int] = field(default_factory=dict)
    #: Primed decode table of the text (``{addr: (version, insn)}``,
    #: :func:`repro.cpu.vm.primed_decode_table`) that every copy made
    #: by :meth:`fresh` and every VM of one shares, or ``None``: a VM
    #: then primes a private table.
    decode_table: dict | None = None

    @classmethod
    def from_linker(cls, linker: Linker, rank: int = 0, **link_kwargs) -> "ProcessImage":
        clock = link_kwargs.pop("clock", None) or Clock()
        image: LinkedImage = linker.link(clock=clock, **link_kwargs)
        return cls(
            rank=rank,
            clock=clock,
            address_space=image.address_space,
            symtab=image.symtab,
            text=image.text,
            data=image.data,
            bss=image.bss,
            heap_segment=image.heap,
            stack_segment=image.stack,
            heap=HeapAllocator(image.heap),
            stack=StackManager(image.stack),
            entry_points=dict(image.entry_points),
        )

    def fresh(self, rank: int) -> "ProcessImage":
        """A new process of this linked binary, as a loader maps it.

        The copy gets its own clock, address space, allocator, stack
        and segment buffers: text and data bytes are copied, bss, heap
        and stack start zeroed.  Segment versions and entry points are
        copied; the symbol table and the primed decode table, which
        nothing mutates, are shared (a VM copies the table before its
        first write).  Copy only a pristine image that never ran: a run
        image's bss, heap and stack contents would not carry over.
        """
        clock = Clock()
        space = AddressSpace(clock)

        def remap(seg: Segment, load: bool) -> Segment:
            new = space.map(seg.name, seg.base, seg.size, seg.perm, seg.tracking)
            if load:
                np.copyto(new.buf, seg.buf)
            new.version = seg.version
            return new

        text = remap(self.text, True)
        data = remap(self.data, True)
        bss = remap(self.bss, False)
        heap = remap(self.heap_segment, False)
        stack = remap(self.stack_segment, False)
        return ProcessImage(
            rank=rank,
            clock=clock,
            address_space=space,
            symtab=self.symtab,
            text=text,
            data=data,
            bss=bss,
            heap_segment=heap,
            stack_segment=stack,
            heap=HeapAllocator(heap),
            stack=StackManager(stack),
            entry_points=dict(self.entry_points),
            decode_table=self.decode_table,
        )

    # ------------------------------------------------------------------
    # profile queries (Table 1 inputs)
    # ------------------------------------------------------------------
    def addr_of(self, name: str) -> int:
        return self.symtab.lookup(name).addr

    def section_sizes(self) -> dict[str, int]:
        """Sizes as ``objdump``/``nm`` plus the malloc wrapper report them:
        text/data/bss from the symbol table, heap from live allocations,
        stack from the current ESP extent."""
        return {
            "text": self.symtab.section_size("text"),
            "data": self.symtab.section_size("data"),
            "bss": self.symtab.section_size("bss"),
            "heap": self.heap.in_use,
            "stack": self.stack.used_bytes(),
        }

    def in_user_text(self, addr: int) -> bool:
        sym = self.symtab.resolve(addr)
        return sym is not None and sym.section == "text" and sym.library == "user"
