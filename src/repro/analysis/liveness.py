"""Register-liveness ablation (paper section 6.1.1, citing Springer [23]).

"Springer investigated the register usage of an image processing kernel
on a PowerPC 750 system and found that only 4-5 of 64 available registers
were used during execution.  If the code were compiled with the
optimization switch -O, then the number of live registers jumped to
14-15.  The suggests that a program could be made more robust if it is
compiled without register optimizations, albeit with possible performance
loss."

This module builds the same comparison for the virtual CPU: an
*optimized* kernel that carries its state in registers across the loop,
and an *unoptimized* variant that spills every value to stack slots after
each use (what ``-O0`` code looks like).  It measures static register
usage and the register-fault sensitivity of each variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.assembler import Program
from repro.cpu.vm import VM
from repro.errors import SimulationError
from repro.memory.process import ProcessImage
from repro.memory.symbols import Linker

#: Loop count for the ablation kernel (sum of squares 0..N-1).
N_ITER = 64
_EXPECTED = sum(i * i for i in range(N_ITER)) & 0xFFFF_FFFF

#: Optimized: accumulator, counter and temporary all live in registers
#: across the entire loop.
OPTIMIZED_SOURCE = f"""
    push ebp
    mov ebp, esp
    movi eax, 0          ; acc (live whole loop)
    movi ecx, 0          ; i   (live whole loop)
    movi esi, 0          ; bound register kept live
    addi esi, {N_ITER}
loop:
    mov edx, ecx         ; tmp = i
    imul edx, ecx        ; tmp = i*i
    add eax, edx
    addi ecx, 1
    cmp ecx, esi
    jl loop
    mov esp, ebp
    pop ebp
    ret
"""

#: Unoptimized (-O0 style): every value round-trips through a stack slot,
#: so registers hold live data only momentarily.
UNOPTIMIZED_SOURCE = f"""
    push ebp
    mov ebp, esp
    movi eax, 0
    store [ebp-8], eax   ; acc spill slot
    store [ebp-12], eax  ; i spill slot
loop:
    load eax, [ebp-12]   ; i
    mov ecx, eax
    imul ecx, eax        ; i*i
    load eax, [ebp-8]
    add eax, ecx
    store [ebp-8], eax   ; spill acc
    load eax, [ebp-12]
    addi eax, 1
    store [ebp-12], eax  ; spill i
    cmpi eax, {N_ITER}
    jl loop
    load eax, [ebp-8]
    mov esp, ebp
    pop ebp
    ret
"""


def _build(source: str) -> tuple[ProcessImage, VM, Program]:
    prog = Program()
    prog.add("kernel", source)
    linker = Linker()
    prog.add_to_linker(linker)
    linker.add_bss("pad", 64)
    image = ProcessImage.from_linker(linker, heap_size=1 << 14, stack_size=1 << 14)
    prog.relocate(image)
    return image, VM(image), prog


def register_sensitivity(
    source: str, trials: int, rng: np.random.Generator, reg: int | None = None
) -> float:
    """Fraction of single register bit flips that change the kernel's
    outcome (wrong result, crash or hang).  Each trial draws its
    register (unless ``reg`` fixes it), then its bit, then its time,
    uniformly."""
    # Fault-free reference and block count.
    image, vm, _ = _build(source)
    reference = vm.call("kernel")
    total_blocks = image.clock.blocks
    if reference != _EXPECTED:
        raise AssertionError(
            f"ablation kernel broken: got {reference}, want {_EXPECTED}"
        )
    errors = 0
    for _ in range(trials):
        image, vm, _ = _build(source)
        vm.block_limit = total_blocks * 4 + 64
        flipped = int(rng.integers(8)) if reg is None else reg
        bit = int(rng.integers(32))
        at = int(rng.integers(1, total_blocks + 1))
        vm.schedule_hook(at, lambda v, r=flipped, b=bit: v.regs.flip_bit(r, b))
        try:
            result = vm.call("kernel")
        except SimulationError:
            errors += 1
            continue
        if result != _EXPECTED:
            errors += 1
    return errors / trials


@dataclass(frozen=True)
class LivenessReport:
    text: str
    metrics: dict


def register_usage_report(trials: int = 150, seed: int = 11) -> LivenessReport:
    """Static register usage and dynamic fault sensitivity of the two
    compilation styles."""
    rng = np.random.default_rng(seed)
    _, _, prog_opt = _build(OPTIMIZED_SOURCE)
    _, _, prog_unopt = _build(UNOPTIMIZED_SOURCE)
    static_opt = sorted(prog_opt.functions["kernel"].registers_used())
    static_unopt = sorted(prog_unopt.functions["kernel"].registers_used())
    sens_opt = register_sensitivity(OPTIMIZED_SOURCE, trials, rng)
    sens_unopt = register_sensitivity(UNOPTIMIZED_SOURCE, trials, rng)
    text = (
        f"optimized   : {len(static_opt)} registers used {static_opt}, "
        f"register-fault error rate {100 * sens_opt:.1f}%\n"
        f"unoptimized : {len(static_unopt)} registers used {static_unopt}, "
        f"register-fault error rate {100 * sens_unopt:.1f}%\n"
        f"(the paper's inference: fewer live registers -> more robust, at "
        f"a performance cost)"
    )
    return LivenessReport(
        text=text,
        metrics={
            "static_optimized": len(static_opt),
            "static_unoptimized": len(static_unopt),
            "sensitivity_optimized": sens_opt,
            "sensitivity_unoptimized": sens_unopt,
        },
    )
