"""Translated closures are observationally equal to the interpreter.

Two properties pin the dual-mode engine (PR 8):

* **Shipped-kernel units.**  For every translation unit of every suite
  application's linked kernels, executing the unit's closure from a
  random register file (and randomly perturbed data segment) leaves
  registers, access counters, flags, memory, the block clock and the
  retirement counter bit-identical to stepping the interpreter over the
  same instructions - including the exception type when the random
  state makes the unit fault mid-way.

* **Random kernels end-to-end.**  Small randomized ALU/branch/memory
  programs produce identical final VM state whether ``vm.fastpath`` is
  set or not.
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps import APPLICATION_SUITE
from repro.cpu.translate import translation_for
from repro.mpi.simulator import JobConfig
from tests.conftest import build_image

_BIG_BUDGET = 1 << 62


def _unit_table(image):
    """Every translation unit of every text object in the image (the
    VM itself translates an object only when execution enters it)."""
    table = {}
    for sym in image.symtab.symbols("text"):
        code = image.text.read_bytes(sym.addr, sym.size)
        table.update(translation_for(sym.name, code, sym.addr))
    return table


def _build(app_name):
    app = APPLICATION_SUITE[app_name]()
    config = JobConfig(nprocs=2)
    image, vm = app.build_process(0, config.nprocs, config)
    vm.cf_checker = None  # compare pure execution semantics
    return image, vm


class _Harness:
    """An interpreter VM and a translated VM over identical images."""

    def __init__(self, app_name):
        self.image_i, self.vm_i = _build(app_name)
        self.image_f, self.vm_f = _build(app_name)
        self.table = _unit_table(self.image_f)
        self.baseline = [
            (seg.name, seg.buf.tobytes())
            for seg in self.vm_i.space.segments()
        ]
        self.fpu_state = self.vm_i.fpu.capture_state()

    def reset(self, regs, pokes):
        for vm in (self.vm_i, self.vm_f):
            for (name, raw), seg in zip(
                self.baseline, vm.space.segments()
            ):
                assert seg.name == name
                seg.buf[:] = np.frombuffer(raw, dtype=np.uint8)
            data = vm.space.segment("data")
            for off, byte in pokes:
                data.buf[off % data.size] = byte
            vm.regs.r[:] = regs
            vm.regs.read_count[:] = [0] * 8
            vm.regs.write_count[:] = [0] * 8
            vm.regs.zf = False
            vm.regs.sf = False
            vm.fpu.restore_state(self.fpu_state)
            vm.clock.restore(0)
            vm.instructions_retired = 0

    def observe(self, vm, exc):
        return (
            type(exc),
            exc.args if exc else None,
            vm.regs.capture_state(),
            vm.fpu.capture_state(),
            vm.clock.blocks,
            vm.instructions_retired,
            tuple(
                (s.name, s.buf.tobytes()) for s in vm.space.segments()
            ),
        )

    def run_unit(self, addr, n_insns):
        vm = self.vm_i
        vm.regs.eip = addr
        exc_i = None
        try:
            for _ in range(n_insns):
                vm.step()
        except Exception as e:  # noqa: BLE001 - compared below
            exc_i = e

        vm = self.vm_f
        vm.regs.eip = addr
        fn, n = self.table[addr]
        assert n == n_insns
        exc_f = None
        try:
            refused = fn(
                vm,
                vm.regs,
                vm.regs.r,
                vm.regs.read_count,
                vm.regs.write_count,
                vm.space,
                vm.fpu,
                vm.clock,
                _BIG_BUDGET,
            )
            assert not refused
        except Exception as e:  # noqa: BLE001 - compared below
            exc_f = e
        return self.observe(self.vm_i, exc_i), self.observe(
            self.vm_f, exc_f
        )


_HARNESSES: dict[str, _Harness] = {}
_UNITS: list[tuple[str, int, int]] = []
for _app in sorted(APPLICATION_SUITE):
    _h = _HARNESSES[_app] = _Harness(_app)
    for _addr, (_fn, _n) in sorted(_h.table.items()):
        _UNITS.append((_app, _addr, _n))


u32 = st.integers(0, 2**32 - 1)
pokes = st.lists(
    st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=8
)


@given(
    unit=st.sampled_from(_UNITS),
    regs=st.lists(u32, min_size=8, max_size=8),
    perturb=pokes,
)
@settings(max_examples=120, deadline=None)
def test_shipped_units_bit_identical(unit, regs, perturb):
    app, addr, n = unit
    harness = _HARNESSES[app]
    harness.reset(regs, perturb)
    interp, fast = harness.run_unit(addr, n)
    assert interp == fast


# ----------------------------------------------------------------------
# end-to-end over random kernels
# ----------------------------------------------------------------------
REGS = ("eax", "ebx", "ecx", "edx")
regs_s = st.sampled_from(REGS)
imms = st.one_of(
    st.integers(min_value=-64, max_value=64),
    st.integers(min_value=0, max_value=2**31 - 1),
)

alu = st.one_of(
    st.tuples(st.just("movi"), regs_s, st.integers(0, 2**31 - 1)),
    st.tuples(st.just("addi"), regs_s, imms),
    st.tuples(st.just("mov"), regs_s, regs_s),
    st.tuples(st.just("add"), regs_s, regs_s),
    st.tuples(st.just("sub"), regs_s, regs_s),
    st.tuples(st.just("imul"), regs_s, regs_s),
    st.tuples(st.just("xor"), regs_s, regs_s),
    st.tuples(st.just("idiv"), regs_s, regs_s),
    st.tuples(st.just("cmp"), regs_s, regs_s),
    st.tuples(st.just("neg"), regs_s, regs_s),
)


def render(insn) -> str:
    op, a, b = insn
    if op == "neg":
        return f"neg {a}"
    return f"{op} {a}, {b}"


@st.composite
def kernels(draw) -> str:
    lines = [render(i) for i in draw(st.lists(alu, max_size=10))]
    if draw(st.booleans()):
        lines.append("movi esi, $buf")
        lines.append(f"store [esi+{draw(st.integers(0, 15)) * 4}], "
                     f"{draw(regs_s)}")
        lines.append(f"load {draw(regs_s)}, [esi+{draw(st.integers(0, 15)) * 4}]")
    if draw(st.booleans()):
        lines.append(f"cmpi {draw(regs_s)}, {draw(st.integers(0, 4))}")
        lines.append("jz skip")
        lines += [render(i) for i in draw(st.lists(alu, min_size=1, max_size=4))]
        lines.append("skip: ret")
    else:
        lines.append("ret")
    return "\n".join(lines)


@given(source=kernels())
@settings(max_examples=60, deadline=None)
def test_random_kernels_end_to_end(source):
    out = []
    for fastpath in (False, True):
        image, vm = build_image({"f": source}, bss={"buf": 64})
        vm.fastpath = fastpath
        exc = None
        try:
            vm.call("f")
        except Exception as e:  # noqa: BLE001 - compared below
            exc = e
        out.append(
            (
                type(exc),
                exc.args if exc else None,
                vm.regs.capture_state(),
                vm.clock.blocks,
                vm.instructions_retired,
                tuple(
                    (s.name, s.buf.tobytes())
                    for s in vm.space.segments()
                ),
            )
        )
    assert out[0] == out[1]
