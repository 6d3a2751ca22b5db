"""The block translator (PR 8 tentpole): planning, generated-unit
semantics, and the dual-mode dispatch loop's exactness guarantees."""

import pytest

from repro.cpu import ops, translate
from repro.cpu.assembler import assemble_function
from repro.cpu.isa import INSN_SIZE, Op
from repro.errors import SimFPE, SimIllegalInstruction, SimSegfault
from repro.staticanalysis.cfg import ControlFlowGraph
from tests.conftest import build_image


def plan_of(source: str, name: str = "f"):
    fn = assemble_function(name, source)
    insns = list(translate.decode_stream(bytes(fn.code)))
    cfg = ControlFlowGraph.from_function(fn)
    return translate.plan_function(name, insns, cfg)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
class TestPlanning:
    def test_straight_line_is_one_unit(self):
        plan = plan_of("movi eax, 1\naddi eax, 2\nret")
        assert len(plan.units) == 1
        assert plan.units[0].end_kind == "terminator"
        assert plan.translated_insns == 3
        assert not plan.skipped

    def test_call_splits_unit(self):
        plan = plan_of("movi eax, 1\ncall @callee\naddi eax, 1\nret")
        kinds = [u.end_kind for u in plan.units]
        assert "call" in kinds
        assert plan.call_splits == 1
        # every instruction still belongs to some unit
        assert plan.translated_insns == plan.n_insns

    def test_cost_split_before_written_length_register(self):
        # vadd's length register ecx is written earlier in the block, so
        # its entry-time value would be stale: the planner must split.
        plan = plan_of(
            "movi ecx, 16\n"
            "vbin.add eax, ebx, edx, ecx\n"
            "ret",
        )
        assert plan.cost_splits == 1
        assert [u.end_kind for u in plan.units][0] == "cost_split"
        assert plan.translated_insns == plan.n_insns

    def test_unwritten_length_register_stays_fused(self):
        plan = plan_of("vbin.add eax, ebx, edx, ecx\nret")
        assert plan.cost_splits == 0
        assert len(plan.units) == 1


# ----------------------------------------------------------------------
# generated-unit semantics: fast run == interpreted run, bit for bit
# ----------------------------------------------------------------------
def run_both(sources, entry, args=(), data=None, bss=None):
    """Run the same kernel in both modes; return (exc, state) pairs."""
    out = []
    for fastpath in (False, True):
        image, vm = build_image(dict(sources), data=data, bss=bss)
        vm.fastpath = fastpath
        exc = None
        try:
            vm.call(entry, args)
        except Exception as e:  # noqa: BLE001 - compared type+args below
            exc = e
        out.append(
            (
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
        )
    return out


MIXED = """
    movi eax, 0
    movi ecx, 0
    movi edx, 64
loop:
    add eax, ecx
    imul eax, ecx
    xor eax, edx
    shr eax, 1
    neg eax
    addi ecx, 1
    cmpi ecx, 19
    jl loop
    movi ebx, $scratch
    fldimm 3
    vfill ebx, edx
    fpop
    vbin.add ebx, ebx, ebx, edx
    ret
"""


class TestBitIdentity:
    def test_mixed_scalar_vector_kernel(self):
        interp, fast = run_both(
            {"mixed": MIXED}, "mixed", bss={"scratch": 1024}
        )
        assert interp == fast

    def test_signed_boundary_values(self):
        # INT_MIN negation/division corner cases through both engines
        src = """
    movi eax, 1
    shl eax, 31
    neg eax
    mov ebx, eax
    movi ecx, 0
    addi ecx, -1
    mov edx, ebx
    idiv edx, ecx
    mov esi, ebx
    irem esi, ecx
    cmp ebx, ecx
    ret
"""
        interp, fast = run_both({"f": src}, "f")
        assert interp == fast

    def test_division_by_zero_mid_unit(self):
        src = """
    movi eax, 7
    movi ebx, 0
    addi eax, 1
    idiv eax, ebx
    addi eax, 100
    ret
"""
        interp, fast = run_both({"f": src}, "f")
        assert interp[0] is SimFPE
        assert interp == fast

    def test_segfault_mid_unit(self):
        src = """
    movi eax, 5
    movi ebx, 0x00000010
    addi eax, 2
    store [ebx], eax
    addi eax, 100
    ret
"""
        interp, fast = run_both({"f": src}, "f")
        assert interp[0] is SimSegfault
        # eip, clock, retirement and counters at the fault instant match
        assert interp == fast

    def test_vector_fault_partial_cost(self):
        # second vector op faults: the unit must retire exactly the
        # prefix (including the first op's data-dependent cost)
        src = """
    movi eax, $scratch
    movi ecx, 16
    vbin.add eax, eax, eax, ecx
    movi ebx, 0x00000010
    vbin.add ebx, ebx, ebx, ecx
    ret
"""
        interp, fast = run_both({"f": src}, "f", bss={"scratch": 256})
        assert interp[0] is SimSegfault
        assert interp == fast


# ----------------------------------------------------------------------
# dispatch-loop behavior
# ----------------------------------------------------------------------
@pytest.fixture
def compiles(monkeypatch):
    """Every ``(name, code)`` compiled, in order, against an empty
    translation cache."""
    monkeypatch.setattr(translate, "_TRANSLATIONS", {})
    seen = []
    real = translate._translate

    def counting(name, code, base):
        seen.append((name, bytes(code)))
        return real(name, code, base)

    monkeypatch.setattr(translate, "_translate", counting)
    return seen


STARTUP = "movi eax, 1\nmovi ecx, 3\n" + "add eax, ecx\nxor eax, ecx\n" * 8 + "ret"

KERNEL = """
    movi eax, 0
    movi ecx, 0
loop:
    add eax, ecx
    addi ecx, 1
    cmpi ecx, 50
    jl loop
    ret
"""

REENTERING_MAIN = """
    movi ecx, 0
again:
    call @leaf
    addi ecx, 1
    cmpi ecx, 6
    jl again
    ret
"""

LEAF = "addi eax, 1\naddi eax, 2\nret"


class TestDispatch:
    def test_fastpath_stats_account_every_instruction(self):
        image, vm = build_image(
            {"mixed": MIXED}, bss={"scratch": 1024}
        )
        vm.fastpath = True
        vm.call("mixed")
        stats = vm.fastpath_stats
        executed = (
            stats["translated_insns"]
            + stats["interpreted_insns"]
            + stats["horizon_insns"]
        )
        assert executed == vm.instructions_retired
        assert stats["translated_units"] > 0
        assert stats["translated_insns"] > stats["interpreted_insns"]

    def test_text_corruption_retranslates_current_bytes(self, compiles):
        src = "f:\n" + "addi eax, 1\n" * 8 + "ret"
        image, vm = build_image({"f": src})
        vm.fastpath = True
        sym = image.symtab.lookup("f")
        pristine = image.text.read_bytes(sym.addr, sym.size)
        # corrupt the 5th instruction into a different valid word
        # mid-run via a hook: the engine must notice the version bump
        # and re-translate against the corrupted bytes
        flipped_at = []

        def corrupt(v):
            image.text.flip_bit(sym.addr + 4 * INSN_SIZE, 1)
            flipped_at.append(v.clock.blocks)

        vm.schedule_hook(3, corrupt)
        vm.call("f")
        assert flipped_at
        assert vm.fastpath_stats["retranslations"] > 0
        corrupted = image.text.read_bytes(sym.addr, sym.size)
        assert compiles == [("f", pristine), ("f", corrupted)]

        # and the corrupted outcome equals the interpreter's on the
        # same corrupted image
        image2, vm2 = build_image({"f": src})
        sym2 = image2.symtab.lookup("f")
        vm2.fastpath = False
        vm2.schedule_hook(
            3, lambda v: image2.text.flip_bit(sym2.addr + 4 * INSN_SIZE, 1)
        )
        vm2.call("f")
        assert vm2.regs.capture_state() == vm.regs.capture_state()
        assert vm2.clock.blocks == vm.clock.blocks

    def test_flip_to_undefined_opcode_in_reentered_function(self, compiles):
        # main calls leaf six times; mid-run a flip of the opcode's top
        # bit turns leaf's second word (addi, 0x2a) into 0xaa, which no
        # opcode uses.  leaf's next entry translates the corrupted
        # bytes to nothing, and the interpreter raises SIGILL.
        sources = {"main": REENTERING_MAIN, "leaf": LEAF}
        out = []
        for fastpath in (False, True):
            image, vm = build_image(sources)
            vm.fastpath = fastpath
            leaf = image.symtab.lookup("leaf")
            target = leaf.addr + INSN_SIZE
            vm.schedule_hook(12, lambda v: image.text.flip_bit(target, 7))
            with pytest.raises(SimIllegalInstruction) as exc:
                vm.call("main")
            out.append(
                (
                    exc.value.args,
                    vm.regs.eip,
                    vm.regs.capture_state(),
                    vm.clock.blocks,
                    vm.instructions_retired,
                )
            )
        assert out[0][1] == target
        assert out[0] == out[1]
        corrupted = image.text.read_bytes(leaf.addr, leaf.size)
        assert compiles.count(("leaf", corrupted)) == 1
        assert translate.translation_for("leaf", corrupted, leaf.addr) == {}

    def test_translates_only_the_function_it_calls(self, compiles):
        image, vm = build_image(
            {"f": "movi eax, 1\nret", "g": "movi eax, 2\nret",
             "h": "movi eax, 3\nret"}
        )
        assert vm.call("g") == 2
        assert vm.call("g") == 2
        assert [name for name, _ in compiles] == ["g"]

    def test_flip_in_code_that_never_runs_again_compiles_nothing(
        self, compiles
    ):
        out = []
        for fastpath in (False, True):
            image, vm = build_image({"startup": STARTUP, "kernel": KERNEL})
            vm.fastpath = fastpath
            startup = image.symtab.lookup("startup")
            vm.call("startup")
            compiled_at_flip = []

            def flip(v):
                # startup has run and is never called again
                compiled_at_flip.append(len(compiles))
                image.text.flip_bit(startup.addr + INSN_SIZE, 0)

            vm.schedule_hook(vm.clock.blocks + 20, flip)
            eax = vm.call("kernel")
            out.append(
                (eax, vm.regs.capture_state(), vm.clock.blocks,
                 vm.instructions_retired)
            )
        assert out[0] == out[1]
        assert compiled_at_flip == [len(compiles)]
        assert [name for name, _ in compiles] == ["startup", "kernel"]
        assert vm.fastpath_stats["retranslations"] == 1
        assert vm.fastpath_stats["translated_insns"] > 0

    def test_translation_cached_per_digest(self):
        fn = assemble_function("f", "movi eax, 3\nret")
        t1 = translate.translation_for("f", fn.code, 0x1000)
        t2 = translate.translation_for("f", bytes(fn.code), 0x1000)
        assert t1 is t2
        t3 = translate.translation_for("f", fn.code, 0x2000)
        assert t3 is not t1

    def test_undecodable_function_translates_to_empty(self):
        assert translate.translation_for("bad", b"\xff" * 8, 0) == {}
        assert translate.translation_for("odd", b"\x00" * 9, 0) == {}


# ----------------------------------------------------------------------
# audit surface
# ----------------------------------------------------------------------
class TestAudit:
    def test_audit_counts_are_consistent(self):
        from repro.staticanalysis.lint import iter_shipped_kernels

        for owner, fn in iter_shipped_kernels():
            rep = translate.audit_function(fn)
            assert rep["insns"] == len(fn.code) // INSN_SIZE
            assert (
                rep["translated_insns"] + rep["interpreted_insns"]
                == rep["insns"]
            )
            assert len(rep["untranslatable"]) == rep["interpreted_insns"]

    def test_audit_reports_undecodable(self):
        class FakeFn:
            name = "junk"
            code = b"\xff" * 16
            relocations = ()

        rep = translate.audit_function(FakeFn())
        assert rep["reason"] is not None
        assert rep["translated_insns"] == 0


def test_exec_table_covers_every_opcode():
    assert set(ops.EXEC) == set(Op)
