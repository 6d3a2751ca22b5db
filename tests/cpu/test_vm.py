"""Unit tests for the VM interpreter (scalar/control/FPU semantics)."""

import hashlib
import math

import pytest

from repro.cpu.registers import EAX, ECX
from repro.cpu.vm import VM, primed_decode_table
from repro.errors import (
    HangDetected,
    SimFPE,
    SimIllegalInstruction,
    SimSegfault,
)
from tests.conftest import build_image


def run(source: str, args=(), data=None, setup=None):
    image, vm = build_image({"main": source}, data=data)
    if setup:
        setup(image, vm)
    result = vm.call("main", args)
    return result, image, vm


class TestArithmetic:
    def test_add_sub(self):
        assert run("movi eax, 7\nmovi ecx, 5\nadd eax, ecx\nret")[0] == 12
        assert run("movi eax, 7\nmovi ecx, 5\nsub eax, ecx\nret")[0] == 2

    def test_sub_wraps_unsigned(self):
        r, _, _ = run("movi eax, 0\nmovi ecx, 1\nsub eax, ecx\nret")
        assert r == 0xFFFF_FFFF

    def test_imul(self):
        assert run("movi eax, -3\nmovi ecx, 4\nimul eax, ecx\nret")[0] == (-12) & 0xFFFFFFFF

    def test_idiv_truncates_toward_zero(self):
        assert run("movi eax, -7\nmovi ecx, 2\nidiv eax, ecx\nret")[0] == (-3) & 0xFFFFFFFF

    def test_idiv_by_zero_is_sigfpe(self):
        with pytest.raises(SimFPE):
            run("movi eax, 1\nmovi ecx, 0\nidiv eax, ecx\nret")

    def test_irem(self):
        assert run("movi eax, 7\nmovi ecx, 3\nirem eax, ecx\nret")[0] == 1

    def test_bitwise(self):
        assert run("movi eax, 12\nmovi ecx, 10\nand eax, ecx\nret")[0] == 8
        assert run("movi eax, 12\nmovi ecx, 10\nor eax, ecx\nret")[0] == 14
        assert run("movi eax, 12\nmovi ecx, 10\nxor eax, ecx\nret")[0] == 6

    def test_shifts(self):
        assert run("movi eax, 3\nshl eax, 4\nret")[0] == 48
        assert run("movi eax, 48\nshr eax, 4\nret")[0] == 3

    def test_neg(self):
        assert run("movi eax, 5\nneg eax\nret")[0] == (-5) & 0xFFFFFFFF

    def test_lea(self):
        assert run("movi ecx, 100\nlea eax, [ecx+28]\nret")[0] == 128


class TestControlFlow:
    def test_loop(self):
        src = """
            movi eax, 0
            movi ecx, 0
        lp: add eax, ecx
            addi ecx, 1
            cmpi ecx, 10
            jl lp
            ret
        """
        assert run(src)[0] == 45

    def test_conditional_branches(self):
        src = """
            movi eax, 0
            movi ecx, 5
            cmpi ecx, 5
            jz eq
            movi eax, 99
        eq: ret
        """
        assert run(src)[0] == 0

    def test_jg_jle(self):
        src = """
            movi eax, 1
            cmpi eax, 1
            jg wrong
            jle good
        wrong: movi eax, 99
        good: ret
        """
        assert run(src)[0] == 1

    def test_call_ret_nesting(self):
        image, vm = build_image(
            {
                "main": "call @a\naddi eax, 1\nret",
                "a": "call @b\naddi eax, 10\nret",
                "b": "movi eax, 100\nret",
            }
        )
        assert vm.call("main") == 111

    def test_callr_indirect(self):
        image, vm = build_image(
            {
                "main": "movi ecx, @leaf\ncallr ecx\naddi eax, 1\nret",
                "leaf": "movi eax, 4\nret",
            }
        )
        assert vm.call("main") == 5

    def test_jump_to_unmapped_faults(self):
        with pytest.raises(SimSegfault):
            run("movi eax, 0x200000\npush eax\nret")  # RET to unmapped

    def test_hlt_is_privileged(self):
        with pytest.raises(SimSegfault, match="privileged"):
            run("hlt")

    def test_block_budget_hang(self):
        image, vm = build_image({"main": "lp: jmp lp"})
        vm.block_limit = 100
        with pytest.raises(HangDetected):
            vm.call("main")


class TestStackOps:
    def test_push_pop(self):
        assert run("movi ecx, 42\npush ecx\npop eax\nret")[0] == 42

    def test_args_via_frame(self):
        src = """
            push ebp
            mov ebp, esp
            load eax, [ebp+8]
            load ecx, [ebp+12]
            add eax, ecx
            mov esp, ebp
            pop ebp
            ret
        """
        assert run(src, args=[30, 12])[0] == 42

    def test_stack_restored_after_call(self):
        image, vm = build_image({"main": "movi eax, 1\nret"})
        esp0 = image.stack.esp
        vm.call("main", [5, 6, 7])
        assert image.stack.esp == esp0


class TestFPU:
    def test_fld_fstp_roundtrip(self):
        def setup(image, vm):
            image.data.write_f64(image.addr_of("buf"), 2.5)

        src = """
            movi esi, $buf
            fld [esi]
            fld1
            faddp
            fstp [esi+8]
            ret
        """
        _, image, _ = run(src, data={"buf": 16}, setup=setup)
        assert image.data.read_f64(image.addr_of("buf") + 8) == 3.5

    def test_arith_chain(self):
        src = """
            movi esi, $buf
            fldimm 10
            fldimm 4
            fsubp       ; 6
            fldimm 3
            fmulp       ; 18
            fldimm 2
            fdivp       ; 9
            fsqrt       ; 3
            fchs        ; -3
            fabs        ; 3
            fstp [esi]
            ret
        """
        _, image, _ = run(src, data={"buf": 8})
        assert image.data.read_f64(image.addr_of("buf")) == 3.0

    def test_fdiv_by_zero_masked(self):
        src = """
            movi esi, $buf
            fld1
            fldz
            fdivp
            fstp [esi]
            ret
        """
        _, image, _ = run(src, data={"buf": 8})
        assert math.isinf(image.data.read_f64(image.addr_of("buf")))

    def test_fsqrt_negative_is_nan(self):
        src = """
            movi esi, $buf
            fld1
            fchs
            fsqrt
            fstp [esi]
            ret
        """
        _, image, _ = run(src, data={"buf": 8})
        assert math.isnan(image.data.read_f64(image.addr_of("buf")))

    def test_fcomip_sets_flags(self):
        # 5 > 3: FCOMIP clears both ZF and SF, so JLE falls through.
        src = """
            fldimm 3
            fldimm 5    ; ST0=5, ST1=3
            fcomip
            movi eax, 0
            jle done
            movi eax, 1
        done: ret
        """
        assert run(src)[0] == 1
        # 2 < 3: SF set, JLE taken.
        src_less = """
            fldimm 3
            fldimm 2    ; ST0=2, ST1=3
            fcomip
            movi eax, 0
            jle done
            movi eax, 1
        done: ret
        """
        assert run(src_less)[0] == 0

    def test_fdup_fpop(self):
        src = """
            movi esi, $buf
            fldimm 7
            fdup
            faddp       ; 14
            fstp [esi]
            ret
        """
        _, image, _ = run(src, data={"buf": 8})
        assert image.data.read_f64(image.addr_of("buf")) == 14.0


class TestFaults:
    def test_undefined_opcode_is_sigill(self):
        image, vm = build_image({"main": "nop\nret"})
        # Corrupt the NOP's opcode byte into an undefined value.
        addr = image.addr_of("main")
        image.text.write_u8(addr, 0xEE)
        with pytest.raises(SimIllegalInstruction):
            vm.call("main")

    def test_text_flip_invalidates_decode_cache(self):
        src = """
            movi eax, 1
            movi ecx, 0
        lp: addi ecx, 1
            cmpi ecx, 3
            jl lp
            ret
        """
        image, vm = build_image({"main": src})
        assert vm.call("main") == 1
        # Flip a bit of 'movi eax, 1' imm -> reruns must see new value.
        image.text.flip_bit(image.addr_of("main") + 4, 1)
        assert vm.call("main") == 3

    def test_vms_of_one_template_decode_their_own_flips(self, monkeypatch):
        # Both copies share the template's primed decode table, and
        # flipping different bits of the same word leaves both texts at
        # the same version: a decode one VM caches must not reach the
        # other.
        monkeypatch.setattr(VM, "fastpath", False)
        template, _ = build_image({"main": "movi eax, 7\nret"})
        a, b = template.fresh(0), template.fresh(1)
        vm_a, vm_b = VM(a), VM(b)
        imm = template.addr_of("main") + 4
        a.text.flip_bit(imm, 0)
        b.text.flip_bit(imm, 1)
        assert a.text.version == b.text.version
        assert vm_a.call("main") == 6
        assert vm_b.call("main") == 5
        assert VM(template.fresh(2)).call("main") == 7

    def test_load_unmapped_faults(self):
        with pytest.raises(SimSegfault):
            run("movi esi, 0x100\nload eax, [esi]\nret")


class TestHooks:
    def test_hook_fires_at_block(self):
        image, vm = build_image({"main": "movi ecx, 0\nlp: addi ecx, 1\ncmpi ecx, 100\njl lp\nret"})
        fired = []
        vm.schedule_hook(50, lambda v: fired.append(v.clock.blocks))
        vm.call("main")
        assert len(fired) == 1
        assert fired[0] >= 50

    def test_hooks_fire_in_order(self):
        image, vm = build_image({"main": "movi ecx, 0\nlp: addi ecx, 1\ncmpi ecx, 100\njl lp\nret"})
        order = []
        vm.schedule_hook(60, lambda v: order.append("b"))
        vm.schedule_hook(30, lambda v: order.append("a"))
        vm.call("main")
        assert order == ["a", "b"]
        assert vm.pending_hooks() == 0

    def test_register_flip_via_hook_changes_result(self):
        src = """
            movi eax, 0
            movi ecx, 0
        lp: add eax, ecx
            addi ecx, 1
            cmpi ecx, 50
            jl lp
            ret
        """
        image, vm = build_image({"main": src})
        vm.schedule_hook(20, lambda v: v.regs.flip_bit(EAX, 20))
        result = vm.call("main")
        assert result != sum(range(50))

    def test_vector_cost_advances_clock(self):
        image, vm = build_image(
            {"main": "movi esi, $buf\nmovi ecx, 256\nvred.sum esi, ecx\nfpop\nret"},
            data={"buf": 2048},
        )
        vm.call("main")
        # 5 scalar-ish instructions plus 256/8 = 32 blocks for the reduce
        assert image.clock.blocks >= 32


class TestPrimedDecodeTable:
    def test_second_job_hashes_no_text(self, monkeypatch):
        # The template of a linked app is decoded once; every VM of
        # every later job shares that table and digests nothing.
        from repro.apps import WavetoyApp
        from repro.mpi.simulator import Job, JobConfig
        from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY

        config = JobConfig(nprocs=SMALL_NPROCS)
        Job(WavetoyApp(**SMALL_WAVETOY), config)
        hashed = []
        sha256 = hashlib.sha256

        def counted(data=b"", **kwargs):
            hashed.append(len(data))
            return sha256(data, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counted)
        job = Job(WavetoyApp(**SMALL_WAVETOY), config)
        monkeypatch.undo()
        assert hashed == []
        table = job.vms[0]._decode_cache
        assert table and all(vm._decode_cache is table for vm in job.vms)
        assert job.run().completed

    def test_copies_share_the_template_table_and_never_write_it(
        self, monkeypatch
    ):
        monkeypatch.setattr(VM, "fastpath", False)
        template, _ = build_image({"main": "movi eax, 7\nret"})
        template.decode_table = primed_decode_table(template)
        pristine = dict(template.decode_table)
        a, b = template.fresh(0), template.fresh(1)
        vm_a, vm_b = VM(a), VM(b)
        assert vm_a._decode_cache is vm_b._decode_cache is template.decode_table
        imm = template.addr_of("main") + 4
        a.text.flip_bit(imm, 0)
        b.text.flip_bit(imm, 1)
        assert vm_a.call("main") == 6
        assert vm_b.call("main") == 5
        assert template.decode_table == pristine
        assert VM(template.fresh(2)).call("main") == 7

    def test_an_image_no_template_produced_gets_a_private_table(self):
        image, vm = build_image({"main": "movi eax, 7\nret"})
        assert image.decode_table is None
        assert vm._decode_cache == primed_decode_table(image)
        assert not vm._decode_shared
