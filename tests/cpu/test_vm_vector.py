"""Unit tests for the VM's vector instructions."""

import math

import numpy as np
import pytest

from repro.cpu.isa import INSN_SIZE
from repro.errors import SimIllegalInstruction, SimSegfault
from repro.mpi.simulator import Job, JobConfig, JobStatus
from repro.observability.runtime import activate
from repro.observability.timeline import PropagationTimeline
from tests.conftest import build_image


def vec_image(source: str, n: int = 16):
    image, vm = build_image(
        {"main": source}, data={"a": n * 8, "b": n * 8, "dst": n * 8, "out": 16}
    )
    a = image.data.view_f64(image.addr_of("a"), n)
    b = image.data.view_f64(image.addr_of("b"), n)
    a[:] = np.arange(1.0, n + 1)
    b[:] = 2.0
    return image, vm


class TestElementwise:
    @pytest.mark.parametrize(
        "op,expected",
        [
            ("add", lambda a, b: a + b),
            ("sub", lambda a, b: a - b),
            ("mul", lambda a, b: a * b),
            ("div", lambda a, b: a / b),
            ("min", np.minimum),
            ("max", np.maximum),
        ],
    )
    def test_vbin(self, op, expected):
        src = f"""
            movi esi, $a
            movi edi, $b
            movi ebx, $dst
            movi ecx, 16
            vbin.{op} ebx, esi, edi, ecx
            ret
        """
        image, vm = vec_image(src)
        vm.call("main")
        a = np.arange(1.0, 17)
        dst = image.data.view_f64(image.addr_of("dst"), 16)
        np.testing.assert_array_equal(dst, expected(a, np.full(16, 2.0)))

    def test_vbins_scalar_from_st0(self):
        src = """
            movi esi, $a
            movi ebx, $dst
            movi ecx, 16
            fldimm 3
            vbins.mul ebx, esi, ecx
            fpop
            ret
        """
        image, vm = vec_image(src)
        vm.call("main")
        dst = image.data.view_f64(image.addr_of("dst"), 16)
        np.testing.assert_array_equal(dst, np.arange(1.0, 17) * 3)

    def test_vaxpy(self):
        src = """
            movi esi, $a
            movi edi, $b
            movi ebx, $dst
            movi ecx, 16
            fldimm 10
            vaxpy ebx, esi, edi, ecx
            fpop
            ret
        """
        image, vm = vec_image(src)
        vm.call("main")
        dst = image.data.view_f64(image.addr_of("dst"), 16)
        np.testing.assert_array_equal(dst, np.arange(1.0, 17) + 20.0)

    def test_vmov_and_vfill(self):
        src = """
            movi esi, $a
            movi ebx, $dst
            movi ecx, 16
            vmov ebx, esi, ecx
            fldimm 9
            movi ecx, 4
            vfill ebx, ecx
            fpop
            ret
        """
        image, vm = vec_image(src)
        vm.call("main")
        dst = image.data.view_f64(image.addr_of("dst"), 16)
        np.testing.assert_array_equal(dst[:4], 9.0)
        np.testing.assert_array_equal(dst[4:], np.arange(5.0, 17))

    def test_in_place_alias_is_safe(self):
        src = """
            movi esi, $a
            movi ecx, 16
            vbin.add esi, esi, esi, ecx
            ret
        """
        image, vm = vec_image(src)
        vm.call("main")
        a = image.data.view_f64(image.addr_of("a"), 16)
        np.testing.assert_array_equal(a, np.arange(1.0, 17) * 2)


class TestReductions:
    def _run_red(self, insns: str):
        src = f"""
            movi esi, $a
            movi edi, $b
            movi ecx, 16
            {insns}
            movi ebx, $out
            fstp [ebx]
            ret
        """
        image, vm = vec_image(src)
        vm.call("main")
        return image.data.read_f64(image.addr_of("out"))

    def test_sum(self):
        assert self._run_red("vred.sum esi, ecx") == sum(range(1, 17))

    def test_dot(self):
        assert self._run_red("vred.dot esi, edi, ecx") == 2.0 * sum(range(1, 17))

    def test_min_max(self):
        assert self._run_red("vred.min esi, ecx") == 1.0
        assert self._run_red("vred.max esi, ecx") == 16.0

    def test_sumsq(self):
        assert self._run_red("vred.sumsq esi, ecx") == sum(i * i for i in range(1, 17))

    def test_nancount(self):
        image, vm = vec_image(
            """
            movi esi, $a
            movi ecx, 16
            vred.nancount esi, ecx
            movi ebx, $out
            fstp [ebx]
            ret
            """
        )
        a = image.data.view_f64(image.addr_of("a"), 16)
        a[3] = math.nan
        a[7] = math.inf
        vm.call("main")
        assert image.data.read_f64(image.addr_of("out")) == 2.0


class TestCorruptedOperands:
    def test_corrupted_length_out_of_segment_faults(self):
        src = """
            movi esi, $a
            movi ecx, 100000
            vred.sum esi, ecx
            ret
        """
        image, vm = vec_image(src)
        with pytest.raises(SimSegfault):
            vm.call("main")

    def test_corrupted_base_address_faults(self):
        src = """
            movi esi, 0x500
            movi ecx, 4
            vred.sum esi, ecx
            ret
        """
        image, vm = vec_image(src)
        with pytest.raises(SimSegfault):
            vm.call("main")

    def test_div_by_zero_vector_is_masked(self):
        src = """
            movi esi, $a
            movi edi, $b
            movi ebx, $dst
            movi ecx, 16
            vbin.div ebx, esi, edi, ecx
            ret
        """
        image, vm = vec_image(src)
        image.data.view_f64(image.addr_of("b"), 16)[0] = 0.0
        vm.call("main")  # must not raise: x87 masked semantics
        dst = image.data.view_f64(image.addr_of("dst"), 16)
        assert math.isinf(dst[0])


#: ``vbin.add`` / ``vbins.mul`` as the fifth instruction of ``main``.
UNDEFINED_SUBOP_KERNELS = {
    "vbin": "movi esi, $a\nmovi edi, $b\nmovi ebx, $dst\nmovi ecx, 16\n"
    "vbin.add ebx, esi, edi, ecx\nret",
    "vbins": "movi esi, $a\nmovi ebx, $dst\nmovi ecx, 16\nfldimm 3\n"
    "vbins.mul ebx, esi, ecx\nfpop\nret",
}


def undefined_subop_image(kernel, **kwargs):
    """An image whose vector instruction carries sub-opcode 0xFF."""
    image, vm = build_image(
        {"main": UNDEFINED_SUBOP_KERNELS[kernel]},
        data={"a": 128, "b": 128, "dst": 128},
        **kwargs,
    )
    # Byte 3 of the instruction word is the sub-opcode.
    image.text.write_u8(image.addr_of("main") + 4 * INSN_SIZE + 3, 0xFF)
    return image, vm


class UndefinedSubopApp:
    name = "undefined-subop"

    def build_process(self, rank, nprocs, config):
        return undefined_subop_image("vbin", mpi_lib=True)

    def main(self, ctx):
        ctx.vm.call("main")
        yield None


class TestUndefinedSubop:
    """A corrupted VBIN/VBINS sub-opcode is SIGILL: a simulated fault
    the job classifies as a crash, never a harness exception."""

    @pytest.mark.parametrize("kernel", sorted(UNDEFINED_SUBOP_KERNELS))
    def test_interpreter_raises_sigill(self, kernel):
        _, vm = undefined_subop_image(kernel)
        vm.fastpath = False
        with pytest.raises(SimIllegalInstruction, match="subop 255"):
            vm.call("main")

    def test_job_crashes_with_sigill(self):
        timeline = PropagationTimeline()
        with activate(timeline=timeline):
            result = Job(UndefinedSubopApp(), JobConfig(nprocs=1)).run()
        assert result.status is JobStatus.CRASHED
        assert timeline.summary()["divergence_kind"] == "signal:SIGILL"
