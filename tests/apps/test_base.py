"""Shared application machinery (StackLocals, build, error handler)."""

import pytest

from repro.apps.base import (
    MPIApplication,
    StackLocals,
    padding_code,
    unrolled_init_source,
)
from repro.cpu.isa import INSN_SIZE, Op, decode
from tests.conftest import build_image


class TestStackLocals:
    def _image(self):
        image, _ = build_image({"kern": "movi eax, 1\nret"})
        return image

    def test_set_get_roundtrip(self):
        image = self._image()
        loc = StackLocals(image, "kern", ("a", "b", "c"))
        loc.set("b", 0xCAFE)
        assert loc.get("b") == 0xCAFE
        assert loc.get("a") == 0

    def test_values_live_in_stack_memory(self):
        image = self._image()
        loc = StackLocals(image, "kern", ("ptr",))
        loc.set("ptr", 0x1234)
        assert image.stack_segment.read_u32(loc.addr("ptr")) == 0x1234
        assert image.stack_segment.contains(loc.addr("ptr"))

    def test_corruption_visible_on_read_back(self):
        """The stack->MPI-argument fault pathway."""
        image = self._image()
        loc = StackLocals(image, "kern", ("count",))
        loc.set("count", 96)
        image.stack_segment.flip_bit(loc.addr("count"), 31 % 8)
        assert loc.get("count") != 96

    def test_signed_read(self):
        image = self._image()
        loc = StackLocals(image, "kern", ("x",))
        loc.set("x", -3)
        assert loc.get_signed("x") == -3
        assert loc.get("x") == 0xFFFF_FFFD

    def test_frame_return_address_in_user_text(self):
        image = self._image()
        loc = StackLocals(image, "kern", ("x",))
        ebp, ret = next(iter(image.stack.walk_frames()))
        assert image.in_user_text(ret)

    def test_padding_reserved_below_fields(self):
        image = self._image()
        loc = StackLocals(image, "kern", ("x",), padding=256)
        assert loc.addr("x") - loc.frame.locals_base >= 256


class TestHelpers:
    def test_padding_code_is_valid(self):
        code = padding_code(256)
        assert len(code) == 256
        assert decode(code[:INSN_SIZE]).op is Op.NOP
        assert decode(code[-INSN_SIZE:]).op is Op.RET

    def test_unrolled_init_runs_once(self):
        src = unrolled_init_source(100)
        image, vm = build_image({"init": src})
        vm.call("init")
        sym = image.symtab.lookup("init")
        assert sym.size == pytest.approx(100 * INSN_SIZE, abs=3 * INSN_SIZE)


class TestApplicationBase:
    def test_unknown_params_rejected(self):
        class App(MPIApplication):
            DEFAULTS = {"a": 1}

        with pytest.raises(ValueError):
            App(b=2)
        assert App(a=5).params["a"] == 5

    @pytest.mark.parametrize(
        "key, value",
        [("n", "32"), ("n", 32.0), ("n", True), ("x", "0.5"), ("x", False),
         ("on", 1), ("label", 5)],
        ids=["str-int", "float-int", "bool-int", "str-float", "bool-float",
             "int-bool", "int-str"],
    )
    def test_param_of_another_type_rejected(self, key, value):
        class App(MPIApplication):
            name = "typed"
            DEFAULTS = {"n": 1, "x": 0.5, "on": True, "label": "a"}

        with pytest.raises(ValueError, match=f"parameter '{key}' of typed must be"):
            App(**{key: value})

    def test_int_stands_for_float(self):
        """An int given for a float default becomes that float, so
        ``damping=1`` and ``damping=1.0`` name one program."""
        from repro.apps import WavetoyApp

        app = WavetoyApp(damping=1)
        assert type(app.params["damping"]) is float
        assert app.params == WavetoyApp(damping=1.0).params

    def test_registry_campaign_checks_param_types(self):
        from repro.injection.campaign import Campaign

        with pytest.raises(ValueError, match="parameter 'nx' of wavetoy must be int"):
            Campaign.from_registry("wavetoy", nprocs=2, app_params={"nx": "32"})

    def test_program_cache_keyed_by_codegen(self):
        from repro.apps import WavetoyApp

        a = WavetoyApp(nx=32)
        b = WavetoyApp(nx=32)
        c = WavetoyApp(nx=64)
        assert a.program() is b.program()
        assert a.program() is not c.program()
