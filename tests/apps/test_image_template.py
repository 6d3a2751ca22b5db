"""An application links once per process: every rank image of every job
is a fresh copy of one pristine template.

The reference for "fresh" is an independent link through ``Linker``
itself, never through ``build_process`` (whose cache is the code under
test).
"""

import numpy as np
import pytest

from repro.apps import ClimateApp, MoldynApp, WavetoyApp
from repro.apps import base as apps_base
from repro.memory.process import ProcessImage
from repro.memory.symbols import Linker
from repro.mpi.library import add_mpi_library
from repro.mpi.simulator import Job, JobConfig
from tests.conftest import SMALL_CLIMATE, SMALL_MOLDYN, SMALL_NPROCS, SMALL_WAVETOY

APPS = [
    pytest.param(WavetoyApp, SMALL_WAVETOY, id="wavetoy"),
    pytest.param(MoldynApp, SMALL_MOLDYN, id="moldyn"),
    pytest.param(ClimateApp, SMALL_CLIMATE, id="climate"),
]

SEGMENTS = ("text", "data", "bss", "heap_segment", "stack_segment")


def reference_link(app, rank: int, track: bool) -> ProcessImage:
    linker = Linker()
    app.program().add_to_linker(linker)
    app.add_static_objects(linker)
    add_mpi_library(
        linker, text_scale=app.mpi_text_scale, data_scale=app.mpi_data_scale
    )
    image = ProcessImage.from_linker(
        linker,
        rank=rank,
        heap_size=app.heap_size,
        stack_size=app.stack_size,
        track=track,
    )
    app.program().relocate(image)
    return image


def assert_fresh(image: ProcessImage, ref: ProcessImage) -> None:
    assert image.rank == ref.rank
    assert image.clock.blocks == 0
    for name in SEGMENTS:
        seg, want = getattr(image, name), getattr(ref, name)
        assert (seg.name, seg.base, seg.size, seg.perm) == (
            want.name, want.base, want.size, want.perm,
        )
        assert seg.clock is image.clock
        assert seg.version == want.version, name
        assert np.array_equal(seg.buf, want.buf), name
        assert seg.tracking == want.tracking
        for arr in ("last_load", "last_store", "last_exec"):
            got, exp = getattr(seg, arr), getattr(want, arr)
            assert (got is None) == (exp is None)
            if got is not None:
                assert np.array_equal(got, exp), (name, arr)
    assert [seg.name for seg in image.address_space.segments()] == [
        seg.name for seg in ref.address_space.segments()
    ]
    assert list(image.symtab) == list(ref.symtab)
    assert image.entry_points == ref.entry_points
    assert image.heap.in_use == 0 and image.heap.user_chunks() == []
    assert (image.stack.esp, image.stack.ebp) == (ref.stack.esp, ref.stack.ebp)


def test_second_job_does_not_link(monkeypatch):
    app = WavetoyApp(**SMALL_WAVETOY)
    config = JobConfig(nprocs=SMALL_NPROCS)
    Job(app, config)
    calls = {"link": 0, "mpi": 0}
    link = Linker.link

    def counted_link(self, **kwargs):
        calls["link"] += 1
        return link(self, **kwargs)

    def counted_mpi(linker, **kwargs):
        calls["mpi"] += 1
        return add_mpi_library(linker, **kwargs)

    monkeypatch.setattr(Linker, "link", counted_link)
    monkeypatch.setattr(apps_base, "add_mpi_library", counted_mpi)
    job = Job(WavetoyApp(**SMALL_WAVETOY), config)
    assert calls == {"link": 0, "mpi": 0}
    assert job.run().completed


@pytest.mark.parametrize("track", [False, True], ids=["plain", "tracked"])
@pytest.mark.parametrize("factory, params", APPS)
def test_no_job_aliases_the_template(factory, params, track):
    config = JobConfig(nprocs=SMALL_NPROCS, track_memory=track)
    job = Job(factory(**params), config)
    assert job.run().completed
    for image in job.images:
        image.text.flip_bit(image.text.base + 4, 3)
        for seg in (image.data, image.bss, image.heap_segment, image.stack_segment):
            seg.buf[:] = 0xA5
            seg.version += 7
        image.heap.malloc(64)
        image.stack.push_u32(1)
    again = Job(factory(**params), config)
    for rank, image in enumerate(again.images):
        assert_fresh(image, reference_link(factory(**params), rank, track))
    assert again.run().completed


def test_params_key_the_layout():
    config = JobConfig(nprocs=2)
    default, _ = MoldynApp().build_process(0, 2, config)
    small, _ = MoldynApp(atoms_per_rank=128).build_process(0, 2, config)
    assert small.symtab.lookup("md_minv").size == 128 * 8
    assert default.symtab.lookup("md_minv").size == 256 * 8
    assert (
        small.symtab.lookup("md_cell_lists").addr
        != default.symtab.lookup("md_cell_lists").addr
    )
    assert_fresh(small, reference_link(MoldynApp(atoms_per_rank=128), 0, False))
    assert_fresh(default, reference_link(MoldynApp(), 0, False))


def test_subclass_gets_its_own_image():
    class BigHeapWavetoy(WavetoyApp):
        heap_size = 1 << 21

    config = JobConfig(nprocs=2)
    plain, _ = WavetoyApp(**SMALL_WAVETOY).build_process(1, 2, config)
    big, _ = BigHeapWavetoy(**SMALL_WAVETOY).build_process(1, 2, config)
    assert plain.heap_segment.size == 1 << 20
    assert big.heap_segment.size == 1 << 21
    assert_fresh(big, reference_link(BigHeapWavetoy(**SMALL_WAVETOY), 1, False))


def test_unhashable_params_still_build():
    class ListParamWavetoy(WavetoyApp):
        DEFAULTS = {**WavetoyApp.DEFAULTS, "labels": []}

    app = ListParamWavetoy(**SMALL_WAVETOY, labels=["a", "b"])
    config = JobConfig(nprocs=2)
    image, vm = app.build_process(0, 2, config)
    assert vm.image is image
    assert_fresh(image, reference_link(app, 0, False))
    cache = apps_base.MPIApplication._image_cache
    assert not any(key[0] is ListParamWavetoy for key in cache)
    assert Job(app, config).run().completed
