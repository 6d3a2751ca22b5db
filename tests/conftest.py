"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.assembler import Program
from repro.cpu.vm import VM
from repro.engine.progress import TrialSink
from repro.memory.process import ProcessImage
from repro.memory.symbols import Linker
from repro.mpi.simulator import JobConfig
from repro.staticanalysis.propagation.pruning import MaskingOracle, PruneVerdict


def build_image(
    program_sources: dict[str, str] | None = None,
    *,
    data: dict[str, int] | None = None,
    bss: dict[str, int] | None = None,
    mpi_lib: bool = False,
    heap_size: int = 1 << 16,
    stack_size: int = 1 << 14,
    track: bool = False,
    rank: int = 0,
) -> tuple[ProcessImage, VM]:
    """Assemble, link and load a small test program."""
    prog = Program()
    for name, source in (program_sources or {}).items():
        prog.add(name, source)
    linker = Linker()
    prog.add_to_linker(linker)
    for name, size in (data or {}).items():
        linker.add_data(name, size)
    for name, size in (bss or {"scratchpad": 4096}).items():
        linker.add_bss(name, size)
    if not prog.functions:
        linker.add_text("empty", b"\x01" * 64)
    if mpi_lib:
        from repro.mpi.library import add_mpi_library

        add_mpi_library(linker, text_scale=0.1, data_scale=0.1)
    image = ProcessImage.from_linker(
        linker, rank=rank, heap_size=heap_size, stack_size=stack_size, track=track
    )
    prog.relocate(image)
    return image, VM(image)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def prune_nothing(mp: pytest.MonkeyPatch) -> None:
    """Make the masking oracle prove nothing, so campaigns execute every
    sampled spec: the unpruned reference a pruned campaign is checked
    against, reached the way ``VM.fastpath = False`` reaches the
    interpreter."""
    mp.setattr(
        MaskingOracle,
        "verdict",
        lambda self, spec: PruneVerdict(False, "dynamic-target"),
    )


# ----------------------------------------------------------------------
# small application configurations (fast enough for unit tests)
# ----------------------------------------------------------------------
SMALL_NPROCS = 4

SMALL_WAVETOY = dict(nx=32, ny=8, steps=6, cold_heap_factor=3, output_stride=1)
SMALL_MOLDYN = dict(atoms_per_rank=64, boundary=16, steps=5, cold_heap_factor=3)
SMALL_CLIMATE = dict(nlon=32, nlat_local=2, steps=6, gather_every=3)


@pytest.fixture
def small_config():
    return JobConfig(nprocs=SMALL_NPROCS)


def small_wavetoy():
    from repro.apps import WavetoyApp

    return WavetoyApp(**SMALL_WAVETOY)


def small_moldyn(**overrides):
    from repro.apps import MoldynApp

    return MoldynApp(**{**SMALL_MOLDYN, **overrides})


def small_climate(**overrides):
    from repro.apps import ClimateApp

    return ClimateApp(**{**SMALL_CLIMATE, **overrides})


# ----------------------------------------------------------------------
# a trial sink that records what the engine tells it
# ----------------------------------------------------------------------
class RecordingSink(TrialSink):
    """Records every sink call the engine makes, in order: region
    starts, trial keys, progress events and region-final rows."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def region_start(self, app, region, planned):
        self.calls.append(("region_start", app, region, planned))

    def trial(self, result):
        self.calls.append(("trial", result.key))

    def progress(self, event):
        self.calls.append(("progress", event))

    def region_final(self, app, row):
        self.calls.append(("region_final", app, row))

    @property
    def events(self):
        """The progress events alone."""
        return [call[1] for call in self.calls if call[0] == "progress"]
