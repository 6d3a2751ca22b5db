"""Working-set analysis (paper section 6.1.2, Tables 5-7).

The paper defines: "the 'working set size at time t' is the size of
accessed memory since t.  The working set size, therefore, is a
non-increasing function of t."  Because every granule's *last* access
time is recorded, the working set at t is simply the set of granules
whose last access is at or after t - computed here with one sort and a
vectorized ``searchsorted``.

Text accesses are instruction fetches; data accesses are memory *loads*
in the Data, BSS and Heap sections, matching the paper's Valgrind
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.memory.layout import GRANULE
from repro.memory.segments import Segment
from repro.mpi.simulator import Job, JobConfig


@dataclass(frozen=True)
class WorkingSetCurve:
    """WSS(t) sampled at ``times`` (block counts), as section percent."""

    name: str
    times: np.ndarray  # int64 block counts, ascending
    sizes_bytes: np.ndarray  # WSS in bytes at each time
    section_bytes: int  # denominator for the percentage

    @property
    def percent(self) -> np.ndarray:
        if self.section_bytes == 0:
            return np.zeros_like(self.sizes_bytes, dtype=float)
        return 100.0 * self.sizes_bytes / self.section_bytes

    def at(self, t: int) -> float:
        """WSS percentage at the sample nearest to block count ``t``."""
        idx = int(np.argmin(np.abs(self.times - t)))
        return float(self.percent[idx])

    def is_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.sizes_bytes) <= 0))


def working_set_sizes(last_access: np.ndarray, times: np.ndarray) -> np.ndarray:
    """WSS in *granules* at each query time.

    ``last_access`` holds, per granule, the block count of its final
    access (-1 = never accessed).  WSS(t) = #{granules: last >= t}.
    """
    finite = np.sort(last_access[last_access >= 0])
    # count of elements >= t == n - (index of first element >= t)
    return finite.size - np.searchsorted(finite, times, side="left")


def _times(total_blocks: int, samples: int) -> np.ndarray:
    return np.linspace(0, max(total_blocks, 1), samples, dtype=np.int64)


def section_curve(
    segment: Segment,
    *,
    kind: str,
    total_blocks: int,
    samples: int = 64,
    section_bytes: int | None = None,
) -> WorkingSetCurve:
    """Working-set curve of one segment.

    ``kind`` is ``"exec"`` for text (instruction fetches) or ``"load"``
    for data sections.  ``section_bytes`` defaults to the segment size;
    pass the symbol-table section size to match the paper's denominators.
    """
    arr = segment.last_exec if kind == "exec" else segment.last_load
    if arr is None:
        raise ValueError(
            f"segment {segment.name!r} was not created with track=True"
        )
    times = _times(total_blocks, samples)
    sizes = working_set_sizes(arr, times) * GRANULE
    return WorkingSetCurve(
        name=segment.name,
        times=times,
        sizes_bytes=sizes,
        section_bytes=section_bytes if section_bytes is not None else segment.size,
    )


def combined_curve(
    segments: list[Segment],
    *,
    kind: str,
    total_blocks: int,
    samples: int = 64,
    section_bytes: int | None = None,
    name: str = "combined",
) -> WorkingSetCurve:
    """Working-set curve over several segments (the paper's
    Data+BSS+Heap plots)."""
    arrays = []
    total_section = 0
    for seg in segments:
        arr = seg.last_exec if kind == "exec" else seg.last_load
        if arr is None:
            raise ValueError(f"segment {seg.name!r} was not created with track=True")
        arrays.append(arr)
        total_section += seg.size
    last = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    times = _times(total_blocks, samples)
    sizes = working_set_sizes(last, times) * GRANULE
    return WorkingSetCurve(
        name=name,
        times=times,
        sizes_bytes=sizes,
        section_bytes=section_bytes if section_bytes is not None else total_section,
    )


@dataclass
class MemoryTraceReport:
    """The Tables 5-7 artifact for one application: text and
    data+BSS+heap working-set curves of one (representative) rank."""

    app_name: str
    rank: int
    total_blocks: int
    text: WorkingSetCurve
    data: WorkingSetCurve
    bss: WorkingSetCurve
    heap: WorkingSetCurve
    data_bss_heap: WorkingSetCurve

    def initial_percent(self, which: str = "text") -> float:
        """WSS% at time 0 (the whole-run footprint)."""
        return getattr(self, which).at(0)

    def compute_phase_percent(self, which: str = "text", frac: float = 0.5) -> float:
        """WSS% once the computation phase is underway (sampled at
        ``frac`` of the run, past initialization)."""
        return getattr(self, which).at(int(self.total_blocks * frac))


def trace_memory(
    app,
    config: JobConfig,
    *,
    rank: int = 0,
    samples: int = 64,
) -> MemoryTraceReport:
    """Run the application fault-free with tracking enabled and return
    the working-set report for one rank.

    The paper instruments "a randomly selected MPI process, with the
    application executed on a smaller number of processors" because of
    Valgrind overhead; tracing here is cheap enough to use the full
    configuration, but the single-rank report matches the paper's.
    """
    cfg = JobConfig(nprocs=config.nprocs, seed=config.seed, track_memory=True)
    job = Job(app, cfg)
    result = job.run()
    if not result.completed:
        raise RuntimeError(f"fault-free traced run failed: {result.detail}")
    image = job.images[rank]
    total = image.clock.blocks
    text_size = image.symtab.section_size("text")
    data_size = image.symtab.section_size("data")
    bss_size = image.symtab.section_size("bss")
    heap_size = max(image.heap.high_water, 1)
    return MemoryTraceReport(
        app_name=getattr(app, "name", type(app).__name__),
        rank=rank,
        total_blocks=total,
        text=section_curve(
            image.text, kind="exec", total_blocks=total, samples=samples,
            section_bytes=text_size,
        ),
        data=section_curve(
            image.data, kind="load", total_blocks=total, samples=samples,
            section_bytes=data_size,
        ),
        bss=section_curve(
            image.bss, kind="load", total_blocks=total, samples=samples,
            section_bytes=bss_size,
        ),
        heap=section_curve(
            image.heap_segment, kind="load", total_blocks=total, samples=samples,
            section_bytes=heap_size,
        ),
        data_bss_heap=combined_curve(
            [image.data, image.bss, image.heap_segment],
            kind="load",
            total_blocks=total,
            samples=samples,
            section_bytes=data_size + bss_size + heap_size,
            name="data+bss+heap",
        ),
    )
