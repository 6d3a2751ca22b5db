"""Cross-validation of static AVF predictions against dynamic injection.

The whole point of the static pass is to predict what a register
injection campaign would measure without running one; this module runs
both and reports the agreement:

* **per-register rank correlation** - for each ablation kernel
  (:mod:`repro.analysis.liveness`'s optimized / unoptimized pair) and
  each GPR, the static AVF score is paired with the dynamically measured
  flip error rate (``register_sensitivity`` with the register fixed:
  the same uniform time x bit sampling the campaigns use, driven
  through ``VM.schedule_hook``), and Spearman's rho is computed over all
  (kernel, register) points;
* **live-register count agreement** - the static analysis must reproduce
  the Springer-style section-6.1.1 ablation result: the optimized kernel
  keeps more registers live than the spill-everything variant.

The dynamic side deliberately mirrors the existing ablation rather than
a full MPI campaign: the ablation kernel is the one program for which
the repo already has a trusted dynamic ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.liveness import (
    OPTIMIZED_SOURCE,
    UNOPTIMIZED_SOURCE,
    register_sensitivity,
)
from repro.cpu.assembler import assemble_function
from repro.cpu.registers import REG_NAMES
from repro.staticanalysis.avf import register_avf
from repro.staticanalysis.cfg import ControlFlowGraph
from repro.staticanalysis.dataflow import liveness


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length samples of size >= 2")

    def ranks(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v), dtype=float)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i : j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0  # a constant ranking carries no ordering information
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


# ----------------------------------------------------------------------
# the two sides of the comparison
# ----------------------------------------------------------------------
def static_register_scores(source: str) -> dict[str, float]:
    """Loop-weighted static AVF per register for one kernel source."""
    cfg = ControlFlowGraph.from_function(assemble_function("kernel", source))
    return register_avf(cfg)


def static_live_register_count(source: str) -> int:
    """Number of registers with any live window (the static counterpart
    of the ablation's registers-used count)."""
    cfg = ControlFlowGraph.from_function(assemble_function("kernel", source))
    return len(liveness(cfg).live_registers())


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationReport:
    #: (kernel, register) -> static AVF prediction.
    static_scores: dict[tuple[str, str], float]
    #: (kernel, register) -> dynamic flip error rate.
    dynamic_rates: dict[tuple[str, str], float]
    rank_correlation: float
    static_live_optimized: int
    static_live_unoptimized: int
    text: str

    @property
    def liveness_agrees(self) -> bool:
        """The section-6.1.1 ablation direction, reproduced statically."""
        return self.static_live_optimized > self.static_live_unoptimized


def validate(trials: int = 60, seed: int = 17) -> ValidationReport:
    """Run both sides over the ablation kernel pair and correlate."""
    rng = np.random.default_rng(seed)
    kernels = {
        "optimized": OPTIMIZED_SOURCE,
        "unoptimized": UNOPTIMIZED_SOURCE,
    }
    static: dict[tuple[str, str], float] = {}
    dynamic: dict[tuple[str, str], float] = {}
    for kname, source in kernels.items():
        scores = static_register_scores(source)
        for reg_index, reg_name in enumerate(REG_NAMES):
            static[(kname, reg_name)] = scores[reg_name]
            dynamic[(kname, reg_name)] = register_sensitivity(
                source, trials, rng, reg=reg_index
            )
    keys = sorted(static)
    rho = spearman([static[k] for k in keys], [dynamic[k] for k in keys])
    live_opt = static_live_register_count(OPTIMIZED_SOURCE)
    live_unopt = static_live_register_count(UNOPTIMIZED_SOURCE)
    lines = [
        f"static-vs-dynamic register sensitivity, {trials} trials/register:",
        f"  Spearman rank correlation rho = {rho:.3f} over {len(keys)} points",
        f"  static live registers: optimized {live_opt}, "
        f"unoptimized {live_unopt}",
    ]
    for k in keys:
        lines.append(
            f"  {k[0]:>11s}.{k[1]}: static {static[k]:.3f} "
            f"dynamic {dynamic[k]:.3f}"
        )
    return ValidationReport(
        static_scores=static,
        dynamic_rates=dynamic,
        rank_correlation=rho,
        static_live_optimized=live_opt,
        static_live_unoptimized=live_unopt,
        text="\n".join(lines),
    )
