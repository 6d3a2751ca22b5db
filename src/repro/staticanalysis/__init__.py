"""Static fault-vulnerability analysis over the toy ISA.

The campaigns in :mod:`repro.injection` measure fault sensitivity by
*running* thousands of perturbed executions.  This package predicts the
same structural quantities without executing anything, the trade ZOFI
makes against full fault-injection runs:

* :mod:`repro.staticanalysis.cfg` - decode assembled bytes into a
  basic-block control-flow graph;
* :mod:`repro.staticanalysis.dataflow` - a worklist fixpoint engine with
  backward register liveness and forward reaching definitions;
* :mod:`repro.staticanalysis.avf` - an ACE/AVF-style estimator for
  per-register fault sensitivity and a per-bit text-segment
  vulnerability map;
* :mod:`repro.staticanalysis.lint` - diagnostics (``SA001``..) built on
  the analyses, run over every shipped kernel in CI;
* :mod:`repro.staticanalysis.validation` - cross-check of the static
  predictions against a dynamic register-injection campaign;
* :mod:`repro.staticanalysis.mpicheck` - MUST/MPI-Checker-style
  communication verification (``SA1xx``) over extracted skeletons;
* :mod:`repro.staticanalysis.propagation` - flow-sensitive taint cones,
  the per-app detector-coverage audit (``SA2xx``), and the masking
  oracle every campaign prunes with.
"""

from repro.staticanalysis.avf import AVFReport, analyze_function, analyze_program
from repro.staticanalysis.cfg import BasicBlock, ControlFlowGraph
from repro.staticanalysis.dataflow import liveness, reaching_definitions
from repro.staticanalysis.lint import Diagnostic, lint_function, lint_program
from repro.staticanalysis.propagation import (
    MaskingOracle,
    PropagationCone,
    SiteClass,
    TaintAnalysis,
)

__all__ = [
    "AVFReport",
    "BasicBlock",
    "ControlFlowGraph",
    "Diagnostic",
    "MaskingOracle",
    "PropagationCone",
    "SiteClass",
    "TaintAnalysis",
    "analyze_function",
    "analyze_program",
    "lint_function",
    "lint_program",
    "liveness",
    "reaching_definitions",
]
