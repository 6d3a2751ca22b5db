"""Static fault-propagation analysis.

Layered bottom-up:

* :mod:`.taint` - flow-sensitive per-kernel taint cones over the CFG /
  dataflow layer (which registers, flags, and memory regions a corrupted
  value can reach);
* :mod:`.model` - the per-app declarative propagation model (output
  sources, message corridors, deployed detectors, accepted risks);
* :mod:`.coverage` - the app-level join of linker inventory, model, and
  communication skeleton;
* :mod:`.sites` - per-injection-site classification into
  provably-masked / detector-covered / sdc-risk / control-flow-risk;
* :mod:`.passes` - the SA2xx detector-coverage audit;
* :mod:`.pruning` - the masking oracle every campaign prunes with;
* :mod:`.validation` - static predictions vs dynamic campaign outcomes;
* :mod:`.fixtures` - deliberately broken models for the audit tests.
"""

from repro.staticanalysis.propagation.coverage import (
    AppCoverage,
    OutputPath,
    coverage_for,
)
from repro.staticanalysis.propagation.model import (
    AcceptedRisk,
    Corridor,
    DetectorSite,
    PropagationModel,
    sym,
)
from repro.staticanalysis.propagation.passes import (
    PROPAGATION_LINT_CODES,
    audit_app,
)
from repro.staticanalysis.propagation.pruning import (
    FP_BOOKKEEPING,
    MaskingOracle,
    PruneVerdict,
)
from repro.staticanalysis.propagation.sites import (
    RegisterSite,
    SiteClass,
    class_counts,
    classify_cone,
    kernel_sites,
)
from repro.staticanalysis.propagation.taint import (
    PropagationCone,
    TaintAnalysis,
)

__all__ = [
    "AcceptedRisk",
    "AppCoverage",
    "Corridor",
    "DetectorSite",
    "FP_BOOKKEEPING",
    "MaskingOracle",
    "OutputPath",
    "PROPAGATION_LINT_CODES",
    "PropagationCone",
    "PropagationModel",
    "PruneVerdict",
    "RegisterSite",
    "SiteClass",
    "TaintAnalysis",
    "audit_app",
    "class_counts",
    "classify_cone",
    "coverage_for",
    "kernel_sites",
    "sym",
]
