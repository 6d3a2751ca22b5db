"""The masking oracle: which planned faults are provably outcome-free.

Every campaign, whatever its design, asks for each sampled
:class:`~repro.injection.faults.FaultSpec` the store does not hold
whether static analysis can *prove* the flip cannot change the job's
outcome (:class:`~repro.engine.driver.CampaignEngine`'s ``prune``).
Provable sites are tallied as masked without execution; everything
else runs normally.  The outcome predictor's ``masked`` stratum is
exactly this oracle's masked set, so a stratified run never dispatches
a site the oracle would prune.

The oracle only prunes what it can argue from first principles - every
verdict names its reason, and each reason rests on a different static
fact:

``cold-text``
    the flipped byte lies in a text object that is not an assembled
    kernel (the apps' padding blobs: cold library routines that are
    never called, verified against the program's function inventory);
``benign-text-bit``
    the byte lies inside a kernel, but the AVF bit classifier
    (:func:`repro.staticanalysis.avf.classify_bit`) proves the bit is
    architecturally dead: an unused operand nibble, the register-alias
    bit the register file masks off, a dead immediate, a shift-count
    bit above the 5 the shifter consumes;
``cold-symbol``
    a data/BSS byte in a symbol no kernel relocation references, the
    model does not declare read, and that is not itself a kernel -
    nothing ever loads it (the paper's Table 1 cold majority);
``fp-bookkeeping``
    an FP_REG fault targeting fip/fcs/foo/fos - the x87 exception
    bookkeeping words the FPU records but this pipeline never reads
    back.

Deliberately **not** prunable: HEAP and STACK faults (addresses resolve
at fire time against live allocation state), REGULAR_REG faults (the
register's deadness depends on the injection *moment* - that is the AVF
layer's probabilistic story, not a proof), MESSAGE faults, and the
cwd/swd/twd FP controls the execution path does consume.

Tally correction: a pruned site is recorded as a delivered trial with
manifestation CORRECT.  Because sampling is uniform over each region's
byte space and the pruned stratum has a *known* error rate of zero,
crediting its samples as correct is exactly the stratified estimator
with a zero-variance stratum - equivalently, importance weighting where
the executed stratum keeps its original sampling weight.  Region rates
are therefore unbiased with respect to the unpruned campaign; only the
executed-trial count shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.decoder import decode_stream
from repro.cpu.isa import INSN_SIZE
from repro.injection.faults import FaultSpec, Region
from repro.memory.symbols import SymbolTable
from repro.staticanalysis.avf import Predicted, classify_bit
from repro.staticanalysis.propagation.coverage import hot_symbols
from repro.staticanalysis.propagation.model import PropagationModel

#: x87 bookkeeping words: written by the FPU on every operation, read
#: back by nothing in this pipeline (fsave/frstor excepted, which
#: round-trips them unchanged).
FP_BOOKKEEPING = frozenset({"fip", "fcs", "foo", "fos"})


@dataclass(frozen=True)
class PruneVerdict:
    masked: bool
    reason: str


_RUN = PruneVerdict(False, "dynamic-target")


class MaskingOracle:
    """Per-spec masked/run verdicts for one linked application."""

    def __init__(
        self,
        program,
        symtab: SymbolTable,
        model: PropagationModel,
    ) -> None:
        self.program = program
        self.symtab = symtab
        self.model = model
        #: Function name -> (decoded insns, relocated indices).
        self._functions = {
            name: (
                decode_stream(fn.code),
                frozenset(r.insn_index for r in fn.relocations),
            )
            for name, fn in program.functions.items()
        }
        #: Symbols some kernel can actually address.
        self._hot_symbols = hot_symbols(program, model)

    @classmethod
    def from_campaign(cls, campaign) -> "MaskingOracle":
        """Build from a campaign's reference profile (the same linked
        image the fault dictionary was built from)."""
        app = campaign.app_factory()
        return cls(
            program=app.program(),
            symtab=campaign.reference().symtab,
            model=app.propagation_model(),
        )

    # ------------------------------------------------------------------
    def verdict(self, spec: FaultSpec) -> PruneVerdict:
        if spec.region is Region.TEXT:
            return self._text_verdict(spec)
        if spec.region in (Region.DATA, Region.BSS):
            return self._static_data_verdict(spec)
        if spec.region is Region.FP_REG:
            if spec.fp_target in FP_BOOKKEEPING:
                return PruneVerdict(True, "fp-bookkeeping")
            return _RUN
        return _RUN

    def _text_verdict(self, spec: FaultSpec) -> PruneVerdict:
        sym = self.symtab.resolve(spec.address)
        if sym is None or sym.library != "user":
            return _RUN
        if sym.name not in self._functions:
            # A user text object that is not an assembled kernel: the
            # apps' never-executed padding blobs.
            return PruneVerdict(True, "cold-text")
        insns, relocated = self._functions[sym.name]
        offset = spec.address - sym.addr
        word, byte = divmod(offset, INSN_SIZE)
        if word >= len(insns):  # trailing padding inside the object
            return PruneVerdict(True, "cold-text")
        predicted = classify_bit(
            insns[word],
            word,
            len(insns),
            byte * 8 + spec.bit,
            relocated=word in relocated,
        )
        if predicted is Predicted.BENIGN:
            return PruneVerdict(True, "benign-text-bit")
        return _RUN

    def _static_data_verdict(self, spec: FaultSpec) -> PruneVerdict:
        sym = self.symtab.resolve(spec.address)
        if sym is None or sym.library != "user":
            return _RUN
        if sym.name not in self._hot_symbols:
            return PruneVerdict(True, "cold-symbol")
        return _RUN
