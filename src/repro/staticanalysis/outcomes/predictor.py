"""Static outcome prediction: every fault site gets a stratum.

The dynamic campaigns measure the paper's manifestation distribution by
executing tens of thousands of jobs.  This module *predicts* the likely
manifestation of each injectable site before any job runs, folding the
suite's static layers into one verdict:

* the interval domain (:mod:`.intervals`) proves that a flipped address
  bit sends a load/store outside every mapped segment -> *crash-prone*;
* the loop-bound analysis (:mod:`.hangs`) finds the counters, bounds,
  increments and back-edge branches whose corruption stalls a kernel
  past the :mod:`repro.engine.budgets` limits, and the channel-protocol
  header fields whose corruption strands a matching receive ->
  *hang-prone*;
* the taint cones plus detector placement (:mod:`..propagation`) split
  the remaining propagating sites into *detectable* vs *sdc-risk*;
* the PR 6 masking oracle contributes the *masked* stratum - and ONLY
  the oracle does, so the masked stratum keeps its precision-1.0
  contract by construction;
* everything the analyses cannot argue stays *uncertain*.

The strata drive two consumers: the SA3xx audit passes (:mod:`.passes`)
and the stratified campaign sampler (``campaign run --stratify``),
which allocates Cochran samples per stratum and importance-weights the
tallies back to unbiased region rates.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass

from repro.cpu import semantics
from repro.cpu.isa import INSN_SIZE
from repro.cpu.registers import EBP, ESP, REG_NAMES
from repro.injection.faults import FaultSpec, Region
from repro.memory.layout import (
    DEFAULT_STACK_SIZE,
    STATIC_IMAGE_WINDOW,
)
from repro.mpi.adi import MSG_EAGER
from repro.mpi.channel import HEADER_SIZE
from repro.mpi.datatypes import INTERNAL_TAG_BASE
from repro.staticanalysis.avf import Predicted, block_weights, classify_bit
from repro.staticanalysis.cfg import ControlFlowGraph
from repro.staticanalysis.outcomes.hangs import HangAnalysis, hang_bit_floor
from repro.staticanalysis.outcomes.intervals import (
    Interval,
    IntervalAnalysis,
    flip_escapes,
    stack_window,
)
from repro.staticanalysis.propagation.coverage import AppCoverage
from repro.staticanalysis.propagation.pruning import FP_BOOKKEEPING, MaskingOracle
from repro.staticanalysis.propagation.sites import SiteClass, classify_cone
from repro.staticanalysis.propagation.taint import TaintAnalysis


class Stratum(str, enum.Enum):
    """Predicted-outcome stratum of one injectable fault site."""

    CRASH_PRONE = "crash-prone"
    HANG_PRONE = "hang-prone"
    DETECTABLE = "detectable"
    SDC_RISK = "sdc-risk"
    MASKED = "masked"
    UNCERTAIN = "uncertain"


#: Minimum fraction of a register's use weight that must be address
#: arithmetic before the register is treated as pointer-carrying.
POINTER_MASS_FLOOR = 0.25

#: Fraction of a pointer register's address-site weight that must carry
#: an interval escape proof before a bit is declared crash-prone.
ESCAPE_PROOF_FLOOR = 0.5

#: Wire layout of the 48-byte packet header: (field, start, end).
_HEADER_FIELDS = (
    ("magic", 0, 4),
    ("src", 4, 8),
    ("dst", 8, 12),
    ("tag", 12, 16),
    ("type", 16, 20),
    ("len", 20, 24),
    ("seq", 24, 28),
    ("comm_id", 28, 32),
    ("pad", 32, 48),
)


@dataclass(frozen=True)
class KernelOutcomes:
    """Per-kernel static analyses, joined once at predictor build."""

    name: str
    cfg: ControlFlowGraph
    taint: TaintAnalysis
    intervals: IntervalAnalysis
    hangs: HangAnalysis
    weights: tuple[float, ...]
    #: (insn_index, reg) -> site class of that register site's taint
    #: cone, for every GPR the instruction writes.
    site_classes: dict[tuple[int, int], SiteClass]
    #: (insn_index, bit64) pairs predicted hang-prone in the text image.
    hang_bits: frozenset[tuple[int, int]]
    #: Per-instruction, per-bit (64) stratum of the text word.
    text_strata: tuple[tuple[Stratum, ...], ...]


def _aggregate_site_classes(classes: list[SiteClass]) -> Stratum:
    """Join taint site classes into one stratum.  CONTROL_FLOW_RISK maps
    to SDC_RISK: a statically unpredictable detour dilutes the crash
    stratum if claimed as a crash, so it stays on the silent side.
    PROVABLY_MASKED alone maps to UNCERTAIN, never MASKED - the masked
    stratum is the oracle's, and its precision floor is absolute."""
    if any(
        c in (SiteClass.SDC_RISK, SiteClass.CONTROL_FLOW_RISK) for c in classes
    ):
        return Stratum.SDC_RISK
    if any(c is SiteClass.DETECTOR_COVERED for c in classes):
        return Stratum.DETECTABLE
    return Stratum.UNCERTAIN


class OutcomePredictor:
    """Maps any :class:`~repro.injection.faults.FaultSpec` of one linked
    application to its predicted-outcome stratum."""

    def __init__(
        self,
        *,
        app_name: str,
        program,
        symtab,
        oracle: MaskingOracle,
        coverage: AppCoverage,
        block_limit: int,
        packets=None,
        received_bytes_per_rank: list[int] | None = None,
        message_classes: dict[int, str] | None = None,
        stack_size: int = DEFAULT_STACK_SIZE,
    ) -> None:
        self.app_name = app_name
        self.symtab = symtab
        self.oracle = oracle
        self.coverage = coverage
        self.block_limit = block_limit
        self.hang_floor = hang_bit_floor(block_limit)
        self.stack_window = stack_window(stack_size)
        self.windows = (STATIC_IMAGE_WINDOW, self.stack_window)
        self.message_classes = dict(message_classes or {})
        self.kernels: dict[str, KernelOutcomes] = {}
        self._symbol_strata: dict[str, Stratum] = {}
        self._build_kernels(program, symtab)
        self.register_table: tuple[tuple[Stratum, ...], ...] = (
            self._build_register_table()
        )
        self._streams = self._build_streams(packets, received_bytes_per_rank)

    # ------------------------------------------------------------------
    @classmethod
    def from_campaign(cls, campaign) -> "OutcomePredictor":
        """Build from a campaign's reference profile, oracle and
        coverage join - the same authorities the pruning path uses."""
        from repro.staticanalysis.mpicheck import extract_skeleton
        from repro.staticanalysis.propagation.coverage import coverage_for

        ref = campaign.reference()
        app = campaign.app_factory()
        skeleton = extract_skeleton(
            campaign.app_factory(),
            campaign.config.nprocs,
            seed=campaign.config.seed,
            round_limit=ref.round_limit,
        )
        return cls(
            app_name=campaign.app_name,
            program=app.program(),
            symtab=ref.symtab,
            oracle=campaign.masking_oracle(),
            coverage=coverage_for(campaign.app_name, campaign.app_params),
            block_limit=ref.block_limit,
            packets=skeleton.packets,
            received_bytes_per_rank=list(ref.received_bytes_per_rank),
            message_classes=dict(app.message_classes()),
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_kernels(self, program, symtab) -> None:
        for name, fn in program.functions.items():
            cfg = ControlFlowGraph.from_function(fn)
            reloc_symbols = {r.insn_index: r.symbol for r in fn.relocations}
            reloc_addrs = {}
            for i, sym in reloc_symbols.items():
                try:
                    reloc_addrs[i] = symtab.lookup(sym).addr
                except KeyError:
                    pass  # unresolved: the static-window fallback applies
            taint = TaintAnalysis(cfg, reloc_symbols)
            intervals = IntervalAnalysis(cfg, reloc_addrs)
            hangs = HangAnalysis(cfg)
            hang_bits = hangs.hang_prone_text_bits(self.block_limit)
            weights = tuple(block_weights(cfg))
            # One cone per register site, shared by the text strata and
            # the register table.
            site_classes = {
                (i, r): classify_cone(taint.cone_after(i, r), self.coverage)
                for i in range(len(cfg.insns))
                for r in taint.written_gprs(i)
            }
            text = self._text_strata(cfg, taint, site_classes, hang_bits)
            self.kernels[name] = KernelOutcomes(
                name=name,
                cfg=cfg,
                taint=taint,
                intervals=intervals,
                hangs=hangs,
                weights=weights,
                site_classes=site_classes,
                hang_bits=hang_bits,
                text_strata=text,
            )

    def _text_strata(
        self,
        cfg: ControlFlowGraph,
        taint: TaintAnalysis,
        site_classes: dict[tuple[int, int], SiteClass],
        hang_bits: frozenset[tuple[int, int]],
    ) -> tuple[tuple[Stratum, ...], ...]:
        n = len(cfg.insns)
        out: list[tuple[Stratum, ...]] = []
        for i, insn in enumerate(cfg.insns):
            # One cone join per instruction: a corrupted encoding mangles
            # the values the instruction writes, so the written GPRs'
            # cones bound where the corruption can go.
            written = taint.written_gprs(i)
            if written:
                propagated = _aggregate_site_classes(
                    [site_classes[(i, r)] for r in written]
                )
            else:
                # No GPR result: stores scribble memory, compares and
                # branches steer control - both silent-risk surfaces.
                propagated = Stratum.SDC_RISK
            relocated = i in cfg.relocated
            row = []
            for bit in range(64):
                predicted = classify_bit(insn, i, n, bit, relocated=relocated)
                if predicted is Predicted.CRASH:
                    row.append(Stratum.CRASH_PRONE)
                elif (i, bit) in hang_bits:
                    row.append(Stratum.HANG_PRONE)
                elif predicted is Predicted.BENIGN:
                    # The oracle prunes these as benign-text-bit; seen
                    # here only if the oracle was bypassed.
                    row.append(Stratum.UNCERTAIN)
                else:
                    row.append(propagated)
            out.append(tuple(row))
        return tuple(out)

    def _build_register_table(self) -> tuple[tuple[Stratum, ...], ...]:
        ptr_w = [0.0] * 8
        proof_w = [[0.0] * 32 for _ in range(8)]
        write_w = [0.0] * 8
        classes: list[list[SiteClass]] = [[] for _ in range(8)]
        hang_regs: set[int] = set()
        indexed_regs: set[int] = set()

        for kernel in self.kernels.values():
            cfg, weights = kernel.cfg, kernel.weights
            for i, insn in enumerate(cfg.insns):
                w = weights[i]
                if w <= 0:
                    continue
                for acc in semantics.memory_accesses(insn):
                    base = acc.base & 7
                    ptr_w[base] += w
                    iv = kernel.intervals.base_interval(i, base)
                    for bit in range(32):
                        if flip_escapes(iv, bit, self.windows):
                            proof_w[base][bit] += w
                for reg in kernel.taint.written_gprs(i):
                    write_w[reg] += w
                    classes[reg].append(kernel.site_classes[(i, reg)])
            for loop in kernel.hangs.loops:
                if loop.exact_exit:
                    hang_regs |= loop.pure_counters
                indexed_regs |= loop.memory_indexed_counters

        table: list[tuple[Stratum, ...]] = []
        for reg in range(8):
            if reg in (ESP, EBP):
                # The stack pointers live in the stack window whenever a
                # kernel is running; a flip that provably exits every
                # window faults on the next push/frame access.
                lo, hi = self.stack_window
                iv = Interval(lo, hi - 1)
                table.append(
                    tuple(
                        Stratum.CRASH_PRONE
                        if flip_escapes(iv, bit, self.windows)
                        else Stratum.UNCERTAIN
                        for bit in range(32)
                    )
                )
                continue
            use_w = ptr_w[reg] + write_w[reg]
            pointer_mass = ptr_w[reg] / use_w if use_w else 0.0
            fallback = (
                _aggregate_site_classes(classes[reg])
                if classes[reg]
                else Stratum.UNCERTAIN
            )
            row = []
            for bit in range(32):
                proven = (
                    proof_w[reg][bit] / ptr_w[reg] if ptr_w[reg] else 0.0
                )
                if (
                    pointer_mass >= POINTER_MASS_FLOOR
                    and proven >= ESCAPE_PROOF_FLOOR
                ):
                    row.append(Stratum.CRASH_PRONE)
                elif reg in hang_regs and reg not in indexed_regs:
                    row.append(Stratum.HANG_PRONE)
                else:
                    row.append(fallback)
            table.append(tuple(row))
        return tuple(table)

    def _build_streams(self, packets, received_bytes_per_rank):
        """Per-rank (starts, packets) for received-byte-stream lookup.
        A rank whose reconstructed volume disagrees with the reference
        profile is dropped: its MESSAGE faults stay uncertain."""
        if packets is None:
            return {}
        per_rank: dict[int, list] = {}
        for p in packets:
            per_rank.setdefault(p.dst, []).append(p)
        streams = {}
        for rank, plist in per_rank.items():
            plist.sort(key=lambda p: p.index)
            starts, total = [], 0
            for p in plist:
                starts.append(total)
                total += p.size
            if received_bytes_per_rank is not None and rank < len(
                received_bytes_per_rank
            ):
                if total != received_bytes_per_rank[rank]:
                    continue  # skeleton/reference drift: no predictions
            streams[rank] = (starts, plist)
        return streams

    # ------------------------------------------------------------------
    # per-spec classification
    # ------------------------------------------------------------------
    def stratum(self, spec: FaultSpec) -> Stratum:
        # The oracle goes first, unconditionally: MASKED is claimed only
        # on its proof, which is what keeps masked precision at 1.0.
        if self.oracle.verdict(spec).masked:
            return Stratum.MASKED
        region = spec.region
        if region is Region.TEXT:
            return self._text_stratum(spec)
        if region in (Region.DATA, Region.BSS):
            return self._static_data_stratum(spec)
        if region is Region.REGULAR_REG:
            return self.register_table[spec.reg_index][spec.bit]
        if region is Region.FP_REG:
            return self._fp_stratum(spec)
        if region is Region.MESSAGE:
            return self._message_stratum(spec)
        # HEAP and STACK resolve their targets at fire time against live
        # allocation state: statically out of reach.
        return Stratum.UNCERTAIN

    def _text_stratum(self, spec: FaultSpec) -> Stratum:
        sym = self.symtab.resolve(spec.address)
        if sym is None or sym.library != "user" or sym.name not in self.kernels:
            return Stratum.UNCERTAIN
        kernel = self.kernels[sym.name]
        word, byte = divmod(spec.address - sym.addr, INSN_SIZE)
        if word >= len(kernel.text_strata):
            return Stratum.UNCERTAIN  # padding the oracle did not claim
        return kernel.text_strata[word][byte * 8 + spec.bit]

    def _static_data_stratum(self, spec: FaultSpec) -> Stratum:
        sym = self.symtab.resolve(spec.address)
        if sym is None or sym.library != "user":
            return Stratum.UNCERTAIN
        if sym.name not in self._symbol_strata:
            self._symbol_strata[sym.name] = self._classify_symbol(sym.name)
        return self._symbol_strata[sym.name]

    def _classify_symbol(self, name: str) -> Stratum:
        token = f"sym:{name}"
        classes: list[SiteClass] = []
        for kernel in self.kernels.values():
            cone = kernel.taint.cone_from_tokens(frozenset({token}))
            if cone.tainted or cone.escapes:
                classes.append(classify_cone(cone, self.coverage))
        paths = self.coverage.paths_from_token(token)
        if paths:
            if all(p.covered for p in paths):
                classes.append(SiteClass.DETECTOR_COVERED)
            else:
                classes.append(SiteClass.SDC_RISK)
        if not classes:
            return Stratum.UNCERTAIN
        return _aggregate_site_classes(classes)

    def _fp_stratum(self, spec: FaultSpec) -> Stratum:
        if spec.fp_target in FP_BOOKKEEPING:
            # Oracle territory; reaching here means the oracle was not
            # consulted first - still never claim MASKED ourselves.
            return Stratum.UNCERTAIN
        if spec.fp_target and spec.fp_target.startswith("st"):
            # Data stack values feed the field updates directly; whether
            # a detector sees them is the coverage join's call on the
            # heap state they are stored to.
            return (
                Stratum.DETECTABLE
                if self._heap_covered()
                else Stratum.SDC_RISK
            )
        return Stratum.UNCERTAIN  # cwd/swd/twd steer the pipeline itself

    def _heap_covered(self) -> bool:
        paths = self.coverage.paths_from_token("heap")
        return bool(paths) and all(p.covered for p in paths)

    def _message_stratum(self, spec: FaultSpec) -> Stratum:
        stream = self._streams.get(spec.rank)
        if stream is None:
            return Stratum.UNCERTAIN
        starts, plist = stream
        i = bisect_right(starts, spec.target_byte) - 1
        if i < 0:
            return Stratum.UNCERTAIN
        packet = plist[i]
        offset = spec.target_byte - starts[i]
        if offset >= packet.size:
            return Stratum.UNCERTAIN  # past the final packet
        if offset >= HEADER_SIZE:
            return self._payload_stratum(packet)
        for name, start, end in _HEADER_FIELDS:
            if not start <= offset < end:
                continue
            if name in ("magic", "len"):
                return Stratum.CRASH_PRONE  # frame validation fails
            if name in ("src", "dst", "tag"):
                # Misrouted or unmatched: dropped while the matching
                # receive keeps waiting.
                return Stratum.HANG_PRONE
            if name == "type":
                # The two low bits toggle within the valid MSG_* range
                # (wrong protocol step -> drop -> hang); anything higher
                # leaves it -> frame rejected.
                if offset == start and spec.bit < 2:
                    return Stratum.HANG_PRONE
                return Stratum.CRASH_PRONE
            if name == "seq":
                # The rendezvous handle: orphaned handshake on the
                # frames that read it, dead state on eager frames.
                return (
                    Stratum.HANG_PRONE
                    if packet.mtype != MSG_EAGER
                    else Stratum.UNCERTAIN
                )
            return Stratum.UNCERTAIN  # comm_id / pad: never read
        return Stratum.UNCERTAIN

    def _payload_stratum(self, packet) -> Stratum:
        if packet.tag >= INTERNAL_TAG_BASE:
            cls = "collective"
        else:
            cls = self.message_classes.get(packet.tag, "data")
        return Stratum.DETECTABLE if cls == "checksummed" else Stratum.SDC_RISK

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def text_histogram(self) -> dict[str, dict[str, int]]:
        """Per-kernel stratum counts over every text bit."""
        out: dict[str, dict[str, int]] = {}
        for name, kernel in sorted(self.kernels.items()):
            counts = {s.value: 0 for s in Stratum}
            for row in kernel.text_strata:
                for stratum in row:
                    counts[stratum.value] += 1
            out[name] = counts
        return out

    def register_summary(self) -> dict[str, dict[str, int]]:
        """Per-register stratum counts over the 32 bits."""
        out: dict[str, dict[str, int]] = {}
        for reg, row in enumerate(self.register_table):
            counts = {s.value: 0 for s in Stratum}
            for stratum in row:
                counts[stratum.value] += 1
            out[REG_NAMES[reg]] = counts
        return out

    def to_dict(self) -> dict:
        return {
            "app": self.app_name,
            "block_limit": self.block_limit,
            "hang_bit_floor": self.hang_floor,
            "windows": {
                "static_image": list(STATIC_IMAGE_WINDOW),
                "stack": list(self.stack_window),
            },
            "kernels": {
                name: {
                    "n_insns": len(k.cfg.insns),
                    "loops": len(k.hangs.loops),
                    "hang_bits": len(k.hang_bits),
                }
                for name, k in sorted(self.kernels.items())
            },
            "text_bits": self.text_histogram(),
            "registers": self.register_summary(),
            "message_ranks": sorted(self._streams),
        }


__all__ = [
    "KernelOutcomes",
    "OutcomePredictor",
    "Stratum",
    "POINTER_MASS_FLOOR",
    "ESCAPE_PROOF_FLOOR",
]
