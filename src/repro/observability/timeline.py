"""The per-trial fault-propagation timeline.

Wu et al. (2018) characterize resilience by tracking error propagation
from the injection site to the first corrupted architectural state; the
paper's section 5 explains outcome rates through how long a fault stays
latent before a detector or crash surfaces it.  This module records the
two instants that bound that latency for every trial:

* the **injection instant** - the basic-block count, instruction index
  and (for message faults) received-byte offset at which the bit flip
  was actually delivered; and
* the **first-divergence instant** - the earliest externally observable
  effect: a detector firing (checksum, NaN, bound, assertion,
  control-flow, ABFT), a fatal signal, a channel protocol abort, a hang
  declaration, or - weakest - an output mismatch discovered only at
  classification time.

``latency_blocks`` is the difference of the two block counts.  Both
instants come from the simulated clocks, so latency histograms are
bit-identical across worker counts.  Cross-rank propagation (a message
fault injected on the receiving rank surfacing on another) is measured
on each rank's own block clock; ranks advance in lockstep rounds, so
the skew is at most a scheduling round.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TimelineEvent:
    """One notable instant of a trial."""

    #: What happened: ``"injection"``, ``"detector:<family>"``,
    #: ``"signal:<name>"``, ``"protocol"``, ``"oom"``, ``"hang"``,
    #: ``"app_abort"``, ``"mpi_abort"``, ``"unhandled"``,
    #: ``"output_mismatch"``.
    kind: str
    #: MPI rank the instant was observed on (None when unknown).
    rank: int | None = None
    #: Basic-block clock of that rank at the instant.
    blocks: int | None = None
    #: Instructions retired by that rank's VM at the instant.
    insns: int | None = None
    #: Received-byte offset (message faults only).
    byte_offset: int | None = None
    detail: str = ""


@dataclass
class PropagationTimeline:
    """Injection and first-divergence instants for one trial."""

    injection: TimelineEvent | None = None
    divergence: TimelineEvent | None = None
    #: Every recorded event in arrival order (bounded; includes
    #: non-first detector firings, e.g. an ABFT correction followed by
    #: a crash).
    events: list[TimelineEvent] = field(default_factory=list)
    max_events: int = 256

    def _append(self, event: TimelineEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)

    def note_injection(self, event: TimelineEvent) -> None:
        """Record the delivery instant (first delivery wins; stuck-at
        re-assertions land in ``events`` only)."""
        self._append(event)
        if self.injection is None:
            self.injection = event

    def note_divergence(self, event: TimelineEvent) -> None:
        """Record an observable effect (first one wins as *the*
        divergence instant)."""
        self._append(event)
        if self.divergence is None:
            self.divergence = event

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    @property
    def latency_blocks(self) -> int | None:
        """Blocks from injection to first divergence (>= 0), or None
        when either instant is missing."""
        if (
            self.injection is None
            or self.divergence is None
            or self.injection.blocks is None
            or self.divergence.blocks is None
        ):
            return None
        return max(0, self.divergence.blocks - self.injection.blocks)

    def summary(self) -> dict:
        """JSON-able digest carried on the trial result (and into the
        result store, so resumed campaigns rebuild identical latency
        histograms)."""
        out: dict = {}
        if self.injection is not None:
            out["injected_at_blocks"] = self.injection.blocks
            out["injected_at_insns"] = self.injection.insns
            if self.injection.byte_offset is not None:
                out["injected_byte"] = self.injection.byte_offset
        if self.divergence is not None:
            out["diverged_at_blocks"] = self.divergence.blocks
            out["divergence_kind"] = self.divergence.kind
        latency = self.latency_blocks
        if latency is not None:
            out["latency_blocks"] = latency
        return out
