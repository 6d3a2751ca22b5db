"""Checkpointed trial execution: record the golden run once, replay its
prefix for every trial.

Every injection trial executes the same fault-free prefix from block 0
up to the injection instant (the paper's three-axis space samples the
injection *time* uniformly, so on average half of every trial is an
exact re-run of the golden execution).  This module makes that prefix
cheap without changing a single observable bit:

**Effects replay, not state teleportation.**  Each rank's ``main`` is a
Python generator; its locals (loop counters, kernel results read back
into Python, live ``Request`` objects) cannot be serialized and grafted
onto a fresh job.  Instead, the campaign's one fault-free run (its
reference run, :func:`record_golden` under ``Campaign.reference``)
wraps every rank's VM in a :class:`_RecordingVM` that captures, per
kernel call, the call's complete machine effect: the exact bytes it
changed in the writable segments (a NumPy diff), the post-call
register file and FPU, the clock and retirement counters, the
post-call stack pointers and segment versions, and the EAX return
value.  A trial then wraps its VMs in :class:`_ReplayVM` objects that
*apply* those recorded effects instead of interpreting instructions.
All Python-side orchestration - the scheduler, the MPI stack, heap
bookkeeping, application logic, detector sweeps, RNG draws - still
runs for real, and because the machine state it reads is bit-identical
to the golden run, it behaves bit-identically.  Only the dominant cost
(the per-instruction interpreter loop) is skipped.

**The causally safe switch point.**  Replay is only valid while the
trial is provably identical to the golden run.  Injection hooks fire
exclusively inside ``VM.step()`` - i.e. during *real* kernel execution
- so for a time-`t` fault on rank `k` the first call that can observe
the fault is rank `k`'s first recorded call whose end-of-call clock
reaches `t`; under round-robin scheduling nothing in any earlier
*round* can depend on it.  Every call from that round on runs real
(:func:`natural_switch_round`).  MESSAGE faults corrupt a packet inside
``ChannelEndpoint.recv`` - which replay executes for real - so the
switch round is the round in which the rank's received-byte counter
first passes the target byte.

**Drift guards.**  Every elided call asserts the recorded function
name, normalized arguments, start clock and start retirement count
against the live machine; any mismatch raises
:class:`~repro.errors.CheckpointDesync`, which the simulator re-raises
out of the trial instead of classifying it as a Crash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CheckpointDesync
from repro.injection.faults import FaultSpec, Region
from repro.mpi.simulator import Job, JobResult

_U32 = 0xFFFF_FFFF

#: Fixed order of the writable segments a kernel call can touch; delta
#: records index into this tuple.  Text is read/execute-only to the VM
#: (a store there faults), so it never needs diffing.
_RW_SEGMENT_COUNT = 4


def _rw_segments(image) -> tuple:
    return (image.data, image.bss, image.heap_segment, image.stack_segment)


def _norm_function(function) -> str | int:
    return function if isinstance(function, str) else int(function)


def _norm_args(args) -> tuple[int, ...]:
    # Mirror VM.call's own argument normalization so recorded and live
    # argument tuples compare equal for any int-like input.
    return tuple(int(a) & _U32 for a in args)


# ----------------------------------------------------------------------
# golden recording
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegDelta:
    """Bytes one kernel call changed in one writable segment."""

    seg: int  #: index into the fixed RW segment order
    indices: bytes  #: changed positions, int64 little-endian
    values: bytes  #: new byte values, uint8

    def apply(self, segment) -> None:
        idx = np.frombuffer(self.indices, dtype=np.int64)
        segment.buf[idx] = np.frombuffer(self.values, dtype=np.uint8)


@dataclass(frozen=True)
class CallRecord:
    """The complete machine effect of one recorded kernel call."""

    round: int  #: scheduler round the call executed in
    name: str | int
    args: tuple[int, ...]
    start_blocks: int
    end_blocks: int
    start_insns: int
    end_insns: int
    eax: int
    regs: tuple  #: post-call RegisterFile.capture_state()
    fpu: tuple  #: post-call FPU.capture_state()
    esp: int  #: post-call StackManager.esp
    ebp: int  #: post-call StackManager.ebp
    #: Post-call version of each RW segment (absolute, so replayed state
    #: stays version-identical to a real run forever).
    seg_versions: tuple[int, ...]
    deltas: tuple[SegDelta, ...]


@dataclass(frozen=True)
class GoldenRecording:
    """One fault-free execution, recorded call-by-call.

    Picklable and immutable: the parallel executor ships it to each
    fork worker exactly once inside the execution context.
    """

    rounds: int
    #: Per-rank, in execution order.
    calls: tuple[tuple[CallRecord, ...], ...]
    #: Per-round, per-rank cumulative received bytes at round end.
    round_recv_bytes: tuple[tuple[int, ...], ...]

    @property
    def total_calls(self) -> int:
        return sum(len(per_rank) for per_rank in self.calls)


def _changed_bytes(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Ascending positions where ``new`` differs from ``old``.  Compares
    8-byte words first (segment sizes are page multiples), then only
    the bytes of the words that changed."""
    words = np.flatnonzero(new.view(np.uint64) != old.view(np.uint64))
    if not words.size:
        return words
    idx = (words[:, None] * 8 + np.arange(8)).ravel()
    return idx[new[idx] != old[idx]]


class _RecordingVM:
    """Transparent VM wrapper that records each call's machine effect.

    Only ``call`` is intercepted; every other attribute delegates to
    the real VM, so detectors, injector plumbing and the apps see an
    ordinary virtual CPU.
    """

    def __init__(self, vm, job: Job, sink: list) -> None:
        self._vm = vm
        self._job = job
        self._sink = sink
        # Segment buffers are never rebound, so one snapshot buffer per
        # segment is refilled before every call.
        self._segments = _rw_segments(vm.image)
        self._before = [np.empty_like(seg.buf) for seg in self._segments]

    def call(self, function, args=()) -> int:
        vm = self._vm
        image = vm.image
        segments = self._segments
        for seg, snap in zip(segments, self._before):
            np.copyto(snap, seg.buf)
        start_blocks = vm.clock.blocks
        start_insns = vm.instructions_retired
        eax = vm.call(function, args)
        deltas = []
        for i, (seg, old) in enumerate(zip(segments, self._before)):
            changed = _changed_bytes(seg.buf, old)
            if changed.size:
                deltas.append(
                    SegDelta(
                        seg=i,
                        indices=changed.astype(np.int64).tobytes(),
                        values=seg.buf[changed].tobytes(),
                    )
                )
        self._sink.append(
            CallRecord(
                round=self._job.rounds,
                name=_norm_function(function),
                args=_norm_args(args),
                start_blocks=start_blocks,
                end_blocks=vm.clock.blocks,
                start_insns=start_insns,
                end_insns=vm.instructions_retired,
                eax=eax,
                regs=vm.regs.capture_state(),
                fpu=vm.fpu.capture_state(),
                esp=image.stack.esp,
                ebp=image.stack.ebp,
                seg_versions=tuple(seg.version for seg in segments),
                deltas=tuple(deltas),
            )
        )
        return eax

    def __getattr__(self, name):
        return getattr(self._vm, name)


def record_golden(job: Job) -> tuple[JobResult, GoldenRecording]:
    """Run a fault-free job to termination under recording VMs.

    Returns the job's result and its recording; the caller decides
    what a run that did not complete means (``Campaign.reference``
    refuses it).
    """
    sinks: list[list[CallRecord]] = [[] for _ in job.contexts]
    for ctx, sink in zip(job.contexts, sinks):
        ctx.vm = _RecordingVM(ctx.vm, job, sink)
    round_recv: list[tuple[int, ...]] = []
    result = job.begin()
    while result is None:
        result = job.step_round()
        round_recv.append(tuple(ep.bytes_received for ep in job.endpoints))
    return result, GoldenRecording(
        rounds=result.rounds,
        calls=tuple(tuple(sink) for sink in sinks),
        round_recv_bytes=tuple(round_recv),
    )


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
class _ReplayVM:
    """Applies recorded call effects until its prefix is exhausted,
    then delegates to the real interpreter for the trial's suffix."""

    def __init__(self, vm, records: tuple[CallRecord, ...]) -> None:
        self._vm = vm
        self._records = records
        self._idx = 0

    def call(self, function, args=()) -> int:
        i = self._idx
        if i >= len(self._records):
            return self._vm.call(function, args)
        rec = self._records[i]
        vm = self._vm
        name = _norm_function(function)
        norm = _norm_args(args)
        if (
            rec.name != name
            or rec.args != norm
            or rec.start_blocks != vm.clock.blocks
            or rec.start_insns != vm.instructions_retired
        ):
            raise CheckpointDesync(
                f"replay diverged on rank {vm.image.rank} call #{i}: "
                f"recorded {rec.name!r}(args={rec.args}) at "
                f"{rec.start_blocks} blocks / {rec.start_insns} insns, "
                f"live {name!r}(args={norm}) at "
                f"{vm.clock.blocks} blocks / {vm.instructions_retired} insns"
            )
        self._idx += 1
        image = vm.image
        segments = _rw_segments(image)
        for delta in rec.deltas:
            delta.apply(segments[delta.seg])
        for seg, version in zip(segments, rec.seg_versions):
            seg.version = version
        vm.regs.restore_state(rec.regs)
        vm.fpu.restore_state(rec.fpu)
        vm.clock.restore(rec.end_blocks)
        vm.instructions_retired = rec.end_insns
        image.stack.esp = rec.esp
        image.stack.ebp = rec.ebp
        return rec.eax

    def __getattr__(self, name):
        return getattr(self._vm, name)


def natural_switch_round(recording: GoldenRecording, fault: FaultSpec) -> int:
    """First scheduler round that must execute for real.

    Time-based faults fire inside ``VM.step()`` on the target rank, so
    the earliest affected call is that rank's first recorded call whose
    end clock reaches ``time_blocks`` (detector-driven clock ticks
    between calls never fire hooks; the next call's first step does).
    MESSAGE faults corrupt a packet inside the (always-real) channel
    recv, so the switch is the round during which the target rank's
    received-byte counter passes ``target_byte``.  A fault beyond the
    recorded activity never fires at all, which makes the whole run
    golden: every round may be replayed.
    """
    rank = fault.rank
    if fault.region is Region.MESSAGE:
        target = fault.target_byte or 0
        for r in range(recording.rounds):
            if recording.round_recv_bytes[r][rank] > target:
                return r
        return recording.rounds
    t = fault.time_blocks
    for rec in recording.calls[rank]:
        if rec.end_blocks >= t:
            return rec.round
    return recording.rounds


@dataclass(frozen=True)
class ReplayPlan:
    """The replayable prefix chosen for one trial."""

    switch_round: int
    records: tuple[tuple[CallRecord, ...], ...]
    blocks_skipped: int
    insns_skipped: int
    calls_skipped: int


def plan_replay(recording: GoldenRecording, fault: FaultSpec) -> ReplayPlan | None:
    """Choose the prefix of the recording this trial may replay, or
    ``None`` when the fault lands too early for any replay to help."""
    switch = natural_switch_round(recording, fault)
    if switch <= 0:
        return None
    records = tuple(
        tuple(rec for rec in per_rank if rec.round < switch)
        for per_rank in recording.calls
    )
    blocks = insns = calls = 0
    for per_rank in records:
        for rec in per_rank:
            blocks += rec.end_blocks - rec.start_blocks
            insns += rec.end_insns - rec.start_insns
            calls += 1
    if calls == 0:
        return None
    return ReplayPlan(
        switch_round=switch,
        records=records,
        blocks_skipped=blocks,
        insns_skipped=insns,
        calls_skipped=calls,
    )


def install_replay(job: Job, plan: ReplayPlan) -> None:
    """Arrange for the job's VMs to replay the planned prefix.

    Installed as a pre-run hook so the ``ctx.vm`` swap happens before
    any rank's generator is constructed (generators capture ``ctx.vm``
    on first advance).
    """

    def _wrap(job: Job) -> None:
        for rank, ctx in enumerate(job.contexts):
            ctx.vm = _ReplayVM(ctx.vm, plan.records[rank])

    job.pre_run_hooks.append(_wrap)


def prepare_replay(ctx, fault: FaultSpec) -> ReplayPlan | None:
    """Plan this trial's replay of the context's golden recording up
    to its natural switch round.  Returns ``None`` when the context
    carries no recording or nothing can be replayed."""
    if ctx.checkpoint is None:
        return None
    return plan_replay(ctx.checkpoint, fault)
