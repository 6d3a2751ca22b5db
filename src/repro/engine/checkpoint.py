"""Checkpointed trial execution: record the golden run once, and let
each trial execute only the calls its fault can reach.

Every injection trial executes the same fault-free prefix from block 0
up to the injection instant (the paper's three-axis space samples the
injection *time* uniformly, so on average half of every trial is an
exact re-run of the golden execution), and many faults are gone again
right after the call that delivered them: a flipped register that the
kernel overwrites, a text flip in code that never runs again.  This
module makes both cheap without changing a single observable bit.

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

**What a trial executes.**  Injection hooks fire exclusively inside
``VM.step()`` - i.e. during *real* kernel execution - so a time-`t`
fault on rank `k` is delivered by rank `k`'s first recorded call whose
end clock reaches `t`, its *delivery call*.  A transient fault of any
region but MESSAGE (:func:`rejoins`) replays every recorded call of
every rank except the faulted rank's calls from its delivery call on:
those run for real, and after each one the rank's effect is compared
with the golden :class:`CallRecord` of the same call:

* **Python-visible state** - EAX, the end clock and retirement count,
  the stack manager's ESP/EBP, and the exact bytes (and values) the
  call changed in each writable segment.  Nothing else the Python side
  of a job reads comes out of a kernel call, so while these match the
  golden run, every rank's Python code behaves as in the golden run
  and the other ranks may keep replaying.
* **State only instructions read** - every GPR but ESP/EBP, the zf/sf
  flags, the x87 state an instruction can read
  (:meth:`~repro.cpu.fpu.FPU.readable_state`: ``top``, the tag word,
  each VALID slot's value and each SPECIAL slot's raw bytes), the text
  segment, and any still-pending injection hook.  For a TEXT fault the
  flipped 32-byte granule may differ if the rank's golden run never
  fetches or loads it at or after the fault time (:class:`TextIndex`).

If both match, the trial **rejoins**: every remaining call of every
rank replays.  If only instruction-read state differs, the rank's next
call runs for real and is compared again while the other ranks keep
replaying.  If Python-visible state differs, every rank runs for real
from its next call.  Nothing that runs before that point can depend on
the difference, because the ranks interact only through Python.

The comparison ignores state that nothing reads after a call:
``VM.call`` re-pokes the ESP and EBP registers (and EIP) from the stack
manager on entry; segment versions are read only by the recorder (a
text flip's version bump is covered by the text rule); x87 CWD, SWD,
FIP, FCS, FOO, FOS, ``depth`` and ``max_depth`` are written but never
read by an instruction; EMPTY and ZERO slots read back as NaN and 0.0
whatever their payload; and the register access counters are
statistics no trial reports.  A replayed call restores all of it from
the recording anyway.

MESSAGE faults corrupt a packet inside ``ChannelEndpoint.recv`` -
which always executes for real - and stuck-at faults keep re-forcing
their bit, so neither rejoins: every call from their natural switch
round on runs real (:func:`natural_switch_round`), the first round
that could observe the fault.

**Drift guards.**  Every replayed or compared call asserts the
recorded function name, normalized arguments, start clock and start
retirement count against the live machine; any mismatch raises
:class:`~repro.errors.CheckpointDesync`, which the simulator re-raises
out of the trial instead of classifying it as a Crash.
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass

import numpy as np

from repro.cpu.fpu import FPU
from repro.cpu.registers import EBP, ESP
from repro.errors import CheckpointDesync
from repro.injection.faults import FaultSpec, Persistence, Region
from repro.memory.layout import GRANULE
from repro.mpi.simulator import Job, JobResult
from repro.observability import runtime as _obs

_U32 = 0xFFFF_FFFF

#: Fixed order of the writable segments a kernel call can touch; delta
#: records index into this tuple.  Text is read/execute-only to the VM
#: (a store there faults), so it never needs diffing.
_RW_SEGMENT_COUNT = 4

#: The GPRs a call's comparison covers: all but ESP and EBP, which
#: ``VM.call`` re-pokes from the stack manager on entry.
_COMPARED_GPRS = tuple(i for i in range(8) if i not in (ESP, EBP))


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


class _Snapshot:
    """One reusable copy of a VM's writable segments, taken before a
    call and diffed after it.  Segment buffers are never rebound, so
    one buffer per segment is refilled before every call."""

    def __init__(self, image) -> None:
        self.segments = _rw_segments(image)
        self.before = [np.empty_like(seg.buf) for seg in self.segments]

    def take(self) -> None:
        for seg, snap in zip(self.segments, self.before):
            np.copyto(snap, seg.buf)

    def deltas(self) -> tuple[SegDelta, ...]:
        """The bytes the segments changed since :meth:`take`."""
        deltas = []
        for i, (seg, old) in enumerate(zip(self.segments, self.before)):
            changed = _changed_bytes(seg.buf, old)
            if changed.size:
                deltas.append(
                    SegDelta(
                        seg=i,
                        indices=changed.astype(np.int64).tobytes(),
                        values=seg.buf[changed].tobytes(),
                    )
                )
        return tuple(deltas)


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
        self._snapshot = _Snapshot(vm.image)

    def call(self, function, args=()) -> int:
        vm = self._vm
        image = vm.image
        self._snapshot.take()
        start_blocks = vm.clock.blocks
        start_insns = vm.instructions_retired
        eax = vm.call(function, args)
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
                seg_versions=tuple(seg.version for seg in self._snapshot.segments),
                deltas=self._snapshot.deltas(),
            )
        )
        return eax

    def __getattr__(self, name):
        return getattr(self._vm, name)


def _run_to_end(job: Job) -> tuple[JobResult, list[tuple[int, ...]]]:
    """Drive a job to termination round by round; returns its result
    and each round's per-rank cumulative received bytes."""
    round_recv: list[tuple[int, ...]] = []
    result = job.begin()
    while result is None:
        result = job.step_round()
        round_recv.append(tuple(ep.bytes_received for ep in job.endpoints))
    return result, round_recv


def record_golden(job: Job) -> tuple[JobResult, GoldenRecording]:
    """Run a fault-free job to termination under recording VMs.

    Returns the job's result and its recording; the caller decides
    what a run that did not complete means (``Campaign.reference``
    refuses it).
    """
    sinks: list[list[CallRecord]] = [[] for _ in job.contexts]
    for ctx, sink in zip(job.contexts, sinks):
        ctx.vm = _RecordingVM(ctx.vm, job, sink)
    result, round_recv = _run_to_end(job)
    return result, GoldenRecording(
        rounds=result.rounds,
        calls=tuple(tuple(sink) for sink in sinks),
        round_recv_bytes=tuple(round_recv),
    )


# ----------------------------------------------------------------------
# the text last-access index
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TextIndex:
    """Per rank, the last block at which the golden run fetched or
    loaded each 32-byte text granule (-1: never)."""

    base: int
    last_access: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, ctx) -> "TextIndex":
        """From one fault-free run of the context's job with access
        tracking on.  Its clocks must be the reference run's: tracking
        observes execution, it never changes it."""
        config = dataclasses.replace(ctx.config, track_memory=True)
        # The job sits in reference cycles like any job.  With the
        # collector paused, none of its objects leaves the young
        # generations, so one young collection frees it and its
        # tracking arrays as soon as the index is built.  It is driven
        # round by round, not through ``Job.run``, which perfbench
        # counts as the current trial's work.
        enabled = gc.isenabled()
        gc.disable()
        try:
            job = Job(ctx.factory(), config)
            result, _ = _run_to_end(job)
            images = job.images
            del job
        finally:
            if enabled:
                gc.enable()
        if result.blocks_per_rank != ctx.reference.blocks_per_rank:
            raise CheckpointDesync(
                "the tracked fault-free run did not retrace the reference "
                f"run: {result.status.value}, {result.blocks_per_rank} blocks "
                f"per rank, reference {ctx.reference.blocks_per_rank}"
            )
        index = cls(
            base=images[0].text.base,
            last_access=tuple(
                np.maximum(image.text.last_exec, image.text.last_load)
                for image in images
            ),
        )
        del images, result
        gc.collect(1)
        return index

    def dead(self, fault: FaultSpec) -> bool:
        """Is the flipped granule never fetched or loaded at or after
        the fault time on the faulted rank?"""
        if fault.address is None:
            return False
        last = self.last_access[fault.rank]
        granule = (fault.address - self.base) // GRANULE
        return 0 <= granule < last.size and bool(last[granule] < fault.time_blocks)


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def _check_call(vm, rec: CallRecord, i: int, function, args) -> None:
    """The drift guard: the live call must be the recorded one."""
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


def _python_visible_match(vm, rec: CallRecord, eax: int, snapshot) -> bool:
    """Does a real call's effect on what Python reads equal the
    recorded one?"""
    stack = vm.image.stack
    return (
        eax == rec.eax
        and vm.clock.blocks == rec.end_blocks
        and vm.instructions_retired == rec.end_insns
        and stack.esp == rec.esp
        and stack.ebp == rec.ebp
        and snapshot.deltas() == rec.deltas
    )


def _instruction_state_match(vm, rec: CallRecord) -> bool:
    """Does the state only instructions read equal the recorded one
    (the text and pending hooks aside)?"""
    regs = vm.regs
    r, _eip, zf, sf, _reads, _writes = rec.regs
    if regs.zf != zf or regs.sf != sf:
        return False
    if any(regs.r[i] != r[i] for i in _COMPARED_GPRS):
        return False
    golden = FPU()
    golden.restore_state(rec.fpu)
    return vm.fpu.readable_state() == golden.readable_state()


class _Trial:
    """One trial's replay state, shared by its ranks' VMs."""

    def __init__(self, plan: "ReplayPlan") -> None:
        self.plan = plan
        #: Set once the probed rank's Python-visible state leaves the
        #: golden run: every rank runs for real from its next call.
        self.real = False


class _ReplayVM:
    """Applies recorded call effects, runs the probed rank's calls for
    real from its delivery call until it rejoins, and delegates to the
    real VM once its records are exhausted or the trial diverged."""

    def __init__(self, vm, rank: int, trial: _Trial) -> None:
        plan = trial.plan
        self._vm = vm
        self._trial = trial
        self._records = plan.records[rank]
        self._idx = 0
        #: Index of the first call that runs for real and is compared;
        #: ``len(records)`` for a rank that only replays.
        self._stop = plan.delivery if rank == plan.probe else len(self._records)
        self._snapshot = None
        self._text_version = vm.image.text.version

    def call(self, function, args=()) -> int:
        i = self._idx
        if self._trial.real or i >= len(self._records):
            return self._vm.call(function, args)
        rec = self._records[i]
        vm = self._vm
        _check_call(vm, rec, i, function, args)
        self._idx = i + 1
        if i >= self._stop:
            return self._probe(rec, function, args)
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

    def _probe(self, rec: CallRecord, function, args) -> int:
        """Run one call for real and compare its effect with ``rec``."""
        vm = self._vm
        if self._snapshot is None:
            self._snapshot = _Snapshot(vm.image)
        self._snapshot.take()
        eax = vm.call(function, args)
        if not _python_visible_match(vm, rec, eax, self._snapshot):
            self._trial.real = True
        elif (
            _instruction_state_match(vm, rec)
            and not vm.pending_hooks()
            and (
                vm.image.text.version == self._text_version
                or self._trial.plan.text_dead
            )
        ):
            self._stop = len(self._records)
            _obs.note_checkpoint_rejoin(rank=vm.image.rank, blocks=rec.end_blocks)
        return eax

    def __getattr__(self, name):
        return getattr(self._vm, name)


def rejoins(fault: FaultSpec) -> bool:
    """Can a trial of this fault rejoin the golden replay?  Transient
    faults of every region but MESSAGE, whose corrupted packet is
    received by the always-real channel."""
    return (
        fault.region is not Region.MESSAGE
        and fault.persistence is Persistence.TRANSIENT
    )


def _delivery_call(calls: tuple[CallRecord, ...], time_blocks: int) -> int:
    """Index of the first call whose end clock reaches ``time_blocks``
    (``len(calls)`` when none does).  Time-based faults fire inside
    ``VM.step()``; detector-driven clock ticks between calls never fire
    hooks, the next call's first step does."""
    for i, rec in enumerate(calls):
        if rec.end_blocks >= time_blocks:
            return i
    return len(calls)


def natural_switch_round(recording: GoldenRecording, fault: FaultSpec) -> int:
    """First scheduler round that must execute for real.

    Time-based faults fire inside ``VM.step()`` on the target rank, so
    the earliest affected call is that rank's delivery call.  MESSAGE
    faults corrupt a packet inside the (always-real) channel recv, so
    the switch is the round during which the target rank's
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
    calls = recording.calls[rank]
    i = _delivery_call(calls, fault.time_blocks)
    return calls[i].round if i < len(calls) else recording.rounds


@dataclass(frozen=True)
class ReplayPlan:
    """What one trial replays of the recording.

    ``blocks_skipped``, ``insns_skipped`` and ``calls_skipped`` count
    the calls before the natural switch round, which every plan
    replays; a trial that rejoins replays more.
    """

    switch_round: int
    #: Per rank, the recorded calls the rank may replay: the prefix
    #: before the switch round, or (a rejoin plan) the whole recording.
    records: tuple[tuple[CallRecord, ...], ...]
    blocks_skipped: int
    insns_skipped: int
    calls_skipped: int
    #: The faulted rank of a rejoin plan, whose calls from
    #: ``delivery`` on run for real until it rejoins (``None``: every
    #: rank runs for real once its prefix is exhausted).
    probe: int | None = None
    delivery: int = 0
    #: TEXT: the flipped granule is dead at the fault time, so the
    #: text may differ when the rank rejoins.
    text_dead: bool = False


def plan_replay(
    recording: GoldenRecording, fault: FaultSpec, *, text_dead: bool = False
) -> ReplayPlan | None:
    """Choose what this trial replays: the whole recording around the
    faulted rank's calls for a fault that :func:`rejoins`, otherwise
    the prefix before its natural switch round, or ``None`` when that
    prefix is empty."""
    switch = natural_switch_round(recording, fault)
    prefix = tuple(
        tuple(rec for rec in per_rank if rec.round < switch)
        for per_rank in recording.calls
    )
    blocks = insns = calls = 0
    for per_rank in prefix:
        for rec in per_rank:
            blocks += rec.end_blocks - rec.start_blocks
            insns += rec.end_insns - rec.start_insns
            calls += 1
    skipped = dict(
        switch_round=switch,
        blocks_skipped=blocks,
        insns_skipped=insns,
        calls_skipped=calls,
    )
    if rejoins(fault):
        return ReplayPlan(
            records=recording.calls,
            probe=fault.rank,
            delivery=_delivery_call(recording.calls[fault.rank], fault.time_blocks),
            text_dead=text_dead,
            **skipped,
        )
    if calls == 0:
        return None
    return ReplayPlan(records=prefix, **skipped)


def install_replay(job: Job, plan: ReplayPlan) -> None:
    """Arrange for the job's VMs to replay as planned.

    Installed as a pre-run hook so the ``ctx.vm`` swap happens before
    any rank's generator is constructed (generators capture ``ctx.vm``
    on first advance).
    """

    def _wrap(job: Job) -> None:
        trial = _Trial(plan)
        for rank, ctx in enumerate(job.contexts):
            ctx.vm = _ReplayVM(ctx.vm, rank, trial)

    job.pre_run_hooks.append(_wrap)


def prepare_replay(ctx, fault: FaultSpec) -> ReplayPlan | None:
    """Plan this trial's replay of the context's golden recording.
    Returns ``None`` when the context carries no recording or nothing
    can be replayed.  The first TEXT trial of a process builds the
    context's :class:`TextIndex`, here, outside any trial's
    observability scope."""
    if ctx.checkpoint is None:
        return None
    text_dead = False
    if fault.region is Region.TEXT and rejoins(fault):
        if ctx.text_index is None:
            ctx.text_index = TextIndex.build(ctx)
        text_dead = ctx.text_index.dead(fault)
    return plan_replay(ctx.checkpoint, fault, text_dead=text_dead)
