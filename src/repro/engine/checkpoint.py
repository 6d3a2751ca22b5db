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
onto a fresh job.  Instead, one *golden recording* run wraps every
rank's VM in a :class:`_RecordingVM` that captures, per kernel call,
the call's complete machine effect: the exact bytes it changed in the
writable segments (a NumPy diff), the post-call register file and FPU,
the clock and retirement counters, the post-call stack pointers and
segment versions, and the EAX return value.  A trial then wraps its VMs
in :class:`_ReplayVM` objects that *apply* those recorded effects
instead of interpreting instructions.  All Python-side orchestration -
the scheduler, the MPI stack, heap bookkeeping, application logic,
detector sweeps, RNG draws - still runs for real, and because the
machine state it reads is bit-identical to the golden run, it behaves
bit-identically.  Only the dominant cost (the per-instruction
interpreter loop) is skipped.

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

**Stride.**  The recording itself is stride-independent (it stores
every call); the stride is applied at restore time by quantizing the
switch round down to the last round boundary at which the golden block
clock crossed a multiple of ``stride`` blocks
(:func:`quantize_switch_round`).  ``stride=1`` replays everything it
safely can; larger strides trade replay coverage for coarser restore
points, exactly like an on-disk checkpoint interval would.  Trials
replay at :data:`STRIDE`.

**Drift guards.**  Every elided call asserts the recorded function
name, normalized arguments, start clock and start retirement count
against the live machine; any mismatch raises
:class:`~repro.errors.CheckpointDesync`, which the simulator re-raises
out of the trial instead of classifying it as a Crash.

:class:`CheckpointStore` caches one golden recording per
``(factory, JobConfig)`` key so serial drivers and every forked worker
share a single recording.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import CheckpointDesync
from repro.injection.faults import FaultSpec, Region
from repro.mpi.simulator import Job

_U32 = 0xFFFF_FFFF

#: Checkpoint interval in golden blocks at which every trial replays.
STRIDE = 16

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

    app: str
    nprocs: int
    rounds: int
    #: Per-rank, in execution order.
    calls: tuple[tuple[CallRecord, ...], ...]
    #: Max block clock over all ranks at the end of each round.
    round_end_blocks: tuple[int, ...]
    #: Per-round, per-rank cumulative received bytes at round end.
    round_recv_bytes: tuple[tuple[int, ...], ...]
    blocks_per_rank: tuple[int, ...]

    @property
    def total_calls(self) -> int:
        return sum(len(per_rank) for per_rank in self.calls)


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

    def call(self, function, args=()) -> int:
        vm = self._vm
        image = vm.image
        segments = _rw_segments(image)
        before = [seg.buf.copy() for seg in segments]
        start_blocks = vm.clock.blocks
        start_insns = vm.instructions_retired
        eax = vm.call(function, args)
        deltas = []
        for i, (seg, old) in enumerate(zip(segments, before)):
            changed = np.flatnonzero(seg.buf != old)
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


def record_golden(context) -> GoldenRecording:
    """Execute one fault-free job under recording VMs.

    ``context`` is an :class:`~repro.engine.core.ExecutionContext` (duck
    typed: anything with ``app``, ``factory`` and ``job_config()``).
    """
    job = Job(context.factory(), context.job_config())
    sinks: list[list[CallRecord]] = [[] for _ in range(job.config.nprocs)]
    for rank, ctx in enumerate(job.contexts):
        ctx.vm = _RecordingVM(ctx.vm, job, sinks[rank])
    startup = job.begin()
    if startup is not None:
        raise RuntimeError(
            f"golden recording failed at startup: {startup.detail}"
        )
    round_end_blocks: list[int] = []
    round_recv: list[tuple[int, ...]] = []
    while True:
        result = job.step_round()
        round_end_blocks.append(max(im.clock.blocks for im in job.images))
        round_recv.append(tuple(ep.bytes_received for ep in job.endpoints))
        if result is not None:
            break
    if not result.completed:
        raise RuntimeError(
            f"golden recording did not complete "
            f"({result.status.value}): {result.detail}"
        )
    return GoldenRecording(
        app=context.app,
        nprocs=job.config.nprocs,
        rounds=result.rounds,
        calls=tuple(tuple(sink) for sink in sinks),
        round_end_blocks=tuple(round_end_blocks),
        round_recv_bytes=tuple(round_recv),
        blocks_per_rank=tuple(result.blocks_per_rank),
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

    @property
    def replayed_calls(self) -> int:
        return self._idx

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


def quantize_switch_round(
    recording: GoldenRecording, natural: int, stride: int
) -> int:
    """Largest restorable round ≤ ``natural``.

    Round ``r`` is restorable when it is round 0 or when the golden
    block clock crossed a multiple of ``stride`` during round ``r-1`` -
    the discrete analogue of "the nearest checkpoint at or before the
    injection instant" for a checkpoint interval of ``stride`` blocks.
    """
    if stride < 1:
        raise ValueError(f"checkpoint stride must be >= 1: {stride}")
    if natural <= 0:
        return 0
    blocks = recording.round_end_blocks
    for r in range(min(natural, recording.rounds), 0, -1):
        prev = blocks[r - 2] if r >= 2 else 0
        if blocks[r - 1] // stride > prev // stride:
            return r
    return 0


@dataclass(frozen=True)
class ReplayPlan:
    """The replayable prefix chosen for one trial."""

    switch_round: int
    records: tuple[tuple[CallRecord, ...], ...]
    blocks_skipped: int
    insns_skipped: int
    calls_skipped: int


def plan_replay(
    recording: GoldenRecording, fault: FaultSpec, stride: int
) -> ReplayPlan | None:
    """Choose the prefix of the recording this trial may replay, or
    ``None`` when the fault lands too early for any replay to help."""
    natural = natural_switch_round(recording, fault)
    switch = quantize_switch_round(recording, natural, stride)
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
    """Plan this trial's replay of the context's golden recording at
    :data:`STRIDE`.  Returns ``None`` when the context carries no
    recording or nothing can be replayed."""
    if ctx.checkpoint is None:
        return None
    return plan_replay(ctx.checkpoint, fault, STRIDE)


# ----------------------------------------------------------------------
# recording cache
# ----------------------------------------------------------------------
class CheckpointStore:
    """In-memory cache of golden recordings keyed per
    ``(factory, JobConfig)``.

    One recording serves every trial of every region of a campaign:
    the driver attaches it to the execution context *before* the
    executor pickles the context, so fork workers receive it exactly
    once.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, GoldenRecording] = {}

    @staticmethod
    def key_for(context) -> tuple:
        # Keyed on the factory, not the app name: two factories of one
        # application (``MoldynApp(checksums=True)`` and ``=False``)
        # build different programs under an equal ``JobConfig``.
        factory = context.factory
        if isinstance(factory, functools.partial):
            factory = (
                factory.func,
                repr(factory.args),
                tuple(sorted((k, repr(v)) for k, v in factory.keywords.items())),
            )
        cfg = context.config
        params = tuple(sorted((k, repr(v)) for k, v in cfg.app_params.items()))
        return (factory, cfg.nprocs, cfg.seed, cfg.eager_threshold, params)

    def get(self, context) -> GoldenRecording:
        key = self.key_for(context)
        recording = self._cache.get(key)
        if recording is None:
            recording = self._cache[key] = record_golden(context)
        return recording

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


_DEFAULT_STORE = CheckpointStore()


def default_store() -> CheckpointStore:
    return _DEFAULT_STORE
