"""Outside-in instrumentation of one campaign process.

Every layer is timed at its public boundary by rebinding the name where
its caller looks it up (a class attribute, or a module global such as
``repro.engine.executors.execute_trial``), before the campaign starts
and so before the process pool forks: workers inherit the wrappers.

Two levels:

* **untraced** (``traced=False``) - only what the end-to-end metrics
  need: the phase boundaries, the golden recording interval, and one
  calibration slice right before and after every trial, in the trial's
  own process.  A handful of clock reads per trial.
* **traced** - additionally one span per call of every layer boundary
  in :data:`SPANS` (name, start, end, parent, owning trial) plus exact
  work counts read from public state after each trial's job.

Spans stay in memory in flat arrays.  A pool worker ships its trial's
spans, slices, counts and peak RSS back as an attribute of the
``TrialResult`` it returns, and the driver files them on receipt.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import resource
from array import array
from collections import Counter, namedtuple

from calibration import clock_ns, timed_slice

#: Layer boundaries: ``metric -> (phase, [(module, owner, attribute)])``.
#: ``owner`` is a class name, or ``None`` for a module-level name.
#: ``setup`` spans are reported inclusive of program layers below them
#: (but not of other set-up spans); ``campaign`` spans by self time.
SPANS = {
    "injection.golden_s": ("setup", [("repro.injection.campaign", "Campaign", "reference")]),
    "staticanalysis.predictor_s": ("setup", [("repro.injection.campaign", "Campaign", "outcome_predictor")]),
    "staticanalysis.oracle_s": ("setup", [("repro.injection.campaign", "Campaign", "masking_oracle")]),
    "engine.checkpoint.record_s": ("setup", [("repro.engine.driver", "CampaignEngine", "executor")]),
    "engine.driver.make_spec_s": ("campaign", [("repro.engine.driver", "CampaignEngine", "make_spec")]),
    "staticanalysis.stratum_s": ("campaign", [("repro.staticanalysis.outcomes.predictor", "OutcomePredictor", "stratum")]),
    "staticanalysis.verdict_s": ("campaign", [("repro.staticanalysis.propagation.pruning", "MaskingOracle", "verdict")]),
    "engine.core.execute_trial_s": ("campaign", [("repro.engine.executors", None, "execute_trial")]),
    "cpu.vm.call_s": ("campaign", [("repro.cpu.vm", "VM", "call")]),
    "mpi.adi_s": ("campaign", [
        ("repro.mpi.adi", "AdiEngine", "progress"),
        ("repro.mpi.adi", "AdiEngine", "send"),
        ("repro.mpi.adi", "AdiEngine", "post_recv"),
    ]),
    "mpi.simulator.self_s": ("campaign", [("repro.mpi.simulator", "Job", "run")]),
    "apps.build_process_s": ("campaign", [("repro.apps.base", "MPIApplication", "build_process")]),
    "engine.checkpoint.prepare_replay_s": ("campaign", [("repro.engine.checkpoint", None, "prepare_replay")]),
    "injection.install_s": ("campaign", [("repro.engine.core", None, "install")]),
    "injection.classify_s": ("campaign", [("repro.engine.core", None, "classify")]),
    "engine.store.append_s": ("campaign", [
        ("repro.engine.store", "ResultStore", "append"),
        ("repro.engine.store_sqlite", "SQLiteResultStore", "append"),
    ]),
    "observability.metrics.merge_s": ("campaign", [("repro.observability.metrics", "MetricsRegistry", "merge")]),
    # Driver time blocked on ``ParallelExecutor.run``'s results
    # (wrapped in ``_install_trial``).
    "engine.executors.wait_s": ("campaign", []),
    # The campaign phase's own residue: ingest, tallying, wave planning.
    "engine.driver.run": ("root", [("repro.engine.driver", "CampaignEngine", "run")]),
    "engine.driver.close": ("root", [("repro.engine.driver", "CampaignEngine", "close")]),
}
NAMES = list(SPANS)
NAME_ID = {name: i for i, name in enumerate(NAMES)}

#: Set-up boundaries that do real work only on their first call; later
#: (cached) calls get no span, so they do not fragment callers' spans.
_COLD_ONLY = {
    "injection.golden_s": lambda self: self._reference is None,
    "staticanalysis.predictor_s": lambda self: getattr(self, "_predictor", None) is None,
    "engine.checkpoint.record_s": lambda self: self._executor is None,
}


#: One executed trial: where it ran, its key, and its time bracketed by
#: two calibration slices (``(start_ns, end_ns)`` pairs).
Trial = namedtuple("Trial", "pid region key start end before after")


class SetupDone(BaseException):
    """Raised at the first dispatch of a set-up-only cold start."""


class Recorder:
    """All measurements of one campaign process (and, via shipped
    results, of its pool workers)."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.pid = self.driver_pid = os.getpid()
        # Span columns: name id, parent index (-1 = none), start, end,
        # and the index in ``trials`` of the trial it ran in (-1 = none).
        self.name = array("b")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.trial = array("i")
        self.stack = [-1]
        self.current_trial = -1
        #: ``(first, stop, pid)`` span index ranges shipped by workers.
        self.worker_blocks: list[tuple[int, int, int]] = []
        self.trials: list[Trial] = []
        self.counts: Counter = Counter()
        self.make_spec: Counter = Counter()
        self.maxrss_kb: dict[int, int] = {}
        self.result_bytes: list[int] = []
        #: Phase marks on the driver: run entry/close exit, the golden
        #: recording interval, the slices bracketing the phase.
        self.marks: dict[str, object] = {}
        self.campaign_result = None
        self.stop_at_dispatch = False

    # -- process identity --------------------------------------------
    def enter_process(self) -> None:
        """Drop state inherited across ``fork``: a worker starts empty."""
        pid = os.getpid()
        if pid == self.pid:
            return
        self.pid = pid
        for column in self.columns():
            del column[:]
        del self.stack[1:]
        self.worker_blocks.clear()
        self.trials.clear()
        self.counts.clear()
        self.result_bytes.clear()

    @property
    def in_worker(self) -> bool:
        return self.pid != self.driver_pid

    def columns(self) -> tuple:
        return (self.name, self.parent, self.start, self.end, self.trial)

    # -- spans -------------------------------------------------------
    def spanned(self, name: str, fn, cold_only=None):
        name_id = NAME_ID[name]
        names, parents, starts, ends, trials, stack = (
            self.name, self.parent, self.start, self.end, self.trial, self.stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cold_only is not None and not cold_only(args[0]):
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            trials.append(self.current_trial)
            ends.append(0)
            stack.append(idx)
            starts.append(clock_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock_ns()
                stack.pop()

        return wrapper

    def take_spans(self, first: int) -> tuple:
        """Detach spans ``first..`` (a worker's one trial) for shipping,
        with parent indices made relative to ``first``."""
        block = (
            self.name[first:],
            array("i", (p - first if p >= first else -1 for p in self.parent[first:])),
            self.start[first:],
            self.end[first:],
        )
        for column in self.columns():
            del column[first:]
        return block

    def file_spans(self, block: tuple, pid: int) -> None:
        """File a worker's shipped spans under its latest trial."""
        names, parents, starts, ends = block
        base = len(self.name)
        self.name.extend(names)
        self.parent.extend(p + base if p >= 0 else -1 for p in parents)
        self.start.extend(starts)
        self.end.extend(ends)
        self.trial.extend([len(self.trials) - 1] * len(names))
        self.worker_blocks.append((base, len(self.name), pid))

    # -- shipping from pool workers ----------------------------------
    def harvest(self, result) -> None:
        """File what a worker attached to ``result`` (driver side)."""
        payload = result.__dict__.pop("_perfbench", None)
        if payload is None:
            return
        pid, trial, spans, counts, maxrss, nbytes = payload
        self.trials.append(Trial(*trial))
        self.maxrss_kb[pid] = max(self.maxrss_kb.get(pid, 0), maxrss)
        if spans is not None:
            self.file_spans(spans, pid)
        self.counts.update(counts)
        if nbytes is not None:
            self.result_bytes.append(nbytes)


def _resolve(module: str, owner: str | None):
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


def install(rec: Recorder) -> None:
    """Rebind every boundary this recorder needs."""
    from repro.engine import checkpoint, executors
    from repro.engine.driver import CampaignEngine
    from repro.mpi.simulator import Job

    if rec.traced:
        for name, (_, targets) in SPANS.items():
            for module, owner, attr in targets:
                if (module, owner, attr) == ("repro.engine.executors", None, "execute_trial"):
                    continue  # wrapped together with the slices below
                target = _resolve(module, owner)
                fn = getattr(target, attr)
                setattr(target, attr, rec.spanned(name, fn, _COLD_ONLY.get(name)))
        _install_counts(rec, Job, checkpoint)

    # Phase marks, wrapped around whatever (span) wrapper is in place.
    run = CampaignEngine.run

    @functools.wraps(run)
    def run_marked(self, *args, **kwargs):
        rec.marks["before_slice"] = timed_slice()
        rec.marks["run_start"] = clock_ns()
        if rec.stop_at_dispatch:
            self.executor()  # the golden recording still counts as set-up
            raise SetupDone
        rec.campaign_result = run(self, *args, **kwargs)
        return rec.campaign_result

    CampaignEngine.run = run_marked

    executor = CampaignEngine.executor

    @functools.wraps(executor)
    def executor_marked(self):
        if self._executor is not None or "record" in rec.marks:
            return executor(self)
        a = clock_ns()
        try:
            return executor(self)
        finally:
            rec.marks["record"] = (a, clock_ns())

    CampaignEngine.executor = executor_marked

    close = CampaignEngine.close

    @functools.wraps(close)
    def close_marked(self):
        try:
            return close(self)
        finally:
            if "run_start" in rec.marks and "run_end" not in rec.marks:
                rec.marks["run_end"] = clock_ns()
                # Read before any analysis allocates: the pool is shut
                # down, so its workers count among the waited children.
                rec.marks["maxrss_kb"] = max(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                )
                rec.marks["after_slice"] = timed_slice()

    CampaignEngine.close = close_marked

    make_spec = CampaignEngine.make_spec

    @functools.wraps(make_spec)
    def make_spec_counted(self, region, index):
        rec.make_spec[region.value] += 1
        return make_spec(self, region, index)

    CampaignEngine.make_spec = make_spec_counted

    _install_trial(rec, executors)


def _install_trial(rec: Recorder, executors) -> None:
    inner = executors.execute_trial
    if rec.traced:
        inner = rec.spanned("engine.core.execute_trial_s", inner)

    def execute_trial(ctx, spec):
        rec.enter_process()
        first = len(rec.name)
        before = timed_slice()
        rec.current_trial = len(rec.trials)
        t0 = clock_ns()
        try:
            result = inner(ctx, spec)
        finally:
            t1 = clock_ns()
            rec.current_trial = -1
        after = timed_slice()
        trial = Trial(rec.pid, spec.region.value, spec.key, t0, t1, before, after)
        if not rec.in_worker:
            rec.trials.append(trial)
            return result
        nbytes = len(pickle.dumps(result)) if rec.traced else None
        spans = rec.take_spans(first) if rec.traced else None
        counts = dict(rec.counts)
        rec.counts.clear()
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.__dict__["_perfbench"] = (rec.pid, trial, spans, counts, maxrss, nbytes)
        return result

    executors.execute_trial = execute_trial

    run = executors.ParallelExecutor.run
    # Driver time blocked on the pool: one span per result pulled.
    pull = rec.spanned("engine.executors.wait_s", next) if rec.traced else next

    def parallel_run(self, specs):
        stream = run(self, specs)
        try:
            while True:
                try:
                    result = pull(stream)
                except StopIteration:
                    return
                rec.harvest(result)
                yield result
        finally:
            stream.close()

    executors.ParallelExecutor.run = parallel_run


def _install_counts(rec: Recorder, Job, checkpoint) -> None:
    """Exact work counts, read from public state after each trial job."""
    run = Job.run

    @functools.wraps(run)
    def run_counted(self):
        result = run(self)
        if rec.current_trial >= 0:
            c = rec.counts
            for vm in self.vms:
                c["vm.retired"] += vm.instructions_retired
                c["vm.blocks"] += vm.clock.blocks
                for key, value in vm.fastpath_stats.items():
                    c["translate." + key] += value
            for endpoint in self.endpoints:
                stats = endpoint.stats
                c["channel.bytes"] += stats.header_bytes + stats.payload_bytes
                c["channel.packets"] += stats.control_packets + stats.data_packets
        return result

    Job.run = run_counted

    prepare = checkpoint.prepare_replay

    @functools.wraps(prepare)
    def prepare_counted(ctx, fault):
        plan = prepare(ctx, fault)
        if plan is not None and rec.current_trial >= 0:
            rec.counts["replay.insns"] += plan.insns_skipped
            rec.counts["replay.blocks"] += plan.blocks_skipped
        return plan

    checkpoint.prepare_replay = prepare_counted
