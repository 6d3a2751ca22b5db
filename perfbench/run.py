"""Campaign benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one of the workloads in ``workloads.py`` from the root of a
checkout, each campaign through ``repro.__main__.main(argv)`` in a fresh
interpreter (``probe.py``), and prints one JSON object as the last line
of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median
of at least three cold starts, from process spawn to the first
dispatch, golden recording included), ``campaign_s`` (first dispatch to
final region results), ``trials_per_s``, ``trial_ms.p50`` / ``.p90``
(executed-trial latency in the process that ran it) and
``peak_rss_mb``.  Timings are host-normalized with the calibration
slices of ``calibration.py``; raw seconds, the slice time
(``host.cal_ms``), steal share and load average are printed beside
them.  Cold starts repeat until ``--seconds`` have passed since the
campaign began.

``--trace 1`` runs the campaign untraced and then traced, and reports
the per-layer metrics: layer self times, exact work counts,
``trace.coverage`` (share of the driver's campaign phase inside layer
spans) and ``trace.overhead`` (traced / untraced ``campaign_s`` - 1).

Correctness: at the default seed every run must reproduce the per-region
tallies pinned in ``pins.json``, read back through the result store.  At
any seed the stored tallies must equal the printed table and, per
region, planned trials must equal executed + pruned + known-zero.
Trials that ended in a harness exception count as failed.  An incorrect
run prints ``"correct": false`` and exits 1.

``--size tiny`` runs miniature campaigns (used by the self-tests in
``test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibration import clock_ns, nearest_rank, speed_factor  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Every run must finish well inside three minutes.
BUDGET_S = 170.0
MIN_COLD_STARTS = 3
MAX_COLD_STARTS = 9
#: Variables that would silently resize or re-parallelize a workload.
SCRUBBED_ENV = ("REPRO_CAMPAIGN_N", "REPRO_CAMPAIGN_JOBS")


def declared_units(trace: int) -> dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares for
    this kind of run: end-to-end untraced, per-layer traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class ProbeFailed(RuntimeError):
    pass


def cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is inside user
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


class Runner:
    def __init__(self, args) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.rundir = os.path.join(HERE, ".runs", args.workload)
        self.deadline = time.monotonic() + BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}

    def probe(self, mode: str, tag: str) -> tuple[dict, int]:
        """Run one probe process; returns its report and its spawn time."""
        outdir = os.path.join(self.rundir, tag)
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        cmd = [
            sys.executable, os.path.join(HERE, "probe.py"), mode,
            self.args.workload, str(self.args.seed), self.args.size,
            outdir,
        ]
        spawn = clock_ns()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ProbeFailed(f"{mode} probe exceeded the run's time budget")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-15:]
            raise ProbeFailed(f"{mode} probe exited {proc.returncode}:\n" + "\n".join(tail))
        with open(os.path.join(outdir, f"{mode}.json")) as fh:
            return json.load(fh), spawn

    def cold_starts(self, began: float) -> list[tuple[float, float]]:
        """``(normalized, raw)`` seconds from spawn to first dispatch,
        for at least :data:`MIN_COLD_STARTS` fresh interpreters."""
        samples: list[tuple[float, float]] = []
        last = 0.0
        while len(samples) < MAX_COLD_STARTS:
            now = time.monotonic()
            room = now - began + last < self.args.seconds
            if len(samples) >= MIN_COLD_STARTS and not room:
                break
            report, spawn = self.probe("setup", f"setup{len(samples)}")
            start = report["start_slices"]
            raw = (report["run_start"] - spawn - sum(b - a for a, b in start)) / 1e9
            raw += report["record_s"]
            cost = statistics.median(b - a for a, b in start + report["end_slices"])
            samples.append((raw * speed_factor(cost), raw))
            last = time.monotonic() - now
        return samples


def fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(runner: Runner, began: float) -> tuple[dict, list[str], dict]:
    camp, spawn = runner.probe("campaign", "campaign")
    setup = runner.cold_starts(began)
    trial_ms = camp["trial_ms"]
    executed = len(trial_ms)
    if executed == 0:
        raise ProbeFailed("the campaign executed no trials")
    metrics = {
        "setup_s": statistics.median(norm for norm, _ in setup),
        "campaign_s": camp["campaign_s"],
        "trials_per_s": executed / camp["campaign_s"],
        "trial_ms.p50": nearest_rank(trial_ms, 0.5),
        "trial_ms.p90": nearest_rank(trial_ms, 0.9),
        "peak_rss_mb": camp["peak_rss_mb"],
    }
    raw = camp["trial_raw_ms"]
    lines = [
        f"setup_s       {fmt(metrics['setup_s'])} s norm, median of {len(setup)} cold "
        f"starts (raw {fmt(statistics.median(raw for _, raw in setup))}: "
        f"{' '.join(fmt(raw) for _, raw in setup)}; campaign process "
        f"{fmt((camp['run_start'] - spawn) / 1e9 + camp['record_s'])})",
        f"campaign_s    {fmt(metrics['campaign_s'])} s norm, 1 phase "
        f"(raw {fmt(camp['campaign_raw_s'])} s)",
        f"trials_per_s  {fmt(metrics['trials_per_s'])} 1/s norm, {executed} trials "
        f"(raw {fmt(executed / camp['campaign_raw_s'])})",
        f"trial_ms.p50  {fmt(metrics['trial_ms.p50'])} ms norm, {executed} trials "
        f"(raw {fmt(nearest_rank(raw, 0.5))})",
        f"trial_ms.p90  {fmt(metrics['trial_ms.p90'])} ms norm, {executed} trials, "
        f"{executed - math.ceil(0.9 * executed)} beyond (raw {fmt(nearest_rank(raw, 0.9))})",
        f"peak_rss_mb   {fmt(metrics['peak_rss_mb'])} MB",
        f"host.cal_ms   {fmt(camp['cal_ms'])} ms median of {camp['slices']} slices",
    ]
    return metrics, lines, camp


def per_layer(runner: Runner) -> tuple[dict, list[str], dict]:
    base, _ = runner.probe("campaign", "campaign")
    traced, _ = runner.probe("traced", "traced")
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["campaign_s"] / base["campaign_s"] - 1.0
    lines = [
        f"traced campaign_s {fmt(traced['campaign_s'])} s norm (raw "
        f"{fmt(traced['campaign_raw_s'])}), untraced {fmt(base['campaign_s'])} s norm "
        f"(raw {fmt(base['campaign_raw_s'])}); {traced['spans']} spans",
        f"host.cal_ms   {fmt(traced['cal_ms'])} ms traced, {fmt(base['cal_ms'])} ms untraced",
    ]
    for name, count in traced["layer_spans"].items():
        if name in metrics:
            lines.append(f"{name:<34} {fmt(metrics[name])} s norm, {count} spans")
    return metrics, lines, dict(traced, problems=base["problems"] + traced["problems"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    # Users pay bytecode compilation once per install, not per start.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    runner = Runner(args)
    stat0 = cpu_times()
    began = time.monotonic()
    try:
        if args.trace:
            metrics, lines, report = per_layer(runner)
        else:
            metrics, lines, report = end_to_end(runner, began)
    except ProbeFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    steal = steal_share(stat0, cpu_times())
    load = os.getloadavg()
    units = declared_units(args.trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    problems = report["problems"]
    print(f"{args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{' '.join(report['argv'])}")
    for line in lines:
        print("  " + line)
    print(f"  host          steal {100 * steal:.2f}%, load average "
          f"{load[0]:.2f} {load[1]:.2f} {load[2]:.2f}, {time.monotonic() - began:.1f} s wall")
    print(f"  trials        planned {report['counts']['planned']} executed "
          f"{report['counts']['executed']} pruned {report['counts']['pruned']} "
          f"known-zero {report['counts']['known_zero']} failed {report['failed']}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
