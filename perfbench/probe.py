"""One campaign process: run a workload through the CLI entry point
``repro.__main__.main(argv)`` with the boundary wrappers installed, check
its outputs, and write the measurements as JSON.

Started by ``run.py`` in a fresh interpreter, one mode per process:

``setup``
    stop at the first dispatch (after the golden recording); report when
    that was, so the runner can time a cold start from process spawn.
``campaign``
    the untraced campaign: phase, trial latencies, slices, peak RSS.
``traced``
    the same campaign with every layer boundary spanned; reports layer
    self times, coverage and exact work counts.

Usage: ``python3 perfbench/probe.py MODE WORKLOAD SEED SIZE OUTDIR``
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Per-region tallies of every workload at the default seed.
PINS = os.path.join(HERE, "pins.json")
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from calibration import (  # noqa: E402
    SpeedTrack,
    clock_ns,
    phase_seconds,
    speed_factor,
    timed_slice,
)
import tracing  # noqa: E402
from tracing import NAMES, SPANS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def cli_flags(cli) -> frozenset[str]:
    """Optional flags ``campaign run --help`` still lists."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        try:
            cli.main(["campaign", "run", "--help"])
        except SystemExit:
            pass
    return frozenset(f for f in ("--fastpath", "--prune-masked") if f in text.getvalue())


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def store_rows(path: str) -> tuple[list[dict], int]:
    """Per-region tallies read back through the store, and the number
    of trials that ended in a harness exception (``unhandled``)."""
    from repro.engine.store import open_store

    store = open_store(path)
    rows = [s.to_json() for s in store.status()]
    failed = sum(1 for r in store.iter_results() if r.divergence_kind == "unhandled")
    store.close()
    return rows, failed


def table_matches_store(printed: str, rows: list[dict], app: str) -> bool:
    """Re-render the campaign table from the stored tallies with the
    program's own renderer; every region row must appear verbatim in
    what the CLI printed."""
    from repro.harness.tables import render_campaign_table
    from repro.injection.campaign import CampaignResult, RegionResult
    from repro.injection.faults import Region
    from repro.injection.outcomes import Manifestation

    result = CampaignResult(app_name=app, nprocs=0, seed=0)
    for row in rows:
        region = RegionResult(Region(row["region"]))
        for name, count in row["manifestations"].items():
            region.tally.counts[Manifestation(name)] += count
        result.regions[region.region] = region
    lines = set(printed.splitlines())
    for detection in (True, False):
        table = render_campaign_table(result, include_detection_columns=detection)
        body = table.splitlines()[2:-1]  # rows only: no header, no d line
        if table.splitlines()[0] in lines:
            return bool(body) and all(line in lines for line in body)
    return False


def check(workload, size, seed, rows, printed, rec) -> tuple[dict, list[str]]:
    """The correctness gate; returns trial counts and any failures."""
    problems = []
    if not table_matches_store(printed, rows, workload.app):
        problems.append("store tallies differ from the printed table")
    by_region = {r["region"]: r for r in rows}
    executed: dict[str, int] = {}
    for trial in rec.trials:
        executed[trial.region] = executed.get(trial.region, 0) + 1
    counts = {"planned": 0, "executed": 0, "pruned": 0, "known_zero": 0}
    result = rec.campaign_result
    for region in workload.regions:
        row = by_region.get(region, {"trials": 0, "pruned": 0})
        planned = workload.planned_per_region(size)
        if planned is None:
            planned = rec.make_spec[region]
        known_zero = 0
        est = None
        if result is not None:
            est = next(
                (v.stratified for k, v in result.regions.items() if k.value == region),
                None,
            )
        if est is not None:
            live = sum(c.population for c in est.cells if not c.known_zero)
            known_zero = max(0, planned - live)
        ran = executed.get(region, 0)
        if ran != row["trials"] - row["pruned"]:
            problems.append(f"{region}: {ran} executed but the store holds "
                            f"{row['trials'] - row['pruned']} unpruned trials")
        if planned != ran + row["pruned"] + known_zero:
            problems.append(f"{region}: planned {planned} != executed {ran} + "
                            f"pruned {row['pruned']} + known-zero {known_zero}")
        counts["planned"] += planned
        counts["executed"] += ran
        counts["pruned"] += row["pruned"]
        counts["known_zero"] += known_zero
    if seed == DEFAULT_SEED:
        with open(PINS) as fh:
            pinned = json.load(fh).get(workload.name, {}).get(size)
        if pinned is None:
            problems.append(f"no pinned tallies for {workload.name} at size {size}")
        elif rows != pinned:
            problems.append("per-region tallies differ from the pinned tallies")
    if result is not None:
        gains = [
            (r.stratified.uniform_equivalent_n, r.stratified.executed)
            for r in result.regions.values()
            if r.stratified is not None
        ]
        counts["stratified_gain"] = (
            sum(u for u, _ in gains) / max(1, sum(e for _, e in gains)) if gains else 0.0
        )
    return counts, problems


# ----------------------------------------------------------------------
# timings
# ----------------------------------------------------------------------
def campaign_timings(rec, jobs: int) -> dict:
    """Phase and per-trial figures, raw and normalized by the slices."""
    marks = rec.marks
    driver = rec.driver_pid
    slices: dict[int, list] = {}
    for t in rec.trials:
        slices.setdefault(t.pid, []).extend((t.before, t.after))
    driver_slices = slices.get(driver, [])
    bracket = [marks["before_slice"], marks["after_slice"]]
    # The phase track: every slice of every process, plus the two the
    # driver ran right outside the phase.
    everything = bracket + [s for group in slices.values() for s in group]
    track = SpeedTrack(everything)
    tracks = {pid: SpeedTrack(group) for pid, group in slices.items()}
    start, end = marks["run_start"], marks["run_end"]
    excluded = [tuple(marks["record"])] + driver_slices
    shared = [s for pid, group in slices.items() if pid != driver for s in group]
    trial_ms = [
        tracks[t.pid].normalize(t.start, t.end) / 1e6 for t in rec.trials
    ]
    trial_raw_ms = [(t.end - t.start) / 1e6 for t in rec.trials]
    return {
        "campaign_s": phase_seconds(start, end, excluded, shared, jobs, track),
        "campaign_raw_s": phase_seconds(start, end, excluded, shared, jobs, None),
        "trial_ms": trial_ms,
        "trial_raw_ms": trial_raw_ms,
        "cal_ms": track.median_cost() / 1e6,
        "slices": len(everything),
        "busy_raw_s": sum(trial_raw_ms) / 1e3,
        # Everything above is derived from these.
        "marks": {k: marks[k] for k in ("run_start", "run_end", "record", "before_slice", "after_slice")},
        "trials": [t._asdict() for t in rec.trials],
        "driver_pid": driver,
    }


# ----------------------------------------------------------------------
# layers
# ----------------------------------------------------------------------
def layer_times(rec) -> tuple[dict, dict, float, dict]:
    """Per-layer raw seconds, the share of the driver's campaign phase
    that layer spans cover, and the number of spans behind each layer.

    Campaign layers report self time (span minus child spans) over the
    campaign phase, across the driver and every worker; set-up layers
    report their span minus nested set-up spans, so the golden run and
    recording include the VM work they do.
    """
    phase_of = [SPANS[n][0] for n in NAMES]
    n = len(rec.name)
    in_worker = bytearray(n)
    for first, stop, _ in rec.worker_blocks:
        in_worker[first:stop] = b"\x01" * (stop - first)
    where = bytearray(n)  # 0 other, 1 campaign, 2 set-up
    child = [0] * n
    setup_child = [0] * n
    names, parents, starts, ends = rec.name, rec.parent, rec.start, rec.end
    for i in range(n):
        kind = phase_of[names[i]]
        p = parents[i]
        dur = ends[i] - starts[i]
        if kind == "setup":
            where[i] = 2
        elif p >= 0:
            where[i] = where[p]
        elif kind == "root" or in_worker[i]:
            where[i] = 1
        if p >= 0:
            child[p] += dur
            if kind == "setup":
                setup_child[p] += dur
    setup: dict[str, float] = {}
    campaign: dict[str, float] = {}
    covered = 0
    spans: dict[str, int] = {}
    for i in range(n):
        name = NAMES[names[i]]
        dur = ends[i] - starts[i]
        if phase_of[names[i]] == "setup":
            setup[name] = setup.get(name, 0) + dur - setup_child[i]
            spans[name] = spans.get(name, 0) + 1
        elif where[i] == 1:
            spans[name] = spans.get(name, 0) + 1
            own = dur - child[i]
            campaign[name] = campaign.get(name, 0) + own
            if phase_of[names[i]] == "campaign" and not in_worker[i]:
                covered += own
    marks = rec.marks
    record = marks["record"][1] - marks["record"][0]
    driver_slices = sum(
        (t.before[1] - t.before[0]) + (t.after[1] - t.after[0])
        for t in rec.trials
        if t.pid == rec.driver_pid
    )
    phase = marks["run_end"] - marks["run_start"] - record - driver_slices
    to_s = lambda d: {k: v / 1e9 for k, v in d.items()}  # noqa: E731
    coverage = covered / phase if phase > 0 else 0.0
    return to_s(setup), to_s(campaign), coverage, spans


def dump_spans(rec, outdir: str) -> None:
    """Write every span: ``spans.json`` (names, worker blocks, trials)
    and the five columns back to back in ``spans.bin``."""
    with open(os.path.join(outdir, "spans.json"), "w") as fh:
        json.dump(
            {
                "names": NAMES,
                "columns": [["name", "b"], ["parent", "i"], ["start", "q"],
                            ["end", "q"], ["trial", "i"]],
                "count": len(rec.name),
                "worker_blocks": rec.worker_blocks,
                "trials": [t._asdict() for t in rec.trials],
                "driver_pid": rec.driver_pid,
            },
            fh,
        )
    with open(os.path.join(outdir, "spans.bin"), "wb") as fh:
        for column in rec.columns():
            column.tofile(fh)


def per_layer(rec, timings, import_s, counts, failed, jobs) -> tuple[dict, dict]:
    """The per-layer metrics, and the span count behind each timing."""
    setup, campaign, coverage, spans = layer_times(rec)
    # Layer seconds on the reference host: one factor for the run.
    factor = speed_factor(timings["cal_ms"] * 1e6)
    c = rec.counts
    executed_insns = c["vm.retired"] - c["replay.insns"]
    out = {"cli.import_s": import_s * factor}
    for name in NAMES:
        phase = SPANS[name][0]
        if phase == "setup":
            out[name] = setup.get(name, 0.0) * factor
        elif phase == "campaign":
            out[name] = campaign.get(name, 0.0) * factor
    out["engine.executors.worker_busy"] = (
        timings["busy_raw_s"] / (jobs * timings["campaign_raw_s"]) if jobs > 1 else 0.0
    )
    out["engine.executors.result_bytes"] = (
        sum(rec.result_bytes) / len(rec.result_bytes) if rec.result_bytes else 0.0
    )
    out.update({
        "trials.planned": counts["planned"],
        "trials.executed": counts["executed"],
        "trials.pruned": counts["pruned"],
        "trials.known_zero": counts["known_zero"],
        "trials.failed": failed,
        "cpu.vm.insns": executed_insns,
        "cpu.vm.blocks": c["vm.blocks"] - c["replay.blocks"],
        "cpu.translate.translated_insns": c["translate.translated_insns"],
        "cpu.translate.interpreted_insns": c["translate.interpreted_insns"],
        "cpu.translate.horizon_insns": c["translate.horizon_insns"],
        "cpu.translate.retranslations": c["translate.retranslations"],
        "cpu.translate.share": (
            c["translate.translated_insns"] / executed_insns if executed_insns else 0.0
        ),
        "engine.checkpoint.replayed_insns": c["replay.insns"],
        "engine.checkpoint.replay_share": (
            c["replay.insns"] / c["vm.retired"] if c["vm.retired"] else 0.0
        ),
        "mpi.channel.bytes": c["channel.bytes"],
        "mpi.channel.packets": c["channel.packets"],
        "sampling.stratified_gain": counts.get("stratified_gain", 0.0),
        "trace.coverage": coverage,
    })
    return out, spans


def main(argv: list[str]) -> int:
    mode, name, seed, size, outdir = argv
    seed = int(seed)
    workload = WORKLOADS[name]
    # Host speed at start-up, before the interpreter does anything heavy.
    start_slices = [timed_slice() for _ in range(3)]
    t0 = clock_ns()
    import repro.__main__ as cli

    import_s = (clock_ns() - t0) / 1e9
    flags = cli_flags(cli)
    rec = tracing.Recorder(traced=mode == "traced")
    rec.stop_at_dispatch = mode == "setup"
    tracing.install(rec)
    cli_argv = workload.argv(size, seed, outdir, flags)
    printed = io.StringIO()
    out = {"mode": mode, "argv": cli_argv, "import_s": import_s}
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(cli_argv)
    except tracing.SetupDone:
        code = 0
    marks = rec.marks
    out["run_start"] = marks.get("run_start")
    out["record_s"] = (marks["record"][1] - marks["record"][0]) / 1e9 if "record" in marks else None
    out["start_slices"] = start_slices
    if mode == "setup":
        out["end_slices"] = [timed_slice() for _ in range(3)]
    else:
        if code != 0 or "run_end" not in marks:
            raise SystemExit(f"campaign exited with {code}")
        store = cli_argv[cli_argv.index("--store") + 1]
        rows, failed = store_rows(store)
        counts, problems = check(workload, size, seed, rows, printed.getvalue(), rec)
        timings = campaign_timings(rec, workload.jobs)
        peak_kb = max([marks["maxrss_kb"], *rec.maxrss_kb.values()])
        out.update(
            rows=rows,
            problems=problems,
            counts=counts,
            failed=failed,
            attempted=counts["executed"] + counts["pruned"],
            peak_rss_mb=peak_kb / 1024,
            **timings,
        )
        if mode == "traced":
            out["layers"], out["layer_spans"] = per_layer(
                rec, timings, import_s, counts, failed, workload.jobs
            )
            out["layers"]["engine.store.bytes"] = sum(
                os.path.getsize(p) for p in (store, store + "-wal") if os.path.exists(p)
            )
            out["spans"] = len(rec.name)
            dump_spans(rec, outdir)
    with open(os.path.join(outdir, f"{mode}.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
