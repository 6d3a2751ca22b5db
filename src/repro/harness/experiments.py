"""Experiment registry: every table and figure of the paper, runnable.

Each :class:`Experiment` knows the paper artifact it reproduces, the
paper's headline values (for EXPERIMENTS.md), and how to run the
reproduction.  The benchmark suite (``benchmarks/``) contains one bench
per registry entry; this module is the single source of truth both use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps import ClimateApp, MoldynApp, WavetoyApp
from repro.harness.figures import render_working_set_table
from repro.harness.tables import render_campaign_table, render_profile_table
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.mpi.simulator import Job, JobConfig
from repro.sampling.plans import default_plan
from repro.trace.profiles import profile_application
from repro.trace.working_set import trace_memory

#: Default job size for the suite (the paper used 64-196 ranks on real
#: clusters; 8 simulated ranks keep the geometry while staying fast).
DEFAULT_NPROCS = 8


@dataclass(frozen=True)
class Experiment:
    """One paper artifact and its reproduction."""

    id: str
    paper_artifact: str
    description: str
    #: ``run(n) -> (artifact_text, metrics)`` where ``n`` scales the
    #: campaign size / trial count where applicable.  Campaign-backed
    #: experiments run their trials on ``REPRO_CAMPAIGN_JOBS`` workers.
    run: Callable[..., tuple[str, dict]]


def _config(app_cls) -> JobConfig:
    return JobConfig(nprocs=DEFAULT_NPROCS)


# ----------------------------------------------------------------------
# T1: application profiles
# ----------------------------------------------------------------------
def _run_table1(n: int | None) -> tuple[str, dict]:
    profiles = [
        profile_application(cls(), _config(cls))
        for cls in (WavetoyApp, MoldynApp, ClimateApp)
    ]
    metrics = {
        p.app_name: {
            "header_percent": p.header_percent,
            "user_percent": p.user_percent,
            "control_message_percent": p.control_message_percent,
            "text": p.text_size,
            "data": p.data_size,
            "bss": p.bss_size,
            "heap": p.heap_size_max,
        }
        for p in profiles
    }
    return render_profile_table(profiles), metrics


# ----------------------------------------------------------------------
# T2-T4: injection campaigns
# ----------------------------------------------------------------------
def _campaign_runner(app_cls, detection_columns: bool):
    def run(n: int | None) -> tuple[str, dict]:
        plan = default_plan(n)
        campaign = Campaign(app_cls, _config(app_cls), plan=plan)
        result = campaign.run(jobs=None)
        text = render_campaign_table(
            result,
            include_detection_columns=detection_columns,
            title=f"Fault Injection Results ({app_cls.name})",
        )
        metrics = {
            region.value: {
                "executions": row.executions,
                "error_rate_percent": row.error_rate_percent,
                **{m.value: row.manifestation_percent(m) for m in row.tally.counts},
            }
            for region, row in result.regions.items()
        }
        return text, metrics

    return run


# ----------------------------------------------------------------------
# T5-T7: working-set traces
# ----------------------------------------------------------------------
def _trace_runner(app_cls):
    def run(n: int | None) -> tuple[str, dict]:
        report = trace_memory(app_cls(), _config(app_cls))
        metrics = {
            "text_initial": report.initial_percent("text"),
            "text_compute": report.compute_phase_percent("text"),
            "dbh_initial": report.initial_percent("data_bss_heap"),
            "dbh_compute": report.compute_phase_percent("data_bss_heap"),
            "nonincreasing": report.text.is_nonincreasing()
            and report.data_bss_heap.is_nonincreasing(),
        }
        return render_working_set_table(report), metrics

    return run


# ----------------------------------------------------------------------
# E1: reliability arithmetic
# ----------------------------------------------------------------------
def _run_reliability(n: int | None) -> tuple[str, dict]:
    from repro.cluster.reliability import (
        CONSERVATIVE_FIT_PER_MB,
        asci_q_escaped_errors,
        days_between_errors,
        fit_to_mtbf_hours,
    )

    days = days_between_errors(1.0, CONSERVATIVE_FIT_PER_MB)
    asciq = asci_q_escaped_errors()
    mtbf_years = fit_to_mtbf_hours(CONSERVATIVE_FIT_PER_MB) / (24 * 365.25)
    text = (
        f"1 GB at {CONSERVATIVE_FIT_PER_MB:.0f} FIT/Mb: one soft error every "
        f"{days:.1f} days (paper: ~10)\n"
        f"ASCI Q (33 TB, 95% ECC coverage): {asciq:.0f} escaped errors per "
        f"10 days (paper: ~1,650)\n"
        f"per-Mb MTBF at that rate: {mtbf_years:.1f} years"
    )
    return text, {"days_per_error_gb": days, "asciq_escaped": asciq}


# ----------------------------------------------------------------------
# E2: SECDED coverage
# ----------------------------------------------------------------------
def _run_ecc(n: int | None) -> tuple[str, dict]:
    from repro.cluster.ecc import coverage_experiment

    trials = n or 300
    rng = np.random.default_rng(42)
    rows, metrics = [], {}
    for flips in (1, 2, 3):
        stats = coverage_experiment(trials, flips, rng)
        rows.append(
            f"{flips}-bit upsets: coverage {100 * stats.coverage:.1f}% "
            f"(corrected {stats.corrected}, detected {stats.detected}, "
            f"escaped {stats.escaped} of {stats.trials})"
        )
        metrics[f"coverage_{flips}"] = stats.coverage
        metrics[f"escape_{flips}"] = stats.escape_rate
    return "\n".join(rows), metrics


# ----------------------------------------------------------------------
# E3: checksum escapes (Stone & Partridge)
# ----------------------------------------------------------------------
def _run_checksum_escape(n: int | None) -> tuple[str, dict]:
    from repro.cluster.netchecksum import escape_experiment, host_corruption_experiment

    trials = n or 2000
    rng = np.random.default_rng(7)
    wire = escape_experiment(trials, 256, 2, rng)
    host = host_corruption_experiment(trials, 256, 2, rng)
    text = (
        f"wire corruption  : CRC32 escapes {wire.escape_rate('crc'):.2e}, "
        f"TCP-16 escapes {wire.escape_rate('tcp'):.2e}\n"
        f"host corruption  : CRC sees nothing (escape rate 1.0); TCP-16 "
        f"escapes {host.escape_rate('tcp'):.2e} of errors it alone guards"
    )
    return text, {
        "wire_tcp_escape": wire.escape_rate("tcp"),
        "wire_crc_escape": wire.escape_rate("crc"),
        "host_tcp_escape": host.escape_rate("tcp"),
    }


# ----------------------------------------------------------------------
# E4: sampling theory
# ----------------------------------------------------------------------
def _run_sampling(n: int | None) -> tuple[str, dict]:
    from repro.sampling.theory import (
        achieved_error,
        injection_space_size,
        sample_size_oversampled,
    )

    d400 = achieved_error(400)
    d500 = achieved_error(500)
    space = injection_space_size(512, 64, 120)
    n_for_5pct = sample_size_oversampled(0.05)
    text = (
        f"injection space >= 512 x 64 x 120 = {space:.3g} points "
        f"(paper: ~3.9e6)\n"
        f"400 injections -> d = {100 * d400:.1f}% ; 500 -> d = "
        f"{100 * d500:.1f}% (paper: 4.4-4.9%)\n"
        f"n for d = 5% at 95% confidence: {n_for_5pct} (paper uses 400-500)"
    )
    return text, {"d400": d400, "d500": d500, "space": space, "n5": n_for_5pct}


# ----------------------------------------------------------------------
# E5: Cactus message-fault decomposition
# ----------------------------------------------------------------------
def _run_cactus_messages(n: int | None) -> tuple[str, dict]:
    from repro.engine.progress import TrialCollector
    from repro.injection.outcomes import Manifestation

    trials = n or 60
    campaign = Campaign(WavetoyApp, _config(WavetoyApp))
    collector = TrialCollector()
    row = campaign.run_region(Region.MESSAGE, trials, sinks=[collector])
    header_hits = [r for r in collector.results if r.detail == "header"]
    payload_hits = [r for r in collector.results if r.detail == "payload"]

    def corrupt_rate(results):
        if not results:
            return 0.0
        bad = sum(1 for r in results if r.manifestation is not Manifestation.CORRECT)
        return bad / len(results)

    hfrac = len(header_hits) / max(row.executions, 1)
    text = (
        f"message faults on wavetoy (n={row.executions}): error rate "
        f"{row.error_rate_percent:.1f}% (paper: 3.1%)\n"
        f"header hits: {100 * hfrac:.0f}% of injections (paper: ~6% of "
        f"traffic), corrupting {100 * corrupt_rate(header_hits):.0f}% of the "
        f"time (paper: ~40%)\n"
        f"payload hits corrupt {100 * corrupt_rate(payload_hits):.1f}% of the "
        f"time (masked by plain-text output)"
    )
    return text, {
        "error_rate": row.error_rate_percent,
        "header_fraction": hfrac,
        "header_corrupt_rate": corrupt_rate(header_hits),
        "payload_corrupt_rate": corrupt_rate(payload_hits),
    }


# ----------------------------------------------------------------------
# E6: checksum overhead and effectiveness (NAMD)
# ----------------------------------------------------------------------
def _run_checksum_overhead(n: int | None) -> tuple[str, dict]:
    cfg = _config(MoldynApp)
    with_ck = Job(MoldynApp(checksums=True), cfg).run()
    without = Job(MoldynApp(checksums=False), cfg).run()
    blocks_with = max(with_ck.blocks_per_rank)
    blocks_without = max(without.blocks_per_rank)
    overhead = 100.0 * (blocks_with - blocks_without) / blocks_without
    text = (
        f"moldyn blocks: {blocks_without} unchecked vs {blocks_with} "
        f"checksummed -> {overhead:.1f}% overhead (paper: ~3%)"
    )
    return text, {"overhead_percent": overhead}


# ----------------------------------------------------------------------
# E7: register-liveness ablation (Springer [23])
# ----------------------------------------------------------------------
def _run_register_ablation(n: int | None) -> tuple[str, dict]:
    from repro.analysis.liveness import register_usage_report

    report = register_usage_report()
    return report.text, report.metrics


# ----------------------------------------------------------------------
# E9: output-format ablation (binary detects more, section 6.2)
# ----------------------------------------------------------------------
def _run_output_format_ablation(n: int | None) -> tuple[str, dict]:
    from repro.sampling.plans import CampaignPlan

    trials = n or 40
    rates = {}
    for fmt in ("text", "binary"):
        campaign = Campaign(
            lambda f=fmt: WavetoyApp(output_format=f),
            _config(WavetoyApp),
            plan=CampaignPlan(per_region={"message": trials}),
            seed=777,  # identical fault sample under both formats
        )
        row = campaign.run_region(Region.MESSAGE, trials)
        rates[fmt] = row.error_rate_percent
    text = (
        f"message-fault manifestation: {rates['text']:.1f}% with plain-text "
        f"output vs {rates['binary']:.1f}% with binary output\n"
        f'(the paper: "A binary output format would detect more cases of '
        f'incorrect output")'
    )
    return text, {
        "text_rate": rates["text"],
        "binary_rate": rates["binary"],
    }


# ----------------------------------------------------------------------
# E10: ABFT coverage and overhead (section 8.2)
# ----------------------------------------------------------------------
def _run_abft(n: int | None) -> tuple[str, dict]:
    from repro.detectors.abft import coverage_experiment, overhead_ratio

    trials = n or 200
    stats = coverage_experiment(trials, 12, np.random.default_rng(8))
    oh = overhead_ratio(20)
    text = (
        f"ABFT checked matmul: {stats.corrected} corrected, "
        f"{stats.detected} detected, {stats.benign} benign, "
        f"{stats.escaped} escaped of {stats.trials} upsets -> coverage "
        f"{100 * stats.coverage:.1f}%\n"
        f"encoding overhead at n=20: {100 * oh:.1f}% "
        f"(Silva: almost-all detection at ~10% cost)"
    )
    return text, {
        "coverage": stats.coverage,
        "escaped": stats.escaped,
        "overhead_n20": oh,
    }


# ----------------------------------------------------------------------
# E11: control-flow signature checking (section 8.2)
# ----------------------------------------------------------------------
def _run_cfcheck(n: int | None) -> tuple[str, dict]:
    from repro.analysis.cfc_study import control_flow_study

    report = control_flow_study(trials=n or 80)
    return report.text, report.metrics


# ----------------------------------------------------------------------
# E12: naturally fault-tolerant algorithms (section 8.2)
# ----------------------------------------------------------------------
def _run_natural_ft(n: int | None) -> tuple[str, dict]:
    from repro.analysis.natural_ft import resilience_experiment

    report = resilience_experiment()
    return report.text, {
        "delay_iterations": report.delay_iterations,
        "iterative_error": report.iterative_error,
        "direct_error": report.direct_error,
        "self_corrected": report.iterative_self_corrected,
    }


# ----------------------------------------------------------------------
# E13: fault-duration study (section 8.1, Constantinescu)
# ----------------------------------------------------------------------
def _run_duration(n: int | None) -> tuple[str, dict]:
    from repro.analysis.duration_study import fault_duration_study

    report = fault_duration_study(trials=n or 24)
    return report.text, report.metrics


# ----------------------------------------------------------------------
# E8: progress-metric hang detection
# ----------------------------------------------------------------------
def _run_progress(n: int | None) -> tuple[str, dict]:
    from repro.detectors.progress import ProgressMonitor, ProgressSample

    monitor = ProgressMonitor(window=4, threshold=0.1, metric="blocks")
    # Healthy execution: steady block rate; calibration.
    for tick in range(1, 11):
        monitor.record(ProgressSample(tick=tick, blocks=1000 * tick))
    rate = monitor.calibrate()
    # The application then enters a non-terminating mode (a corrupted
    # loop bound): blocks stop advancing.
    stall_start = 10
    for tick in range(11, 31):
        monitor.record(ProgressSample(tick=tick, blocks=1000 * stall_start))
    detected_at = monitor.detection_tick()
    latency = (detected_at - stall_start) if detected_at else None
    text = (
        f"calibrated rate {rate:.0f} blocks/tick; stall at tick "
        f"{stall_start}; detected at tick {detected_at} "
        f"(latency {latency} ticks)"
    )
    return text, {"detected_at": detected_at, "latency": latency}


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment(
            "T1",
            "Table 1",
            "Per-process application profiles (memory sections, message "
            "volume, header vs user distribution)",
            _run_table1,
        ),
        Experiment(
            "T2",
            "Table 2",
            "Fault injection results for Cactus Wavetoy (no internal "
            "detection: crash/hang/incorrect only)",
            _campaign_runner(WavetoyApp, detection_columns=False),
        ),
        Experiment(
            "T3",
            "Table 3",
            "Fault injection results for NAMD (checksums and NaN checks "
            "add App/MPI Detected columns)",
            _campaign_runner(MoldynApp, detection_columns=True),
        ),
        Experiment(
            "T4",
            "Table 4",
            "Fault injection results for CAM",
            _campaign_runner(ClimateApp, detection_columns=True),
        ),
        Experiment(
            "T5",
            "Table 5",
            "Wavetoy working-set curves (text and data+BSS+heap)",
            _trace_runner(WavetoyApp),
        ),
        Experiment(
            "T6",
            "Table 6",
            "NAMD working-set curves",
            _trace_runner(MoldynApp),
        ),
        Experiment(
            "T7",
            "Table 7",
            "CAM working-set curves",
            _trace_runner(ClimateApp),
        ),
        Experiment(
            "E1",
            "Sections 1-2",
            "Reliability arithmetic: FIT rates, errors per 10 days, the "
            "ASCI Q escaped-error estimate",
            _run_reliability,
        ),
        Experiment(
            "E2",
            "Section 2.1",
            "SECDED (72,64) coverage under 1/2/3-bit upsets",
            _run_ecc,
        ),
        Experiment(
            "E3",
            "Section 2.2",
            "Checksum escape rates (Stone & Partridge host-corruption "
            "mechanism)",
            _run_checksum_escape,
        ),
        Experiment(
            "E4",
            "Section 4.3",
            "Sampling-theory campaign sizing (oversampled Cochran bound)",
            _run_sampling,
        ),
        Experiment(
            "E5",
            "Section 6.2",
            "Cactus message-fault decomposition: header vs payload hits "
            "and text-output masking",
            _run_cactus_messages,
        ),
        Experiment(
            "E6",
            "Sections 6.2/7",
            "NAMD message-checksum runtime overhead",
            _run_checksum_overhead,
        ),
        Experiment(
            "E7",
            "Section 6.1.1",
            "Register liveness vs optimization level (Springer [23])",
            _run_register_ablation,
        ),
        Experiment(
            "E8",
            "Section 7",
            "Progress-metric hang detection",
            _run_progress,
        ),
        Experiment(
            "E9",
            "Section 6.2 (ablation)",
            "Wavetoy output-format ablation: plain text masks message "
            "faults that binary output exposes",
            _run_output_format_ablation,
        ),
        Experiment(
            "E10",
            "Section 8.2 (extension)",
            "Algorithm-based fault tolerance: checksum-matrix coverage "
            "and overhead",
            _run_abft,
        ),
        Experiment(
            "E11",
            "Section 8.2 (extension)",
            "Control-flow signature checking of text faults",
            _run_cfcheck,
        ),
        Experiment(
            "E12",
            "Section 8.2 (extension)",
            "Naturally fault-tolerant iterative solvers vs direct methods",
            _run_natural_ft,
        ),
        Experiment(
            "E13",
            "Section 8.1 (extension)",
            "Fault duration: transient vs stuck-at manifestation rates "
            "(Constantinescu)",
            _run_duration,
        ),
    )
}


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
