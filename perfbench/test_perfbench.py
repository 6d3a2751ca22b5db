"""Self-tests for the benchmark runner.

    python3 -m pytest perfbench -q

The end-to-end tests run every workload at ``--size tiny`` (a few
trials per region) through ``run.py`` exactly as the benchmark command
does, so they take a couple of minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibration import (  # noqa: E402
    CAL_REF_NS,
    EXPONENT,
    SpeedTrack,
    nearest_rank,
    phase_seconds,
)
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ----------------------------------------------------------------------
# normalization, on synthetic series
# ----------------------------------------------------------------------
def slow_host(t_ns: float) -> float:
    """Slice cost of a host that runs at reference speed for 10 s, then
    at half the reference speed (slice cost doubles)."""
    return CAL_REF_NS if t_ns < 10e9 else 2 * CAL_REF_NS


def test_normalization_recovers_work_under_a_speed_change():
    # One 20 ms unit of work per 100 ms over 20 s, bracketed by slices;
    # under the slow half the work takes longer by the slice factor
    # raised to the calibrated exponent.
    slices, trials = [], []
    for k in range(200):
        t = k * 100e6
        cost = slow_host(t)
        work = 20e6 * (cost / CAL_REF_NS) ** EXPONENT
        slices += [(t, t + cost), (t + cost + work, t + 2 * cost + work)]
        trials.append((t + cost, t + cost + work))
    track = SpeedTrack(slices)
    for a, b in trials:
        assert track.normalize(a, b) == pytest.approx(20e6, rel=1e-9)


def test_phase_excludes_slices_and_scales_shared_ones_by_jobs():
    track = SpeedTrack([(0, CAL_REF_NS)])  # reference speed throughout
    own = [(1e9, 1.5e9)]
    shared = [(2e9, 3e9), (4e9, 5e9)]
    assert phase_seconds(0, 10e9, own, shared, 2, track) == pytest.approx(10 - 0.5 - 1.0)
    assert phase_seconds(0, 10e9, own, shared, 1, None) == pytest.approx(10 - 0.5 - 2.0)


def test_one_slow_slice_does_not_rescale_a_trial():
    slices = [(k * 50e6, k * 50e6 + CAL_REF_NS) for k in range(20)]
    a, b = slices[10]
    slices[10] = (a, a + 5 * CAL_REF_NS)  # interrupt during one slice
    track = SpeedTrack(slices)
    assert track.normalize(slices[10][1], slices[11][0]) == pytest.approx(
        slices[11][0] - slices[10][1]
    )


def test_nearest_rank_keeps_ten_samples_beyond_p90_at_100():
    values = list(range(1, 101))
    p90 = nearest_rank(values, 0.9)
    assert p90 == 90 and sum(v > p90 for v in values) == 10
    assert nearest_rank(values, 0.5) == 50


# ----------------------------------------------------------------------
# the runner, end to end at a tiny size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values()), values
    else:
        # Layer self times cover the driver's campaign phase.
        assert values["trace.coverage"] >= 0.9, values
        assert values["trials.executed"] >= 1


def test_other_seed_runs_the_internal_checks():
    proc = run_bench("--workload", "moldyn-adaptive", "--seed", "3", "--seconds", "1",
                     "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result_of(proc)["correct"] is True
    assert "planned" in proc.stdout


def copy_benchmark(dest) -> None:
    """Copy ``BENCHMARK.json`` and ``perfbench/`` into ``dest``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))


def test_tampered_pinned_tally_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(os.path.join(ROOT, "src"))
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["moldyn-adaptive"]["tiny"][0]["errors"] += 1
    pins_path.write_text(json.dumps(pins))
    proc = run_bench("--workload", "moldyn-adaptive", "--seed", "0", "--seconds", "1",
                     "--size", "tiny", cwd=str(tmp_path))
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert "pinned" in proc.stdout


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("--workload", "climate-parallel", "--seed", "1", "--seconds", "1",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
