"""Artifact-grade run directories.

Acceptance bar (ISSUE 9): ``campaign run --artifacts DIR`` leaves a
complete run record, and ``summary.json``/``report.html`` regenerate
**bit-identically** from ``manifest.json`` + ``events.jsonl`` +
``metrics.jsonl`` alone.
"""

import json
import os
import stat

import pytest

from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.observability.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    RunArtifacts,
    build_summary,
    check_outputs,
    render_report,
    write_outputs,
)
from repro.observability.metrics import MetricsSnapshot
from repro.observability.serve import TelemetryHub
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY
from tests.engine.test_store_reads import MISTYPED, mistyped

SEED = 20260808
N = 4


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One campaign with artifacts enabled, shared by every test."""
    directory = tmp_path_factory.mktemp("artifacts") / "run"
    campaign = Campaign.from_registry(
        "wavetoy", nprocs=SMALL_NPROCS, app_params=SMALL_WAVETOY, seed=SEED
    )
    hub = TelemetryHub()
    artifacts = RunArtifacts(
        directory,
        {
            **campaign.manifest(),
            "command": "python -m repro campaign run --app wavetoy",
        },
        metrics_interval=3,
        hub=hub,
    )
    with campaign.engine(sinks=[hub, artifacts], log_interval=2) as eng:
        eng.run_region(Region.STACK, N)
        eng.run_region(Region.HEAP, N)
    artifacts.finalize()
    return directory


def _events(run_dir):
    with open(run_dir / "events.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestRunDirectory:
    def test_all_artifacts_present(self, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert {
            "manifest.json",
            "events.jsonl",
            "metrics.jsonl",
            "summary.json",
            "report.html",
            "reproduce.sh",
        } <= names

    def test_manifest_identity(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert manifest["app"] == "wavetoy"
        assert manifest["seed"] == SEED
        assert manifest["app_params"] == SMALL_WAVETOY
        assert manifest["nprocs"] == SMALL_NPROCS

    def test_event_lifecycle(self, run_dir):
        events = _events(run_dir)
        assert events[0]["type"] == "campaign_start"
        assert events[-1]["type"] == "campaign_end"
        kinds = [e["type"] for e in events]
        assert kinds.count("trial") == 2 * N
        assert kinds.count("region_final") == 2
        assert kinds.count("progress") >= 2  # the two region finals
        finals = [e for e in events if e["type"] == "region_final"]
        assert {e["region"] for e in finals} == {"stack", "heap"}
        assert all(e["trials"] == N for e in finals)

    def test_metrics_flushes_end_with_registry_state(self, run_dir):
        with open(run_dir / "metrics.jsonl") as fh:
            flushes = [json.loads(line) for line in fh if line.strip()]
        assert len(flushes) >= 2  # periodic (interval 3, 8 trials) + final
        assert flushes[-1]["trials"] == 2 * N
        snap = MetricsSnapshot.from_json(flushes[-1]["snapshot"])
        total = sum(
            v
            for (name, _), v in snap.counters.items()
            if name == "repro_trial_outcomes_total"
        )
        assert total == 2 * N

    def test_reproduce_script(self, run_dir):
        script = run_dir / "reproduce.sh"
        assert script.stat().st_mode & stat.S_IXUSR
        text = script.read_text()
        assert text.startswith("#!/bin/sh")
        assert "python -m repro campaign run --app wavetoy" in text


class TestRegeneration:
    def test_summary_is_pure_function_of_logs(self, run_dir):
        on_disk = (run_dir / "summary.json").read_text()
        derived = json.dumps(build_summary(run_dir), indent=2, sort_keys=True)
        assert on_disk == derived + "\n"

    def test_regeneration_bit_identical(self, run_dir):
        summary_bytes = (run_dir / "summary.json").read_bytes()
        report_bytes = (run_dir / "report.html").read_bytes()
        os.unlink(run_dir / "summary.json")
        os.unlink(run_dir / "report.html")
        write_outputs(run_dir)
        assert (run_dir / "summary.json").read_bytes() == summary_bytes
        assert (run_dir / "report.html").read_bytes() == report_bytes

    def test_check_outputs_clean_then_tampered(self, run_dir):
        assert check_outputs(run_dir) == []
        original = (run_dir / "summary.json").read_text()
        try:
            (run_dir / "summary.json").write_text(original + " ")
            assert check_outputs(run_dir) == ["summary.json"]
        finally:
            (run_dir / "summary.json").write_text(original)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not an artifact run"):
            build_summary(tmp_path)

    def test_summary_tallies(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert summary["trials"] == 2 * N
        assert {r["region"] for r in summary["regions"]} == {"stack", "heap"}
        for row in summary["regions"]:
            assert row["trials"] == N
            assert 0 <= row["errors"] <= N
        assert summary["wall_seconds"] is not None
        assert summary["throughput_trials_per_second"] > 0

    def test_summary_survives_torn_tail(self, run_dir, tmp_path):
        """An interrupted run (partial trailing event) still summarizes."""
        import shutil

        clone = tmp_path / "torn"
        shutil.copytree(run_dir, clone)
        with open(clone / "events.jsonl", "a") as fh:
            fh.write('{"type": "trial", "key": "torn')
        assert build_summary(clone)["trials"] == 2 * N

    def test_unterminated_last_event_left_unread(self, run_dir, tmp_path):
        """A whole trial event without its newline may be a write still
        in flight: left unread until a newline ends it."""
        import shutil

        clone = tmp_path / "unterminated"
        shutil.copytree(run_dir, clone)
        trial = next(e for e in _events(run_dir) if e["type"] == "trial")
        with open(clone / "events.jsonl", "a") as fh:
            fh.write(json.dumps(dict(trial, key="one-more"), sort_keys=True))
        assert build_summary(clone)["trials"] == 2 * N
        with open(clone / "events.jsonl", "a") as fh:
            fh.write("\n")
        assert build_summary(clone)["trials"] == 2 * N + 1

    @pytest.mark.parametrize("field", sorted(MISTYPED))
    def test_mistyped_trial_event_skipped(self, run_dir, tmp_path, capsys, field):
        """``report DIR`` skips a trial event whose field has the wrong
        JSON type, as the store readers skip such a line."""
        import shutil

        from repro.__main__ import main

        clone = tmp_path / "mistyped"
        shutil.copytree(run_dir, clone)
        trial = next(e for e in _events(run_dir) if e["type"] == "trial")
        event = mistyped(field, dict(trial, key="one-more"))
        with open(clone / "events.jsonl", "a") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
        assert build_summary(clone)["trials"] == 2 * N
        assert main(["report", str(clone)]) == 0
        assert f"({2 * N} trials," in capsys.readouterr().out


class TestReport:
    def test_report_is_deterministic(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        summary = build_summary(run_dir)
        assert render_report(manifest, summary) == render_report(
            manifest, summary
        )

    def test_report_contents(self, run_dir):
        html = (run_dir / "report.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "wavetoy" in html
        assert "Outcome mix per region" in html
        for region in ("stack", "heap"):
            assert region in html
        # Dark mode is selected, not auto-flipped; both palettes ship.
        assert "prefers-color-scheme: dark" in html

    def test_report_escapes_untrusted_fields(self, tmp_path):
        summary = {
            "schema_version": 1,
            "trials": 1,
            "errors": 0,
            "resumed": 0,
            "regions": [],
            "region_finals": [],
            "progress_events": 0,
            "metrics_flushes": 0,
            "metrics": None,
            "wall_seconds": 1.0,
            "throughput_trials_per_second": 1.0,
        }
        html = render_report({"app": "<script>alert(1)</script>"}, summary)
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html
