"""Harness: table rendering and the experiment registry."""

import pytest

from repro.harness.tables import (
    PAPER_REGION_LABELS,
    render_campaign_table,
    render_profile_table,
)
from repro.injection.campaign import Campaign
from repro.injection.faults import Region
from repro.mpi.simulator import JobConfig
from repro.sampling.plans import CampaignPlan
from tests.conftest import SMALL_NPROCS, SMALL_WAVETOY


def wavetoy_factory():
    from repro.apps import WavetoyApp

    return WavetoyApp(**SMALL_WAVETOY)


class TestTableRendering:
    @pytest.fixture(scope="class")
    def campaign_result(self):
        campaign = Campaign(
            wavetoy_factory,
            JobConfig(nprocs=SMALL_NPROCS),
            plan=CampaignPlan(per_region={r.value: 3 for r in Region}),
        )
        return campaign.run(regions=(Region.REGULAR_REG, Region.MESSAGE))

    def test_labels_match_paper(self):
        assert PAPER_REGION_LABELS[Region.REGULAR_REG] == "Regular Reg."
        assert PAPER_REGION_LABELS[Region.FP_REG] == "FP Reg."
        assert len(PAPER_REGION_LABELS) == 8

    def test_render_with_detection_columns(self, campaign_result):
        text = render_campaign_table(campaign_result, title="Table 3 style")
        assert "Table 3 style" in text
        assert "Regular Reg." in text
        assert "App Detected" in text
        assert "estimation error" in text

    def test_render_without_detection_columns(self, campaign_result):
        text = render_campaign_table(
            campaign_result, include_detection_columns=False
        )
        assert "App Detected" not in text
        assert "Incorrect" in text

    def test_profile_table(self):
        from repro.trace.profiles import profile_application

        profile = profile_application(wavetoy_factory(), JobConfig(nprocs=SMALL_NPROCS))
        text = render_profile_table([profile])
        assert "wavetoy" in text
        assert "Heap Size (MB)" in text
        assert "Header %" in text


class TestExperimentRegistry:
    def test_all_paper_artifacts_registered(self):
        from repro.harness.experiments import EXPERIMENTS

        assert set(EXPERIMENTS) == {
            "T1", "T2", "T3", "T4", "T5", "T6", "T7",
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
            # extensions / ablations (sections 6.2 and 8.2)
            "E9", "E10", "E11", "E12", "E13",
        }

    def test_unknown_experiment(self):
        from repro.harness.experiments import get_experiment

        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("T9")

    def test_cheap_experiments_run(self):
        """The closed-form experiments must run instantly and match the
        paper's headline numbers."""
        from repro.harness.experiments import EXPERIMENTS

        text, metrics = EXPERIMENTS["E1"].run(None)
        assert metrics["asciq_escaped"] == pytest.approx(1650.0)
        text, metrics = EXPERIMENTS["E4"].run(None)
        assert 0.044 <= metrics["d400"] <= 0.049
        text, metrics = EXPERIMENTS["E8"].run(None)
        assert metrics["detected_at"] is not None

    def test_report_builder(self):
        from repro.harness.report import Report

        report = Report(title="smoke")
        report.run_experiment("E1")
        md = report.render_markdown()
        assert "# smoke" in md
        assert "E1" in md and "ASCI Q" in md
