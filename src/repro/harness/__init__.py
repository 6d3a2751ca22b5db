"""Experiment harness: table/figure rendering and the registry mapping
every paper artifact to the code that regenerates it."""

from repro.harness.tables import (
    render_campaign_table,
    render_profile_table,
    PAPER_REGION_LABELS,
)
from repro.harness.figures import render_working_set_table
from repro.harness.experiments import EXPERIMENTS, Experiment, get_experiment

__all__ = [
    "render_campaign_table",
    "render_profile_table",
    "PAPER_REGION_LABELS",
    "render_working_set_table",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
]
