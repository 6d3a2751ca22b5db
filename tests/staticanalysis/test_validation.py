"""Static predictions vs the dynamic register-injection ground truth.

The heavyweight correlation benchmark lives in
``benchmarks/test_static_avf_correlation.py``; the tier-1 checks here
pin the structural agreements that must hold exactly (the section-6.1.1
ablation direction) plus a small smoke of the dynamic side.
"""

import numpy as np
import pytest

from repro.analysis.liveness import (
    OPTIMIZED_SOURCE,
    UNOPTIMIZED_SOURCE,
    register_sensitivity,
    register_usage_report,
)
from repro.cpu.registers import EAX, EBX, REG_INDEX
from repro.staticanalysis.validation import (
    spearman,
    static_live_register_count,
    static_register_scores,
)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)

    def test_ties_get_average_ranks(self):
        # monotone up to a tie: still strongly positive, not 1.0
        rho = spearman([1, 1, 2, 3], [1, 2, 3, 4])
        assert 0.8 < rho < 1.0

    def test_constant_input_is_zero(self):
        assert spearman([5, 5, 5], [1, 2, 3]) == 0.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])


class TestStaticLivenessAgreesWithAblation:
    """Tier-1 acceptance: the static liveness pass reproduces the
    optimized-vs-unoptimized register counts the dynamic ablation
    measures (paper section 6.1.1)."""

    def test_optimized_keeps_more_registers_live(self):
        assert static_live_register_count(
            OPTIMIZED_SOURCE
        ) > static_live_register_count(UNOPTIMIZED_SOURCE)

    def test_counts_match_the_dynamic_ablations_static_measurement(self):
        report = register_usage_report(trials=1, seed=3)
        assert (
            static_live_register_count(OPTIMIZED_SOURCE)
            == report.metrics["static_optimized"]
        )
        assert (
            static_live_register_count(UNOPTIMIZED_SOURCE)
            == report.metrics["static_unoptimized"]
        )


class TestStaticScores:
    def test_loop_registers_outscore_unused(self):
        scores = static_register_scores(OPTIMIZED_SOURCE)
        assert scores["eax"] > 0.5
        assert scores["ebx"] == 0.0

    def test_spill_style_lowers_register_exposure(self):
        opt = static_register_scores(OPTIMIZED_SOURCE)
        unopt = static_register_scores(UNOPTIMIZED_SOURCE)
        # the -O0 variant keeps the counter in memory, so its register
        # exposure (mean AVF) drops - the paper's robustness trade
        assert sum(unopt.values()) < sum(opt.values())


class TestDynamicSmoke:
    def test_unused_register_is_insensitive(self):
        rng = np.random.default_rng(2)
        rate = register_sensitivity(OPTIMIZED_SOURCE, 10, rng, reg=EBX)
        assert rate == 0.0

    def test_accumulator_is_sensitive(self):
        rng = np.random.default_rng(2)
        rate = register_sensitivity(OPTIMIZED_SOURCE, 10, rng, reg=EAX)
        assert rate > 0.5

    def test_index_lookup_matches_names(self):
        assert REG_INDEX["eax"] == EAX
