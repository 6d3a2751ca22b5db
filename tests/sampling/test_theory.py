"""Sampling theory (section 4.3): the paper's numbers must come out."""

import math

import pytest

from repro.sampling.theory import (
    achieved_error,
    injection_space_size,
    proportion_ci,
    sample_size,
    sample_size_oversampled,
    stratified_error_rate,
    z_alpha,
)


class TestZAlpha:
    def test_95_percent(self):
        assert z_alpha(0.05) == pytest.approx(1.96, abs=0.005)

    def test_95_percent_is_exact(self):
        """Stored status rows, pinned tallies and adaptive stopping
        points all use this float; ``NormalDist`` alone is 2 ulps low."""
        assert z_alpha(0.05) == 1.959963984540054

    def test_99_percent(self):
        assert z_alpha(0.01) == pytest.approx(2.576, abs=0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            z_alpha(0.0)
        with pytest.raises(ValueError):
            z_alpha(1.5)


class TestSampleSize:
    def test_paper_achieved_error_range(self):
        """400-500 injections at 95% -> d in 4.4-4.9 percent."""
        assert 0.0438 <= achieved_error(500) <= 0.044
        assert 0.0489 <= achieved_error(400) <= 0.0491

    def test_oversampling_maximizes(self):
        assert sample_size(0.05, p=0.5) >= sample_size(0.05, p=0.3)
        assert sample_size_oversampled(0.05) == sample_size(0.05, p=0.5)

    def test_inverse_relationship(self):
        n = sample_size_oversampled(0.044)
        assert achieved_error(n) <= 0.044

    def test_smaller_d_needs_more_samples(self):
        assert sample_size_oversampled(0.01) > sample_size_oversampled(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_size(0.0)
        with pytest.raises(ValueError):
            sample_size(0.05, p=1.5)
        with pytest.raises(ValueError):
            achieved_error(0)


class TestProportionCI:
    def test_basic(self):
        p, lo, hi = proportion_ci(50, 100)
        assert p == 0.5
        assert lo == pytest.approx(0.5 - 1.96 * math.sqrt(0.25 / 100), abs=1e-3)
        assert hi == pytest.approx(0.5 + 1.96 * math.sqrt(0.25 / 100), abs=1e-3)

    def test_clamped_to_unit_interval(self):
        _, lo, _ = proportion_ci(0, 10)
        _, _, hi = proportion_ci(10, 10)
        assert lo == 0.0 and hi == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            proportion_ci(5, 0)
        with pytest.raises(ValueError):
            proportion_ci(11, 10)


class TestInjectionSpace:
    def test_paper_example(self):
        """512 x 64 x 120 ~ 3.9e6 (the smallest-region space)."""
        assert injection_space_size(512, 64, 120) == 3_932_160

    def test_validation(self):
        with pytest.raises(ValueError):
            injection_space_size(0, 1, 1)


class TestStratifiedErrorRate:
    def test_known_zero_stratum_reduces_to_errors_over_n(self):
        # the pruning identity: tallying pruned trials as CORRECT
        # is the stratified estimator with a known-zero pruned stratum
        assert stratified_error_rate(3, 10, 40) == pytest.approx(3 / 50)

    def test_nothing_pruned_is_the_plain_rate(self):
        assert stratified_error_rate(2, 8, 0) == pytest.approx(0.25)

    def test_everything_pruned(self):
        assert stratified_error_rate(0, 0, 25) == 0.0

    def test_nonzero_pruned_stratum_weighting(self):
        # 10 executed at 50%, 10 pruned at a (hypothetical) known 10%
        assert stratified_error_rate(5, 10, 10, pruned_rate=0.1) == (
            pytest.approx(0.3)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            stratified_error_rate(0, 0, 0)
        with pytest.raises(ValueError):
            stratified_error_rate(5, 4, 1)
        with pytest.raises(ValueError):
            stratified_error_rate(1, 4, 1, pruned_rate=1.5)
