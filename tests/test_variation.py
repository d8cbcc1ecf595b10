"""Mutation operators and the power-law step-size distribution."""

import math

import numpy as np
import pytest
from scipy import stats

from emoabench.variation import (
    MutationOperator,
    PowerLawDistribution,
    heavy_tailed_flip_probability,
    power_law,
    standard_flip_probability,
)

STANDARD = MutationOperator("standard")
HEAVY = MutationOperator("heavy_tailed", 1.5)


class TestPowerLaw:
    def test_exact_pmf_small_case(self):
        # n=4 -> support {1, 2}; beta=2 -> weights 1, 1/4
        d = PowerLawDistribution(4, 2.0)
        assert d.support_max == 2
        assert d.pmf(1) == pytest.approx(0.8)
        assert d.pmf(2) == pytest.approx(0.2)

    def test_pmf_sums_to_one(self):
        d = PowerLawDistribution(40, 1.5)
        assert math.fsum(d.pmf(i) for i in range(1, d.support_max + 1)) == pytest.approx(1.0)

    def test_pmf_out_of_support_is_zero(self):
        d = PowerLawDistribution(10, 1.5)
        assert d.pmf(0) == 0.0
        assert d.pmf(6) == 0.0

    def test_sampler_support(self):
        d = power_law(20, 1.5)
        rng = np.random.default_rng(1)
        draws = d.sample_many(rng, 10_000)
        assert draws.min() >= 1 and draws.max() <= 10

    def test_sampler_goodness_of_fit(self):
        d = power_law(20, 1.5)
        rng = np.random.default_rng(2)
        draws = d.sample_many(rng, 100_000)
        observed = np.bincount(draws, minlength=11)[1:]
        expected = d.pmf_array() * len(draws)
        chi2 = stats.chisquare(observed, expected)
        assert chi2.pvalue > 1e-4

    def test_sample_alpha_scalar(self):
        d = power_law(8, 2.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert 1 <= d.sample(rng) <= 4


class TestMutationOperators:
    def test_standard_flip_count_distribution(self):
        rng = np.random.default_rng(4)
        flips = [STANDARD.mutate_mask(0, 50, rng).bit_count() for _ in range(20_000)]
        # Binomial(50, 1/50): mean 1
        assert np.mean(flips) == pytest.approx(1.0, abs=0.05)

    def test_heavy_tailed_flips_more_on_average(self):
        rng = np.random.default_rng(5)
        heavy = [HEAVY.mutate_mask(0, 50, rng).bit_count() for _ in range(20_000)]
        assert np.mean(heavy) > 1.2

    def test_operator_validation(self):
        with pytest.raises(ValueError):
            MutationOperator("nope")
        with pytest.raises(ValueError):
            MutationOperator("heavy_tailed")  # beta required
        with pytest.raises(ValueError):
            MutationOperator("heavy_tailed", 1.0)  # beta must exceed 1
        with pytest.raises(ValueError):
            MutationOperator("standard", 1.5)  # beta meaningless here

    def test_length_preserved(self):
        rng = np.random.default_rng(7)
        ones = (1 << 33) - 1
        for op in (STANDARD, HEAVY):
            for _ in range(100):
                assert 0 <= op.mutate_mask(ones, 33, rng) < 1 << 33


class TestFlipProbabilities:
    def test_standard_value(self):
        # one specific 4-set out of n=20 positions
        assert standard_flip_probability(20, 4) == pytest.approx(
            (1 / 20) ** 4 * (19 / 20) ** 16
        )

    def test_heavy_tailed_is_mixture_over_alpha(self):
        d = power_law(20, 1.5)
        expected = sum(
            d.pmf(a) * (a / 20) ** 4 * (1 - a / 20) ** 16 for a in range(1, 11)
        )
        assert heavy_tailed_flip_probability(20, 1.5, 4) == pytest.approx(expected)

    def test_single_flip_probabilities_comparable(self):
        # for a single specific bit the standard rate is near-optimal
        assert standard_flip_probability(20, 1) > heavy_tailed_flip_probability(20, 1.5, 1)

    def test_empirical_standard_agreement(self):
        rng = np.random.default_rng(8)
        # flips exactly position 1 of the all-zero string
        hits = sum(STANDARD.mutate_mask(0, 10, rng) == 1 for _ in range(50_000))
        p = standard_flip_probability(10, 1)
        se = math.sqrt(p * (1 - p) / 50_000)
        assert abs(hits / 50_000 - p) < 4 * se

