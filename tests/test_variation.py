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
    uniform_below,
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


# ranges of one value, small ones, the flip positions and removal counts of
# the benchmarks, and large ones whose rejection threshold is hit often
HIGHS = (1, 2, 3, 16, 21, 626, 2**31 + 11, 3 * 2**30, 2**32)


def twins(bit_generator, seed):
    return (np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed)))


def state(rng):
    """The bit generator's state with its arrays as lists, so == compares it."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
class TestDirectDraws:
    """The run path's direct draws against numpy's own, on twin generators:
    the same values, and the same state after every step."""

    def test_uniform_below_matches_integers(self, bit_generator):
        ours, numpys = twins(bit_generator, 11)
        for step in range(300):
            for high in HIGHS:
                assert uniform_below(ours, high) == int(numpys.integers(high))
                assert state(ours) == state(numpys)
            # other draws in between: 64-bit words, doubles and array fills
            if step % 3 == 0:
                assert ours.binomial(20, 0.3) == numpys.binomial(20, 0.3)
            elif step % 3 == 1:
                assert ours.random() == numpys.random()
            else:
                assert ours.integers(7, size=5).tolist() == numpys.integers(7, size=5).tolist()
            assert state(ours) == state(numpys)

    def test_single_value_range_draws_nothing(self, bit_generator):
        rng = np.random.Generator(bit_generator(3))
        before = state(rng)
        assert uniform_below(rng, 1) == 0
        assert state(rng) == before

    def test_range_outside_32_bits_rejected(self, bit_generator):
        rng = np.random.Generator(bit_generator(3))
        for high in (0, -5, 2**32 + 1):
            with pytest.raises(ValueError, match="high must lie in"):
                uniform_below(rng, high)

    def test_power_law_sample_matches_searchsorted(self, bit_generator):
        ours, numpys = twins(bit_generator, 12)
        for n, beta in ((8, 1.5), (20, 2.5), (101, 1.1)):
            d = PowerLawDistribution(n, beta)
            cdf = np.cumsum(d.pmf_array())
            for _ in range(500):
                expected = int(np.searchsorted(cdf, numpys.random(), side="right")) + 1
                assert d.sample(ours) == expected
                assert state(ours) == state(numpys)


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

