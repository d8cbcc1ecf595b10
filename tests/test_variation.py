"""Mutation operators and the power-law step-size distribution."""

import math

import numpy as np
import pytest
from scipy import stats

from emoabench.variation import (
    Draws,
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

    def test_support_must_be_nonempty(self):
        for n in (1, 0):
            with pytest.raises(ValueError, match=f"empty for n={n}"):
                PowerLawDistribution(n, 1.5)

    def test_exponent_must_exceed_one(self):
        for beta in (1.0, 0.5):
            with pytest.raises(ValueError, match=f"must exceed 1, got {beta}"):
                PowerLawDistribution(20, beta)

    def test_sampler_support(self):
        d = power_law(20, 1.5)
        with Draws(np.random.default_rng(1)) as draws:
            alphas = [d.sample(draws) for _ in range(10_000)]
        assert min(alphas) >= 1 and max(alphas) <= 10

    def test_sampler_goodness_of_fit(self):
        d = power_law(20, 1.5)
        with Draws(np.random.default_rng(2)) as draws:
            alphas = [d.sample(draws) for _ in range(100_000)]
        observed = np.bincount(alphas, minlength=11)[1:]
        expected = d.pmf_array() * len(alphas)
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


def twins(seed, pre=0):
    """Two PCG64 generators in one state, after ``pre`` scalar integer
    draws: one leaves a buffered half-word, two a used (stale) one."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        for _ in range(pre):
            rng.integers(5)
    return pair


def state(rng):
    """PCG64's whole state: the LCG, and the half-word buffer with its flag."""
    return rng.bit_generator.state


def set_next_word(rng, word):
    """Set a PCG64 generator so that its next raw 64-bit word is ``word``.

    PCG64 steps its 128-bit LCG state and outputs the XOR of the new
    state's halves, rotated right by its top six bits; a new state with
    those bits clear and halves h, h ^ word outputs ``word``, and the LCG
    step is inverted with the multiplier's inverse mod 2**128.
    """
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    state = rng.bit_generator.state
    high = 0x0123456789ABCDEF
    new = high << 64 | (high ^ word)
    state["state"]["state"] = (new - state["state"]["inc"]) * pow(multiplier, -1, 1 << 128) % (
        1 << 128
    )
    rng.bit_generator.state = state


class TestDraws:
    """The decoder against numpy's own calls on twin PCG64 generators: the
    same values, and the same state once the ``with`` block is left."""

    @pytest.mark.parametrize("pre", [0, 1, 2])
    def test_mixed_draws_match_numpy_across_blocks(self, pre):
        ours, numpys = twins(11, pre)
        start = state(ours)
        if pre:
            assert start["uinteger"] != 0 and start["has_uint32"] == pre % 2
        with Draws(ours) as draws:
            for step in range(300):  # several blocks of raw words
                for high in HIGHS:
                    assert draws.below(high) == int(numpys.integers(high))
                assert draws.random() == numpys.random()
                n = 8 + step % 93
                for p in (1 / n, 3 / n, 0.2, 0.45, 0.5, 0.7):
                    # numpy draws by inversion at n*p <= 30 and p <= 0.5,
                    # else by BTPE (or on 1 - p), which the decoder hands back
                    assert draws.binomial(n, p) == int(numpys.binomial(n, p))
                mu = (1, 2, 51, 99, 625)[step % 5]
                half = (mu + 1) // 2
                assert draws.sample(mu + 1, half) == numpys.integers(mu + 1, size=half).tolist()
        assert state(ours) == state(numpys)

    @pytest.mark.parametrize("pre", [0, 1, 2])
    def test_sample_straddles_a_block_boundary(self, pre):
        ours, numpys = twins(12, pre)
        with Draws(ours) as draws:
            for size in (700, 333, 1, 2, 1000, 3):  # 1024 halves per block
                assert draws.sample(size + 1, size) == numpys.integers(size + 1, size=size).tolist()
                assert draws.below(7) == int(numpys.integers(7))
        assert state(ours) == state(numpys)

    def test_sample_redraws_a_rejected_value(self):
        # a range just above 2**20 rejects about one value in 4000, so some
        # of these samples of 400 redraw one
        ours, numpys = twins(13)
        with Draws(ours) as draws:
            for _ in range(100):
                assert draws.sample(2**20 + 1, 400) == numpys.integers(2**20 + 1, size=400).tolist()
        assert state(ours) == state(numpys)

    @pytest.mark.parametrize("pre", [0, 1, 2])
    def test_empty_sample_draws_nothing(self, pre):
        ours, numpys = twins(16, pre)
        before = state(ours)
        with Draws(ours) as draws:
            assert draws.sample(52, 0) == numpys.integers(52, size=0).tolist() == []
        assert state(ours) == state(numpys) == before

    @pytest.mark.parametrize("n, k", [(23, 1), (24, 1), (32, 3), (53, 4)])
    def test_binomial_inversion_restarts_past_its_bound(self, n, k):
        # the largest double below 1 runs numpy's inversion loop past its
        # bound at these (n, n*p), so it draws a fresh uniform and starts over
        ours, numpys = twins(15)
        for rng in (ours, numpys):
            set_next_word(rng, 2**64 - 1)
        probe = np.random.default_rng(15)
        set_next_word(probe, 2**64 - 1)
        assert int(probe.bit_generator.random_raw()) == 2**64 - 1
        with Draws(ours) as draws:
            assert draws.binomial(n, k / n) == int(numpys.binomial(n, k / n))
        assert state(ours) == state(numpys)
        probe.bit_generator.random_raw()  # the fresh uniform
        assert state(ours) == state(probe)

    def test_state_is_written_back_when_the_block_raises(self):
        ours, numpys = twins(14, 1)
        with pytest.raises(RuntimeError):
            with Draws(ours) as draws:
                for _ in range(700):
                    draws.below(21)
                    draws.random()
                raise RuntimeError
        for _ in range(700):
            numpys.integers(21)
            numpys.random()
        assert state(ours) == state(numpys)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM]
    )
    def test_other_bit_generators_rejected(self, bit_generator):
        with pytest.raises(ValueError, match=bit_generator.__name__):
            Draws(np.random.Generator(bit_generator(0)))

@pytest.mark.parametrize("bit_generator", [np.random.PCG64])
class TestDirectDraws:
    """Single draws of the decoder against numpy's own on twin generators of
    the one bit generator it takes, each ``with`` block short so that the
    state is compared after every step."""

    def test_uniform_below_matches_integers(self, bit_generator):
        ours, numpys = (np.random.Generator(bit_generator(11)) for _ in range(2))
        for step in range(300):
            with Draws(ours) as draws:
                for high in HIGHS:
                    assert draws.below(high) == int(numpys.integers(high))
            assert state(ours) == state(numpys)
            # numpy's own draws in between, from the state the block left:
            # 64-bit words, doubles and array fills
            for rng in (ours, numpys):
                if step % 3 == 0:
                    rng.binomial(20, 0.3)
                elif step % 3 == 1:
                    rng.random()
                else:
                    rng.integers(7, size=5)
            assert state(ours) == state(numpys)

    def test_single_value_range_draws_nothing(self, bit_generator):
        rng = np.random.Generator(bit_generator(3))
        before = state(rng)
        with Draws(rng) as draws:
            assert draws.below(1) == 0
        assert state(rng) == before

    def test_range_outside_32_bits_rejected(self, bit_generator):
        with Draws(np.random.Generator(bit_generator(3))) as draws:
            for high in (0, -5, 2**32 + 1):
                with pytest.raises(ValueError, match="high must lie in"):
                    draws.below(high)
            for high in (1, 2**32 + 1):
                with pytest.raises(ValueError, match="high must lie in"):
                    draws.sample(high, 3)

    def test_power_law_sample_matches_searchsorted(self, bit_generator):
        ours, numpys = (np.random.Generator(bit_generator(12)) for _ in range(2))
        with Draws(ours) as draws:
            for n, beta in ((8, 1.5), (20, 2.5), (101, 1.1)):
                d = PowerLawDistribution(n, beta)
                cdf = np.cumsum(d.pmf_array())
                for _ in range(500):
                    expected = int(np.searchsorted(cdf, numpys.random(), side="right")) + 1
                    assert d.sample(draws) == expected
        assert state(ours) == state(numpys)


class TestMutationOperators:
    def test_standard_flip_count_distribution(self):
        with Draws(np.random.default_rng(4)) as draws:
            flips = [STANDARD.mutate_mask(0, 50, draws).bit_count() for _ in range(20_000)]
        # Binomial(50, 1/50): mean 1
        assert np.mean(flips) == pytest.approx(1.0, abs=0.05)

    def test_heavy_tailed_flips_more_on_average(self):
        with Draws(np.random.default_rng(5)) as draws:
            heavy = [HEAVY.mutate_mask(0, 50, draws).bit_count() for _ in range(20_000)]
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
        ones = (1 << 33) - 1
        with Draws(np.random.default_rng(7)) as draws:
            for op in (STANDARD, HEAVY):
                for _ in range(100):
                    assert 0 <= op.mutate_mask(ones, 33, draws) < 1 << 33


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
        # flips exactly position 1 of the all-zero string
        with Draws(np.random.default_rng(8)) as draws:
            hits = sum(STANDARD.mutate_mask(0, 10, draws) == 1 for _ in range(50_000))
        p = standard_flip_probability(10, 1)
        se = math.sqrt(p * (1 - p) / 50_000)
        assert abs(hits / 50_000 - p) < 4 * se

