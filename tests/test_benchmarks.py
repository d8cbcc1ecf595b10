"""Benchmark evaluators, closed-form fronts, and structure predicates.

Frozen literal values below were produced by the independent brute-force
oracles in emoabench.oracle and by hand evaluation of the definitions, then
pinned.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from emoabench.benchmarks import (
    ProblemInstance,
    incomparable_family,
    incomparable_family_instance,
    inner_level,
    is_inner_pareto_optimum,
    is_pareto_optimal,
    jump_value,
    parse_problem,
)
from emoabench.core import incomparable


def bits(s):
    """Packed genome of a bit-string literal: position i+1 is bit i."""
    return int(s[::-1], 2)


class TestJump:
    def test_plateau_and_valley(self):
        # n'=6, k=2: fitness k+|y| outside the valley, n'-|y| inside
        assert jump_value(0, 6, 2) == 2
        assert jump_value(4, 6, 2) == 6
        assert jump_value(5, 6, 2) == 1  # valley
        assert jump_value(6, 6, 2) == 8  # optimum

    def test_jump_on_bitstring(self):
        assert jump_value(bits("111111").bit_count(), 6, 2) == 8
        assert jump_value(bits("111110").bit_count(), 6, 2) == 1

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            ProblemInstance.mojzj(8, 4, 0)


class TestInstanceValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ProblemInstance("nope", 8, 2)

    def test_block_divisibility(self):
        with pytest.raises(ValueError):
            ProblemInstance.mojzj(9, 4, 2)

    def test_gap_range(self):
        with pytest.raises(ValueError):
            ProblemInstance.mojzj(8, 4, 3)  # k > n'/2 = 2

    def test_k_only_for_jump_variant(self):
        with pytest.raises(ValueError):
            ProblemInstance("omm", 8, 2, 1)

    def test_biobjective_kinds_fix_m(self):
        with pytest.raises(ValueError):
            ProblemInstance("lotz", 8, 4)

    def test_nprime(self):
        assert ProblemInstance.mojzj(8, 4, 2).nprime == 4
        assert ProblemInstance.oneminmax(10).nprime == 10


class TestEvaluators:
    def test_mojzj_frozen_values(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        # blocks read left to right; first block drives the first pair
        assert inst.evaluate_mask(bits("11110000")) == (6, 2, 2, 6)
        assert inst.evaluate_mask(bits("11001100")) == (4, 4, 4, 4)
        assert inst.evaluate_mask(bits("11100100")) == (1, 3, 3, 1)

    def test_momm_counts_zeros_then_ones_per_block(self):
        inst = ProblemInstance.momm(8, 4)
        assert inst.evaluate_mask(bits("11110000")) == (0, 4, 4, 0)
        assert inst.evaluate_mask(bits("11001100")) == (2, 2, 2, 2)

    def test_momm_equals_gap_one_jump_with_pair_swap(self):
        # per objective pair (a, b): jump variant at k=1 gives (b+1, a+1)
        momm = ProblemInstance.momm(12, 4)
        jz = ProblemInstance.mojzj(12, 4, 1)
        for mask in range(0, 1 << 12, 7):
            mm = momm.evaluate_mask(mask)
            jj = jz.evaluate_mask(mask)
            for pair in range(2):
                assert mm[2 * pair] == jj[2 * pair + 1] - 1
                assert mm[2 * pair + 1] == jj[2 * pair] - 1

    def test_oneminmax(self):
        assert ProblemInstance.oneminmax(4).evaluate_mask(bits("0110")) == (2, 2)
        assert ProblemInstance.oneminmax(5).evaluate_mask(bits("00000")) == (5, 0)

    def test_lotz(self):
        lotz4, lotz5 = ProblemInstance.lotz(4), ProblemInstance.lotz(5)
        assert lotz5.evaluate_mask(bits("11010")) == (2, 1)
        assert lotz5.evaluate_mask(bits("01101")) == (0, 0)
        assert lotz4.evaluate_mask(bits("1111")) == (4, 0)
        assert lotz4.evaluate_mask(bits("0000")) == (0, 4)

    @pytest.mark.parametrize(
        "inst",
        [ProblemInstance.oneminmax(4), ProblemInstance.lotz(4), ProblemInstance.mojzj(4, 4, 1)],
        ids=str,
    )
    def test_genome_must_fit_in_n_bits(self, inst):
        assert inst.evaluate_mask((1 << 4) - 1)
        for mask in (1 << 4, 0b11111, (1 << 40) | 1, -1):
            with pytest.raises(ValueError, match="n=4"):
                inst.evaluate_mask(mask)

    @given(st.integers(min_value=0, max_value=(1 << 12) - 1))
    def test_mask_fast_path_matches_bitstring_path(self, mask):
        # per-block counts read from the string's positions, block i holding
        # positions i*n'+1 .. (i+1)*n'
        string = [(mask >> i) & 1 for i in range(12)]
        jz, momm = ProblemInstance.mojzj(12, 4, 2), ProblemInstance.momm(12, 6)
        jz_counts = [sum(string[b * 6 : (b + 1) * 6]) for b in range(2)]
        mm_counts = [sum(string[b * 4 : (b + 1) * 4]) for b in range(3)]
        assert jz.evaluate_mask(mask) == tuple(
            v for c in jz_counts for v in (jump_value(c, 6, 2), jump_value(6 - c, 6, 2))
        )
        assert momm.evaluate_mask(mask) == tuple(v for c in mm_counts for v in (4 - c, c))
        assert ProblemInstance.oneminmax(12).evaluate_mask(mask) == (
            string.count(0), string.count(1)
        )

    @given(st.integers(min_value=0, max_value=(1 << 12) - 1))
    def test_lotz_matches_definition(self, mask):
        bits = [(mask >> i) & 1 for i in range(12)]
        leading = 0
        for b in bits:
            if b != 1:
                break
            leading += 1
        trailing = 0
        for b in reversed(bits):
            if b != 0:
                break
            trailing += 1
        assert ProblemInstance.lotz(12).evaluate_mask(mask) == (leading, trailing)


class TestFronts:
    def test_mojzj_front_size_formula(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        front = inst.pareto_front()
        assert front.size == 9  # (n' - 2k + 3)^(m/2) with n'=4, k=2
        assert (6, 2, 2, 6) in front.points
        assert (4, 4, 4, 4) in front.points

    def test_front_values_per_pair(self):
        # n'=6, k=2: attainable first coordinates {2} + [4..6] + {8}
        inst = ProblemInstance.mojzj(6, 2, 2)
        assert inst.pareto_front().points == {
            (2, 8), (4, 6), (5, 5), (6, 4), (8, 2)
        }

    def test_biobjective_fronts(self):
        assert ProblemInstance.oneminmax(6).pareto_front().size == 7
        assert ProblemInstance.lotz(5).pareto_front().points == {
            (i, 5 - i) for i in range(6)
        }

    def test_momm_front_is_full_value_grid(self):
        inst = ProblemInstance.momm(8, 4)
        assert inst.pareto_front().size == 25  # (n'+1)^(m/2)


class TestParetoPredicates:
    def test_extreme_and_interior_blocks_are_optimal(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        assert is_pareto_optimal(bits("11110000"), inst)
        assert is_pareto_optimal(bits("11001100"), inst)
        assert not is_pareto_optimal(bits("11100100"), inst)

    def test_inner_optimum_excludes_extreme_blocks(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        assert is_inner_pareto_optimum(bits("11001100"), inst)
        assert not is_inner_pareto_optimum(bits("11110000"), inst)

    def test_inner_level_counts_interior_blocks(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        assert inner_level(bits("11001100"), inst) == 2
        assert inner_level(bits("11110000"), inst) == 0
        assert inner_level(bits("11110011"), inst) == 1

    def test_predicates_require_jump_variant(self):
        with pytest.raises(ValueError):
            is_pareto_optimal(bits("0000"), ProblemInstance.oneminmax(4))


class TestIncomparableFamily:
    def test_objective_values(self):
        inst = incomparable_family_instance(8)
        assert inst == ProblemInstance.mojzj(16, 4, 4)
        family = incomparable_family(8, 3)
        assert family[0] == bits("1000000011111000")
        values = [inst.evaluate_mask(x) for x in family]
        assert values == [(5, 1, 3, 7), (6, 2, 2, 6), (7, 3, 1, 5)]

    def test_pairwise_incomparable(self):
        inst = incomparable_family_instance(10)
        vals = [inst.evaluate_mask(x) for x in incomparable_family(10, 4)]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert incomparable(vals[i], vals[j])

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            incomparable_family(8, 4)  # at most k-1 = 3 members
        with pytest.raises(ValueError):
            incomparable_family(7, 1)  # odd block length


class TestParseProblem:
    def test_round_trip(self):
        for spec in ("mojzj:n=8,m=4,k=2", "momm:n=8,m=4", "omm:n=20", "lotz:n=20"):
            assert str(parse_problem(spec)) == spec

    def test_rejects_bad_specs(self):
        for bad in ("nope:n=4", "mojzj:n=8,m=4", "omm:n=20,m=2", "omm:n=x", "omm:n=20,n=20"):
            with pytest.raises(ValueError):
                parse_problem(bad)
