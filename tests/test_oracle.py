"""Brute-force references: exhaustive fronts and independent hypervolume."""

import numpy as np
import pytest

from emoabench.benchmarks import ProblemInstance, incomparable_family, is_pareto_optimal
from emoabench.oracle import (
    OracleBudget,
    brute_force_front,
    brute_force_pareto_optimal,
    hv_inclusion_exclusion,
    hv_monte_carlo,
    random_antichain,
    run_verification,
    verify_antichain,
)
from emoabench.selection import hypervolume


class TestBudget:
    def test_defaults(self):
        b = OracleBudget()
        assert b.max_n_exhaustive == 14
        assert b.mc_samples == 10**6

    def test_cap(self):
        with pytest.raises(ValueError):
            OracleBudget(max_n_exhaustive=25)


class TestBruteForceFront:
    def test_matches_closed_form(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        assert brute_force_front(inst).points == inst.pareto_front().points

    def test_oneminmax(self):
        assert brute_force_front(ProblemInstance.oneminmax(6)).size == 7

    def test_lotz(self):
        front = brute_force_front(ProblemInstance.lotz(5))
        assert front.points == {(i, 5 - i) for i in range(6)}

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            brute_force_front(ProblemInstance.oneminmax(15), OracleBudget(max_n_exhaustive=14))

    def test_membership_matches_block_characterization(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        for mask in range(1 << 8):
            assert brute_force_pareto_optimal(mask, inst) == is_pareto_optimal(mask, inst)


class TestInclusionExclusion:
    def test_two_point_value(self):
        assert hv_inclusion_exclusion([(0, 2), (2, 0)], (-1, -1)) == 5

    def test_duplicate_is_idempotent(self):
        pts = [(3, 1), (1, 3)]
        assert hv_inclusion_exclusion(pts + [pts[0]], (-1, -1)) == hv_inclusion_exclusion(
            pts, (-1, -1)
        )

    def test_dominated_member_is_absorbed(self):
        assert hv_inclusion_exclusion([(1, 1), (1, 1), (0, 0)], (-1, -1)) == 4

    def test_size_cap(self):
        with pytest.raises(ValueError):
            hv_inclusion_exclusion([(i, 16 - i) for i in range(16)], (-1, -1))

    def test_agrees_with_sweep_engine(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            pts = random_antichain(rng, int(rng.integers(1, 9)), m)
            r = (-1,) * m
            assert hypervolume(pts, r) == hv_inclusion_exclusion(pts, r)


class TestMonteCarlo:
    def test_singleton_estimate(self):
        rng = np.random.default_rng(1)
        est, se = hv_monte_carlo([(1, 2)], (-1, -1), 10**5, rng)
        assert abs(est - 6.0) < 3 * se + 1e-9

    def test_empty_set(self):
        rng = np.random.default_rng(2)
        est, se = hv_monte_carlo([], (-1, -1), 10**4, rng)
        assert est == 0.0

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            hv_monte_carlo([(1, 1)], (-1, -1), 100, np.random.default_rng(3))

    def test_agrees_with_exact(self):
        rng = np.random.default_rng(4)
        pts = random_antichain(rng, 6, 3)
        exact = hv_inclusion_exclusion(pts, (-1, -1, -1))
        est, se = hv_monte_carlo(pts, (-1, -1, -1), 2 * 10**5, rng)
        assert abs(est - exact) < 4 * max(se, 1e-9)


class TestAntichainChecks:
    def test_family_is_incomparable(self):
        inst = ProblemInstance.mojzj(16, 4, 4)
        family = [inst.evaluate_mask(x) for x in incomparable_family(8, 3)]
        assert verify_antichain(family)

    def test_chain_fails(self):
        assert not verify_antichain([(2, 2), (1, 1)])
        assert not verify_antichain([(1, 1), (1, 1)])  # equal vectors weakly dominate

    def test_singleton_and_empty(self):
        assert verify_antichain([(3, 4)])
        assert verify_antichain([])

    def test_random_antichain_generator(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pts = random_antichain(rng, 8, int(rng.integers(2, 5)))
            assert verify_antichain(pts)


def test_full_verification_suite_passes():
    results = run_verification(OracleBudget(mc_samples=10**5), seed=0)
    assert results, "verification produced no checks"
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"
