"""Brute-force references: exhaustive fronts and independent hypervolume."""

import numpy as np
import pytest

from emoabench import oracle
from emoabench.benchmarks import ProblemInstance, incomparable_family, is_pareto_optimal
from emoabench.oracle import (
    brute_force_front,
    hv_inclusion_exclusion,
    random_antichain,
    run_verification,
    verify_antichain,
)
from emoabench.selection import hypervolume


class TestMaxN:
    @pytest.fixture
    def no_checks(self, monkeypatch):
        def no_checks(*args, **kwargs):
            raise AssertionError("the checks started")

        monkeypatch.setattr(oracle, "brute_force_front", no_checks)

    def test_cap_checked_before_any_check(self, no_checks):
        with pytest.raises(ValueError, match="beyond n=24 is not desk-scale"):
            run_verification(max_n=25)

    def test_floor_checked_before_any_check(self, no_checks):
        # below n=2 the brute-force checks would enumerate no instance
        for max_n in (1, 0, -3):
            with pytest.raises(ValueError, match=f"must be >= 2, got {max_n}"):
                run_verification(max_n=max_n)

    def test_negative_seed_checked_before_any_check(self, no_checks):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_verification(seed=-1)

    def test_rows_name_the_four_exact_checks(self):
        # every remaining check is exact, and a seed fixes every row
        results = run_verification(max_n=8, seed=3)
        assert [name for name, _, _ in results] == [
            "closed-form front vs brute force",
            "block membership vs brute-force non-dominance",
            "dimension-sweep HV vs inclusion-exclusion",
            "incomparable family antichain",
        ]
        assert run_verification(max_n=8, seed=3) == results

    def test_cap_and_floor_are_inclusive(self):
        for max_n in (2, 24):
            assert all(ok is not False for _, ok, _ in run_verification(max_n=max_n))

    def test_default_cap_is_14(self):
        assert len(brute_force_front(ProblemInstance.oneminmax(14))) == 15
        with pytest.raises(ValueError, match="n=15 exceeds the exhaustive budget 14"):
            brute_force_front(ProblemInstance.oneminmax(15))


class TestBruteForceFront:
    def test_matches_closed_form(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        assert brute_force_front(inst) == inst.pareto_front()

    def test_oneminmax(self):
        assert len(brute_force_front(ProblemInstance.oneminmax(6))) == 7

    def test_lotz(self):
        front = brute_force_front(ProblemInstance.lotz(5))
        assert front == {(i, 5 - i) for i in range(6)}

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            brute_force_front(ProblemInstance.oneminmax(15), max_n=14)

    def test_membership_matches_block_characterization(self):
        inst = ProblemInstance.mojzj(8, 4, 2)
        front = brute_force_front(inst)
        for mask in range(1 << 8):
            assert (inst.evaluate_mask(mask) in front) == is_pareto_optimal(mask, inst)


class TestInclusionExclusion:
    def test_two_point_value(self):
        assert hv_inclusion_exclusion([(0, 2), (2, 0)], (-1, -1)) == 5

    def test_empty_set_is_zero(self):
        assert hv_inclusion_exclusion([], (-1, -1)) == 0

    def test_singleton_is_its_box(self):
        assert hv_inclusion_exclusion([(1, 2)], (-1, -1)) == 2 * 3
        assert hv_inclusion_exclusion([(2, 0, 1)], (-1, -1, -1)) == 3 * 1 * 2

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

    def test_size_cap_admits_fifteen_points(self):
        pts = [(i, 14 - i) for i in range(15)]
        assert hv_inclusion_exclusion(pts, (-1, -1)) == hypervolume(pts, (-1, -1))

    def test_reference_must_be_strictly_dominated(self):
        for pts, r in ([(0, 2), (2, 0)], (0, -1)), ([(0, 2)], (-1, -1, -1)):
            with pytest.raises(ValueError, match="does not strictly dominate"):
                hv_inclusion_exclusion(pts, r)

    def test_agrees_with_sweep_engine(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            pts = random_antichain(rng, int(rng.integers(1, 9)), m)
            r = (-1,) * m
            assert hypervolume(pts, r) == hv_inclusion_exclusion(pts, r)


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
    results = run_verification(seed=0)
    assert results, "verification produced no checks"
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"
