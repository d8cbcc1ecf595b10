"""Run loops: configuration, determinism, accounting, and invariants."""

import warnings

import numpy as np
import pytest

from emoabench.algorithms import (
    AlgorithmConfig,
    _comparable_pairs,
    _random_masks,
    auto_mu,
    default_max_iterations,
    gsemo_run,
    sms_emoa_run,
)
from emoabench.benchmarks import ProblemInstance, inner_level
from emoabench.core import weakly_dominates
from emoabench.harness import ExperimentSpec, run_experiment
from emoabench.variation import MutationOperator

MOJZJ8 = ProblemInstance.mojzj(8, 4, 2)


def cfg(**kw):
    kw.setdefault("mutation", MutationOperator("standard"))
    return AlgorithmConfig(**kw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(algo="nope")
        with pytest.raises(ValueError):
            cfg(update="nope")
        with pytest.raises(ValueError):
            cfg(mu=0)
        with pytest.raises(ValueError):
            cfg(max_iterations=0)

    def test_auto_mu(self):
        assert auto_mu(MOJZJ8) == 25  # (n'+1)^(m/2)
        assert auto_mu(MOJZJ8, "stochastic") == 51
        assert auto_mu(ProblemInstance.oneminmax(20)) == 21
        assert auto_mu(ProblemInstance.lotz(20), "stochastic") == 43

    def test_auto_cap_is_hundredfold_bound(self):
        c = cfg()
        inst = ProblemInstance.oneminmax(20)
        import math

        bound = 2 * math.e * 21 * 20 * (math.log(20) + 1)
        assert default_max_iterations(inst, c, 21) == int(100 * bound)

    def test_mismatched_algo_rejected(self):
        with pytest.raises(ValueError):
            sms_emoa_run(MOJZJ8, cfg(algo="gsemo"))
        with pytest.raises(ValueError):
            gsemo_run(MOJZJ8, cfg(algo="sms_emoa"))

    def test_refpoint_dimension_checked(self):
        with pytest.raises(ValueError):
            sms_emoa_run(MOJZJ8, cfg(refpoint=(-1, -1)))

    def test_refpoint_must_lie_below_every_objective(self):
        # objectives start at 0, so a coordinate >= 0 leaves some attainable
        # vector not strictly dominating the reference point
        for r in ((5, 5), (0, -1), (-1, 0)):
            with pytest.raises(ValueError, match="reference point"):
                sms_emoa_run(ProblemInstance.oneminmax(3), cfg(refpoint=r))
        rec = sms_emoa_run(ProblemInstance.oneminmax(3), cfg(refpoint=(-2, -1)))
        assert not rec.censored


class TestSteadyStateRun:
    def test_covers_small_instance(self):
        rec = sms_emoa_run(MOJZJ8, cfg(seed=0))
        assert not rec.censored
        assert rec.iterations_to_coverage is not None
        assert rec.coverage_violations == 0
        assert rec.coverage_trajectory[-1][1] == 9

    def test_deterministic_given_seed(self):
        a = sms_emoa_run(MOJZJ8, cfg(seed=42))
        b = sms_emoa_run(MOJZJ8, cfg(seed=42))
        assert a == b

    def test_evaluation_accounting(self):
        rec = sms_emoa_run(MOJZJ8, cfg(seed=1, mu=25))
        assert rec.evaluations == 25 + rec.iterations_to_coverage

    def test_censoring_is_loud_but_not_fatal(self):
        rec = sms_emoa_run(MOJZJ8, cfg(seed=2, max_iterations=5))
        assert rec.censored
        assert rec.iterations_to_coverage is None
        assert rec.evaluations == 25 + 5

    def test_small_mu_warns(self):
        with pytest.warns(UserWarning, match="survival-guarantee"):
            sms_emoa_run(MOJZJ8, cfg(seed=3, mu=5, max_iterations=50))

    def test_stochastic_update_covers(self):
        rec = sms_emoa_run(MOJZJ8, cfg(seed=4, update="stochastic"))
        assert not rec.censored
        assert rec.coverage_violations == 0

    def test_heavy_tailed_covers(self):
        rec = sms_emoa_run(
            MOJZJ8, cfg(seed=5, mutation=MutationOperator("heavy_tailed", 1.5))
        )
        assert not rec.censored

    def test_inner_trajectory_tracked_for_jump_variant(self):
        rec = sms_emoa_run(MOJZJ8, cfg(seed=6))
        assert rec.inner_coverage_trajectory
        levels = [lvl for _, lvl in rec.inner_coverage_trajectory]
        assert all(0 <= lvl <= 2 for lvl in levels)
        rec2 = sms_emoa_run(ProblemInstance.oneminmax(10), cfg(seed=6))
        assert rec2.inner_coverage_trajectory == []

    def test_continue_past_coverage(self):
        c = cfg(seed=7, max_iterations=10000, stop_at_coverage=False)
        rec = sms_emoa_run(MOJZJ8, c)
        assert rec.iterations_to_coverage is not None
        assert rec.evaluations == 25 + 10000
        assert rec.coverage_violations == 0


class TestGsemoRun:
    def test_covers_and_stays_small(self):
        rec = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=0))
        assert not rec.censored
        assert rec.max_population_size <= 25

    def test_antichain_self_check(self):
        rec = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=1), verify_antichain_every=10)
        assert rec.antichain_violations == 0

    def test_evaluation_accounting(self):
        rec = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=2))
        assert rec.evaluations == 1 + rec.iterations_to_coverage

    def test_deterministic(self):
        a = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=3))
        b = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=3))
        assert a == b

    def test_oneminmax_population_bound(self):
        rec = gsemo_run(ProblemInstance.oneminmax(10), cfg(algo="gsemo", seed=4))
        assert rec.max_population_size <= 11


class TestRunPathHelpers:
    @pytest.mark.parametrize("n", [12, 16, 20, 32, 40, 70])
    def test_one_call_initial_draw_matches_per_individual_draws(self, n):
        def one_mask(rng):
            # one scalar draw per 32-bit chunk, low chunk first
            mask = 0
            for shift in range(0, n, 32):
                mask |= int(rng.integers(1 << min(32, n - shift))) << shift
            return mask

        for seed in range(3):
            batch, single = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _random_masks(n, 50, batch) == [one_mask(single) for _ in range(50)]
            assert batch.bit_generator.state == single.bit_generator.state
            assert _random_masks(n, 1, batch) == [one_mask(single)]
            assert batch.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize(
        "inst", [ProblemInstance.mojzj(16, 8, 1), ProblemInstance.mojzj(12, 4, 3)], ids=str
    )
    def test_objective_vector_fixes_the_inner_level(self, inst):
        # the run reads a genome's inner level by its objective vector
        level_of = {}
        for mask in range(1 << inst.n):
            level = inner_level(mask, inst)
            assert level_of.setdefault(inst.evaluate_mask(mask), level) == level

    @pytest.mark.parametrize(
        "archive",
        [
            [(3, 1, 0, 2), (1, 3, 2, 0), (2, 2, 1, 1)],  # antichain
            [(3, 1, 0, 2), (2, 1, 0, 2), (1, 3, 2, 0)],  # one dominated pair
            [(3, 1, 0, 2), (1, 3, 2, 0), (3, 1, 0, 2), (3, 1, 0, 2)],  # a triplicate
            [(2, 2), (1, 1), (2, 2), (0, 3), (1, 1)],
            [(5,)],
        ],
    )
    def test_comparable_pairs_match_pairwise_definition(self, archive):
        expected = sum(
            weakly_dominates(u, v) or weakly_dominates(v, u)
            for i, u in enumerate(archive)
            for v in archive[i + 1 :]
        )
        assert _comparable_pairs(archive) == expected

    def test_comparable_pairs_check_lengths(self):
        with pytest.raises(ValueError, match="length"):
            _comparable_pairs([(1, 2), (2, 1, 0)])


class TestDispatchAndCoverage:
    def test_run_dispatches(self):
        # the harness runs repetition 0 from the stream (master seed, 0)
        for c, run in ((cfg(seed=0), sms_emoa_run), (cfg(algo="gsemo", seed=0), gsemo_run)):
            (row,), _ = run_experiment(ExperimentSpec(MOJZJ8, c), jobs=1)
            rec = run(MOJZJ8, c, np.random.default_rng([0, 0]))
            assert (row.iterations, row.evaluations) == (
                rec.iterations_to_coverage, rec.evaluations
            )


# (iterations_to_coverage, evaluations, coverage_trajectory,
# inner_coverage_trajectory) recorded with the earlier pairwise-bitset
# selector.  The selector's oracle test stops at 20 vectors; these pin whole
# runs at N = 626, m = 8 and of the stochastic update at N = 100, m = 4.
GOLDEN_JUMP8 = {
    0: (None, 925, [
        (0, 256), (4, 257), (11, 258), (18, 259), (37, 260), (43, 261), (44, 262), (48, 263),
        (49, 264), (53, 265), (59, 266), (83, 267), (84, 268), (89, 269), (102, 270),
        (106, 271), (112, 272), (119, 273), (150, 274), (153, 275), (160, 276), (162, 277),
        (168, 278), (174, 279), (176, 280), (178, 281), (193, 282), (227, 283), (232, 284),
        (238, 285), (240, 286), (241, 287), (256, 288), (262, 289), (264, 290), (268, 291),
        (278, 292), (293, 293),
    ], [(0, 4)]),
    1: (None, 925, [
        (0, 243), (24, 244), (44, 245), (46, 246), (55, 247), (57, 248), (63, 249), (85, 250),
        (97, 251), (107, 252), (108, 253), (109, 254), (124, 255), (132, 256), (139, 257),
        (144, 258), (147, 259), (148, 260), (150, 261), (153, 262), (159, 263), (167, 264),
        (178, 265), (197, 266), (226, 267), (228, 268), (248, 269), (251, 270), (257, 271),
        (273, 272), (280, 273), (291, 274), (293, 275),
    ], [(0, 4)]),
    2: (None, 925, [
        (0, 254), (1, 255), (15, 256), (26, 257), (41, 258), (45, 259), (49, 260), (55, 261),
        (57, 262), (58, 263), (67, 264), (68, 265), (73, 266), (75, 267), (91, 268), (102, 269),
        (108, 270), (110, 271), (112, 272), (114, 273), (129, 274), (135, 275), (136, 276),
        (140, 277), (145, 278), (146, 279), (149, 280), (164, 281), (188, 282), (193, 283),
        (194, 284), (222, 285), (235, 286), (252, 287), (268, 288), (276, 289), (295, 290),
    ], [(0, 4)]),
}
GOLDEN_JUMP4_SPU = {
    0: (5775, 5874, [
        (0, 15), (2, 16), (157, 17), (163, 18), (273, 19), (539, 20), (821, 21), (906, 22),
        (1893, 23), (2199, 24), (5775, 25),
    ], [(0, 2)]),
    1: (14802, 14901, [
        (0, 11), (2, 12), (23, 13), (150, 14), (191, 15), (342, 16), (599, 17), (669, 18),
        (741, 19), (778, 20), (839, 21), (1285, 22), (1449, 23), (6560, 24), (14802, 25),
    ], [(0, 2)]),
}

def golden(rec):
    return (
        rec.iterations_to_coverage, rec.evaluations,
        rec.coverage_trajectory, rec.inner_coverage_trajectory,
    )


class TestGoldenRuns:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_JUMP8))
    def test_many_objective_auto_mu(self, seed):
        c = cfg(max_iterations=300, stop_at_coverage=False, seed=seed)
        rec = sms_emoa_run(ProblemInstance.mojzj(16, 8, 1), c)
        assert golden(rec) == GOLDEN_JUMP8[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_JUMP4_SPU))
    def test_stochastic_update(self, seed):
        c = cfg(mu=99, update="stochastic", seed=seed)
        rec = sms_emoa_run(ProblemInstance.mojzj(12, 4, 2), c)
        assert golden(rec) == GOLDEN_JUMP4_SPU[seed]
