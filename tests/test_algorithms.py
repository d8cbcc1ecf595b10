"""Run loops: configuration, determinism, accounting, and invariants."""

import warnings

import numpy as np
import pytest

from emoabench.algorithms import (
    AlgorithmConfig,
    auto_mu,
    default_max_iterations,
    gsemo_run,
    sms_emoa_run,
)
from emoabench.benchmarks import ProblemInstance
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


class TestDispatchAndCoverage:
    def test_run_dispatches(self):
        # the harness runs repetition 0 from the stream (master seed, 0)
        for c, run in ((cfg(seed=0), sms_emoa_run), (cfg(algo="gsemo", seed=0), gsemo_run)):
            (row,), _ = run_experiment(ExperimentSpec(MOJZJ8, c), jobs=1)
            rec = run(MOJZJ8, c, np.random.default_rng([0, 0]))
            assert (row.iterations, row.evaluations) == (
                rec.iterations_to_coverage, rec.evaluations
            )
