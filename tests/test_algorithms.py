"""Run loops: configuration, determinism, accounting, and invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emoabench import algorithms
from emoabench.algorithms import (
    AlgorithmConfig,
    _comparable_pairs,
    _CoverageTracker,
    _random_masks,
    auto_mu,
    gsemo_run,
    run_limits,
    sms_emoa_run,
)
from emoabench.benchmarks import ProblemInstance, inner_level
from emoabench.bounds import bound_value
from emoabench.core import weakly_dominates
from emoabench.harness import ExperimentSpec, run_experiment
from emoabench.oracle import reference_gsemo_run, reference_sms_emoa_run
from emoabench.selection import ValueIndex
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
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            cfg(seed=-1)

    def test_gsemo_rejects_options_it_does_not_read(self):
        for kw in (dict(mu=3), dict(refpoint=(-1, -1)), dict(update="stochastic")):
            with pytest.raises(ValueError, match="gsemo"):
                cfg(algo="gsemo", **kw)
        assert cfg(algo="gsemo", update="standard").mu is None

    def test_auto_mu(self):
        assert auto_mu(MOJZJ8) == 25  # (n'+1)^(m/2)
        assert auto_mu(MOJZJ8, "stochastic") == 51
        assert auto_mu(ProblemInstance.oneminmax(20)) == 21
        assert auto_mu(ProblemInstance.lotz(20), "stochastic") == 43

    def test_auto_cap_is_hundredfold_bound(self):
        inst = ProblemInstance.oneminmax(20)
        import math

        bound = 2 * math.e * 21 * 20 * (math.log(20) + 1)
        assert run_limits(inst, cfg()) == (21, int(100 * bound))

    def test_auto_cap_of_each_run(self):
        # momm takes the bound of its gap-1 relative, gsemo on omm the
        # bound at mu = n + 1, whatever the run's own population
        class Capped(Exception):
            pass

        caps = []
        real = run_limits

        def spy(*args):
            caps.append(real(*args)[1])
            raise Capped

        momm, omm = ProblemInstance.momm(8, 4), ProblemInstance.oneminmax(10)
        runs = (
            (sms_emoa_run, momm, cfg(mu=7)),
            (sms_emoa_run, momm, cfg(mu=7, update="stochastic")),
            (gsemo_run, momm, cfg(algo="gsemo")),
            (gsemo_run, omm, cfg(algo="gsemo")),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algorithms, "run_limits", spy)
            for run, inst, c in runs:
                with pytest.raises(Capped), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    run(inst, c)
        gap1 = ProblemInstance.mojzj(8, 4, 1)
        assert caps == [
            int(100 * bound_value(theorem, ref, mu))
            for theorem, ref, mu in (
                ("sms", gap1, 7), ("spu", gap1, 7), ("gsemo", gap1, 9), ("omm", omm, 11),
            )
        ]

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
        assert rec.iterations == rec.iterations_to_coverage

    def test_censoring_is_loud_but_not_fatal(self):
        rec = sms_emoa_run(MOJZJ8, cfg(seed=2, max_iterations=5))
        assert rec.censored
        assert rec.iterations_to_coverage is None
        assert (rec.iterations, rec.evaluations) == (5, 25 + 5)

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
        assert (rec.iterations, rec.evaluations) == (10000, 25 + 10000)
        assert rec.coverage_violations == 0

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matches_reference_run(self, data):
        kind = data.draw(st.sampled_from(["mojzj", "momm", "omm", "lotz"]), label="kind")
        if kind in ("omm", "lotz"):
            # n above 32 spans two chunks of the start draw
            n = data.draw(st.one_of(st.integers(2, 10), st.integers(33, 36)), label="n")
            inst = ProblemInstance(kind, n, 2)
        else:
            m = data.draw(st.sampled_from([2, 4]), label="m")
            nprime = data.draw(st.integers(2, 8 if m == 2 else 4), label="n'")
            k = data.draw(st.integers(1, nprime // 2), label="k") if kind == "mojzj" else None
            inst = ProblemInstance(kind, nprime * m // 2, m, k)
        update = data.draw(st.sampled_from(["standard", "stochastic"]), label="update")
        beta = data.draw(st.sampled_from([None, 1.5, 3.0]), label="beta")
        mutation = MutationOperator("standard" if beta is None else "heavy_tailed", beta)
        # populations below auto_mu lose covered values
        mu = data.draw(st.none() | st.integers(1, auto_mu(inst, update)), label="mu")
        c = cfg(
            mu=mu, update=update, mutation=mutation,
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
            max_iterations=data.draw(st.integers(1, 400), label="budget"),
            stop_at_coverage=data.draw(st.booleans(), label="stop"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert sms_emoa_run(inst, c) == reference_sms_emoa_run(inst, c)


class TestGsemoRun:
    def test_covers_and_stays_small(self):
        rec = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=0))
        assert not rec.censored
        assert rec.max_population_size <= 25

    def test_antichain_self_check(self):
        rec = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=1))
        assert rec.antichain_violations == 0

    def test_antichain_self_check_catches_a_broken_acceptance_step(self, monkeypatch):
        # an acceptance step that drops no member keeps dominated ones: a new
        # vector's id never enters the strict entries of the ids it dominates
        class NoDrops(ValueIndex):
            def enter(self, obj):
                before = self.strict[:]
                i = super().enter(obj)
                self.strict[:i] = before
                return i

        # a fresh index and fact dict, so the shared memo stays untouched
        monkeypatch.setattr(algorithms, "_problem_memo", lambda inst: (NoDrops(inst.m), {}))
        c = cfg(algo="gsemo", seed=0, max_iterations=2000, stop_at_coverage=False)
        assert gsemo_run(MOJZJ8, c).antichain_violations > 0

    def test_evaluation_accounting(self):
        rec = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=2))
        assert rec.evaluations == 1 + rec.iterations_to_coverage
        assert rec.iterations == rec.iterations_to_coverage

    def test_deterministic(self):
        a = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=3))
        b = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=3))
        assert a == b

    def test_oneminmax_population_bound(self):
        rec = gsemo_run(ProblemInstance.oneminmax(10), cfg(algo="gsemo", seed=4))
        assert rec.max_population_size <= 11

    @pytest.mark.parametrize(
        "inst, capped_only",
        [
            (ProblemInstance.mojzj(8, 4, 2), False), (ProblemInstance.mojzj(12, 4, 3), False),
            (ProblemInstance.oneminmax(10), False), (ProblemInstance.lotz(8), False),
            (ProblemInstance.momm(8, 4), False),
            # its start spans two 32-bit chunks
            (ProblemInstance.mojzj(40, 2, 2), True),
        ],
        ids=lambda v: str(v) if isinstance(v, ProblemInstance) else None,
    )
    def test_matches_reference_run(self, inst, capped_only):
        budgets = [dict(max_iterations=2000, stop_at_coverage=False)]
        if not capped_only:
            budgets.append({})
        for kw in budgets:
            for seed in range(5):
                c = cfg(algo="gsemo", seed=seed, **kw)
                assert gsemo_run(inst, c) == reference_gsemo_run(inst, c), (kw, seed)

    def test_inner_trajectory_tracked_for_jump_variant(self):
        rec = gsemo_run(MOJZJ8, cfg(algo="gsemo", seed=5))
        assert rec.inner_coverage_trajectory[0][0] == 0
        assert rec.inner_coverage_trajectory[-1][1] == 2  # the front's inner optima
        rec2 = gsemo_run(ProblemInstance.oneminmax(10), cfg(algo="gsemo", seed=5))
        assert rec2.inner_coverage_trajectory == []


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
        "inst",
        [
            ProblemInstance.mojzj(16, 8, 1), ProblemInstance.mojzj(12, 4, 3),
            ProblemInstance.mojzj(8, 4, 2), ProblemInstance.mojzj(12, 2, 3),
        ],
        ids=str,
    )
    def test_tracker_reads_the_inner_level_from_the_vector(self, inst):
        cov = _CoverageTracker(inst)
        for mask in range(1 << inst.n):
            obj = inst.evaluate_mask(mask)
            cov.add(obj)
            assert cov.facts[obj][1] == inner_level(mask, inst)

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


class TestCoverageTracker:
    @pytest.mark.parametrize(
        "inst",
        [
            ProblemInstance.mojzj(8, 4, 2), ProblemInstance.mojzj(4, 2, 2),
            ProblemInstance.oneminmax(4), ProblemInstance.lotz(4),
        ],
        ids=str,
    )
    def test_random_sequences_match_recount(self, inst):
        """Random add/remove steps against a from-scratch recount of the
        population after every operation."""
        front = inst.pareto_front().points
        hits = falls = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            cov = _CoverageTracker(inst)
            pop: list[int] = []
            covered: set = set()
            violations, hit, traj, inner = 0, None, [], []
            for t in range(300):
                for _ in range(int(rng.integers(1, 4))):
                    # the tracker counts distinct vectors: it sees a
                    # vector's first holder arrive and its last one leave
                    if len(pop) > 1 and (len(pop) >= 24 or rng.random() < 0.3):
                        obj = inst.evaluate_mask(pop.pop(int(rng.integers(len(pop)))))
                        if obj not in {inst.evaluate_mask(x) for x in pop}:
                            cov.remove(obj)
                    else:
                        # a random density per block makes extreme blocks likely
                        density = np.repeat(rng.random(inst.m // 2), inst.nprime)
                        bits = np.flatnonzero(rng.random(inst.n) < density)
                        mask = sum(1 << int(b) for b in bits)
                        obj = inst.evaluate_mask(mask)
                        if obj not in {inst.evaluate_mask(x) for x in pop}:
                            cov.add(obj)
                        pop.append(mask)
                    now = {inst.evaluate_mask(x) for x in pop} & front
                    violations += len(covered - now)
                    covered = now
                cov.record(t)
                if not traj or traj[-1][1] != len(covered):
                    traj.append((t, len(covered)))
                if hit is None and covered == front:
                    hit = t
                if inst.kind == "mojzj":
                    top = max(inner_level(x, inst) for x in pop)
                    if not inner or inner[-1][1] != top:
                        falls += bool(inner) and top < inner[-1][1]
                        inner.append((t, top))
                assert (cov.covered, cov.violations, cov.hit) == (len(covered), violations, hit)
                assert (cov.trajectory, cov.inner_trajectory) == (traj, inner)
            hits += hit is not None
        # the sequences reach full coverage and, on mojzj, lose inner levels
        assert hits
        assert falls or inst.kind != "mojzj"


class TestDispatchAndCoverage:
    def test_run_dispatches(self):
        # the harness runs repetition 0 from the stream (master seed, 0)
        for c, run in ((cfg(seed=0), sms_emoa_run), (cfg(algo="gsemo", seed=0), gsemo_run)):
            (row,), _ = run_experiment(ExperimentSpec(MOJZJ8, c), jobs=1)
            rec = run(MOJZJ8, c, np.random.default_rng([0, 0]))
            assert (row.iterations, row.evaluations) == (
                rec.iterations_to_coverage, rec.evaluations
            )

    def test_capped_rows_count_executed_iterations(self):
        # a censored row reports the iterations its run executed
        for algo, start in (("sms_emoa", 25), ("gsemo", 1)):
            c = cfg(algo=algo, seed=0, max_iterations=3)
            (row,), _ = run_experiment(ExperimentSpec(MOJZJ8, c), jobs=1)
            assert (row.iterations, row.evaluations, row.censored) == (3, start + 3, True)


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
# mu = 5 holds at most 5 of the 9 front vectors, so this run keeps losing
# covered values, and its best inner level rises and falls again
GOLDEN_JUMP12_K3_MU5 = (None, 4005, [
    (0, 0), (4, 1), (6, 2), (506, 3), (2059, 4), (2992, 5),
], [(0, 1), (4, 2), (3689, 1)], 3)

# heavy-tailed mutation (beta = 1.5) draws a power-law strength before each
# flip count: three runs to coverage on mojzj(8, 2, 3) and one stochastic
# run on mojzj(12, 4, 3) capped at 3000 iterations
GOLDEN_HEAVY_JUMP2_K3 = {
    0: (696, 705, [(0, 3), (99, 4), (696, 5)], [(0, 1)]),
    1: (1887, 1896, [(0, 3), (17, 4), (1887, 5)], [(0, 1)]),
    2: (588, 597, [(0, 3), (180, 4), (588, 5)], [(0, 1)]),
}
GOLDEN_HEAVY_JUMP4_K3_SPU = (None, 3099, [(0, 4), (345, 5), (1297, 6)], [(0, 2)])


def golden(rec):
    return (
        rec.iterations_to_coverage, rec.evaluations,
        rec.coverage_trajectory, rec.inner_coverage_trajectory,
    )


class TestProblemMemo:
    """Runs on one problem share its value index and per-vector facts;
    whatever earlier runs entered there, a run's record is the same."""

    SEEDS = (0, 1, 2)
    ITERATIONS = 400

    @pytest.mark.parametrize("inst, update", [
        (ProblemInstance.mojzj(8, 4, 2), "standard"),
        (ProblemInstance.mojzj(8, 4, 2), "stochastic"),
        (ProblemInstance.lotz(10), "stochastic"),
        (ProblemInstance.mojzj(12, 6, 1), "standard"),
    ], ids=["jump4-std", "jump4-spu", "lotz-spu", "jump6-std"])
    def test_warm_and_cold_memos_give_the_same_runs(self, inst, update):
        def run(seed):
            c = cfg(update=update, seed=seed, max_iterations=self.ITERATIONS,
                    stop_at_coverage=False)
            return sms_emoa_run(inst, c)

        def gsemo(seed):
            c = cfg(algo="gsemo", seed=seed, max_iterations=self.ITERATIONS,
                    stop_at_coverage=False)
            return gsemo_run(inst, c)

        memo = algorithms._problem_memo
        cold, cold_gsemo = {}, {}
        for seed in self.SEEDS:
            memo.cache_clear()
            cold[seed] = run(seed)
            memo.cache_clear()
            cold_gsemo[seed] = gsemo(seed)
            assert memo(inst)[0].vecs  # GSEMO enters its vectors in the shared index

        def warmed(warm_up, seeds):
            memo.cache_clear()
            warm_up()
            index, facts = memo(inst)
            assert index.vecs and facts  # the runs below start warm
            return {seed: run(seed) for seed in seeds}

        # other seeds, the same seeds in reverse order, and a GSEMO run
        assert warmed(lambda: [run(seed) for seed in (7, 8)], self.SEEDS) == cold
        # GSEMO on the index those SMS-EMOA runs filled
        assert {seed: gsemo(seed) for seed in self.SEEDS[::-1]} == cold_gsemo
        assert warmed(lambda: run(self.SEEDS[-1]), self.SEEDS[::-1]) == cold
        memo.cache_clear()
        gsemo(5)
        assert memo(inst)[1]  # GSEMO fills the shared facts
        assert {seed: run(seed) for seed in self.SEEDS} == cold


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

    def test_losses_and_falling_inner_level(self):
        c = cfg(mu=5, max_iterations=4000, stop_at_coverage=False, seed=2)
        with pytest.warns(UserWarning, match="survival-guarantee"):
            rec = sms_emoa_run(ProblemInstance.mojzj(12, 4, 3), c)
        assert (*golden(rec), rec.coverage_violations) == GOLDEN_JUMP12_K3_MU5

    @pytest.mark.parametrize("seed", sorted(GOLDEN_HEAVY_JUMP2_K3))
    def test_heavy_tailed_mutation(self, seed):
        c = cfg(mutation=MutationOperator("heavy_tailed", 1.5), seed=seed)
        rec = sms_emoa_run(ProblemInstance.mojzj(8, 2, 3), c)
        assert golden(rec) == GOLDEN_HEAVY_JUMP2_K3[seed]

    def test_heavy_tailed_stochastic_update(self):
        c = cfg(
            mutation=MutationOperator("heavy_tailed", 1.5), update="stochastic",
            max_iterations=3000, stop_at_coverage=False, seed=0,
        )
        rec = sms_emoa_run(ProblemInstance.mojzj(12, 4, 3), c)
        assert golden(rec) == GOLDEN_HEAVY_JUMP4_K3_SPU

    @pytest.mark.parametrize("inst, c, losses", [
        (ProblemInstance.oneminmax(8), cfg(mu=3, max_iterations=2000, stop_at_coverage=False), 981),
        (ProblemInstance.momm(8, 4), cfg(mu=12, max_iterations=500), 173),
    ], ids=["omm", "momm"])
    def test_documented_loss_counts(self, inst, c, losses):
        # the counts RunRecord's docstring and README cite, which include an
        # offspring removed in its own iteration
        with pytest.warns(UserWarning, match="survival-guarantee"):
            rec = sms_emoa_run(inst, c)
        assert (rec.iterations, rec.coverage_violations) == (c.max_iterations, losses)

    def test_documented_stochastic_losses_at_auto_mu(self):
        # the count RunRecord's docstring and README cite: auto mu does not
        # keep the stochastic update from losing covered front values
        inst = ProblemInstance.oneminmax(8)
        total = 0
        for seed in range(10):
            c = cfg(update="stochastic", seed=seed, max_iterations=5000, stop_at_coverage=False)
            rec = sms_emoa_run(inst, c)
            assert (rec.iterations, rec.max_population_size) == (5000, 19)
            total += rec.coverage_violations
        assert total == 274
