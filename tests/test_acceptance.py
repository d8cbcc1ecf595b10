"""Acceptance gate: one test per criterion, reported as one line each.

Each test appends (number, name, passed, detail) to RESULTS; the conftest
terminal-summary hook prints one pass/fail line per criterion at the end of
the session.  Tolerances and budgets are pinned in the constants below.
"""

import gc
import math
import time

import numpy as np
import pytest

from emoabench.algorithms import AlgorithmConfig, gsemo_run, sms_emoa_run
from emoabench.benchmarks import (
    ProblemInstance,
    incomparable_family,
    incomparable_family_instance,
)
from emoabench.core import incomparable
from emoabench.harness import ExperimentSpec, run_experiment, summarize
from emoabench.oracle import brute_force_front, hv_inclusion_exclusion, random_antichain
from emoabench.selection import (
    SteadyStateSelector,
    ValueIndex,
    default_reference_point,
    hypervolume,
    min_contribution_indices,
)
from emoabench.variation import (
    Draws,
    MutationOperator,
    heavy_tailed_flip_probability,
    power_law,
    standard_flip_probability,
)

RESULTS: list[tuple[int, str, bool, str]] = []

# pinned tolerances and budgets
ORACLE_SECONDS = 60.0          # criteria 1-3 runtime cap
OMM_SECONDS = 10.0             # criterion 6 runtime cap
LOTZ_SECONDS = 30.0            # criterion 7 runtime cap
SURVIVAL_ITERS = 100_000       # criteria 4, 5, 12 iteration horizon
SURVIVAL_RUNS = 20
SELECTION_EVENTS = 100_000     # criterion 5 frequency sample
PMF_LINF_TOL = 0.005           # criterion 11
MC_SIGMA = 3.0                 # criteria 5, 10 statistical margins


def record(num: int, name: str, ok: bool, detail: str = ""):
    RESULTS.append((num, name, ok, detail))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def std_cfg(**kw):
    kw.setdefault("mutation", MutationOperator("standard"))
    return AlgorithmConfig(**kw)


def test_criterion_01_front_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 13):
        for m in (2, 4):
            if (2 * n) % m:
                continue
            nprime = 2 * n // m
            for k in range(1, nprime // 2 + 1):
                inst = ProblemInstance.mojzj(n, m, k)
                closed = inst.pareto_front()
                brute = brute_force_front(inst)
                formula = (nprime - 2 * k + 3) ** (m // 2)
                assert closed == brute, f"front mismatch on {inst}"
                assert len(closed) == formula, f"front size mismatch on {inst}"
                checked += 1
    elapsed = time.perf_counter() - start
    record(
        1, "closed-form front equals brute force", elapsed < ORACLE_SECONDS,
        f"{checked} instances in {elapsed:.1f}s",
    )


def test_criterion_02_hypervolume_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for trial in range(1000):
        m = int(rng.integers(2, 7))
        pts = random_antichain(rng, int(rng.integers(1, 11)), m)
        r = default_reference_point(m)
        assert hypervolume(pts, r) == hv_inclusion_exclusion(pts, r), f"trial {trial}"
    elapsed = time.perf_counter() - start
    record(
        2, "sweep hypervolume equals inclusion-exclusion",
        elapsed < ORACLE_SECONDS, f"1000 antichains in {elapsed:.1f}s",
    )


def test_criterion_03_zero_contribution_iff_duplicate():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    for trial in range(1000):
        m = int(rng.integers(2, 5))
        base = random_antichain(rng, int(rng.integers(2, 8)), m)
        extra = [base[int(rng.integers(len(base)))] for _ in range(int(rng.integers(1, 4)))]
        pts = base + extra
        counts = {}
        for p in pts:
            counts[p] = counts.get(p, 0) + 1
        r = default_reference_point(m)
        total = hypervolume(pts, r)
        for i, p in enumerate(pts):
            # leave-one-occurrence-out, computed without the duplicate shortcut
            rest = pts[:i] + pts[i + 1 :]
            delta = total - hypervolume(rest, r)
            if counts[p] > 1:
                assert delta == 0, f"duplicate with positive contribution: {p}"
            else:
                assert delta > 0, f"unique vector with zero contribution: {p}"
        # the selector's duplicate shortcut: its minimum is the duplicates
        dups = [i for i, p in enumerate(pts) if counts[p] > 1]
        assert min_contribution_indices(pts, r) == dups, f"trial {trial}"
    elapsed = time.perf_counter() - start
    record(
        3, "contribution zero exactly for duplicated vectors",
        elapsed < ORACLE_SECONDS, f"1000 antichains in {elapsed:.1f}s",
    )


def test_criterion_04_survival_standard_update():
    inst = ProblemInstance.mojzj(8, 4, 2)
    violations = 0
    for seed in range(SURVIVAL_RUNS):
        cfg = std_cfg(mu=25, seed=seed, max_iterations=SURVIVAL_ITERS, stop_at_coverage=False)
        rec = sms_emoa_run(inst, cfg)
        violations += rec.coverage_violations
    record(
        4, "covered front values never lost (standard update, mu=25)",
        violations == 0, f"{SURVIVAL_RUNS} runs x {SURVIVAL_ITERS} iterations, "
        f"{violations} losses",
    )


def test_criterion_05_survival_stochastic_update():
    inst = ProblemInstance.mojzj(8, 4, 2)
    violations = 0
    for seed in range(SURVIVAL_RUNS):
        cfg = std_cfg(
            mu=51, seed=seed, update="stochastic",
            max_iterations=SURVIVAL_ITERS, stop_at_coverage=False,
        )
        rec = sms_emoa_run(inst, cfg)
        violations += rec.coverage_violations

    # per-identity survival frequency over repeated selection events on a
    # fixed combined population of size mu + 1 = 52
    rng = np.random.default_rng(13)
    mu = 51
    masks = [int(rng.integers(1 << 8)) for _ in range(mu + 1)]
    tuples = [inst.evaluate_mask(g) for g in masks]
    sel = SteadyStateSelector(tuples[:-1], ValueIndex(4))
    sel.set_offspring(tuples[-1])
    removed_counts = np.zeros(mu + 1, dtype=np.int64)
    half = (mu + 1) // 2
    with Draws(rng) as draws:
        for _ in range(SELECTION_EVENTS):
            eligible = draws.sample(mu + 1, half)
            removed_counts[sel.choose_removal(draws, eligible)] += 1
    freqs = 1.0 - removed_counts / SELECTION_EVENTS
    sigma = math.sqrt(0.25 / SELECTION_EVENTS)
    threshold = 0.5 - MC_SIGMA * sigma
    record(
        5, "stochastic update: no losses and survival probability >= 1/2",
        violations == 0 and bool(freqs.min() >= threshold),
        f"{violations} losses; min survival frequency {freqs.min():.4f} "
        f">= {threshold:.4f}",
    )


def _bound_experiment(inst, cfg, reps, master_seed):
    spec = ExperimentSpec(inst, cfg, repetitions=reps, master_seed=master_seed)
    # the wall-clock budgets measure the run loop, not collector sweeps over
    # objects accumulated by earlier tests in the same process
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        rows, bound = run_experiment(spec, jobs=1)
    finally:
        elapsed = time.perf_counter() - start
        gc.unfreeze()
    summary = summarize(rows)
    assert bound is not None
    return bound, summary, elapsed


def test_criterion_06_oneminmax_bound():
    row, summary, elapsed = _bound_experiment(
        ProblemInstance.oneminmax(20), std_cfg(mu=21), reps=100, master_seed=600
    )
    ok = row.passed and summary.censored == 0 and elapsed < OMM_SECONDS
    record(
        6, "bi-objective ones-count bound (n=20, mu=21, 100 reps)", ok,
        f"mean {summary.mean_iterations:.0f} + CI {summary.ci_half_width:.0f} "
        f"<= {row.bound:.0f}, {elapsed:.1f}s",
    )


def test_criterion_07_lotz_bound():
    row, summary, elapsed = _bound_experiment(
        ProblemInstance.lotz(20), std_cfg(mu=21), reps=100, master_seed=700
    )
    ok = row.passed and summary.censored == 0 and elapsed < LOTZ_SECONDS
    record(
        7, "leading-ones/trailing-zeros bound (n=20, mu=21, 100 reps)", ok,
        f"mean {summary.mean_iterations:.0f} + CI {summary.ci_half_width:.0f} "
        f"<= {row.bound:.0f}, {elapsed:.1f}s",
    )


def test_criterion_08_jump_bound_standard():
    row, summary, elapsed = _bound_experiment(
        ProblemInstance.mojzj(12, 4, 2), std_cfg(mu=49), reps=50, master_seed=800
    )
    expect = math.e * 49 * 16 * (1 + math.log(4)) + math.e * 49 * 25 * 144
    ok = row.passed and summary.censored == 0 and row.bound == pytest.approx(expect)
    record(
        8, "jump-benchmark bound, standard update (n=12, mu=49, 50 reps)", ok,
        f"mean {summary.mean_iterations:.0f} + CI {summary.ci_half_width:.0f} "
        f"<= {row.bound:.0f}, {elapsed:.0f}s",
    )


def test_criterion_09_jump_bound_stochastic():
    mu = 99
    row, summary, elapsed = _bound_experiment(
        ProblemInstance.mojzj(12, 4, 2),
        std_cfg(mu=mu, update="stochastic"),
        reps=50, master_seed=900,
    )
    factor = min(1.0, 4 * math.e * mu / 4)  # k=2, so the cap is inactive
    assert factor == 1.0
    expect = (
        math.e * mu * 16 * (1 + math.log(4))
        + math.e * 12 * mu * 9
        + math.e * mu * (25 - 9) * 144 * factor
    )
    ok = row.passed and summary.censored == 0 and row.bound == pytest.approx(expect)
    record(
        9, "jump-benchmark bound, stochastic update (n=12, mu=99, 50 reps)", ok,
        f"mean {summary.mean_iterations:.0f} + CI {summary.ci_half_width:.0f} "
        f"<= {row.bound:.0f}, {elapsed:.0f}s",
    )


def test_criterion_10_heavy_tailed_mechanism():
    n, beta, flips = 20, 1.5, 4
    analytic = heavy_tailed_flip_probability(n, beta, flips)
    baseline = standard_flip_probability(n, flips)
    assert baseline == pytest.approx((1 / 20) ** 4 * (19 / 20) ** 16)

    # empirical frequency of flipping one specific 4-bit set, from 10^7
    # bitwise mutations at rate alpha/n with fresh alpha each time
    d = power_law(n, beta)
    rng = np.random.default_rng(14)
    target = np.zeros(n, dtype=bool)
    target[[2, 7, 11, 19]] = True
    trials = 10**7
    chunk = 10**6
    cdf = np.cumsum(d.pmf_array())  # alpha drawn as oracle._mutate draws it
    hits = 0
    for _ in range(trials // chunk):
        rates = (np.searchsorted(cdf, rng.random(chunk), side="right") + 1) / n
        flips_matrix = rng.random((chunk, n)) < rates[:, None]
        hits += int((flips_matrix == target).all(axis=1).sum())
    emp = hits / trials
    se = math.sqrt(max(emp * (1 - emp), analytic) / trials)
    ok = analytic > baseline and abs(emp - analytic) <= MC_SIGMA * se
    record(
        10, "heavy-tailed mutation beats the standard rate on 4-bit jumps", ok,
        f"analytic {analytic:.3e} > standard {baseline:.3e}; "
        f"empirical {emp:.3e} within {MC_SIGMA} SE",
    )


def test_criterion_11_power_law_sampler():
    d = power_law(20, 1.5)
    with Draws(np.random.default_rng(15)) as draws:
        alphas = [d.sample(draws) for _ in range(10**6)]
    observed = np.bincount(alphas, minlength=d.support_max + 1)[1:] / len(alphas)
    linf = float(np.abs(observed - d.pmf_array()).max())
    record(
        11, "power-law step sampler matches exact pmf", linf <= PMF_LINF_TOL,
        f"L-inf distance {linf:.5f} <= {PMF_LINF_TOL}",
    )


def test_criterion_12_gsemo_antichain_and_bound():
    inst = ProblemInstance.mojzj(8, 4, 2)
    max_pop = 0
    antichain_violations = 0
    for seed in range(SURVIVAL_RUNS):
        cfg = std_cfg(
            algo="gsemo", seed=seed, max_iterations=SURVIVAL_ITERS,
            stop_at_coverage=False,
        )
        rec = gsemo_run(inst, cfg)
        max_pop = max(max_pop, rec.max_population_size)
        antichain_violations += rec.antichain_violations

    row, summary, _ = _bound_experiment(
        inst, std_cfg(algo="gsemo"), reps=50, master_seed=1200
    )
    ok = (
        antichain_violations == 0
        and max_pop <= 25
        and row.passed
        and summary.censored == 0
    )
    record(
        12, "archive algorithm: antichain, size <= 25, coverage bound", ok,
        f"max population {max_pop}, {antichain_violations} antichain violations; "
        f"mean {summary.mean_iterations:.0f} + CI {summary.ci_half_width:.0f} "
        f"<= {row.bound:.0f}",
    )


def test_criterion_13_incomparable_family_exceeds_front():
    inst8 = incomparable_family_instance(8)
    family8 = incomparable_family(8, 3)
    values8 = [inst8.evaluate_mask(x) for x in family8]
    expected8 = [(5, 1, 3, 7), (6, 2, 2, 6), (7, 3, 1, 5)]
    pairwise8 = all(
        incomparable(values8[i], values8[j])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    front8 = len(inst8.pareto_front())  # n'-2k+3 = 3 per pair -> 9

    inst40 = incomparable_family_instance(40)
    family40 = incomparable_family(40, 19)
    values40 = [inst40.evaluate_mask(x) for x in family40]
    pairwise40 = all(
        incomparable(values40[i], values40[j])
        for i in range(19)
        for j in range(i + 1, 19)
    )
    front40 = len(inst40.pareto_front())

    ok = (
        values8 == expected8
        and pairwise8
        and front8 == 9
        and len(values40) == 19
        and pairwise40
        and front40 == 9
        and len(values40) > front40
    )
    record(
        13, "incomparable family larger than the Pareto front", ok,
        f"n'=8: 3 members, front 9; n'=40: 19 members > front 9",
    )
