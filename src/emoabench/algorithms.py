"""Steady-state hypervolume EMO main loop and GSEMO, with hitting-time records.

Both run functions execute until the population's objective values cover the
entire Pareto front or the iteration cap is reached; a capped run is marked
censored rather than raising.  One tracker per run owns every per-vector
fact, read from the objective vector alone: a counter per attained front
value gives coverage, its losses and the hitting time, and on mojzj a
histogram of inner levels gives the best inner level, so the per-iteration
bookkeeping is O(1) on top of selection.  GSEMO's archive is one dict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .benchmarks import ProblemInstance
from .core import dominates, weakly_dominates
from .selection import SteadyStateSelector, default_reference_point
from .variation import MutationOperator


@dataclass(frozen=True, slots=True)
class AlgorithmConfig:
    """Run parameters; mu=None and max_iterations=None mean "auto".

    Auto mu is the incomparable-set bound (n'+1)^(m/2) for the standard
    update and twice that plus one for the stochastic update (n+1 resp.
    2n+3 for the bi-objective benchmarks), the regimes where the survival
    guarantees hold.  The auto iteration cap is 100x the closed-form bound,
    so censoring is a loud signal rather than a hang.
    """

    algo: str = "sms_emoa"
    mu: int | None = None
    mutation: MutationOperator = field(default_factory=MutationOperator)
    update: str = "standard"
    max_iterations: int | None = None
    seed: int = 0
    stop_at_coverage: bool = True
    refpoint: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.algo not in ("sms_emoa", "gsemo"):
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.update not in ("standard", "stochastic"):
            raise ValueError(f"unknown update rule {self.update!r}")
        if self.mu is not None and self.mu < 1:
            raise ValueError(f"population size must be >= 1, got {self.mu}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(f"iteration cap must be positive, got {self.max_iterations}")
        if self.algo == "gsemo" and (
            self.mu is not None or self.refpoint is not None or self.update != "standard"
        ):
            raise ValueError(
                "gsemo keeps an unbounded archive and computes no hypervolume: "
                "it takes no mu, refpoint or stochastic update"
            )


@dataclass(slots=True)
class RunRecord:
    """Outcome of a single run.

    The trajectories list (iteration, value) at each change of value: the
    number of covered front vectors and, on mojzj for both algorithms, the
    largest inner level in the population (empty on other kinds).
    """

    seed: int
    iterations_to_coverage: int | None
    evaluations: int
    censored: bool
    coverage_trajectory: list[tuple[int, int]]
    inner_coverage_trajectory: list[tuple[int, int]]
    coverage_violations: int = 0
    max_population_size: int = 0
    antichain_violations: int = 0


def auto_mu(inst: ProblemInstance, update: str = "standard") -> int:
    base = bounds.incomparable_upper_bound(inst)
    return base if update == "standard" else 2 * base + 1


def default_max_iterations(inst: ProblemInstance, theorem: str, mu: int) -> int:
    """100x the closed-form bound of ``theorem`` ("sms", "spu" or "gsemo")
    at population size mu.  omm and lotz use their own bound whatever the
    theorem, and momm uses that of its gap-1 relative mojzj(n, m, 1)."""
    if inst.kind in ("omm", "lotz"):
        value = bounds.bound_value(inst.kind, inst, mu)
    else:
        ref = inst if inst.kind == "mojzj" else ProblemInstance.mojzj(inst.n, inst.m, 1)
        value = bounds.bound_value(theorem, ref, mu)
    return max(1, int(100 * value))


def _random_masks(n: int, count: int, rng: np.random.Generator) -> list[int]:
    """``count`` uniform n-bit masks, each assembled from 32-bit chunks, low
    chunk first.  One ``rng.integers`` call over the per-chunk highs draws
    the same numbers, and leaves the stream in the same state, as one scalar
    call per chunk."""
    shifts = range(0, n, 32)
    highs = [1 << min(32, n - shift) for shift in shifts]
    draws = rng.integers(np.array(highs * count, dtype=np.int64)).tolist()
    chunks = len(highs)
    return [
        sum(d << s for d, s in zip(draws[i : i + chunks], shifts))
        for i in range(0, len(draws), chunks)
    ]


class _CoverageTracker:
    """Every per-vector fact of a run: front coverage, its losses, the first
    iteration of full coverage (``hit``) and, on mojzj, the best inner level.

    ``facts`` maps each vector seen to (front number or None, inner level).
    A mojzj block is at an inner ones-count c in [k..n'-k] exactly when both
    values of its pair (k+c, k+n'-c) are >= 2k: an all-zero or all-one block
    has a value of k, a block in the gap one below k.  Other kinds put every
    vector at level 0 and keep no inner trajectory.
    """

    __slots__ = (
        "inst", "front", "facts", "counts", "levels", "covered", "hit",
        "trajectory", "inner_trajectory", "violations",
    )

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.front = {p: i for i, p in enumerate(inst.pareto_front().points)}
        self.facts: dict[tuple[int, ...], tuple[int | None, int]] = {}
        self.counts = [0] * len(self.front)
        self.levels = [0] * (inst.m // 2 + 1)
        self.covered = 0
        self.hit: int | None = None
        self.trajectory: list[tuple[int, int]] = []
        self.inner_trajectory: list[tuple[int, int]] = []
        self.violations = 0

    def add(self, obj: tuple[int, ...]) -> None:
        facts = self.facts.get(obj)
        if facts is None:
            k = self.inst.k  # None on every kind but mojzj
            level = sum(min(a, b) >= 2 * k for a, b in zip(obj[::2], obj[1::2])) if k else 0
            facts = self.facts[obj] = (self.front.get(obj), level)
        i, level = facts
        self.levels[level] += 1
        if i is not None:
            self.counts[i] += 1
            if self.counts[i] == 1:
                self.covered += 1

    def remove(self, obj: tuple[int, ...]) -> None:
        i, level = self.facts[obj]
        self.levels[level] -= 1
        if i is not None:
            self.counts[i] -= 1
            if self.counts[i] == 0:
                self.covered -= 1
                self.violations += 1

    def record(self, iteration: int) -> None:
        if not self.trajectory or self.trajectory[-1][1] != self.covered:
            self.trajectory.append((iteration, self.covered))
            if self.hit is None and self.covered == len(self.counts):
                self.hit = iteration
        if self.inst.kind == "mojzj":
            levels = self.levels
            top = len(levels) - 1
            while top and not levels[top]:
                top -= 1
            if not self.inner_trajectory or self.inner_trajectory[-1][1] != top:
                self.inner_trajectory.append((iteration, top))


def sms_emoa_run(
    inst: ProblemInstance,
    cfg: AlgorithmConfig,
    rng: np.random.Generator | None = None,
) -> RunRecord:
    """Run the steady-state hypervolume algorithm until full front coverage."""
    if cfg.algo != "sms_emoa":
        raise ValueError(f"config requests {cfg.algo!r}, not sms_emoa")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    needed = auto_mu(inst, cfg.update)
    mu = cfg.mu if cfg.mu is not None else needed
    if mu < needed:
        warnings.warn(
            f"mu={mu} is below the survival-guarantee regime (>= {needed} for "
            f"{cfg.update} update); covered front values may be lost",
            stacklevel=2,
        )
    stochastic = cfg.update == "stochastic"
    max_iters = (
        cfg.max_iterations
        if cfg.max_iterations is not None
        else default_max_iterations(inst, "spu" if stochastic else "sms", mu)
    )
    n = inst.n
    r = cfg.refpoint if cfg.refpoint is not None else default_reference_point(inst.m)

    genomes = _random_masks(n, mu, rng) + [0]
    tuples = [inst.evaluate_mask(g) for g in genomes[:mu]]
    cov = _CoverageTracker(inst)
    for t in tuples:
        cov.add(t)
    cov.record(0)
    tuples.append(tuples[0])  # the free slot's placeholder

    selector = SteadyStateSelector(tuples, r)
    evaluate = inst.evaluate_mask
    mutate = cfg.mutation.mutate_mask
    integers = rng.integers
    iterations = 0
    for t_iter in range(1, max_iters + 1):
        if cov.hit is not None and cfg.stop_at_coverage:
            break
        iterations = t_iter
        free = selector.free
        # survivors occupy every slot except the free one
        parent = int(integers(mu))
        if parent >= free:
            parent += 1
        child = mutate(genomes[parent], n, rng)
        cobj = evaluate(child)
        genomes[free] = child
        selector.set_offspring(cobj)
        cov.add(cobj)

        if stochastic:
            eligible = 0
            for d in integers(mu + 1, size=(mu + 1) // 2).tolist():
                eligible |= 1 << d
            removed = selector.choose_removal(rng, eligible)
        else:
            removed = selector.choose_removal(rng)

        cov.remove(tuples[removed])
        selector.commit_removal(removed)
        cov.record(t_iter)

    return RunRecord(
        seed=cfg.seed,
        iterations_to_coverage=cov.hit,
        evaluations=mu + iterations,
        censored=cov.hit is None,
        coverage_trajectory=cov.trajectory,
        inner_coverage_trajectory=cov.inner_trajectory,
        coverage_violations=cov.violations,
        max_population_size=mu,
    )


def gsemo_run(
    inst: ProblemInstance,
    cfg: AlgorithmConfig,
    rng: np.random.Generator | None = None,
    verify_antichain_every: int = 0,
) -> RunRecord:
    """Archive-style baseline: single random start, offspring kept iff not
    dominated, weakly dominated members dropped; population stays an antichain.

    ``verify_antichain_every`` > 0 additionally checks pairwise incomparability
    every that many iterations (a redundant structural self-check; violations
    are counted in the record).
    """
    if cfg.algo != "gsemo":
        raise ValueError(f"config requests {cfg.algo!r}, not gsemo")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    max_iters = (
        cfg.max_iterations
        if cfg.max_iterations is not None
        # for gsemo the per-iteration structure matches the mu = n+1 case
        else default_max_iterations(inst, "gsemo", inst.n + 1)
    )
    n = inst.n
    cov = _CoverageTracker(inst)

    # the parent draw indexes insertion order: survivors, then the child
    start = _random_masks(n, 1, rng)[0]
    archive = {inst.evaluate_mask(start): start}
    cov.add(*archive)
    cov.record(0)
    max_pop = 1
    antichain_violations = 0

    iterations = 0
    for t_iter in range(1, max_iters + 1):
        if cov.hit is not None and cfg.stop_at_coverage:
            break
        iterations = t_iter
        parent = list(archive.values())[int(rng.integers(len(archive)))]
        child = cfg.mutation.mutate_mask(parent, n, rng)
        cobj = inst.evaluate_mask(child)
        if not any(dominates(p, cobj) for p in archive):
            # added before the removals, so a replaced equal vector is no loss
            cov.add(cobj)
            for p in [p for p in archive if weakly_dominates(cobj, p)]:
                del archive[p]
                cov.remove(p)
            archive[cobj] = child
            max_pop = max(max_pop, len(archive))
        if verify_antichain_every and t_iter % verify_antichain_every == 0:
            antichain_violations += _comparable_pairs(list(archive))
        cov.record(t_iter)

    return RunRecord(
        seed=cfg.seed,
        iterations_to_coverage=cov.hit,
        evaluations=1 + iterations,
        censored=cov.hit is None,
        coverage_trajectory=cov.trajectory,
        inner_coverage_trajectory=cov.inner_trajectory,
        coverage_violations=cov.violations,
        max_population_size=max_pop,
        antichain_violations=antichain_violations,
    )


def _comparable_pairs(tuples: list[tuple[int, ...]]) -> int:
    """Number of pairs i < j in which either vector weakly dominates the
    other: zero exactly when the vectors form an antichain without
    duplicates."""
    if len({len(t) for t in tuples}) > 1:
        raise ValueError("objective vectors differ in length")
    a = np.array(tuples)
    ge = (a[:, None, :] >= a[None, :, :]).all(axis=2)
    # the relation is symmetric with a true diagonal: each pair counts twice
    return (int((ge | ge.T).sum()) - len(tuples)) // 2
