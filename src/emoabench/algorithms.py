"""Steady-state hypervolume EMO main loop and GSEMO, with hitting-time records.

Both run functions execute until the population's objective values cover the
entire Pareto front or the iteration cap is reached; a capped run is marked
censored rather than raising.  One tracker per run owns every per-vector
fact: a counter per attained front value gives coverage, its losses and the
hitting time, and on mojzj a histogram of inner levels gives the best inner
level, so the per-iteration bookkeeping is O(1) on top of selection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .benchmarks import ProblemInstance, inner_level
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


def default_max_iterations(inst: ProblemInstance, cfg: AlgorithmConfig, mu: int) -> int:
    """100x the applicable closed-form bound for the configured run."""
    if inst.kind in ("mojzj", "momm"):
        ref = inst if inst.kind == "mojzj" else ProblemInstance.mojzj(inst.n, inst.m, 1)
        if cfg.algo == "gsemo":
            theorem = "gsemo"
        else:
            theorem = "spu" if cfg.update == "stochastic" else "sms"
        value = bounds.bound_value(theorem, ref, mu)
    else:
        # for gsemo the per-iteration structure matches the mu = n+1 case
        value = bounds.bound_value(inst.kind, inst, mu if cfg.algo == "sms_emoa" else inst.n + 1)
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
    A block's objective pair fixes its ones-count, so the vector fixes both
    and ``add`` reads the mask only on first sight; other kinds than mojzj
    put every vector at level 0 and keep no inner trajectory.
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

    def add(self, obj: tuple[int, ...], mask: int) -> None:
        facts = self.facts.get(obj)
        if facts is None:
            level = inner_level(mask, self.inst) if self.inst.kind == "mojzj" else 0
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
    max_iters = (
        cfg.max_iterations
        if cfg.max_iterations is not None
        else default_max_iterations(inst, cfg, mu)
    )
    n, m = inst.n, inst.m
    if cfg.refpoint is not None:
        if len(cfg.refpoint) != m:
            raise ValueError(
                f"reference point has {len(cfg.refpoint)} coordinates, problem has {m}"
            )
        # every benchmark objective is >= 0: a coordinate >= 0 leaves some
        # attainable vector not strictly dominating r, which makes the
        # contributions meaningless
        if any(c >= 0 for c in cfg.refpoint):
            raise ValueError(
                f"reference point {cfg.refpoint} must be negative in every "
                "coordinate: objective values start at 0"
            )
    r = cfg.refpoint if cfg.refpoint is not None else default_reference_point(m)

    genomes = _random_masks(n, mu, rng) + [0]
    tuples: list[tuple[int, ...]] = [()] * (mu + 1)
    cov = _CoverageTracker(inst)
    for i in range(mu):
        t = tuples[i] = inst.evaluate_mask(genomes[i])
        cov.add(t, genomes[i])
    tuples[mu] = tuples[0]
    cov.record(0)

    selector = SteadyStateSelector(tuples, r)
    stochastic = cfg.update == "stochastic"
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
        cov.add(cobj, child)

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
        else default_max_iterations(inst, cfg, 1)
    )
    n = inst.n
    cov = _CoverageTracker(inst)

    start = _random_masks(n, 1, rng)[0]
    masks = [start]
    tuples = [inst.evaluate_mask(start)]
    cov.add(tuples[0], start)
    cov.record(0)
    max_pop = 1
    antichain_violations = 0

    iterations = 0
    for t_iter in range(1, max_iters + 1):
        if cov.hit is not None and cfg.stop_at_coverage:
            break
        iterations = t_iter
        parent = masks[int(rng.integers(len(masks)))]
        child = cfg.mutation.mutate_mask(parent, n, rng)
        cobj = inst.evaluate_mask(child)
        if not any(dominates(p, cobj) for p in tuples):
            cov.add(cobj, child)
            keep_masks = []
            keep_tuples = []
            for gm, p in zip(masks, tuples):
                if weakly_dominates(cobj, p):
                    cov.remove(p)
                else:
                    keep_masks.append(gm)
                    keep_tuples.append(p)
            keep_masks.append(child)
            keep_tuples.append(cobj)
            masks, tuples = keep_masks, keep_tuples
            max_pop = max(max_pop, len(masks))
        if verify_antichain_every and t_iter % verify_antichain_every == 0:
            antichain_violations += _comparable_pairs(tuples)
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
