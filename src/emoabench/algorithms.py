"""Steady-state hypervolume EMO main loop and GSEMO, with hitting-time records.

Both run functions execute until the population's objective values cover the
entire Pareto front or the iteration cap is reached; a capped run is marked
censored rather than raising.  Coverage is tracked incrementally (a counter
per attained front value), so the per-iteration bookkeeping is O(1) on top of
selection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .benchmarks import FrontDescriptor, ProblemInstance, inner_level
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


@dataclass(slots=True)
class RunRecord:
    """Outcome of a single run."""

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
    """Incremental |f(P) intersect F*| with loss detection.

    ``index`` numbers the front's vectors once, so each add or remove
    hashes its vector once: a vector with no number is not on the front.
    """

    __slots__ = ("index", "counts", "covered", "trajectory", "violations")

    def __init__(self, front: FrontDescriptor):
        self.index = {p: i for i, p in enumerate(front.points)}
        self.counts = [0] * len(self.index)
        self.covered = 0
        self.trajectory: list[tuple[int, int]] = []
        self.violations = 0

    def add(self, obj: tuple[int, ...]) -> None:
        i = self.index.get(obj)
        if i is not None:
            self.counts[i] += 1
            if self.counts[i] == 1:
                self.covered += 1

    def remove(self, obj: tuple[int, ...]) -> None:
        i = self.index.get(obj)
        if i is not None:
            self.counts[i] -= 1
            if self.counts[i] == 0:
                self.covered -= 1
                self.violations += 1

    def record(self, iteration: int) -> None:
        if not self.trajectory or self.trajectory[-1][1] != self.covered:
            self.trajectory.append((iteration, self.covered))


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
    mu = cfg.mu if cfg.mu is not None else auto_mu(inst, cfg.update)
    needed = auto_mu(inst, cfg.update)
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
    front = inst.pareto_front()
    track_inner = inst.kind == "mojzj"

    genomes = _random_masks(n, mu, rng) + [0]
    tuples: list[tuple[int, ...]] = [()] * (mu + 1)
    cov = _CoverageTracker(front)
    level_hist = [0] * (m // 2 + 1)
    inner_traj: list[tuple[int, int]] = []
    # a block's objective pair fixes its ones-count, so the vector fixes the
    # inner level: compute it once per distinct vector, and read a removed
    # member's level back by its vector
    level_of: dict[tuple[int, ...], int] = {}

    def level(mask: int, obj: tuple[int, ...]) -> int:
        lvl = level_of.get(obj)
        if lvl is None:
            lvl = level_of[obj] = inner_level(mask, inst)
        return lvl

    for i in range(mu):
        t = inst.evaluate_mask(genomes[i])
        tuples[i] = t
        cov.add(t)
        if track_inner:
            level_hist[level(genomes[i], t)] += 1
    tuples[mu] = tuples[0]
    cov.record(0)
    if track_inner:
        inner_traj.append((0, _max_level(level_hist)))

    selector = SteadyStateSelector(tuples, r)
    stochastic = cfg.update == "stochastic"
    iterations = 0
    hit: int | None = 0 if cov.covered == front.size else None
    if hit is None or not cfg.stop_at_coverage:
        evaluate = inst.evaluate_mask
        mutate = cfg.mutation.mutate_mask
        integers = rng.integers
        for t_iter in range(1, max_iters + 1):
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
            if track_inner:
                level_hist[level(child, cobj)] += 1

            if stochastic:
                eligible = 0
                for d in integers(mu + 1, size=(mu + 1) // 2).tolist():
                    eligible |= 1 << d
                removed = selector.choose_removal(rng, eligible)
            else:
                removed = selector.choose_removal(rng)

            cov.remove(tuples[removed])
            if track_inner:
                level_hist[level_of[tuples[removed]]] -= 1
                top = _max_level(level_hist)
                if inner_traj[-1][1] != top:
                    inner_traj.append((t_iter, top))
            selector.commit_removal(removed)
            cov.record(t_iter)
            if hit is None and cov.covered == front.size:
                hit = t_iter
                if cfg.stop_at_coverage:
                    break

    return RunRecord(
        seed=cfg.seed,
        iterations_to_coverage=hit,
        evaluations=mu + iterations,
        censored=hit is None,
        coverage_trajectory=cov.trajectory,
        inner_coverage_trajectory=inner_traj,
        coverage_violations=cov.violations,
        max_population_size=mu,
    )


def _max_level(hist: list[int]) -> int:
    for lvl in range(len(hist) - 1, -1, -1):
        if hist[lvl]:
            return lvl
    return 0


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
    mu_for_cap = 1
    max_iters = (
        cfg.max_iterations
        if cfg.max_iterations is not None
        else default_max_iterations(inst, cfg, mu_for_cap)
    )
    n = inst.n
    front = inst.pareto_front()
    cov = _CoverageTracker(front)

    start = _random_masks(n, 1, rng)[0]
    masks = [start]
    tuples = [inst.evaluate_mask(start)]
    cov.add(tuples[0])
    cov.record(0)
    max_pop = 1
    antichain_violations = 0

    iterations = 0
    hit: int | None = 0 if cov.covered == front.size else None
    if hit is None or not cfg.stop_at_coverage:
        for t_iter in range(1, max_iters + 1):
            iterations = t_iter
            parent = masks[int(rng.integers(len(masks)))]
            child = cfg.mutation.mutate_mask(parent, n, rng)
            cobj = inst.evaluate_mask(child)
            if not any(dominates(p, cobj) for p in tuples):
                cov.add(cobj)
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
            if hit is None and cov.covered == front.size:
                hit = t_iter
                if cfg.stop_at_coverage:
                    break

    return RunRecord(
        seed=cfg.seed,
        iterations_to_coverage=hit,
        evaluations=1 + iterations,
        censored=hit is None,
        coverage_trajectory=cov.trajectory,
        inner_coverage_trajectory=[],
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
