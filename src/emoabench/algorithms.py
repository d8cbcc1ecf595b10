"""Steady-state hypervolume EMO main loop and GSEMO, with hitting-time records.

Both run functions execute until the population's objective values cover the
entire Pareto front or the iteration cap is reached; a capped run is marked
censored rather than raising.  One tracker per run owns every per-vector
fact, read from the objective vector alone: the number of distinct front
vectors held gives coverage, its losses and the hitting time, and on mojzj
a histogram of inner levels gives the best inner level.  These facts change
only when a vector enters or leaves the population, so both runs update the
tracker only on vector births and deaths (most offspring repeat a vector
already present, and most removals leave theirs present).  SMS-EMOA's
selector reports them; GSEMO's archive is one dict from vector to genome, so
a birth is a child whose vector it lacks and a death a dropped member.

Both loops decide dominance from the same
:class:`~emoabench.selection.ValueIndex`, and what depends on a vector alone
is computed once per problem per process: ``_problem_memo`` keeps, for each
``ProblemInstance`` a run has met, that index and the tracker's per-vector
facts, and every later run of either algorithm on that problem reuses them.
The memo lives as long as the process (a pool worker's, for the harness);
per problem it holds at most one entry per vector of the problem, a number
the selection module bounds, whatever the runs' count or length.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import bounds
from .benchmarks import ProblemInstance
from .selection import SteadyStateSelector, ValueIndex, default_reference_point
from .variation import MutationOperator, uniform_below


@dataclass(frozen=True, slots=True)
class AlgorithmConfig:
    """Run parameters; mu=None and max_iterations=None mean "auto".

    Auto mu is the incomparable-set bound (n'+1)^(m/2) for the standard
    update and twice that plus one for the stochastic update (n+1 resp.
    2n+3 for the bi-objective benchmarks).  The standard update loses no
    covered front vector there; the stochastic update still does (see
    :class:`RunRecord`), and whether its sample or the survival claim should
    change is open.  The auto iteration cap is 100x the closed-form bound,
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

    ``iterations`` counts the steady-state iterations executed and
    ``evaluations`` adds the start population's evaluations to them.  The
    trajectories list (iteration, value) at each change of value: the
    number of covered front vectors and, on mojzj for both algorithms, the
    largest inner level in the population (empty on other kinds).

    ``coverage_violations`` counts each time a covered front vector leaves
    the population.  A front vector first reached by an offspring that is
    removed in its own iteration counts too, although no iteration ended
    with it covered: omm n=8 at mu=3 (2000 iterations, seed 0) reads 981,
    of which 140 are values held at an iteration's end.  Under the standard
    update at auto mu no covered vector is lost.  Under the stochastic
    update auto mu does not prevent losses: omm n=8 at mu=19 (seeds 0-9,
    5000 iterations each, no stop at coverage) reads 274 in total, 2 of
    them own-iteration removals.

    ``antichain_violations`` (GSEMO only) sums, over every vector set the
    archive takes, the pairs of its vectors in which one weakly dominates
    the other; a correct archive reads 0.
    """

    seed: int
    iterations_to_coverage: int | None
    iterations: int
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


def run_limits(inst: ProblemInstance, cfg: AlgorithmConfig) -> tuple[int, int]:
    """(mu, iteration cap) of a run: the config's values, else auto mu and
    100x the closed-form bound of the run's theorem at that mu ("gsemo",
    else "spu" for the stochastic update and "sms").  omm and lotz use their
    own bound whatever the theorem (GSEMO's at its auto mu n+1), and momm
    uses that of its gap-1 relative mojzj(n, m, 1)."""
    mu = cfg.mu if cfg.mu is not None else auto_mu(inst, cfg.update)
    if cfg.max_iterations is not None:
        return mu, cfg.max_iterations
    if inst.kind in ("omm", "lotz"):
        value = bounds.bound_value(inst.kind, inst, mu)
    else:
        theorem = "gsemo" if cfg.algo == "gsemo" else "spu" if cfg.update == "stochastic" else "sms"
        ref = inst if inst.kind == "mojzj" else ProblemInstance.mojzj(inst.n, inst.m, 1)
        value = bounds.bound_value(theorem, ref, mu)
    return mu, max(1, int(100 * value))


def _random_masks(n: int, count: int, rng: np.random.Generator) -> list[int]:
    """``count`` uniform n-bit masks, each assembled from 32-bit chunks, low
    chunk first.  One ``rng.integers`` call over the per-chunk highs draws
    the same numbers, and leaves the stream in the same state, as one scalar
    call per chunk."""
    shifts = range(0, n, 32)
    highs = [1 << min(32, n - shift) for shift in shifts]
    draws = rng.integers(np.array(highs * count, dtype=np.int64)).tolist()
    chunks = len(highs)
    # column j of the draws holds every mask's chunk j
    masks = draws[::chunks]
    for j in range(1, chunks):
        masks = [mask | d << 32 * j for mask, d in zip(masks, draws[j::chunks])]
    return masks


@lru_cache(maxsize=None)
def _problem_memo(
    inst: ProblemInstance,
) -> tuple[ValueIndex, dict[tuple[int, ...], tuple[bool, int]]]:
    """The value index and the per-vector facts of ``inst``, shared by every
    run on it in this process.  Both depend on the vector alone, so a run
    that finds them filled by other runs decides exactly as with empty ones.
    """
    return ValueIndex(inst.m), {}


class _CoverageTracker:
    """Every per-vector fact of a run: front coverage, its losses, the first
    iteration of full coverage (``hit``) and, on mojzj, the best inner level.

    Both runs add a vector when it enters the population and remove it when
    its last holder leaves, so ``covered`` and the ``levels`` histogram count
    distinct vectors.  ``record`` appends to a trajectory only when its value
    changed; the runs call it only after an add or a remove.

    ``facts`` maps each vector seen to (on the front, inner level); it is
    the problem's shared dict from ``_problem_memo``.  A mojzj
    block is at an inner ones-count c in [k..n'-k] exactly when both values
    of its pair (k+c, k+n'-c) are >= 2k: an all-zero or all-one block has a
    value of k, a block in the gap one below k.  Other kinds put every
    vector at level 0 and keep no inner trajectory.
    """

    __slots__ = (
        "inst", "front", "facts", "levels", "covered", "hit",
        "trajectory", "inner_trajectory", "violations",
    )

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.front = inst.pareto_front().points
        self.facts = _problem_memo(inst)[1]
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
            facts = self.facts[obj] = (obj in self.front, level)
        on_front, level = facts
        self.levels[level] += 1
        self.covered += on_front

    def remove(self, obj: tuple[int, ...]) -> None:
        on_front, level = self.facts[obj]
        self.levels[level] -= 1
        if on_front:
            self.covered -= 1
            self.violations += 1

    def record(self, iteration: int) -> None:
        if not self.trajectory or self.trajectory[-1][1] != self.covered:
            self.trajectory.append((iteration, self.covered))
            if self.hit is None and self.covered == len(self.front):
                self.hit = iteration
        if self.inst.kind == "mojzj":
            levels = self.levels
            top = len(levels) - 1
            while top and not levels[top]:
                top -= 1
            if not self.inner_trajectory or self.inner_trajectory[-1][1] != top:
                self.inner_trajectory.append((iteration, top))

    def result(
        self, seed: int, iterations: int, start: int, max_pop: int, antichain: int = 0
    ) -> RunRecord:
        """The run's record, after ``start`` start evaluations and ``iterations``."""
        return RunRecord(
            seed=seed,
            iterations_to_coverage=self.hit,
            iterations=iterations,
            evaluations=start + iterations,
            censored=self.hit is None,
            coverage_trajectory=self.trajectory,
            inner_coverage_trajectory=self.inner_trajectory,
            coverage_violations=self.violations,
            max_population_size=max_pop,
            antichain_violations=antichain,
        )


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
    mu, max_iters = run_limits(inst, cfg)
    needed = auto_mu(inst, cfg.update)
    if mu < needed:
        warnings.warn(
            f"mu={mu} is below the survival-guarantee regime (>= {needed} for "
            f"{cfg.update} update); covered front values may be lost",
            stacklevel=2,
        )
    stochastic = cfg.update == "stochastic"
    n = inst.n
    r = cfg.refpoint if cfg.refpoint is not None else default_reference_point(inst.m)

    genomes = _random_masks(n, mu, rng) + [0]
    members = [inst.evaluate_mask(g) for g in genomes[:mu]]
    # the tracker counts distinct vectors: it changes only when the selector
    # reports a vector's first holder arriving or its last one leaving
    cov = _CoverageTracker(inst)
    for t in dict.fromkeys(members):
        cov.add(t)
    cov.record(0)

    selector = SteadyStateSelector(members, r, _problem_memo(inst)[0])
    evaluate = inst.evaluate_mask
    mutate = cfg.mutation.mutate_mask
    stop = cfg.stop_at_coverage
    if stop and cov.hit is not None:
        max_iters = 0  # the start population covers the front
    iterations = 0
    for t_iter in range(1, max_iters + 1):
        iterations = t_iter
        free = selector.free
        # survivors occupy every slot except the free one
        parent = uniform_below(rng, mu)
        if parent >= free:
            parent += 1
        child = mutate(genomes[parent], n, rng)
        cobj = evaluate(child)
        genomes[free] = child
        born = selector.set_offspring(cobj)

        eligible = None
        if stochastic:
            eligible = 0
            for d in rng.integers(mu + 1, size=(mu + 1) // 2).tolist():
                eligible |= 1 << d
        gone = selector.commit_removal(selector.choose_removal(rng, eligible))
        if born or gone is not None:
            # added before the removal, as the offspring joined first
            if born:
                cov.add(cobj)
            if gone is not None:
                cov.remove(gone)
            cov.record(t_iter)
            if stop and cov.hit is not None:
                break

    return cov.result(cfg.seed, iterations, mu, mu)


def gsemo_run(
    inst: ProblemInstance,
    cfg: AlgorithmConfig,
    rng: np.random.Generator | None = None,
) -> RunRecord:
    """Archive-style baseline: single random start, offspring kept iff not
    dominated, weakly dominated members dropped; population stays an antichain.

    Dominance comes from the problem's shared value index; ``live`` masks
    the archive's ids.  The archive holds each vector once, so the members a
    kept child weakly dominates, other than its own vector, are those it
    strictly dominates.  Each change of the archive's vector set re-checks
    pairwise incomparability independently of the index, and
    ``antichain_violations`` sums the comparable pairs found.
    """
    if cfg.algo != "gsemo":
        raise ValueError(f"config requests {cfg.algo!r}, not gsemo")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    _, max_iters = run_limits(inst, cfg)
    n = inst.n
    cov = _CoverageTracker(inst)
    index = _problem_memo(inst)[0]
    ids, strict = index.ids, index.strict

    # the parent draw indexes insertion order: survivors, then the child
    start = _random_masks(n, 1, rng)[0]
    sobj = inst.evaluate_mask(start)
    archive = {sobj: start}
    live = 1 << (ids[sobj] if sobj in ids else index.enter(sobj))
    cov.add(sobj)
    cov.record(0)
    max_pop = 1
    antichain_violations = 0
    stop = cfg.stop_at_coverage
    if stop and cov.hit is not None:
        max_iters = 0  # the start covers the front

    iterations = 0
    for t_iter in range(1, max_iters + 1):
        iterations = t_iter
        parent = list(archive.values())[uniform_below(rng, len(archive))]
        child = cfg.mutation.mutate_mask(parent, n, rng)
        cobj = inst.evaluate_mask(child)
        i = ids.get(cobj)
        if i is None:
            i = index.enter(cobj)
        if strict[i] & live:
            continue
        born = cobj not in archive
        dead = [p for p in archive if strict[ids[p]] >> i & 1]
        for p in dead:
            del archive[p]
        # an equal member's genome is replaced and moves last
        archive.pop(cobj, None)
        archive[cobj] = child
        if born or dead:
            live = sum(1 << ids[p] for p in archive)
            if born:
                cov.add(cobj)
            for p in dead:
                cov.remove(p)
            max_pop = max(max_pop, len(archive))
            antichain_violations += _comparable_pairs(list(archive))
            cov.record(t_iter)
            if stop and cov.hit is not None:
                break

    return cov.result(cfg.seed, iterations, 1, max_pop, antichain_violations)


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
