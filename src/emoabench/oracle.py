"""Independent brute-force references.

Everything here deliberately avoids the main code paths it checks: the
front comes from exhaustive enumeration instead of the closed form, the
hypervolume from inclusion-exclusion or Monte-Carlo sampling instead of the
dimension sweep, the survivor choice from array-based front peeling and
leave-one-out hypervolume instead of the incremental selector, and whole
SMS-EMOA and GSEMO runs from plain population lists and per-iteration
recounts instead of the runs' incremental bookkeeping.  The oracles ship in
the library (not only in the tests) so the CLI ``verify`` subcommand can run
self-verification on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .algorithms import AlgorithmConfig, RunRecord, run_limits
from .benchmarks import (
    FrontDescriptor,
    ProblemInstance,
    incomparable_family,
    incomparable_family_instance,
    inner_level,
    is_pareto_optimal,
)
from .core import ObjectiveVector, dominates, incomparable, weakly_dominates
from .selection import ReferencePoint, default_reference_point, hypervolume


@dataclass(frozen=True, slots=True)
class OracleBudget:
    """Caps on brute-force work."""

    max_n_exhaustive: int = 14
    mc_samples: int = 10**6

    def __post_init__(self) -> None:
        if self.max_n_exhaustive > 24:
            raise ValueError("exhaustive enumeration beyond n=24 is not desk-scale")
        # below n=2 every brute-force check would skip all its instances
        if self.max_n_exhaustive < 2:
            raise ValueError(
                f"exhaustive enumeration cap must be >= 2, got {self.max_n_exhaustive}"
            )
        # checked here as well as in hv_monte_carlo, so a bad sample count
        # fails before any exhaustive check runs
        if self.mc_samples < 10**3:
            raise ValueError(f"at least 1000 samples required, got {self.mc_samples}")


def brute_force_front(inst: ProblemInstance, budget: OracleBudget = OracleBudget()) -> FrontDescriptor:
    """Enumerate all 2^n genomes and keep the non-dominated objective values."""
    if inst.n > budget.max_n_exhaustive:
        raise ValueError(f"n={inst.n} exceeds the exhaustive budget {budget.max_n_exhaustive}")
    values = sorted({inst.evaluate_mask(mask) for mask in range(1 << inst.n)})
    front = [
        v
        for v in values
        if not any(w != v and weakly_dominates(w, v) for w in values)
    ]
    return FrontDescriptor(frozenset(front))


def brute_force_pareto_optimal(mask: int, inst: ProblemInstance, budget: OracleBudget = OracleBudget()) -> bool:
    """Direct non-dominance check of one genome against the whole space."""
    if inst.n > budget.max_n_exhaustive:
        raise ValueError(f"n={inst.n} exceeds the exhaustive budget {budget.max_n_exhaustive}")
    v = inst.evaluate_mask(mask)
    return not any(
        w != v and weakly_dominates(w, v)
        for w in (inst.evaluate_mask(other) for other in range(1 << inst.n))
    )


def hv_inclusion_exclusion(points: Iterable[ObjectiveVector], r: ReferencePoint) -> int:
    """Union-of-boxes volume by inclusion-exclusion over subsets (|S| <= 15)."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) > 15:
        raise ValueError(f"inclusion-exclusion capped at 15 points, got {len(pts)}")
    for p in pts:
        if len(p) != len(r) or not all(a > b for a, b in zip(p, r)):
            raise ValueError(f"point {p} does not strictly dominate reference {r}")
    total = 0
    for size in range(1, len(pts) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in itertools.combinations(pts, size):
            vol = 1
            for coord, rc in zip(zip(*subset), r):
                vol *= min(coord) - rc
            total += sign * vol
    return total


def hv_monte_carlo(
    points: Sequence[ObjectiveVector],
    r: ReferencePoint,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Unbiased estimate of the union volume with its standard error.

    Uniform sampling in the bounding box between r and the coordinatewise
    maximum of the point set.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        return 0.0, 0.0
    if samples < 10**3:
        raise ValueError(f"at least 1000 samples required, got {samples}")
    lo = np.array(r, dtype=float)
    hi = np.array([max(c) for c in zip(*pts)], dtype=float)
    box = float(np.prod(hi - lo))
    draws = rng.uniform(lo, hi, size=(samples, len(r)))
    arr = np.array(pts, dtype=float)
    inside = np.zeros(samples, dtype=bool)
    for p in arr:
        inside |= (draws <= p).all(axis=1)
    frac = inside.mean()
    est = box * float(frac)
    se = box * float(np.sqrt(frac * (1.0 - frac) / samples))
    return est, se


def front_indices(objectives: np.ndarray) -> list[np.ndarray]:
    """Deb-style front peeling on an (N, m) integer array; returns index arrays.

    dom[i, j] is True iff row i strictly dominates row j; with integer rows,
    that is "i >= j everywhere and not j >= i everywhere".
    """
    n = objectives.shape[0]
    ge = (objectives[:, None, :] >= objectives[None, :, :]).all(axis=2)
    dom = ge & ~ge.T
    counts = dom.sum(axis=0)
    alive = np.ones(n, dtype=bool)
    fronts: list[np.ndarray] = []
    while alive.any():
        current = alive & (counts == 0)
        fronts.append(np.flatnonzero(current))
        alive &= ~current
        counts = counts - dom[current].sum(axis=0)
    return fronts


def select_removal_index(
    objectives: np.ndarray,
    r: ReferencePoint,
    rng: np.random.Generator,
    eligible: Sequence[int] | None = None,
) -> int:
    """Row index to remove from an (N, m) objective array: a last-front
    member of least leave-one-out hypervolume, ties broken uniformly.

    Sorting and contributions are restricted to the ascending rows in
    ``eligible`` (defaults to all rows).  Tied candidates are listed in row
    order and one ``rng.integers`` draw picks among them, so
    :class:`~emoabench.selection.SteadyStateSelector` must make the same
    choice from the same RNG stream.
    """
    rows = list(range(len(objectives))) if eligible is None else list(eligible)
    last = [rows[i] for i in front_indices(objectives[rows])[-1]]
    pts = [tuple(int(v) for v in objectives[i]) for i in last]
    total = hypervolume(pts, r)
    contribs = [total - hypervolume(pts[:i] + pts[i + 1 :], r) for i in range(len(pts))]
    best = min(contribs)
    candidates = [row for row, c in zip(last, contribs) if c == best]
    return candidates[int(rng.integers(len(candidates)))]


def _random_genome(n: int, rng: np.random.Generator) -> int:
    """A uniform n-bit genome, one scalar draw per 32-bit chunk, low chunk
    first."""
    genome = 0
    for shift in range(0, n, 32):
        genome |= int(rng.integers(1 << min(32, n - shift))) << shift
    return genome


def _recounted_run(
    inst: ProblemInstance,
    cfg: AlgorithmConfig,
    max_iters: int,
    start: list[tuple[int, ObjectiveVector]],
    step: Callable[[], tuple[ObjectiveVector, list[tuple[int, ObjectiveVector]]]],
) -> RunRecord:
    """The record of a run from ``start``, one (genome, vector) pair per
    start evaluation, whose iterations each call ``step()`` for the
    offspring's vector and the population after it.  Coverage, losses, the
    hitting time and the best inner level (from the genomes) are recounted
    from the whole population after every iteration.  A loss is a front
    vector held after the offspring joined and not after the iteration."""
    front = inst.pareto_front().points
    population = start
    covered: set[ObjectiveVector] = set()
    trajectory: list[tuple[int, int]] = []
    inner: list[tuple[int, int]] = []
    hit = None
    violations = iterations = 0
    max_pop = len(population)
    for t in range(max_iters + 1):
        if t:  # iteration 0 only records the start
            if hit is not None and cfg.stop_at_coverage:
                break
            iterations = t
            offspring, population = step()
            covered |= {offspring} & front
            max_pop = max(max_pop, len(population))
        now = {v for _, v in population} & front
        violations += len(covered - now)
        covered = now
        if not trajectory or trajectory[-1][1] != len(covered):
            trajectory.append((t, len(covered)))
        if hit is None and covered == front:
            hit = t
        if inst.kind == "mojzj":
            top = max(inner_level(g, inst) for g, _ in population)
            if not inner or inner[-1][1] != top:
                inner.append((t, top))
    return RunRecord(
        seed=cfg.seed,
        iterations_to_coverage=hit,
        iterations=iterations,
        evaluations=len(start) + iterations,
        censored=hit is None,
        coverage_trajectory=trajectory,
        inner_coverage_trajectory=inner,
        coverage_violations=violations,
        max_population_size=max_pop,
    )


def reference_sms_emoa_run(
    inst: ProblemInstance,
    cfg: AlgorithmConfig,
    rng: np.random.Generator | None = None,
) -> RunRecord:
    """The run of :func:`emoabench.algorithms.sms_emoa_run`, written plainly:
    the combined population is a list of mu + 1 (genome, vector) slots with
    one free index, each removal is :func:`select_removal_index` on the whole
    (mu + 1, m) array, and :func:`_recounted_run` recounts the mu survivors
    after every iteration.  From the same RNG stream it must return an
    equal record."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = inst.n
    stochastic = cfg.update == "stochastic"
    mu, max_iters = run_limits(inst, cfg)
    r = cfg.refpoint if cfg.refpoint is not None else default_reference_point(inst.m)
    slots = []
    for _ in range(mu):
        genome = _random_genome(n, rng)
        slots.append((genome, inst.evaluate_mask(genome)))
    slots.append((0, ()))  # the free slot, filled before it is read
    free = mu

    def step() -> tuple[ObjectiveVector, list[tuple[int, ObjectiveVector]]]:
        nonlocal free
        survivors = [s for s in range(mu + 1) if s != free]
        parent = slots[survivors[int(rng.integers(mu))]][0]
        child = cfg.mutation.mutate_mask(parent, n, rng)
        offspring = inst.evaluate_mask(child)
        slots[free] = (child, offspring)
        eligible = None
        if stochastic:
            eligible = sorted(set(rng.integers(mu + 1, size=(mu + 1) // 2).tolist()))
        objectives = np.array([v for _, v in slots], dtype=np.int64)
        free = int(select_removal_index(objectives, r, rng, eligible))
        return offspring, [slot for s, slot in enumerate(slots) if s != free]

    return _recounted_run(inst, cfg, max_iters, slots[:mu], step)


def reference_gsemo_run(
    inst: ProblemInstance,
    cfg: AlgorithmConfig,
    rng: np.random.Generator | None = None,
) -> RunRecord:
    """The GSEMO run of :func:`emoabench.algorithms.gsemo_run`, written
    plainly: the archive is a list of (genome, vector) pairs, and
    :func:`_recounted_run` recounts the whole archive after every iteration.
    From the same RNG stream it must return an equal record; it counts no
    antichain violations, so a correct run reads 0 on both sides."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = inst.n
    _, max_iters = run_limits(inst, cfg)
    start = _random_genome(n, rng)
    archive = [(start, inst.evaluate_mask(start))]

    def step() -> tuple[ObjectiveVector, list[tuple[int, ObjectiveVector]]]:
        parent = archive[int(rng.integers(len(archive)))][0]
        child = cfg.mutation.mutate_mask(parent, n, rng)
        cobj = inst.evaluate_mask(child)
        # a rejected child is strictly dominated, so never on the front
        if not any(dominates(v, cobj) for _, v in archive):
            archive[:] = [(g, v) for g, v in archive if not weakly_dominates(cobj, v)]
            archive.append((child, cobj))
        return cobj, archive

    return _recounted_run(inst, cfg, max_iters, list(archive), step)


def verify_antichain(vectors: Sequence[ObjectiveVector]) -> bool:
    """True iff all pairs of objective vectors are incomparable."""
    vecs = [tuple(v) for v in vectors]
    return all(
        incomparable(vecs[i], vecs[j])
        for i in range(len(vecs))
        for j in range(i + 1, len(vecs))
    )


def random_antichain(
    rng: np.random.Generator,
    size: int,
    m: int,
    coord_max: int = 20,
) -> list[ObjectiveVector]:
    """Greedy random antichain of at most ``size`` vectors with coordinates
    in [0..coord_max]."""
    out: list[ObjectiveVector] = []
    for _ in range(50 * size):
        v = tuple(int(c) for c in rng.integers(0, coord_max + 1, size=m))
        if all(incomparable(v, u) for u in out):
            out.append(v)
            if len(out) == size:
                break
    return out


def run_verification(
    budget: OracleBudget = OracleBudget(), seed: int = 0
) -> list[tuple[str, bool | None, str]]:
    """Cross-check the closed forms and the hypervolume engine; returns
    (check name, passed, detail) rows, where passed is None for a check
    whose instances the budget all skipped.  Used by the CLI ``verify``
    subcommand."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    results: list[tuple[str, bool | None, str]] = []

    def within_budget(insts: list[ProblemInstance]) -> tuple[list[ProblemInstance], str]:
        """The instances the exhaustive budget allows, and a note on the rest."""
        kept = [inst for inst in insts if inst.n <= budget.max_n_exhaustive]
        skipped = len(insts) - len(kept)
        note = f"{skipped} of {len(insts)} above n={budget.max_n_exhaustive} skipped"
        return kept, note if skipped else ""

    # closed-form front vs exhaustive enumeration
    cases = []
    for n in range(2, 13):
        for m in (2, 4):
            if (2 * n) % m:
                continue
            npr = 2 * n // m
            for k in range(1, npr // 2 + 1):
                cases.append(ProblemInstance.mojzj(n, m, k))
    cases, skipped = within_budget(cases)
    ok = True
    detail = ""
    for inst in cases:
        closed = inst.pareto_front()
        brute = brute_force_front(inst, budget)
        expect = (inst.nprime - 2 * inst.k + 3) ** (inst.m // 2)
        if closed.points != brute.points or closed.size != expect:
            ok, detail = False, f"front mismatch on {inst}"
            break
    counted = ", ".join(filter(None, (f"{len(cases)} instances", skipped)))
    results.append(("closed-form front vs brute force", ok, detail or counted))

    # pareto membership characterization vs brute force
    ok, detail = True, ""
    cases, skipped = within_budget(
        [ProblemInstance.mojzj(8, 4, 2), ProblemInstance.mojzj(10, 2, 3)]
    )
    for inst in cases:
        for mask in range(1 << inst.n):
            a = is_pareto_optimal(mask, inst)
            b = brute_force_pareto_optimal(mask, inst, budget)
            if a != b:
                ok, detail = False, f"membership mismatch at mask={mask} on {inst}"
                break
        if not ok:
            break
    results.append(
        ("block membership vs brute-force non-dominance", ok if cases else None, detail or skipped)
    )

    # hypervolume engine vs inclusion-exclusion
    ok, detail = True, ""
    for trial in range(200):
        m = int(rng.integers(2, 7))
        pts = random_antichain(rng, int(rng.integers(1, 11)), m)
        r = default_reference_point(m)
        a = hypervolume(pts, r)
        b = hv_inclusion_exclusion(pts, r)
        if a != b:
            ok, detail = False, f"HV mismatch on trial {trial}: {a} vs {b}"
            break
    results.append(("dimension-sweep HV vs inclusion-exclusion", ok, detail or "200 antichains"))

    # inclusion-exclusion vs Monte-Carlo
    ok, detail = True, ""
    for trial in range(5):
        m = int(rng.integers(2, 5))
        pts = random_antichain(rng, 8, m)
        r = default_reference_point(m)
        exact = hv_inclusion_exclusion(pts, r)
        est, se = hv_monte_carlo(pts, r, budget.mc_samples, rng)
        if abs(est - exact) > 4 * max(se, 1e-9):
            ok, detail = False, f"MC estimate {est}+-{se} far from exact {exact}"
            break
    results.append(("inclusion-exclusion vs Monte-Carlo", ok, detail or "5 antichains"))

    # incomparable-family construction
    fam = incomparable_family(8, 3)
    inst = incomparable_family_instance(8)
    vecs = [inst.evaluate_mask(x) for x in fam]
    ok = verify_antichain(vecs) and vecs == [(5, 1, 3, 7), (6, 2, 2, 6), (7, 3, 1, 5)]
    results.append(("incomparable family antichain", ok, f"f values {vecs}"))

    return results
