"""Exact hypervolume and the incremental survivor selector.

The hypervolume is the Lebesgue measure of the union of boxes spanned
between the reference point and each objective vector; with integer
objectives and an integer reference point it is an exact integer, computed
by a recursive dimension sweep.  Survivor selection removes one individual
of minimal hypervolume contribution from the last front, with a shortcut:
inside an antichain the contribution is zero exactly for duplicated
objective vectors, so when duplicates are present no hypervolume needs to
be evaluated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import ObjectiveVector

ReferencePoint = tuple[int, ...]


def default_reference_point(m: int) -> ReferencePoint:
    """All-(-1) point: every benchmark objective is >= 0, so each singleton
    has positive hypervolume."""
    return (-1,) * m


def hypervolume(points: Iterable[ObjectiveVector], r: ReferencePoint) -> int:
    """Exact hypervolume of a set of integer objective vectors w.r.t. r."""
    pts = [tuple(p) for p in points]
    for p in pts:
        if len(p) != len(r):
            raise ValueError(f"point {p} has wrong dimension for reference {r}")
        if not all(a > b for a, b in zip(p, r)):
            raise ValueError(f"point {p} does not strictly dominate reference {r}")
    return _hv(pts, r)


def _hv(pts: list[ObjectiveVector], r: ReferencePoint) -> int:
    if not pts:
        return 0
    if len(r) == 1:
        return max(p[0] for p in pts) - r[0]
    if len(r) == 2:
        return _hv_2d(pts, r)
    total = 0
    order = sorted(pts, key=lambda p: p[-1], reverse=True)
    prefix: list[ObjectiveVector] = []
    i = 0
    n = len(order)
    while i < n:
        z = order[i][-1]
        while i < n and order[i][-1] == z:
            prefix.append(order[i][:-1])
            i += 1
        z_next = order[i][-1] if i < n else r[-1]
        total += (z - z_next) * _hv(prefix, r[:-1])
    return total


def _hv_2d(pts: list[ObjectiveVector], r: ReferencePoint) -> int:
    # staircase sweep: decreasing first coordinate, track best second seen
    total = 0
    best = r[1]
    for x, y in sorted(pts, reverse=True):
        if y > best:
            total += (x - r[0]) * (y - best)
            best = y
    return total


def hv_contribution(points: Sequence[ObjectiveVector], index: int, r: ReferencePoint) -> int:
    """HV(points) - HV(points without points[index]); zero iff that vector is
    duplicated inside an antichain."""
    pts = list(points)
    if not 0 <= index < len(pts):
        raise ValueError(f"index {index} out of range for {len(pts)} points")
    if pts.count(pts[index]) > 1:
        return 0
    return hypervolume(pts, r) - hypervolume(pts[:index] + pts[index + 1 :], r)


def min_contribution_indices(points: Sequence[ObjectiveVector], r: ReferencePoint) -> list[int]:
    """Indices of minimal-contribution members of an antichain front.

    Shortcut: any duplicated objective vector contributes zero, and inside an
    antichain only duplicates do, so when duplicates exist they are exactly
    the argmin set.
    """
    seen: dict[ObjectiveVector, int] = {}
    for p in points:
        seen[p] = seen.get(p, 0) + 1
    dup = [i for i, p in enumerate(points) if seen[p] > 1]
    if dup:
        return dup
    unique = list(points)
    total = _hv(unique, r)
    contribs = [total - _hv(unique[:i] + unique[i + 1 :], r) for i in range(len(unique))]
    best = min(contribs)
    return [i for i, c in enumerate(contribs) if c == best]


class SteadyStateSelector:
    """Incremental survivor selection for the steady-state loop.

    Keeps the pairwise weak-dominance relation of the combined population
    as per-row bitsets.  The offspring lives in the currently free slot (the
    last slot initially); a removal simply marks the removed slot as the next
    free slot, so both installing an offspring and committing a removal touch
    only one row/column.  Decisions equal those of the reference
    :func:`emoabench.oracle.select_removal_index` on the same multiset and
    RNG stream; plain ints are used throughout because the populations
    here are small enough that interpreter overhead, not asymptotics,
    dominates.

    ``ge_rows[i]`` has bit j set iff vector i weakly dominates vector j;
    ``ge_cols[j]`` is the transpose view.  i strictly dominates j iff bit i
    of ``ge_cols[j] & ~ge_rows[j]`` is set.
    """

    __slots__ = (
        "tuples", "r", "size", "ge_rows", "ge_cols", "strict_cols",
        "slots_by_value", "dup_mask", "full_mask", "free"
    )

    def __init__(self, tuples: list[ObjectiveVector], r: ReferencePoint):
        n = len(tuples)
        self.tuples = tuples
        self.r = r
        self.size = n
        self.free = n - 1
        self.full_mask = (1 << n) - 1
        self.ge_rows = [0] * n
        self.ge_cols = [0] * n
        for i in range(n):
            ti = tuples[i]
            row = 0
            for j in range(n):
                if weakly_dominates_fast(ti, tuples[j]):
                    row |= 1 << j
                    self.ge_cols[j] |= 1 << i
            self.ge_rows[i] = row
        # strict_cols[j]: mask of the slots strictly dominating vector j
        self.strict_cols = [
            self.ge_cols[j] & ~self.ge_rows[j] for j in range(n)
        ]
        # slot bitmask per objective vector; equal vectors always share a
        # front, so the union of multiply-occupied values (``dup_mask``)
        # decides the zero-contribution shortcut without recounting per front
        self.slots_by_value: dict[ObjectiveVector, int] = {}
        self.dup_mask = 0
        for i, t in enumerate(tuples):
            if i != self.free:
                m = self.slots_by_value.get(t, 0) | (1 << i)
                self.slots_by_value[t] = m
                if m & (m - 1):
                    self.dup_mask |= m

    @property
    def dup_counts(self) -> dict[ObjectiveVector, int]:
        return {v: m.bit_count() for v, m in self.slots_by_value.items()}

    def set_offspring(self, obj: ObjectiveVector) -> None:
        """Install the offspring objective vector in the free slot."""
        last = self.free
        bit_last = 1 << last
        t = self.tuples
        t[last] = obj
        rows = self.ge_rows
        cols = self.ge_cols
        strict = self.strict_cols
        not_last = ~bit_last
        row = 0
        col = 0
        if len(obj) == 2:  # the bi-objective benchmarks dominate run time
            o0, o1 = obj
            for j in range(self.size):
                a0, a1 = t[j]
                if o0 >= a0 and o1 >= a1:
                    row |= 1 << j
                    cols[j] |= bit_last
                    if a0 >= o0 and a1 >= o1:
                        col |= 1 << j
                        rows[j] |= bit_last
                        strict[j] &= not_last
                    else:
                        rows[j] &= not_last
                        strict[j] |= bit_last
                else:
                    cols[j] &= not_last
                    strict[j] &= not_last
                    if a0 >= o0 and a1 >= o1:
                        col |= 1 << j
                        rows[j] |= bit_last
                    else:
                        rows[j] &= not_last
        else:
            for j in range(self.size):
                tj = t[j]
                ge_ij = True
                ge_ji = True
                for a, b in zip(obj, tj):
                    if a < b:
                        ge_ij = False
                    elif a > b:
                        ge_ji = False
                if ge_ij:
                    row |= 1 << j
                    cols[j] |= bit_last
                else:
                    cols[j] &= not_last
                if ge_ji:
                    col |= 1 << j
                    rows[j] |= bit_last
                else:
                    rows[j] &= not_last
                if ge_ij and not ge_ji:
                    strict[j] |= bit_last
                else:
                    strict[j] &= not_last
        rows[last] = row
        cols[last] = col
        strict[last] = col & ~row
        m = self.slots_by_value.get(obj, 0) | bit_last
        self.slots_by_value[obj] = m
        if m & (m - 1):
            self.dup_mask |= m

    def _last_front(self, alive: int) -> int:
        strict = self.strict_cols
        while True:
            current = 0
            a = alive
            while a:
                lsb = a & -a
                a ^= lsb
                if not (strict[lsb.bit_length() - 1] & alive):
                    current |= lsb
            if current == alive:
                return current
            alive ^= current

    def choose_removal(self, rng: np.random.Generator, eligible: int | None = None) -> int:
        """Index to remove; ``eligible`` is a bitmask of sampled identities
        (None means the full combined population)."""
        last_mask = self._last_front(self.full_mask if eligible is None else eligible)
        t = self.tuples
        if eligible is None:
            d = self.dup_mask & last_mask
            if d:
                # duplicated slots are exactly the zero-contribution members
                k = int(rng.integers(d.bit_count()))
                while k:
                    d &= d - 1
                    k -= 1
                return (d & -d).bit_length() - 1
            members: list[int] = []
            a = last_mask
            while a:
                lsb = a & -a
                a ^= lsb
                members.append(lsb.bit_length() - 1)
            dup: list[int] = []
        else:
            members = []
            a = last_mask
            while a:
                lsb = a & -a
                a ^= lsb
                members.append(lsb.bit_length() - 1)
            local: dict[ObjectiveVector, int] = {}
            for i in members:
                local[t[i]] = local.get(t[i], 0) + 1
            dup = [i for i in members if local[t[i]] > 1]
        if dup:
            return dup[int(rng.integers(len(dup)))]
        if len(members) == 1:
            return members[0]
        pick = min_contribution_indices([t[i] for i in members], self.r)
        return members[pick[int(rng.integers(len(pick)))]]

    def commit_removal(self, removed: int) -> None:
        """Drop ``removed``; its slot becomes the next offspring slot.

        The removed slot's row/column go stale but are never read: the next
        :meth:`set_offspring` rewrites exactly that slot.
        """
        v = self.tuples[removed]
        bit = 1 << removed
        m = self.slots_by_value[v] & ~bit
        if m:
            self.slots_by_value[v] = m
            self.dup_mask &= ~bit
            if not (m & (m - 1)):
                self.dup_mask &= ~m
        else:
            del self.slots_by_value[v]
            self.dup_mask &= ~bit
        self.free = removed


def weakly_dominates_fast(u: ObjectiveVector, v: ObjectiveVector) -> bool:
    for a, b in zip(u, v):
        if a < b:
            return False
    return True
