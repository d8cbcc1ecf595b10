"""Exact hypervolume and the incremental survivor selector.

The hypervolume is the Lebesgue measure of the union of boxes spanned
between the reference point and each objective vector; with integer
objectives and an integer reference point it is an exact integer, computed
by a recursive dimension sweep.  Survivor selection removes one individual
of minimal hypervolume contribution from the last front, with a shortcut:
inside an antichain the contribution is zero exactly for duplicated
objective vectors, so when duplicates are present no hypervolume needs to
be evaluated.

The selector answers dominance queries from a per-objective value index, so
installing an offspring costs time in its change of value, not in the
population size, and a mask of strictly dominated slots lets the last-front
peel return at once on an antichain.  The same index tells which slots
share a vector (those both weakly above and weakly below it), so
duplicates need no record of their own.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
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

    Slots hold the combined population; the offspring lives in the currently
    free slot (the last slot initially), and a removal simply marks the
    removed slot as the next free slot.  Decisions equal those of the
    reference :func:`emoabench.oracle.select_removal_index` on the same
    multiset and RNG stream.

    All sets are plain-int slot bitmasks.  ``le[c][v]`` (``ge[c][v]``) holds
    the slots whose coordinate c is <= v (>= v), so the AND of m entries
    gives the slots weakly above or below a vector; objectives must be
    non-negative integers to index them; the slots both above and below a
    vector are those holding it.  ``strict_cols[j]`` holds the slots strictly
    dominating j, ``dominated`` the slots with any strict dominator and
    ``dup_mask`` the population slots whose vector some other population
    slot shares.  Installing an offspring moves its slot's bits only across
    the values between its old and new coordinates and touches only the
    strict bits that change.
    """

    __slots__ = (
        "tuples", "r", "le", "ge", "strict_cols", "dominated", "dup_mask",
        "full_mask", "free"
    )

    def __init__(self, tuples: list[ObjectiveVector], r: ReferencePoint):
        n = len(tuples)
        self.tuples = tuples
        self.r = r
        self.free = n - 1
        self.full_mask = (1 << n) - 1
        # equal vectors share every table entry, cone and strict mask, so
        # the set-up works per distinct vector
        groups: dict[ObjectiveVector, int] = {}
        for i, t in enumerate(tuples):
            groups[t] = groups.get(t, 0) | (1 << i)
        self.le: list[list[int]] = []
        self.ge: list[list[int]] = []
        for c, column in enumerate(zip(*groups)):
            if min(column) < 0:
                raise ValueError(f"objective values must be >= 0, got {min(column)}")
            at = [0] * (max(column) + 1)
            for t, slots in groups.items():
                at[t[c]] |= slots
            self.le.append(list(accumulate(at, or_)))
            self.ge.append(list(accumulate(reversed(at), or_))[::-1])
        self.strict_cols = [0] * n
        self.dominated = 0
        # equal vectors always share a front, so the union of the shared
        # vectors' slots decides the zero-contribution shortcut without a
        # recount per front; the free slot holds no population member
        self.dup_mask = 0
        not_free = ~(1 << self.free)
        for t, slots in groups.items():
            above, below = self._cones(t)
            dominators = above & ~below
            if dominators:
                self.dominated |= slots
                for i in _slots(slots):
                    self.strict_cols[i] = dominators
            live = slots & not_free
            if live & (live - 1):
                self.dup_mask |= live

    def _cones(self, obj: ObjectiveVector) -> tuple[int, int]:
        """(slots weakly dominating obj, slots weakly dominated by obj)."""
        above = below = self.full_mask
        for le_c, ge_c, v in zip(self.le, self.ge, obj):
            above &= ge_c[v]
            below &= le_c[v]
        return above, below

    def set_offspring(self, obj: ObjectiveVector) -> None:
        """Install the offspring objective vector in the free slot."""
        if min(obj) < 0:
            raise ValueError(f"objective values must be >= 0, got {obj}")
        slot = self.free
        bit = 1 << slot
        not_bit = ~bit
        old = self.tuples[slot]
        # slots the old occupant strictly dominated; each has a strict
        # dominator, so they all lie in ``dominated`` (none on an antichain)
        strict = self.strict_cols
        lost = 0
        for j in _slots(self.dominated):
            if strict[j] & bit:
                lost |= 1 << j
        for le_c, ge_c, a, b in zip(self.le, self.ge, old, obj):
            if b < a:
                for v in range(b, a):
                    le_c[v] |= bit
                for v in range(b + 1, a + 1):
                    ge_c[v] &= not_bit
            elif b > a:
                if b >= len(le_c):  # no slot lies above the table yet
                    le_c.extend([self.full_mask] * (b + 1 - len(le_c)))
                    ge_c.extend([0] * (b + 1 - len(ge_c)))
                for v in range(a, b):
                    le_c[v] &= not_bit
                for v in range(a + 1, b + 1):
                    ge_c[v] |= bit
        self.tuples[slot] = obj
        above, below = self._cones(obj)
        gained = below & ~above
        strict[slot] = above & ~below
        dominated = (self.dominated | gained) & not_bit
        if strict[slot]:
            dominated |= bit
        for j in _slots(lost & ~gained):
            strict[j] &= not_bit
            if not strict[j]:
                dominated &= ~(1 << j)
        for j in _slots(gained & ~lost):
            strict[j] |= bit
        self.dominated = dominated
        equal = above & below
        if equal & (equal - 1):
            self.dup_mask |= equal

    def _last_front(self, alive: int) -> int:
        # only slots with some strict dominator can fall behind the first
        # front, so an antichain returns without a scan
        strict = self.strict_cols
        while True:
            behind = 0
            for j in _slots(alive & self.dominated):
                if strict[j] & alive:
                    behind |= 1 << j
            if not behind:
                return alive
            alive = behind

    def choose_removal(self, rng: np.random.Generator, eligible: int | None = None) -> int:
        """Index to remove; ``eligible`` is a bitmask of sampled identities
        (None means the full combined population)."""
        last_mask = self._last_front(self.full_mask if eligible is None else eligible)
        t = self.tuples
        if eligible is None:
            d = self.dup_mask & last_mask
            if d:
                # duplicated slots are exactly the zero-contribution members
                return _nth_set_bit(d, int(rng.integers(d.bit_count())))
        members = _slots(last_mask)
        if len(members) == 1:
            return members[0]
        # duplicated members, if any, are exactly the minimal ones
        pick = min_contribution_indices([t[i] for i in members], self.r)
        return members[pick[int(rng.integers(len(pick)))]]

    def commit_removal(self, removed: int) -> None:
        """Drop ``removed``; its slot becomes the next offspring slot.

        The removed vector stays in the index but is never read as a
        population member: the next :meth:`set_offspring` replaces exactly
        that slot.
        """
        bit = 1 << removed
        if self.dup_mask & bit:
            self.dup_mask &= ~bit
            above, below = self._cones(self.tuples[removed])
            rest = above & below & ~bit
            if not (rest & (rest - 1)):
                # a single holder is left: the vector is no longer shared
                self.dup_mask &= ~rest
        self.free = removed


def _slots(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        lsb = mask & -mask
        mask ^= lsb
        out.append(lsb.bit_length() - 1)
    return out


def _nth_set_bit(mask: int, k: int) -> int:
    """Position of the k-th lowest set bit of ``mask`` (k counts from 0),
    by bisection on the popcount of the low bits."""
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((2 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo
