"""Exact hypervolume and the incremental survivor selector.

The hypervolume is the Lebesgue measure of the union of boxes spanned
between the reference point and each objective vector; with integer
objectives and an integer reference point it is an exact integer, computed
by a recursive dimension sweep.  Survivor selection removes one individual
of minimal hypervolume contribution from the last front, with a shortcut:
inside an antichain the contribution is zero exactly for duplicated
objective vectors, so when duplicates are present no hypervolume needs to
be evaluated.

The selector keys its dominance index by distinct objective vector: a
population of many slots often holds far fewer vectors, most offspring
repeat a vector already present, and most removals leave their vector
present.  Such an offspring or removal only flips one slot bit.  Each
distinct vector is entered once per run, at the cost of one pass over the
value tables, and keeps its id; this relies on the problem having few
vectors, which bound the ids: (n'+1)^(m/2) for mojzj and momm with block
length n' = 2n/m, n+1 for omm and at most (n+1)(n+2)/2 for lotz.  A mask
of strictly dominated vectors lets the last-front peel return at once on
an antichain.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from .core import ObjectiveVector
from .variation import uniform_below

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
    """Indices of the members of minimal leave-one-out hypervolume
    contribution, ascending."""
    pts = list(points)
    total = _hv(pts, r)
    contribs = [total - _hv(pts[:i] + pts[i + 1 :], r) for i in range(len(pts))]
    best = min(contribs)
    return [i for i, c in enumerate(contribs) if c == best]


class SteadyStateSelector:
    """Incremental survivor selection for the steady-state loop.

    Built from the mu population vectors, the selector is the one record of
    each slot's vector: slot mu starts free, :meth:`set_offspring` fills the
    free slot, and :meth:`commit_removal` frees a slot.  Both report when
    the population's vector set changes, so a caller keeping per-vector
    facts need act only then: ``set_offspring`` returns True on a birth (no
    slot held the vector before) and ``commit_removal`` returns the vector
    on a death (its last holder left), else None.  Decisions equal
    :func:`emoabench.oracle.select_removal_index`'s on the same multiset and
    RNG stream.

    The dominance index is keyed by distinct objective vector.  ``ids`` maps
    each indexed vector to its id, ``vecs[i]`` is the vector of id ``i``,
    ``slots[i]`` the bitmask of population slots holding it and ``vid[s]``
    the id of slot ``s``'s vector; ``live`` is the mask of ids some slot
    holds.  A vector new to the run takes the next id, ``len(vecs)``, and
    keeps it for the whole run.  An id whose slots have all been removed is
    dead: its vector keeps its place in every table, so an offspring of
    that vector revives it.  The ids are thus bounded by the problem's
    vector count (see the module docstring), not by the run length.

    All other sets are plain-int id bitmasks over live and dead ids alike.
    ``le[c][v]`` (``ge[c][v]``) holds the ids whose coordinate c is <= v
    (>= v), so the AND of m entries gives the ids weakly above or below a
    vector; objectives must be non-negative integers to index them.
    ``strict[i]`` holds the ids strictly dominating id i and ``dominated``
    the ids with any strict dominator; the peel masks both with the ids it
    considers.  ``dup_mask``, a slot mask, holds the population slots whose
    vector some other population slot shares.  An offspring whose vector
    is indexed only sets its slot bit; a new vector sets its id's bit in
    the value tables and in the strict entry of each id it strictly
    dominates, and no existing bit ever changes.
    """

    __slots__ = (
        "r", "ids", "vecs", "slots", "vid", "live", "le", "ge", "strict", "dominated",
        "dup_mask", "free"
    )

    def __init__(self, members: Sequence[ObjectiveVector], r: ReferencePoint):
        # objectives are >= 0, so every member strictly dominates r exactly
        # when r has one negative coordinate per objective
        if len(r) != len(members[0]) or max(r) >= 0:
            raise ValueError(f"reference point {r} needs one negative coordinate per objective")
        self.r = r
        self.free = len(members)
        self.ids: dict[ObjectiveVector, int] = {}
        # the free slot's entry is written by set_offspring
        self.vid = [self.ids.setdefault(t, len(self.ids)) for t in members] + [0]
        self.vecs = list(self.ids)
        for t in self.vecs:
            _check_vector(t, len(r))
        self.slots = [0] * len(self.vecs)
        for s, i in enumerate(self.vid[: self.free]):
            self.slots[i] |= 1 << s
        self.live = (1 << len(self.vecs)) - 1
        self.dup_mask = sum(held for held in self.slots if held & (held - 1))
        self.le: list[list[int]] = []
        self.ge: list[list[int]] = []
        for column in zip(*self.vecs):
            at = [0] * (max(column) + 1)
            for i, v in enumerate(column):
                at[v] |= 1 << i
            self.le.append(list(accumulate(at, or_)))
            self.ge.append(list(accumulate(reversed(at), or_))[::-1])
        self.strict = [0] * len(self.vecs)
        self.dominated = 0
        for i, t in enumerate(self.vecs):
            above, below = self._cones(t)
            self.strict[i] = above & ~below
            if self.strict[i]:
                self.dominated |= 1 << i

    def _cones(self, obj: ObjectiveVector) -> tuple[int, int]:
        """(ids weakly dominating obj, ids weakly dominated by obj)."""
        above = below = (1 << len(self.vecs)) - 1
        for le_c, ge_c, v in zip(self.le, self.ge, obj):
            above &= ge_c[v]
            below &= le_c[v]
        return above, below

    def set_offspring(self, obj: ObjectiveVector) -> bool:
        """Install the offspring objective vector in the free slot; return
        True iff no population slot held that vector before (a birth)."""
        slot = self.free
        slot_bit = 1 << slot
        i = self.ids.get(obj)
        if i is not None:
            # an indexed vector, live or dead: no table changes
            held = self.slots[i]
            self.slots[i] = held | slot_bit
            self.vid[slot] = i
            if held:
                self.dup_mask |= held | slot_bit
                return False
            self.live |= 1 << i
            return True
        _check_vector(obj, len(self.r))
        # a vector new to this run takes the next id and keeps it
        i = len(self.vecs)
        bit = 1 << i
        self.ids[obj] = i
        self.vecs.append(obj)
        self.slots.append(slot_bit)
        self.vid[slot] = i
        self.live |= bit
        for le_c, ge_c, v in zip(self.le, self.ge, obj):
            if v >= len(le_c):  # no id lies above the table yet
                le_c.extend([le_c[-1]] * (v + 1 - len(le_c)))
                ge_c.extend([0] * (v + 1 - len(ge_c)))
            le_c[v:] = [mask | bit for mask in le_c[v:]]
            ge_c[: v + 1] = [mask | bit for mask in ge_c[: v + 1]]
        above, below = self._cones(obj)
        strict = above & ~below
        self.strict.append(strict)
        gained = below & ~above
        for j in _bits(gained):
            self.strict[j] |= bit
        self.dominated |= gained | (bit if strict else 0)
        return True

    def _last_front(self, alive: int) -> int:
        # only ids with some strict dominator can fall behind the first
        # front, so an antichain returns without a scan
        strict = self.strict
        while True:
            behind = 0
            for j in _bits(alive & self.dominated):
                if strict[j] & alive:
                    behind |= 1 << j
            if not behind:
                return alive
            alive = behind

    def choose_removal(self, rng: np.random.Generator, eligible: int | None = None) -> int:
        """Index to remove; ``eligible`` is a bitmask of sampled slots
        (None means the full combined population)."""
        if eligible is None:
            d = self.dup_mask
            if d and not self.live & self.dominated:
                # on an antichain every slot is in the last front, and the
                # duplicated slots are exactly the zero-contribution members
                return _nth_set_bit(d, uniform_below(rng, d.bit_count()))
            held = self.slots
            last = self._last_front(self.live)
        else:
            # each id's sampled slots; a dead id holds none
            held = [slots & eligible for slots in self.slots]
            sampled = 0
            for i, h in enumerate(held):
                if h:
                    sampled |= 1 << i
            last = self._last_front(sampled)
        # duplicated members, if any, are exactly the zero-contribution
        # ones, so a hypervolume is evaluated only on a duplicate-free front
        dup = single = 0
        for i in _bits(last):
            h = held[i]
            if h & (h - 1):
                dup |= h
            else:
                single |= h
        if dup:
            return _nth_set_bit(dup, uniform_below(rng, dup.bit_count()))
        members = _bits(single)
        if len(members) == 1:
            return members[0]
        pick = min_contribution_indices([self.vecs[self.vid[s]] for s in members], self.r)
        return members[pick[uniform_below(rng, len(pick))]]

    def commit_removal(self, removed: int) -> ObjectiveVector | None:
        """Free slot ``removed`` for the next offspring.  Return its vector
        if that was its last holder (a death), else None.

        The removed vector keeps its id, dead once no slot holds it: the
        next :meth:`set_offspring` replaces exactly that slot.
        """
        bit = 1 << removed
        i = self.vid[removed]
        rest = self.slots[i] & ~bit
        self.slots[i] = rest
        self.dup_mask &= ~bit
        self.free = removed
        if not rest & (rest - 1):
            # at most one holder is left: the vector is no longer shared
            self.dup_mask &= ~rest
            if not rest:
                self.live &= ~(1 << i)
                return self.vecs[i]
        return None


def _check_vector(obj: ObjectiveVector, m: int) -> None:
    """Reject a vector the value index cannot hold: zip would index a short
    or long one by its truncated coordinates, and a negative value has no
    table entry."""
    if len(obj) != m:
        raise ValueError(f"objective vector {obj} does not have {m} objectives")
    if min(obj) < 0:
        raise ValueError(f"objective values must be >= 0, got {obj}")


def _bits(mask: int) -> list[int]:
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
