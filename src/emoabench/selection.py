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
present.  Such an offspring or removal changes only slot state.  The
value-level half, :class:`ValueIndex`, knows nothing of a population, so
every selector on one problem can share one, and the run loop keeps one
per problem per process: each distinct vector is entered once per problem
per process, at the cost of one prefix sum over each objective's value
table, and keeps its id; a selector's population enters the same way when
it is built.  This relies on the problem having few vectors, which bound
the ids: (n'+1)^(m/2) for mojzj and momm with block length n' = 2n/m, n+1
for omm and at most (n+1)(n+2)/2 for lotz.  A mask of strictly dominated
vectors lets the last-front peel return at once on an antichain, and a
sorted list of the duplicated slots, ``dups``, lets the duplicate shortcut
pick its slot with one draw and one list index.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Sequence

from .core import ObjectiveVector
from .variation import Draws

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


def min_contribution_indices(points: Sequence[ObjectiveVector], r: ReferencePoint) -> list[int]:
    """Indices of the members of minimal leave-one-out hypervolume
    contribution, ascending."""
    pts = list(points)
    total = _hv(pts, r)
    contribs = [total - _hv(pts[:i] + pts[i + 1 :], r) for i in range(len(pts))]
    best = min(contribs)
    return [i for i, c in enumerate(contribs) if c == best]


class ValueIndex:
    """Dominance index over the distinct objective vectors of one problem.

    It holds only facts about vectors, never about a population, so every
    selector on the same problem can share one: ``ids`` maps each entered
    vector to its id, ``vecs[i]`` is the vector of id ``i``, ``at[c][v]``
    the bitmask of the ids whose coordinate c equals v, ``strict[i]`` the
    ids strictly dominating id ``i`` and ``dominated`` the ids with any
    strict dominator.  A vector is entered once, takes the next id,
    ``len(vecs)``, and keeps it; no existing bit ever changes, so the ids
    are bounded by the problem's vector count (see the module docstring).
    Objectives must be non-negative integers to address ``at``.
    """

    __slots__ = ("ids", "vecs", "at", "strict", "dominated")

    def __init__(self, m: int):
        self.ids: dict[ObjectiveVector, int] = {}
        self.vecs: list[ObjectiveVector] = []
        self.at: list[list[int]] = [[] for _ in range(m)]
        self.strict: list[int] = []
        self.dominated = 0

    def enter(self, obj: ObjectiveVector) -> int:
        """Index ``obj``, a vector not in ``ids``, and return its new id.

        Per coordinate c, the entries of ``at[c]`` below its value v are the
        ids below it there, and with ``at[c][v]`` the ids at most v; the AND
        over m coordinates gives the ids weakly below and weakly above it.
        It then sets its id's bit in one entry per value table and in the
        strict entry of each id it strictly dominates.
        """
        _check_vector(obj, len(self.at))
        i = len(self.vecs)
        bit = 1 << i
        self.ids[obj] = i
        self.vecs.append(obj)
        # each id sits in one entry of a column, so the sum of the entries
        # below v is their OR: the ids whose coordinate is < v
        above = below = bit - 1
        for at_c, v in zip(self.at, obj):
            if v >= len(at_c):
                at_c.extend([0] * (v + 1 - len(at_c)))
            lower = sum(at_c[:v])
            below &= lower | at_c[v]
            above &= ~lower
            at_c[v] |= bit
        strict = above & ~below
        self.strict.append(strict)
        gained = below & ~above
        for j in _bits(gained):
            self.strict[j] |= bit
        self.dominated |= gained | (bit if strict else 0)
        return i


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

    Dominance comes from ``index``, a :class:`ValueIndex` that may be shared
    with other selectors on the same problem: a vector it lacks is entered
    there, once per index, and keeps its id.  The selector holds only the
    run's state over those ids.  ``slots[i]`` is the bitmask of population
    slots holding id ``i`` (the list grows when it meets an id given out
    after it last grew), ``vid[s]`` the id of slot ``s``'s vector and
    ``live`` the mask of ids some slot holds.  An id whose slots have all
    been removed is dead, and an offspring of its vector revives it.  The
    index's sets cover the ids of every selector sharing it, so the peel
    masks them with the ids it considers.  ``dups`` lists, ascending, the
    population slots whose vector some other population slot shares.  An
    offspring whose vector is indexed, and a removal that leaves its vector
    present, change only slot state.  The constructor enters the members,
    slot by slot, through :meth:`set_offspring`'s code.  Contributions are
    measured against the fixed all-(-1) :func:`default_reference_point`.
    """

    __slots__ = ("index", "slots", "vid", "live", "dups", "free")

    def __init__(self, members: Sequence[ObjectiveVector], index: ValueIndex):
        self.index = index
        self.slots: list[int] = []
        self.vid = [0] * (len(members) + 1)
        self.live = 0
        self.dups: list[int] = []
        # each member enters its slot as an offspring would
        for s, t in enumerate(members):
            self.free = s
            self._enter(t)
        self.free = len(members)

    def set_offspring(self, obj: ObjectiveVector) -> bool:
        """Install the offspring objective vector in the free slot; return
        True iff no population slot held that vector before (a birth)."""
        slot = self.free
        index = self.index
        i = index.ids.get(obj)
        if i is None:
            i = index.enter(obj)
        try:
            held = self.slots[i]
        except IndexError:
            # an id the index gave out after this list last grew
            self.slots.extend([0] * (len(index.vecs) - len(self.slots)))
            held = 0
        self.slots[i] = held | 1 << slot
        self.vid[slot] = i
        if held:
            dups = self.dups
            if not held & (held - 1):
                # the vector's one holder becomes a duplicate too
                insort(dups, held.bit_length() - 1)
            insort(dups, slot)
            return False
        self.live |= 1 << i
        return True

    # the constructor's way in, which a wrapper of the public name skips
    _enter = set_offspring

    def _last_front(self, alive: int) -> int:
        # only ids with some strict dominator can fall behind the first
        # front, so an antichain returns without a scan
        strict = self.index.strict
        while True:
            behind = 0
            for j in _bits(alive & self.index.dominated):
                if strict[j] & alive:
                    behind |= 1 << j
            if not behind:
                return alive
            alive = behind

    def choose_removal(self, draws: Draws, sample: Sequence[int] | None = None) -> int:
        """Slot to remove, restricted to ``sample``: the slots the stochastic
        update drew, repeats allowed, each occupied, as all are after
        :meth:`set_offspring` (None means the full combined population)."""
        if sample is None:
            dups = self.dups
            if dups and not self.live & self.index.dominated:
                # on an antichain every slot is in the last front, and the
                # duplicated slots are exactly the zero-contribution members
                return dups[draws.below(len(dups))]
            eligible = -1
            last = self._last_front(self.live)
        else:
            # the sampled slots and the ids they hold, in one pass
            vid = self.vid
            eligible = sampled = 0
            for s in sample:
                eligible |= 1 << s
                sampled |= 1 << vid[s]
            last = self._last_front(sampled)
        # duplicated members, if any, are exactly the zero-contribution
        # ones, so a hypervolume is evaluated only on a duplicate-free front
        slots = self.slots
        dup = single = 0
        for i in _bits(last):
            h = slots[i] & eligible
            if h & (h - 1):
                dup |= h
            else:
                single |= h
        if dup:
            return _nth_set_bit(dup, draws.below(dup.bit_count()))
        members = _bits(single)
        if len(members) == 1:
            return members[0]
        index = self.index
        pts = [index.vecs[self.vid[s]] for s in members]
        pick = min_contribution_indices(pts, default_reference_point(len(index.at)))
        return members[pick[draws.below(len(pick))]]

    def commit_removal(self, removed: int) -> ObjectiveVector | None:
        """Free slot ``removed`` for the next offspring.  Return its vector
        if that was its last holder (a death), else None.

        The removed vector keeps its id, dead once no slot holds it: the
        next :meth:`set_offspring` replaces exactly that slot.
        """
        i = self.vid[removed]
        rest = self.slots[i] & ~(1 << removed)
        self.slots[i] = rest
        self.free = removed
        if rest:
            # the vector was shared: the removed slot leaves ``dups``, and
            # so does a last holder left alone
            dups = self.dups
            del dups[bisect_left(dups, removed)]
            if not rest & (rest - 1):
                del dups[bisect_left(dups, rest.bit_length() - 1)]
            return None
        self.live &= ~(1 << i)
        return self.index.vecs[i]


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
