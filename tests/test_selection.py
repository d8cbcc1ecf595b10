"""Exact hypervolume, the incremental selector, and its oracle reference."""

import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emoabench import selection
from emoabench.core import dominates
from emoabench.oracle import front_indices, select_removal_index
from emoabench.selection import (
    SteadyStateSelector,
    ValueIndex,
    default_reference_point,
    hypervolume,
    min_contribution_indices,
)
from emoabench.variation import Draws


def fronts_of(*objectives):
    return [list(map(int, f)) for f in front_indices(np.array(objectives, dtype=np.int64))]


def half_sample(rng, size):
    """Sample of the stochastic update: floor(size/2) slots drawn with
    replacement, as the run loop draws them."""
    return rng.integers(size, size=size // 2).tolist()


def choose(sel, rng, sample=None):
    """``sel.choose_removal`` drawing from the numpy generator ``rng``."""
    with Draws(rng) as draws:
        return sel.choose_removal(draws, sample)


def slot_vectors(sel):
    """The vector each slot's id stands for, free slot included."""
    return [sel.index.vecs[i] for i in sel.vid]


def shared_slots(tuples, members):
    """Union of the ``members`` slots whose vector another member slot
    shares."""
    held = [t for i, t in enumerate(tuples) if members >> i & 1]
    return sum(1 << i for i, t in enumerate(tuples) if members >> i & 1 and held.count(t) > 1)


def assert_index_definitions(sel, members):
    """Every field of the value index against its definition, over live and
    dead ids alike; ``members`` is the mask of population slots."""
    index = sel.index
    vecs = index.vecs
    ids = range(len(vecs))
    # one id per distinct vector
    assert index.ids == {v: i for i, v in enumerate(vecs)} and len(index.ids) == len(vecs)
    held = [0] * len(vecs)
    for s, i in enumerate(sel.vid):
        if members >> s & 1:
            held[i] |= 1 << s
    # the slot list may stop short of ids given out after it last grew
    assert sel.slots == held[: len(sel.slots)] and not any(held[len(sel.slots) :])
    assert sel.live == sum(1 << i for i in ids if held[i])
    for c in range(len(index.at)):
        width = len(index.at[c])
        assert width > max(v[c] for v in vecs)
        assert index.at[c] == [sum(1 << i for i in ids if vecs[i][c] == v) for v in range(width)]
    strict = [sum(1 << i for i, u in enumerate(vecs) if dominates(u, t)) for t in vecs]
    assert index.strict == strict
    assert index.dominated == sum(1 << i for i, col in enumerate(strict) if col)
    assert sel.dups == sorted(sel.dups)
    assert sum(1 << s for s in sel.dups) == shared_slots(slot_vectors(sel), members)


def live_index(sel, width):
    """The live part of the index keyed by vector rather than by id, with
    the value tables cut to ``width`` entries, so that two selectors that
    numbered their ids differently compare equal."""
    index = sel.index
    vecs = index.vecs
    live = [i for i in range(len(vecs)) if sel.live >> i & 1]

    def named(mask):
        return {vecs[i] for i in live if mask >> i & 1}

    return (
        {vecs[i]: sel.slots[i] for i in live},
        {vecs[i]: named(index.strict[i]) for i in live},
        {vecs[i] for i in live if index.strict[i] & sel.live},
        [[named(mask) for mask in table[:w]] for table, w in zip(index.at, width)],
        sel.dups,
    )


def fields(sel):
    """Deep copy of every selector field, and of every field of its value
    index, to check that a call changed none."""
    return [
        copy.deepcopy(getattr(obj, name))
        for obj, names in ((sel, SteadyStateSelector.__slots__), (sel.index, ValueIndex.__slots__))
        for name in names
        if name != "index"
    ]


def selector(*objectives):
    """Selector over the combined population, last vector as offspring."""
    sel = SteadyStateSelector(objectives[:-1], ValueIndex(2))
    sel.set_offspring(objectives[-1])
    return sel


class TestSorting:
    def test_single_antichain(self):
        assert fronts_of((1, 2), (2, 1)) == [[0, 1]]

    def test_layering(self):
        assert fronts_of((1, 1), (2, 2), (0, 0)) == [[1], [0], [2]]

    def test_duplicates_share_a_front(self):
        assert fronts_of((1, 1), (1, 1), (0, 2)) == [[0, 1, 2]]

    def test_front_indices_against_direct_check(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            objs = rng.integers(0, 5, size=(12, 3)).astype(np.int64)
            fronts = front_indices(objs)
            # every vector appears exactly once
            assert sorted(int(i) for f in fronts for i in f) == list(range(12))
            # first front = vectors not strictly dominated by anything
            dominated = {
                j
                for j in range(12)
                for i in range(12)
                if (objs[i] >= objs[j]).all() and (objs[i] != objs[j]).any()
            }
            assert set(map(int, fronts[0])) == set(range(12)) - dominated


class TestHypervolume:
    def test_two_point_staircase(self):
        assert hypervolume([(0, 2), (2, 0)], (-1, -1)) == 5

    def test_singletons(self):
        assert hypervolume([(1, 2)], (-1, -1)) == 6
        assert hypervolume([(3,)], (-1,)) == 4
        assert hypervolume([], (-1, -1)) == 0

    def test_duplicate_and_dominated_points_are_free(self):
        pts = [(2, 2), (2, 2), (1, 1)]
        assert hypervolume(pts, (-1, -1)) == hypervolume([(2, 2)], (-1, -1)) == 9

    def test_three_dimensions(self):
        # boxes of volume 4 and 2 overlapping in a unit cube
        assert hypervolume([(1, 1, 0), (0, 0, 1)], (-1, -1, -1)) == 4 + 2 - 1

    def test_reference_must_be_strictly_dominated(self):
        with pytest.raises(ValueError):
            hypervolume([(0, 2)], (0, -1))
        with pytest.raises(ValueError):
            hypervolume([(0, 2), (2, 0)], (-1, -1, -1))

    def test_min_contribution_ties(self):
        assert min_contribution_indices([(0, 3), (1, 1), (3, 0)], (-1, -1)) == [1]
        # duplicates return exactly the duplicated slots
        assert min_contribution_indices([(2, 0), (1, 1), (1, 1)], (-1, -1)) == [1, 2]


class TestRemovalChoice:
    def test_removes_from_last_front_only(self):
        # (0,0) is strictly behind; it must always be removed
        objs = [(2, 2), (0, 0), (3, 1)]
        for seed in range(20):
            assert select_removal_index(objs, np.random.default_rng(seed)) == 1

    def test_uniform_among_tied_minima(self):
        objs = [(1, 1), (1, 1), (0, 3)]
        counts = Counter(select_removal_index(objs, np.random.default_rng(s)) for s in range(400))
        assert set(counts) == {0, 1}
        assert min(counts.values()) > 120

    def test_choose_removal_standard(self):
        sel = selector((0, 2), (1, 1), (2, 0), (0, 0))
        removed = choose(sel, np.random.default_rng(0))
        assert sel.commit_removal(removed) == (0, 0)
        assert sel.free == removed  # its slot takes the next offspring

    def test_choose_removal_sampled_size(self):
        # with mu+1 = 2 the half sample has one member; it is always removed
        sel = selector((0, 2), (2, 0))
        seen = set()
        for s in range(50):
            rng = np.random.default_rng(s)
            sample = half_sample(rng, 2)
            removed = choose(sel, rng, sample)
            assert sample == [removed]
            seen.add(slot_vectors(sel)[removed])
        assert seen == {(0, 2), (2, 0)}

    def test_sampled_front_evaluates_hypervolume_only_without_duplicates(self, monkeypatch):
        calls = []
        real = selection.min_contribution_indices
        monkeypatch.setattr(
            selection, "min_contribution_indices", lambda pts, r: calls.append(pts) or real(pts, r)
        )
        sel = selector((0, 3), (1, 1), (3, 0), (1, 1), (2, 2))
        for s in range(20):
            removed = choose(sel, np.random.default_rng(s), [0, 1, 3, 4])
            assert slot_vectors(sel)[removed] == (1, 1)
        assert calls == []
        removed = choose(sel, np.random.default_rng(0), [0, 1, 2])
        assert (slot_vectors(sel)[removed], calls) == ((1, 1), [[(0, 3), (1, 1), (3, 0)]])

    def test_stochastic_can_spare_the_worst(self):
        # the strictly dominated member survives whenever unsampled
        sel = selector((2, 2), (0, 0), (3, 3), (1, 3))
        spared = 0
        for s in range(300):
            rng = np.random.default_rng(s)
            spared += choose(sel, rng, half_sample(rng, 4)) != 1
        assert spared > 100


class TestSteadyStateSelector:
    def test_matches_reference_choice_distribution(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            size = int(rng.integers(2, 10))
            pts = [tuple(map(int, rng.integers(0, 6, size=m))) for _ in range(size)]
            sel = SteadyStateSelector(pts[:-1], ValueIndex(m))
            sel.set_offspring(pts[-1])
            for s in range(40):
                a = choose(sel, np.random.default_rng(s))
                b = select_removal_index(pts, np.random.default_rng(s))
                assert a == b

    def test_matches_reference_on_sampled_subset(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            size = int(rng.integers(3, 10))
            pts = [tuple(map(int, rng.integers(0, 6, size=m))) for _ in range(size)]
            sel = SteadyStateSelector(pts[:-1], ValueIndex(m))
            sel.set_offspring(pts[-1])
            sub = rng.integers(0, size, size=max(1, size // 2)).tolist()
            for s in range(30):
                a = choose(sel, np.random.default_rng(s), sub)
                # the reference returns the index in the full list already
                b = select_removal_index(pts, np.random.default_rng(s), sub)
                assert a == b

    def test_setup_matches_definitions(self):
        rng = np.random.default_rng(5)
        seen_dup = seen_dominated = 0
        for m in range(2, 9):
            for _ in range(12):
                size = int(rng.integers(2, 14))
                # drawing slots from a small pool of vectors makes duplicates
                # and dominated members common
                pool = [tuple(map(int, rng.integers(0, 4, size=m))) for _ in range(size // 2 + 1)]
                pts = [pool[int(rng.integers(len(pool)))] for _ in range(size)]
                sel = SteadyStateSelector(pts, ValueIndex(m))
                # every member is indexed and live; slot ``size`` starts free
                assert set(sel.index.vecs) == set(pts) and sel.free == size
                assert_index_definitions(sel, (1 << size) - 1)
                seen_dup += sel.dups != []
                seen_dominated += sel.index.dominated != 0
        assert seen_dup > 20 and seen_dominated > 20

    def test_incremental_state_matches_rebuild(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            m = int(rng.integers(2, 5))
            size = int(rng.integers(3, 9))
            pts = [tuple(map(int, rng.integers(0, 4, size=m))) for _ in range(size)]
            sel = SteadyStateSelector(pts[:-1], ValueIndex(m))
            everyone = (1 << size) - 1
            inserted = dict.fromkeys(pts[:-1])
            for _ in range(20):
                # offspring values above the initial maximum grow the tables
                offspring = tuple(map(int, rng.integers(0, 7, size=m)))
                present = slot_vectors(sel)
                del present[sel.free]
                # a birth: no other slot holds the offspring's vector
                assert sel.set_offspring(offspring) == (offspring not in present)
                # each distinct vector keeps the id it was first given
                inserted.setdefault(offspring)
                assert sel.index.vecs == list(inserted)
                # with the offspring installed, every slot is a member
                assert_index_definitions(sel, everyone)
                # a fresh build from the members indexes the same members;
                # ids may be numbered differently, and a grown table may
                # keep entries past the current maximum
                fresh = SteadyStateSelector(slot_vectors(sel), ValueIndex(m))
                width = [len(col) for col in fresh.index.at]
                assert live_index(sel, width) == live_index(fresh, width)
                removed = choose(sel, rng)
                vector = slot_vectors(sel)[removed]
                gone = sel.commit_removal(removed)
                rest = slot_vectors(sel)
                del rest[sel.free]
                # a death: no remaining slot holds the removed vector
                assert gone == (None if vector in rest else vector)
                # the freed slot holds no member any more
                assert_index_definitions(sel, everyone & ~(1 << sel.free))

    def test_dead_ids_are_revived_not_reused(self):
        sel = SteadyStateSelector([(1, 1), (0, 2), (0, 2)], ValueIndex(2))
        index = sel.index

        def dup_slots():
            return sum(1 << s for s in sel.dups)

        assert (sel.live, dup_slots(), sel.free) == (0b11, 0b110, 3)
        assert sel.set_offspring((2, 0)) is True  # a new vector is born
        assert sel.commit_removal(3) == (2, 0)  # no other slot holds (2, 0): id 2 dies
        assert index.ids == {(1, 1): 0, (0, 2): 1, (2, 0): 2}
        assert (sel.live, dup_slots()) == (0b011, 0b110)

        def tables():
            return [list(col) for col in index.at], list(index.strict), index.dominated

        before = tables()
        assert sel.set_offspring((0, 2)) is False  # a live vector gains a slot
        assert (sel.vid[3], sel.slots[1], dup_slots(), tables()) == (1, 0b1110, 0b1110, before)
        assert sel.commit_removal(0) == (1, 1)  # (1, 1) has no other holder: id 0 dies
        assert (sel.live, sel.slots[0], sel.free) == (0b010, 0, 0)

        assert sel.set_offspring((3, 0)) is True  # a new vector takes id len(vecs), not a dead id
        assert index.vecs == [(1, 1), (0, 2), (2, 0), (3, 0)] and sel.vid[0] == 3
        assert index.ids[(1, 1)] == 0 and index.ids[(2, 0)] == 2  # dead ids keep their vectors
        assert len(index.at[0]) == 4  # coordinate 3 grows the tables
        assert index.dominated == 0b0100  # the dead (2, 0) gains a strict dominator
        assert_index_definitions(sel, 0b1111)

        assert sel.commit_removal(3) is None  # (0, 2) keeps two slots
        assert (sel.live, dup_slots()) == (0b1010, 0b0110)
        before = tables()
        assert sel.set_offspring((2, 0)) is True  # revives id 2 in place
        assert (sel.vid[3], sel.live, tables()) == (2, 0b1110, before)
        assert_index_definitions(sel, 0b1111)

        assert sel.commit_removal(1) is None  # (0, 2) keeps slot 2
        assert (sel.live, dup_slots()) == (0b1110, 0)
        assert sel.set_offspring((1, 3)) is True  # the dead id 0 stays (1, 1): a fresh id
        assert index.vecs == [(1, 1), (0, 2), (2, 0), (3, 0), (1, 3)] and sel.vid[1] == 4
        assert index.dominated == 0b00111
        assert_index_definitions(sel, 0b1111)
        for s in range(20):
            # the last front {(0, 2), (2, 0)} is decided by hypervolume
            assert choose(sel, np.random.default_rng(s)) == select_removal_index(
                slot_vectors(sel), np.random.default_rng(s)
            )

    def test_construction_makes_no_public_insert(self, monkeypatch):
        # a tracer of set_offspring counts one call per iteration, so the
        # constructor enters its members, duplicates too, another way
        calls = []
        real = SteadyStateSelector.set_offspring

        def counted(self, obj):
            calls.append(obj)
            return real(self, obj)

        monkeypatch.setattr(SteadyStateSelector, "set_offspring", counted)
        members = [(0, 2), (1, 1), (0, 2), (2, 0), (1, 1)]
        sel = SteadyStateSelector(members, ValueIndex(2))
        assert calls == []
        rng = np.random.default_rng(0)
        offspring = [(3, 0), (0, 2), (1, 1), (0, 4)]
        for k, obj in enumerate(offspring, 1):
            sel.set_offspring(obj)
            assert calls == offspring[:k]
            sel.commit_removal(choose(sel, rng))

    def test_owns_the_slot_vectors(self):
        # the caller's list is neither kept nor written: the selector is the
        # one record of each slot's vector
        members = [(0, 2), (2, 0), (1, 1)]
        sel = SteadyStateSelector(members, ValueIndex(2))
        assert all(getattr(sel, name) is not members for name in SteadyStateSelector.__slots__)
        sel.set_offspring((0, 0))
        assert members == [(0, 2), (2, 0), (1, 1)] and sel.free == 3
        members[0] = (5, 5)
        removed = choose(sel, np.random.default_rng(0))
        assert removed == 3 and sel.commit_removal(removed) == (0, 0)
        # a removal that leaves its vector present returns None
        sel.set_offspring((1, 1))
        assert sel.commit_removal(2) is None
        assert slot_vectors(sel)[:2] + slot_vectors(sel)[3:] == [(0, 2), (2, 0), (1, 1)]

    def test_reference_point_is_all_minus_one(self):
        # the removal on this last front depends on the reference point:
        # (0, 6) contributes least at (-1, -1), (0, 6) and (2, 3) tie at
        # (-2, -2), and (2, 3) contributes least at (-10, -10)
        members = [(0, 6), (2, 3)]
        sel = SteadyStateSelector(members, ValueIndex(2))
        sel.set_offspring((6, 0))
        assert default_reference_point(2) == (-1, -1)
        for s in range(10):
            assert choose(sel, np.random.default_rng(s)) == 0
            assert select_removal_index(members + [(6, 0)], np.random.default_rng(s)) == 0

    def test_keeps_no_reference_point(self):
        # the point is a constant of m, computed where a hypervolume needs it
        sel = SteadyStateSelector([(0, 2), (2, 0)], ValueIndex(2))
        assert "r" not in SteadyStateSelector.__slots__ and not hasattr(sel, "r")

    def test_negative_objective_values_rejected(self):
        # the value index is addressed by objective value
        with pytest.raises(ValueError, match=">= 0"):
            SteadyStateSelector([(0, 2), (-1, 3), (2, 0)], ValueIndex(2))
        sel = selector((0, 2), (2, 0), (1, 1))
        sel.commit_removal(1)
        # a second selector on the shared index sees every rejection too
        other = SteadyStateSelector([(2, 0), (0, 2)], sel.index)

        before = fields(sel), fields(other)
        with pytest.raises(ValueError, match=">= 0"):
            sel.set_offspring((3, -1))
        with pytest.raises(ValueError, match=">= 0"):
            SteadyStateSelector([(0, 2), (-1, 3), (2, 0)], sel.index)
        assert (fields(sel), fields(other)) == before

    def test_wrong_objective_count_rejected(self):
        # zip would index a short or long vector by its truncated coordinates
        for members in ([(0, 2), (2, 0, 5), (1, 1)], [(0, 2), (1, 1), (2,)]):
            with pytest.raises(ValueError, match="does not have 2 objectives"):
                SteadyStateSelector(members, ValueIndex(2))
        sel = SteadyStateSelector([(0, 2), (2, 0), (1, 1)], ValueIndex(2))
        other = SteadyStateSelector([(1, 1), (1, 1)], sel.index)
        before = fields(sel), fields(other)
        with pytest.raises(ValueError, match="does not have 2 objectives"):
            sel.set_offspring((1,))
        assert (fields(sel), fields(other)) == before
        sel.set_offspring((1, 1))
        sel.commit_removal(1)
        before = fields(sel), fields(other)
        with pytest.raises(ValueError, match="does not have 2 objectives"):
            sel.set_offspring((3, 3, 3))
        with pytest.raises(ValueError, match="does not have 2 objectives"):
            SteadyStateSelector([(0, 2), (3, 3, 3)], sel.index)
        assert (fields(sel), fields(other)) == before

    def test_two_selectors_on_one_index(self):
        index = ValueIndex(3)
        a = SteadyStateSelector([(0, 2, 1), (1, 1, 1), (0, 2, 1)], index)
        # b enters (2, 0, 0), (3, 0, 0) and then (0, 0, 3) after a last grew
        b = SteadyStateSelector([(2, 0, 0), (3, 0, 0), (1, 1, 1)], index)
        assert b.set_offspring((0, 0, 3)) is True
        assert index.vecs == [(0, 2, 1), (1, 1, 1), (2, 0, 0), (3, 0, 0), (0, 0, 3)]
        assert len(a.slots) == 2
        # a meets id 2, given out by b: its slot list grows to the index
        assert a.set_offspring((2, 0, 0)) is True
        assert len(a.slots) == 5 and a.vid[3] == 2
        # a's population is an antichain with duplicates, but (2, 0, 0) has
        # a strict dominator in b's, so a goes round the antichain shortcut
        # and must still remove a duplicate
        assert a.live & index.dominated == 0b100 and a.dups == [0, 2]
        pops = {a: [(0, 2, 1), (1, 1, 1), (0, 2, 1), (2, 0, 0)]}
        pops[b] = [(2, 0, 0), (3, 0, 0), (1, 1, 1), (0, 0, 3)]

        rng = np.random.default_rng(11)
        pool = [tuple(map(int, rng.integers(0, 5, size=3))) for _ in range(12)]
        for step in range(80):
            sel = (a, b)[step % 2]
            pop = pops[sel]
            assert_index_definitions(sel, (1 << len(pop)) - 1)
            sample = None
            if step % 4 >= 2:
                sample = rng.integers(len(pop), size=len(pop) // 2).tolist()
            seed = int(rng.integers(2**32))
            removed = choose(sel, np.random.default_rng(seed), sample)
            expected = select_removal_index(pop, np.random.default_rng(seed), sample)
            assert removed == expected, f"step {step}"
            sel.commit_removal(removed)
            assert_index_definitions(sel, (1 << len(pop)) - 1 & ~(1 << removed))
            pop[removed] = pool[int(rng.integers(len(pool)))]
            sel.set_offspring(pop[removed])
        for sel, pop in pops.items():
            assert slot_vectors(sel) == pop
            assert_index_definitions(sel, (1 << len(pop)) - 1)

    @settings(max_examples=140, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_long_sequences_match_oracle(self, data):
        m = data.draw(st.integers(2, 8), label="m")
        # the oracle's leave-one-out hypervolume grows fast with m; past
        # m=5 small coordinates and at most 12 vectors keep it cheap
        size = data.draw(st.integers(3, 12 if m >= 6 else 20), label="size")
        vec = st.tuples(*[st.integers(0, 3 if m >= 6 else 5)] * m)
        pop = data.draw(st.lists(vec, min_size=size, max_size=size), label="population")
        sampled = data.draw(st.booleans(), label="sampled")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        sel = SteadyStateSelector(pop[:-1], ValueIndex(m))
        sel.set_offspring(pop[-1])
        sel_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(40):
            sample = None
            if sampled:
                sample = data.draw(
                    st.lists(st.integers(0, size - 1), min_size=size // 2, max_size=size // 2)
                )
            a = choose(sel, sel_rng, sample)
            b = select_removal_index(pop, ref_rng, sample)
            assert a == b, f"step {step}"
            sel.commit_removal(a)
            pop[a] = data.draw(vec)
            sel.set_offspring(pop[a])
        assert sel_rng.bit_generator.state == ref_rng.bit_generator.state
