"""Dominance relations on objective vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from emoabench.core import dominates, incomparable, weakly_dominates

vectors = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((2, 3), (1, 3))
        assert not dominates((2, 3), (2, 3))
        assert not dominates((1, 3), (2, 3))

    def test_weak_dominance_reflexive(self):
        assert weakly_dominates((2, 3), (2, 3))

    def test_incomparable_pair(self):
        assert incomparable((1, 2), (2, 1))
        assert not incomparable((1, 2), (1, 2))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            weakly_dominates((1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))

    @given(vectors, vectors)
    def test_trichotomy(self, u, v):
        if len(u) != len(v):
            return
        u, v = tuple(u), tuple(v)
        relations = [
            u == v,
            dominates(u, v),
            dominates(v, u),
            incomparable(u, v),
        ]
        assert sum(relations) == 1

    @given(vectors)
    def test_weak_dominance_antisymmetric_up_to_equality(self, u):
        u = tuple(u)
        v = tuple(x + 1 for x in u)
        assert weakly_dominates(v, u)
        assert not weakly_dominates(u, v)

    @given(vectors, vectors, vectors)
    def test_weak_dominance_transitive(self, a, b, c):
        k = min(len(a), len(b), len(c))
        a, b, c = tuple(a[:k]), tuple(b[:k]), tuple(c[:k])
        if weakly_dominates(a, b) and weakly_dominates(b, c):
            assert weakly_dominates(a, c)

