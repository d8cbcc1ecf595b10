"""Search-space and objective-space primitives.

Genomes are bit strings packed in a Python integer: bit ``i`` of the mask is
position ``i+1`` of the string, so the string reads from the low bits up.
Objective vectors are plain tuples of ints; all benchmarks in this package
are integer-valued, so dominance and hypervolume logic never touch floating
point.
"""

from __future__ import annotations

from typing import Sequence

ObjectiveVector = tuple[int, ...]


def _check_same_length(u: Sequence[int], v: Sequence[int]) -> None:
    if len(u) != len(v):
        raise ValueError(f"objective vectors differ in length: {len(u)} vs {len(v)}")


def weakly_dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff u_i >= v_i for all i."""
    _check_same_length(u, v)
    return all(a >= b for a, b in zip(u, v))


def dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """Strict Pareto dominance: u >= v everywhere and > somewhere."""
    _check_same_length(u, v)
    strict = False
    for a, b in zip(u, v):
        if a < b:
            return False
        if a > b:
            strict = True
    return strict


def incomparable(u: Sequence[int], v: Sequence[int]) -> bool:
    """Neither vector weakly dominates the other."""
    return not weakly_dominates(u, v) and not weakly_dominates(v, u)

