"""Mutation operators.

Standard bit-wise mutation flips every bit independently at rate 1/n.  The
heavy-tailed variant first draws a strength alpha from a power law with
exponent beta on [1..n/2] (anew on every call) and then flips each bit at
rate alpha/n, which makes multi-bit jumps polynomially instead of
exponentially unlikely.

Exact flip-set probabilities for both operators are provided as analytic
oracles for the statistical tests.

The run path's scalar draws skip numpy's per-call overhead: they call the
bit generator through its ctypes interface and apply numpy's own algorithm,
so they return the same numbers from the same words as ``Generator.integers``
and ``Generator.random``, and leave the stream in the same state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class PowerLawDistribution:
    """Power law on [1..n/2]: Pr[alpha = i] proportional to i^(-beta)."""

    def __init__(self, n: int, beta: float):
        if n < 2:
            raise ValueError(f"power-law support [1..n/2] is empty for n={n}")
        if beta <= 1:
            raise ValueError(f"exponent beta must exceed 1, got {beta}")
        self.n = n
        self.beta = beta
        self.support_max = n // 2
        raw = [i ** (-beta) for i in range(1, self.support_max + 1)]
        self.normalizer = math.fsum(raw)
        self._pmf = np.array(raw) / self.normalizer
        self._cdf = np.cumsum(self._pmf).tolist()

    def pmf(self, i: int) -> float:
        if not 1 <= i <= self.support_max:
            return 0.0
        return float(self._pmf[i - 1])

    def pmf_array(self) -> np.ndarray:
        return self._pmf.copy()

    def sample(self, rng: np.random.Generator) -> int:
        """One alpha from one ``rng.random()`` draw."""
        ct = rng.bit_generator.ctypes
        return bisect_right(self._cdf, ct.next_double(ct.state)) + 1

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.searchsorted(self._cdf, rng.random(size), side="right") + 1


@lru_cache(maxsize=None)
def power_law(n: int, beta: float) -> PowerLawDistribution:
    """Cached distribution; the normalizer is computed once per (n, beta)."""
    return PowerLawDistribution(n, beta)


def uniform_below(rng: np.random.Generator, high: int) -> int:
    """``int(rng.integers(high))`` for 1 <= high <= 2**32: the same number,
    drawn from the same 32-bit words.

    numpy draws such a range by Lemire's multiply-and-reject on
    ``next_uint32`` (for high = 2**32 the product's high word is the word
    itself), and a range of one value draws nothing.
    """
    if not 1 <= high <= 1 << 32:
        raise ValueError(f"high must lie in 1..2**32, got {high}")
    if high == 1:
        return 0
    ct = rng.bit_generator.ctypes
    next_uint32, state = ct.next_uint32, ct.state
    m = next_uint32(state) * high
    if m & 0xFFFFFFFF < high:
        threshold = ((1 << 32) - high) % high
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32(state) * high
    return m >> 32


def _flip_mask(n: int, rate: float, rng: np.random.Generator) -> int:
    """Random flip set: each position independently with probability rate.

    Sampled as (binomial count, uniform subset), which is distributionally
    identical to n independent coin flips but cheaper for small rates.
    """
    count = int(rng.binomial(n, rate))
    if count == 0:
        return 0
    if count == 1:
        return 1 << uniform_below(rng, n)
    mask = 0
    remaining = count
    while remaining:  # rejection sampling; cheap for the small counts seen here
        bit = 1 << uniform_below(rng, n)
        if not mask & bit:
            mask |= bit
            remaining -= 1
    return mask


@dataclass(frozen=True, slots=True)
class MutationOperator:
    """Pluggable mutation: kind "standard" or "heavy_tailed" (with beta)."""

    kind: str = "standard"
    beta: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in ("standard", "heavy_tailed"):
            raise ValueError(f"unknown mutation kind {self.kind!r}")
        if self.kind == "heavy_tailed":
            if self.beta is None or self.beta <= 1:
                raise ValueError(f"heavy-tailed mutation needs beta > 1, got {self.beta}")
        elif self.beta is not None:
            raise ValueError("beta is only meaningful for heavy-tailed mutation")

    def mutate_mask(self, mask: int, n: int, rng: np.random.Generator) -> int:
        """Mutated copy of a packed genome of length n."""
        if self.kind == "standard":
            return mask ^ _flip_mask(n, 1.0 / n, rng)
        alpha = power_law(n, self.beta).sample(rng)
        return mask ^ _flip_mask(n, alpha / n, rng)


def standard_flip_probability(n: int, flips: int) -> float:
    """Exact probability that standard mutation flips one specific set of
    ``flips`` positions and nothing else."""
    return (1.0 / n) ** flips * (1.0 - 1.0 / n) ** (n - flips)


def heavy_tailed_flip_probability(n: int, beta: float, flips: int) -> float:
    """Exact probability that heavy-tailed mutation flips one specific set of
    ``flips`` positions and nothing else (analytic sum over alpha)."""
    d = power_law(n, beta)
    total = 0.0
    for i in range(1, d.support_max + 1):
        rate = i / n
        total += d.pmf(i) * rate**flips * (1.0 - rate) ** (n - flips)
    return total
