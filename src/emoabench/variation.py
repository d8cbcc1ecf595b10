"""Mutation operators.

Standard bit-wise mutation flips every bit independently at rate 1/n.  The
heavy-tailed variant first draws a strength alpha from a power law with
exponent beta on [1..n/2] (anew on every call) and then flips each bit at
rate alpha/n, which makes multi-bit jumps polynomially instead of
exponentially unlikely.

Exact flip-set probabilities for both operators are provided as analytic
oracles for the statistical tests.

The run path draws through :class:`Draws`, which fetches PCG64's raw 64-bit
words in blocks and decodes numpy's own algorithms from them in Python: the
same numbers as ``Generator.integers``, ``Generator.random`` and
``Generator.binomial`` from the same words, in the same order, and the same
generator state on exit, without a call into numpy per draw.
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

    def sample(self, draws: Draws | np.random.Generator) -> int:
        """One alpha from one ``random()`` draw."""
        return bisect_right(self._cdf, draws.random()) + 1


@lru_cache(maxsize=None)
def power_law(n: int, beta: float) -> PowerLawDistribution:
    """Cached distribution; the normalizer is computed once per (n, beta)."""
    return PowerLawDistribution(n, beta)


_BLOCK = 512  # raw words fetched per bit-generator call


def _inversion_constants(n: int, p: float) -> tuple[float, float, int] | None:
    """numpy's constants (q, qn, bound) for drawing Binomial(n, p) by
    inversion, or None where numpy draws it another way (or draws nothing,
    or raises)."""
    if not (n > 0 and 0.0 < p <= 0.5 and p * n <= 30.0):
        return None
    q = 1.0 - p
    np_ = n * p
    return q, math.exp(n * math.log(q)), int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))


class Draws:
    """numpy's draws from a PCG64 ``Generator``, decoded in Python from raw
    64-bit words that are fetched in blocks.

    Each method returns what the ``Generator`` call it names would return at
    this point of the stream, from the same words in the same order.  On
    leaving the ``with`` block the generator is left exactly where those
    numpy calls would have left it, even when the block raises; inside it,
    draw only through this object.  A different bit generator would give a
    different stream, so the constructor rejects it.
    """

    __slots__ = (
        "_rng", "_bg", "_constants", "_start", "_base", "_block", "_halves", "_words", "_pos",
        "_end", "_has", "_half",
    )

    def __init__(self, rng: np.random.Generator):
        bg = rng.bit_generator
        if not isinstance(bg, np.random.PCG64):
            raise ValueError(
                f"runs take a PCG64 generator, as numpy.random.default_rng gives; "
                f"got {type(bg).__name__}"
            )
        self._rng = rng
        self._bg = bg
        self._constants: dict[tuple[int, float], tuple[float, float, int] | None] = {}

    def __enter__(self) -> Draws:
        self._open()
        return self

    def __exit__(self, *exc) -> None:
        self._close()

    def _open(self) -> None:
        state = self._bg.state
        self._start = state
        # PCG64's next_uint32 hands out the high half of a word on the call
        # after its low half; the state keeps that half after it is used
        self._has = bool(state["has_uint32"])
        self._half = state["uinteger"]
        self._base = self._pos = self._end = 0  # the first draw fetches

    def _close(self) -> None:
        bg = self._bg
        bg.state = self._start
        bg.advance(self._base + self._pos)  # clears the half-word buffer
        state = bg.state
        state["has_uint32"] = int(self._has)
        state["uinteger"] = self._half
        bg.state = state

    def _fetch(self, keep: int) -> int:
        """Drop the block's words before ``keep``, append a fresh block and
        return the position in the new one."""
        raw = self._bg.random_raw(_BLOCK)
        if keep < self._end:
            raw = np.concatenate((self._block[keep:], raw))
        self._base += keep
        self._pos -= keep
        self._block = raw
        # low half first, as next_uint32 hands them out, on any byte order
        self._halves = raw.astype("<u8", copy=False).view("<u4")
        self._words = raw.tolist()
        self._end = len(raw)
        return self._pos

    def below(self, high: int) -> int:
        """``int(integers(high))`` for 1 <= high <= 2**32.

        numpy draws such a range by Lemire's multiply-and-reject on
        ``next_uint32`` (for high = 2**32 the product's high word is the
        word itself), and a range of one value draws nothing.
        """
        if not 1 < high <= 1 << 32:
            if high == 1:
                return 0
            raise ValueError(f"high must lie in 1..2**32, got {high}")
        while True:
            if self._has:
                self._has = False
                m = self._half * high
            else:
                pos = self._pos
                if pos == self._end:
                    pos = self._fetch(pos)
                word = self._words[pos]
                self._pos = pos + 1
                self._has = True
                self._half = word >> 32
                m = (word & 0xFFFFFFFF) * high
            low = m & 0xFFFFFFFF
            if low >= high or low >= ((1 << 32) - high) % high:
                return m >> 32

    def random(self) -> float:
        """``random()``: the top 53 bits of one word; the half-word buffer
        is left alone."""
        pos = self._pos
        if pos == self._end:
            pos = self._fetch(pos)
        self._pos = pos + 1
        return (self._words[pos] >> 11) * 2.0**-53

    def binomial(self, n: int, p: float) -> int:
        """``binomial(n, p)``: numpy's inversion loop where numpy uses it,
        else numpy's own call on the generator brought up to date."""
        constants = self._constants.get((n, p), False)
        if constants is False:
            constants = self._constants[n, p] = _inversion_constants(n, p)
        if constants is None:
            self._close()
            x = int(self._rng.binomial(n, p))
            self._open()
            return x
        q, qn, bound = constants
        while True:
            pos = self._pos  # one random(), inlined
            if pos == self._end:
                pos = self._fetch(pos)
            self._pos = pos + 1
            u = (self._words[pos] >> 11) * 2.0**-53
            x = 0
            px = qn
            while u > px:
                x += 1
                if x > bound:
                    break  # past numpy's bound: start over from a fresh uniform
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
            else:
                return x

    def sample(self, high: int, size: int) -> list[int]:
        """``integers(high, size=size).tolist()``, for 2 <= high <= 2**32.

        numpy fills the array by the same rejection loop as :meth:`below`.
        The values after a buffered half-word come from consecutive words,
        so they are decoded at once from the block's 32-bit halves; a
        rejection, which is rare for small ``high``, redraws in place, and
        then the whole sample is drawn value by value.
        """
        if not 1 < high <= 1 << 32:
            raise ValueError(f"high must lie in 2..2**32, got {high}")
        values = []
        while size and self._has:
            values.append(self.below(high))
            size -= 1
        if not size:
            return values
        words = (size + 1) // 2
        pos = self._pos
        while pos + words > self._end:
            pos = self._fetch(pos)
        m = self._halves[2 * pos : 2 * pos + size] * np.uint64(high)
        if int(m.astype(np.uint32).min()) < ((1 << 32) - high) % high:
            return values + [self.below(high) for _ in range(size)]
        self._pos = pos + words
        # an odd count leaves the last word's high half buffered; an even
        # one used it, and the state keeps it either way
        self._has = bool(size & 1)
        self._half = self._words[pos + words - 1] >> 32
        return values + (m >> 32).tolist()


def _flip_mask(n: int, rate: float, draws: Draws) -> int:
    """Random flip set: each position independently with probability rate.

    Sampled as (binomial count, uniform subset), which is distributionally
    identical to n independent coin flips but cheaper for small rates.
    """
    count = draws.binomial(n, rate)
    if count == 0:
        return 0
    if count == 1:
        return 1 << draws.below(n)
    mask = 0
    remaining = count
    while remaining:  # rejection sampling; cheap for the small counts seen here
        bit = 1 << draws.below(n)
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

    def mutate_mask(self, mask: int, n: int, draws: Draws) -> int:
        """Mutated copy of a packed genome of length n."""
        if self.kind == "standard":
            return mask ^ _flip_mask(n, 1.0 / n, draws)
        alpha = power_law(n, self.beta).sample(draws)
        return mask ^ _flip_mask(n, alpha / n, draws)


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
