"""Benchmark evaluators and closed-form Pareto structure.

Implements the block-based many-objective jump benchmark (``mojzj``), its
gap-1 relative ``momm``, and the classic bi-objective OneMinMax and LOTZ.
All are maximization problems with non-negative integer objectives.

For ``mojzj`` the n bits split into m/2 blocks of length n' = 2n/m; block i
drives the objective pair (f_{2i-1}, f_{2i}) via the jump function applied
to the block and to its complement.  The Pareto front has the closed form
generated by :meth:`ProblemInstance.pareto_front`, of size (n' - 2k + 3)^(m/2).

A block's objective pair depends only on its ones-count, so each mojzj and
momm instance tabulates the n'+1 possible pairs once and
:meth:`ProblemInstance.evaluate_mask` reads one entry per block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .core import ObjectiveVector

# each kind's problem-spec parameters, in the order ``str`` writes them
PARAMS = {"mojzj": ("n", "m", "k"), "momm": ("n", "m"), "omm": ("n",), "lotz": ("n",)}
KINDS = tuple(PARAMS)


def jump_value(ones: int, nprime: int, k: int) -> int:
    """Jump fitness of a length-nprime string with the given number of ones."""
    if ones <= nprime - k or ones == nprime:
        return k + ones
    return nprime - ones


@dataclass(frozen=True, slots=True)
class FrontDescriptor:
    """The Pareto front as an explicit set of objective vectors."""

    points: frozenset[ObjectiveVector]

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    """Benchmark identity plus parameters; evaluators are pure methods.

    kind: one of "mojzj", "momm", "omm", "lotz".
    k is the gap size and only meaningful for mojzj.
    For mojzj and momm, ``_pair_table[c]`` is the objective pair of a block
    with c ones; it is derived from the parameters, so it takes no part in
    equality, hashing or repr.
    """

    kind: str
    n: int
    m: int
    k: int | None = None
    _pair_table: tuple[tuple[int, int], ...] | None = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"problem size must be positive, got n={self.n}")
        if self.kind in ("mojzj", "momm"):
            if self.m < 2 or self.m % 2 != 0:
                raise ValueError(f"m must be a positive even integer, got m={self.m}")
            if (2 * self.n) % self.m != 0:
                raise ValueError(f"n={self.n} must be a multiple of m/2={self.m // 2}")
        else:
            if self.m != 2:
                raise ValueError(f"{self.kind} is bi-objective; got m={self.m}")
        if self.kind == "mojzj":
            if self.k is None or not 1 <= self.k <= self.nprime // 2:
                raise ValueError(
                    f"gap size k={self.k} out of range [1..{self.nprime // 2}] "
                    f"for block length n'={self.nprime}"
                )
        elif self.k is not None:
            raise ValueError(f"k is only valid for mojzj, not {self.kind}")
        np_, k = self.nprime, self.k
        if self.kind == "mojzj":
            table = tuple(
                (jump_value(c, np_, k), jump_value(np_ - c, np_, k)) for c in range(np_ + 1)
            )
        elif self.kind == "momm":
            table = tuple((np_ - c, c) for c in range(np_ + 1))
        else:
            table = None
        object.__setattr__(self, "_pair_table", table)

    @property
    def nprime(self) -> int:
        """Block length 2n/m (equals n for the bi-objective benchmarks)."""
        return 2 * self.n // self.m

    # -- constructors ------------------------------------------------------

    @classmethod
    def mojzj(cls, n: int, m: int, k: int) -> "ProblemInstance":
        return cls("mojzj", n, m, k)

    @classmethod
    def momm(cls, n: int, m: int) -> "ProblemInstance":
        return cls("momm", n, m)

    @classmethod
    def oneminmax(cls, n: int) -> "ProblemInstance":
        return cls("omm", n, 2)

    @classmethod
    def lotz(cls, n: int) -> "ProblemInstance":
        return cls("lotz", n, 2)

    # -- evaluation --------------------------------------------------------

    def block_ones(self, mask: int) -> list[int]:
        """Per-block popcounts of a packed genome."""
        np_ = self.nprime
        bm = (1 << np_) - 1
        return [((mask >> (i * np_)) & bm).bit_count() for i in range(self.m // 2)]

    def evaluate_mask(self, mask: int) -> ObjectiveVector:
        """Objective vector of a packed genome of n bits.

        mojzj and momm take one step per block: shift, popcount, and look up
        the block's objective pair in the instance's table.
        """
        n = self.n
        if mask >> n:  # also catches a negative mask
            raise ValueError(f"genome {mask:#x} does not fit in n={n} bits")
        table = self._pair_table
        if table is not None:
            np_ = 2 * n // self.m
            low = (1 << np_) - 1
            out: ObjectiveVector = ()
            for shift in range(0, n, np_):
                out += table[(mask >> shift & low).bit_count()]
            return out
        ones = mask.bit_count()
        if self.kind == "omm":
            return (self.n - ones, ones)
        # lotz: leading ones = trailing set bits of the mask, trailing zeros =
        # clear bits above the highest set bit
        leading = ((mask ^ (mask + 1)).bit_length() - 1)
        trailing = self.n - mask.bit_length()
        return (min(leading, self.n), trailing if mask else self.n)

    @lru_cache(maxsize=None)
    def pareto_front(self) -> FrontDescriptor:
        """The front as every combination of one Pareto-optimal objective
        pair per block; omm and lotz are the one-block case {(i, n - i)}."""
        np_, k = self.nprime, self.k
        if self.kind == "mojzj":
            # attainable Pareto-optimal first-objective values per block
            pairs = [(a, np_ + 2 * k - a) for a in {k, np_ + k, *range(2 * k, np_ + 1)}]
        else:
            pairs = [(np_ - c, c) for c in range(np_ + 1)]
        return FrontDescriptor(frozenset(
            tuple(v for pair in combo for v in pair)
            for combo in itertools.product(pairs, repeat=self.m // 2)
        ))

    def __str__(self) -> str:
        return f"{self.kind}:" + ",".join(f"{p}={getattr(self, p)}" for p in PARAMS[self.kind])


def _require_mojzj(inst: ProblemInstance) -> None:
    if inst.kind != "mojzj":
        raise ValueError(f"operation defined for mojzj instances only, got {inst.kind}")


def is_pareto_optimal(mask: int, inst: ProblemInstance) -> bool:
    """Block characterization: every block count in [k..n'-k] or extreme."""
    _require_mojzj(inst)
    np_, k = inst.nprime, inst.k
    return all(c in (0, np_) or k <= c <= np_ - k for c in inst.block_ones(mask))


def is_inner_pareto_optimum(mask: int, inst: ProblemInstance) -> bool:
    """Pareto optimum with no all-zero or all-one block."""
    _require_mojzj(inst)
    np_, k = inst.nprime, inst.k
    return all(k <= c <= np_ - k for c in inst.block_ones(mask))


def inner_level(mask: int, inst: ProblemInstance) -> int:
    """Number of blocks whose ones-count lies in [k..n'-k]."""
    _require_mojzj(inst)
    np_, k = inst.nprime, inst.k
    return sum(1 for c in inst.block_ones(mask) if k <= c <= np_ - k)


def incomparable_family(nprime: int, count: int) -> list[int]:
    """Pairwise-incomparable witnesses for the 4-objective, k = n'/2 instance.

    Member i is 1^i 0^(n'-i) 1^(n'/2+i) 0^(n'/2-i) and has objective value
    (k+i, i, n'/2-i, k+n'/2-i), so any two members are incomparable.  Shows
    that the largest incomparable set can be far bigger than the Pareto front.
    """
    if nprime < 2 or nprime % 2 != 0:
        raise ValueError(f"block length n'={nprime} must be even and >= 2")
    k = nprime // 2
    if not 1 <= count <= k - 1:
        raise ValueError(f"count={count} out of range [1..{k - 1}]")
    return [((1 << i) - 1) | (((1 << (k + i)) - 1) << nprime) for i in range(1, count + 1)]


def incomparable_family_instance(nprime: int) -> ProblemInstance:
    """The instance the incomparable family lives on: n = 2n', m = 4, k = n'/2."""
    return ProblemInstance.mojzj(2 * nprime, 4, nprime // 2)


def parse_problem(spec: str) -> ProblemInstance:
    """Parse a problem spec string.

    Grammar: ``mojzj:n=<int>,m=<int>,k=<int>`` | ``momm:n=<int>,m=<int>`` |
    ``omm:n=<int>`` | ``lotz:n=<int>``.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in PARAMS:
        raise ValueError(f"unknown problem kind {kind!r} in spec {spec!r}")
    expected = PARAMS[kind]
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key in params or key not in expected:
                raise ValueError(f"bad parameter {part!r} in spec {spec!r}")
            try:
                params[key] = int(val)
            except ValueError:
                raise ValueError(f"bad integer {val!r} in spec {spec!r}") from None
    if len(params) != len(expected):
        raise ValueError(
            f"problem {kind!r} needs parameters {list(expected)}, got {sorted(params)}"
        )
    return ProblemInstance(kind, params["n"], params.get("m", 2), params.get("k"))
