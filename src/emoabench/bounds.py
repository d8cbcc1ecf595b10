"""Closed-form expected-iteration upper bounds for the runtime experiments.

Each bound is the exact closed form proven for the corresponding algorithm
variant, evaluated at the instance parameters:

- "sms":   e*mu*(m*k/2)^k*(1+ln m) + e*mu*M*n^k      (standard update on mojzj)
- "spu":   the three-stage sum with the min{1, 4*e*mu/2^k} factor on the
           extremal stage                            (stochastic update on mojzj)
- "gsemo": e*Mbar*(m*k/2)^k*(1+ln m) + e*M*Mbar*n^k  with Mbar = (n'+1)^(m/2)
- "omm":   2*e*mu*n*(ln n + 1)
- "lotz":  2*e*mu*n^2

M = (n' - 2k + 3)^(m/2) is the Pareto front size of mojzj.
"""

from __future__ import annotations

import math

from .benchmarks import ProblemInstance

THEOREMS = ("sms", "spu", "gsemo", "omm", "lotz")


def incomparable_upper_bound(inst: ProblemInstance) -> int:
    """Upper bound on the largest incomparable set (distinct objective values)."""
    return (inst.nprime + 1) ** (inst.m // 2)


def proven_theorem(kind: str, algo: str, update: str, mutation: str) -> str | None:
    """The theorem proven for a run setting, the one map from settings to
    theorems: SMS-EMOA's own on omm and lotz, and on mojzj the algorithm's
    and update's under standard mutation; None for any other setting."""
    if kind in ("omm", "lotz"):
        return kind if algo == "sms_emoa" else None
    if kind != "mojzj" or mutation != "standard":
        return None
    if algo == "gsemo":
        return "gsemo"
    return "spu" if update == "stochastic" else "sms"


def cap_bound(inst: ProblemInstance, algo: str, update: str, mu: int) -> float:
    """The bound a run's auto iteration cap scales: omm's and lotz's own
    whatever the algorithm, else the mojzj theorem of the algorithm and
    update whatever the mutation, read at gap k = 1 on momm."""
    if inst.kind in ("omm", "lotz"):
        return bound_value(inst.kind, inst, mu)
    name = proven_theorem("mojzj", algo, update, "standard")
    return jump_bound(name, inst.n, inst.m, inst.k if inst.kind == "mojzj" else 1, mu)


def bound_value(theorem: str, inst: ProblemInstance, mu: int) -> float:
    """Closed-form expected-iteration bound for the given theorem."""
    n = inst.n
    if theorem in ("omm", "lotz"):
        if inst.kind != theorem:
            raise ValueError(f"theorem {theorem!r} does not apply to {inst.kind}")
        if theorem == "omm":
            return 2 * math.e * mu * n * (math.log(n) + 1)
        return 2 * math.e * mu * n * n
    if theorem in ("sms", "spu", "gsemo"):
        if inst.kind != "mojzj":
            raise ValueError(f"theorem {theorem!r} applies to mojzj instances only")
        return jump_bound(theorem, n, inst.m, inst.k, mu)
    raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")


def jump_bound(theorem: str, n: int, m: int, k: int, mu: int) -> float:
    """The mojzj bound of theorem "sms", "spu" or "gsemo" at (n, m, k), which
    need not form a mojzj instance (momm's cap reads k = 1 > n'/2 at n' = 1)."""
    e = math.e
    np_ = 2 * n // m
    big_m = (np_ - 2 * k + 3) ** (m // 2)
    inner = (np_ - 2 * k + 1) ** (m // 2)
    first_inner = e * (m * k / 2) ** k * (1 + math.log(m))
    if theorem == "sms":
        return mu * first_inner + e * mu * big_m * n**k
    if theorem == "gsemo":
        mbar = (np_ + 1) ** (m // 2)
        return mbar * first_inner + e * big_m * mbar * n**k
    factor = min(1.0, 4 * e * mu / 2**k)
    return (
        mu * first_inner
        + e * n * mu * inner
        + e * mu * (big_m - inner) * n**k * factor
    )
