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
    if inst.kind in ("mojzj", "momm"):
        return (inst.nprime + 1) ** (inst.m // 2)
    return inst.n + 1


def bound_value(theorem: str, inst: ProblemInstance, mu: int) -> float:
    """Closed-form expected-iteration bound for the given theorem."""
    e = math.e
    n = inst.n
    if theorem == "omm":
        if inst.kind != "omm":
            raise ValueError(f"theorem 'omm' does not apply to {inst.kind}")
        return 2 * e * mu * n * (math.log(n) + 1)
    if theorem == "lotz":
        if inst.kind != "lotz":
            raise ValueError(f"theorem 'lotz' does not apply to {inst.kind}")
        return 2 * e * mu * n * n
    if theorem in ("sms", "spu", "gsemo"):
        if inst.kind != "mojzj":
            raise ValueError(f"theorem {theorem!r} applies to mojzj instances only")
        m, k, np_ = inst.m, inst.k, inst.nprime
        big_m = inst.pareto_front().size
        inner = (np_ - 2 * k + 1) ** (m // 2)
        first_inner = e * (m * k / 2) ** k * (1 + math.log(m))
        if theorem == "sms":
            return mu * first_inner + e * mu * big_m * n**k
        if theorem == "gsemo":
            mbar = incomparable_upper_bound(inst)
            return mbar * first_inner + e * big_m * mbar * n**k
        factor = min(1.0, 4 * e * mu / 2**k)
        return (
            mu * first_inner
            + e * n * mu * inner
            + e * mu * (big_m - inner) * n**k * factor
        )
    raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
