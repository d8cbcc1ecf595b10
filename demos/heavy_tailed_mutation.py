"""Compare standard and heavy-tailed bitwise mutation on multi-bit jumps.

Standard mutation flips each bit independently with probability 1/n, so the
probability of flipping exactly a given set of k bits decays like n^-k.
Heavy-tailed mutation first draws a rate multiplier alpha from a power law
on {1, ..., n/2} and then flips each bit with probability alpha/n, which
makes long jumps polynomially more likely.

The script prints analytic probabilities of flipping a fixed set of k bits
(and nothing else) for both operators, then checks the heavy-tailed numbers
against a short Monte Carlo simulation.
"""

import numpy as np

from emoabench.variation import (
    heavy_tailed_flip_probability,
    power_law,
    standard_flip_probability,
)


def analytic_table(n: int, beta: float) -> None:
    print(f"probability of flipping a fixed k-bit set exactly (n={n}, "
          f"beta={beta}):")
    print(f"{'k':>3} {'standard':>12} {'heavy-tailed':>13} {'ratio':>9}")
    for k in (1, 2, 3, 4, 5):
        std = standard_flip_probability(n, k)
        heavy = heavy_tailed_flip_probability(n, beta, k)
        print(f"{k:>3} {std:>12.3e} {heavy:>13.3e} {heavy / std:>9.2f}")


def monte_carlo_check(n: int, beta: float, k: int, draws: int) -> None:
    rng = np.random.default_rng(12345)
    dist = power_law(n, beta)  # alpha on {1, ..., n/2}
    target = np.zeros(n, dtype=bool)
    target[:k] = True
    hits = 0
    for _ in range(draws):
        alpha = dist.sample(rng)
        flips = rng.random(n) < alpha / n
        if np.array_equal(flips, target):
            hits += 1
    est = hits / draws
    exact = heavy_tailed_flip_probability(n, beta, k)
    se = (exact * (1 - exact) / draws) ** 0.5
    print(f"\nMonte Carlo, k={k}, {draws} draws: estimate {est:.3e}, "
          f"analytic {exact:.3e}, std err {se:.1e}")


def main() -> None:
    analytic_table(24, 1.5)
    monte_carlo_check(24, 1.5, 2, 200_000)


if __name__ == "__main__":
    main()
