"""Explore the Pareto front structure of the block-jump benchmark.

The benchmark splits an n-bit string into m/2 blocks and scores each block
with a jump function and its complement.  The Pareto front has a closed form,
and its size grows as (n' - 2k + 3)^(m/2) where n' is the block length.

This script prints the front for a few small instances and shows a family of
mutually incomparable inner points whose size can exceed the front size once
the block length is large enough.
"""

from emoabench import ProblemInstance, incomparable_family
from emoabench.benchmarks import incomparable_family_instance


def show_front(n: int, m: int, k: int) -> None:
    inst = ProblemInstance.mojzj(n, m, k)
    front = inst.pareto_front()
    nprime = 2 * n // m
    formula = (nprime - 2 * k + 3) ** (m // 2)
    print(f"n={n} m={m} k={k}: front size {len(front.points)} "
          f"(formula {formula})")
    for pt in sorted(front.points):
        print(f"  {pt}")


def show_incomparable(nprime: int, count: int) -> None:
    family = incomparable_family(nprime, count)
    inst = incomparable_family_instance(nprime)
    print(f"\nblock length {nprime}, k={inst.k}: {len(family)} mutually incomparable "
          f"inner points vs front size {inst.pareto_front().size}")
    for x in family:
        # bit i of the packed genome is position i+1 of the string
        bits = format(x, f"0{inst.n}b")[::-1]
        print(f"  {bits}  ->  {inst.evaluate_mask(x)}")


def main() -> None:
    show_front(8, 2, 2)
    print()
    show_front(8, 4, 2)
    show_incomparable(8, 3)
    show_incomparable(40, 19)


if __name__ == "__main__":
    main()
