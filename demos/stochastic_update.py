"""Show how the stochastic population update protects front coverage.

The standard survivor selection removes a minimum-contribution member of the
worst non-domination front of all mu+1 individuals.  The stochastic variant
instead restricts removal to the distinct members of a with-replacement
sample of floor((mu+1)/2) slots, which leaves every individual a constant
probability of surviving each step regardless of its contribution.

The script runs both variants on a block-jump instance with a doubled
population for the stochastic one, and reports coverage times and how often
a front value held at one iteration's end was gone at the next
(``coverage_violations``).  That count includes losses before full coverage.
"""

from dataclasses import replace

from emoabench import AlgorithmConfig, ProblemInstance, auto_mu, sms_emoa_run


def run_variant(inst: ProblemInstance, update: str, runs: int) -> None:
    cfg = AlgorithmConfig(update=update, max_iterations=100_000)
    mu = auto_mu(inst, update)
    times = []
    violations = 0
    for seed in range(runs):
        rec = sms_emoa_run(inst, replace(cfg, seed=seed,
                                         stop_at_coverage=False))
        times.append(rec.iterations_to_coverage)
        violations += rec.coverage_violations
    mean = sum(times) / len(times)
    print(f"{update:<11} mu={mu:<3} mean coverage time {mean:8.1f}  "
          f"front value losses: {violations}")


def main() -> None:
    inst = ProblemInstance.mojzj(8, 4, 2)
    print(f"block-jump instance n={inst.n} m={inst.m} k={inst.k}")
    for update in ("standard", "stochastic"):
        run_variant(inst, update, 10)


if __name__ == "__main__":
    main()
