"""Measure Pareto-front coverage times and compare them to analytic bounds.

For each small instance the script runs the steady-state hypervolume
algorithm repeatedly, records the first iteration at which the population
covers the whole Pareto front, and prints the sample mean with a 95%
confidence interval next to the corresponding expected-time upper bound.
"""

from dataclasses import replace

from emoabench import (
    AlgorithmConfig,
    ExperimentSpec,
    ProblemInstance,
    run_experiment,
    summarize,
)
from emoabench.algorithms import run_limits


def run_case(name: str, inst: ProblemInstance, cfg: AlgorithmConfig,
             reps: int) -> None:
    rows, bound = run_experiment(
        ExperimentSpec(problem=inst, config=cfg, repetitions=reps,
                       master_seed=2024))
    s = summarize(rows)
    mu, _ = run_limits(inst, cfg)
    line = (f"{name:<14} mu={mu:<3} reps={reps:<4} "
            f"mean={s.mean_iterations:9.1f} +-{s.ci_half_width:7.1f}")
    if bound is not None:
        line += f"  {bound.theorem} bound {bound.bound:.3e}"
    print(line)


def main() -> None:
    base = AlgorithmConfig(mu=21)
    run_case("omm n=20", ProblemInstance.oneminmax(20), base, 100)
    run_case("lotz n=20", ProblemInstance.lotz(20), base, 100)

    mojzj = ProblemInstance.mojzj(8, 2, 2)
    std = AlgorithmConfig(mu=None)
    run_case("mojzj n=8", mojzj, std, 50)
    run_case("mojzj n=8 spu", mojzj, replace(std, update="stochastic"), 50)


if __name__ == "__main__":
    main()
