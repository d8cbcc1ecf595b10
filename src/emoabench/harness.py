"""Experiment runner: seeded parallel repetitions, statistics, bound verdicts.

A repetition's RNG stream is derived from (master seed, repetition index),
so results are reproducible independently of scheduling order.  One flat
CSV row per repetition keeps downstream analysis tool-agnostic.  Every
experiment returns its rows with the verdict of the one theorem proven for
its setting, or None where no closed form applies.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bounds
from .algorithms import AlgorithmConfig, gsemo_run, run_limits, sms_emoa_run
from .benchmarks import ProblemInstance

CSV_HEADER = [
    "problem", "n", "m", "k", "algo", "mu", "mutation", "beta", "update",
    "seed", "rep", "iterations", "evaluations", "censored", "seconds",
]

ALGO_NAMES = {"sms_emoa": "sms", "gsemo": "gsemo"}


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """One experiment: a problem, an algorithm config, and repetitions."""

    problem: ProblemInstance
    config: AlgorithmConfig
    repetitions: int = 1
    master_seed: int = 0
    out: Path | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One CSV row per repetition."""

    problem: ProblemInstance
    config: AlgorithmConfig
    rep: int
    iterations: int
    evaluations: int
    censored: bool
    seconds: float

    def as_csv(self) -> list[str]:
        inst, cfg = self.problem, self.config
        heavy = cfg.mutation.kind == "heavy_tailed"
        # GSEMO's archive has no mu or update rule
        gsemo = cfg.algo == "gsemo"
        return [
            inst.kind,
            str(inst.n),
            str(inst.m),
            "" if inst.k is None else str(inst.k),
            ALGO_NAMES[cfg.algo],
            "" if gsemo else str(run_limits(inst, cfg)[0]),
            "heavy" if heavy else "standard",
            str(cfg.mutation.beta) if heavy else "",
            "" if gsemo else cfg.update,
            str(cfg.seed),
            str(self.rep),
            str(self.iterations),
            str(self.evaluations),
            "1" if self.censored else "0",
            f"{self.seconds:.6f}",
        ]


@dataclass(frozen=True, slots=True)
class BoundRow:
    """A proven theorem's closed-form bound and whether the rows' mean plus
    95% half-width stays within it; the mean and CI are ``summarize``'s."""

    theorem: str
    bound: float
    passed: bool


@dataclass(frozen=True, slots=True)
class Summary:
    repetitions: int
    censored: int
    mean_iterations: float
    median_iterations: float
    ci_half_width: float


def _one_rep(
    args: tuple[ProblemInstance, AlgorithmConfig, int]
) -> tuple[int, int, int, bool, float]:
    """(rep, iterations, evaluations, censored, seconds) of one repetition;
    plain values, so a pooled repetition returns no copy of its problem or
    config."""
    inst, cfg, rep = args
    rng = np.random.default_rng([cfg.seed, rep])
    run = gsemo_run if cfg.algo == "gsemo" else sms_emoa_run
    with warnings.catch_warnings():
        if rep:  # the first repetition's warnings stand for the whole run
            warnings.simplefilter("ignore")
        start = time.perf_counter()
        record = run(inst, cfg, rng)
        elapsed = time.perf_counter() - start
    hit = record.iterations_to_coverage
    iterations = record.iterations if hit is None else hit
    return rep, iterations, record.evaluations, record.censored, elapsed


def summarize(rows: Sequence[ResultRow]) -> Summary:
    """Mean/median and a 95% normal-approximation CI over uncensored runs."""
    done = [r.iterations for r in rows if not r.censored]
    if not done:
        return Summary(len(rows), len(rows), math.nan, math.nan, math.nan)
    mean = statistics.fmean(done)
    median = statistics.median(done)
    if len(done) > 1:
        ci = 1.96 * statistics.stdev(done) / math.sqrt(len(done))
    else:
        ci = math.nan
    return Summary(len(rows), len(rows) - len(done), mean, median, ci)


def build_bound_report(spec: ExperimentSpec, rows: Sequence[ResultRow]) -> BoundRow | None:
    """The row of the theorem proven for the spec's setting, or None."""
    inst, cfg = spec.problem, spec.config
    theorem = bounds.proven_theorem(inst.kind, cfg.algo, cfg.update, cfg.mutation.kind)
    if theorem is None:
        return None
    summary = summarize(rows)
    mu, _ = run_limits(inst, cfg)
    b = bounds.bound_value(theorem, inst, mu)
    # a NaN mean or CI (fewer than two uncensored repetitions) compares
    # False, so a row without an interval fails
    passed = summary.censored == 0 and summary.mean_iterations + summary.ci_half_width <= b
    return BoundRow(theorem, b, passed)


def run_experiment(
    spec: ExperimentSpec, jobs: int | None = None
) -> tuple[list[ResultRow], BoundRow | None]:
    """Execute all repetitions (in parallel), optionally writing CSV rows
    incrementally, and return the rows with their bound verdict
    (``build_bound_report``, None for a setting with no proven closed form).
    One job runs the repetitions in this process, and no more workers start
    than there are repetitions.  The CSV is created with the first row, so a
    run that fails before it leaves no file; an output path that is a
    directory or lies in a missing one fails before any repetition runs, and
    a failed row cancels the pooled repetitions not yet started."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if spec.out is not None and not spec.out.parent.is_dir():
        raise FileNotFoundError(f"{spec.out}: no such directory {spec.out.parent}")
    if spec.out is not None and spec.out.is_dir():
        raise IsADirectoryError(f"{spec.out} is a directory")
    jobs = min(jobs, spec.repetitions)
    # every row shares the spec's problem and one config carrying the
    # master seed, which with the repetition index seeds each stream
    cfg = replace(spec.config, seed=spec.master_seed)
    args = [(spec.problem, cfg, rep) for rep in range(spec.repetitions)]
    rows: list[ResultRow] = []
    with ExitStack() as stack:
        if jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            # on an error, cancel the repetitions not yet started before the pool's exit
            stack.push(lambda exc_type, *_: exc_type and pool.shutdown(cancel_futures=True))
            results = pool.map(_one_rep, args)
        else:
            results = map(_one_rep, args)
        fh = writer = None
        for result in results:
            row = ResultRow(spec.problem, cfg, *result)
            rows.append(row)
            if spec.out is not None:
                if writer is None:
                    fh = stack.enter_context(open(spec.out, "w", newline=""))
                    writer = csv.writer(fh)
                    writer.writerow(CSV_HEADER)
                writer.writerow(row.as_csv())
                fh.flush()
    return rows, build_bound_report(spec, rows)
