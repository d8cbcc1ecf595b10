"""One benchmark workload in a fresh interpreter.

Run by ``perfbench/run.py``; not meant to be started by hand.  The program
under test receives only an instance, a config and a master seed (the
workload seed).  With ``--trace 0`` the workload's repetition batch runs
through ``harness.run_experiment`` untraced, again and again for about
``--seconds``, and reports the end-to-end metrics.  With ``--trace 1`` each
round runs the batch untraced with the workload's ``jobs``, untraced with
``jobs=1`` and traced with ``jobs=1``, and reports the per-layer metrics.
Both modes then replay every repetition with ``sms_emoa_run`` in a separate
pool and gate each one (see ``audit``).  The last stdout line is the result
as JSON; ``--probe`` only times set-up and exits.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from tracer import Tracer, wrapped

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    mu: int | None  # None: auto mu, as the CLI default
    update: str
    stop_at_coverage: bool
    max_iterations: int | None  # None: the program's auto cap
    jobs: int | None  # None: the harness default, one worker per CPU
    reps: int
    exercises: str
    bypasses: str


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "omm-n20", "omm:n=20", 21, "standard", True, None, None, 96,
            exercises="standard mutation; omm evaluation; m=2 insert fast path; "
            "duplicate and single-member removals; coverage loop; process pool "
            "fan-out of ~60 ms repetitions; CSV rows",
            bypasses="generic m>2 insert; sampled-eligible removal; inner-level "
            "tracking; HV at m>2",
        ),
        Workload(
            "jump8-std", "mojzj:n=16,m=8,k=1", None, "standard", False, 1000, 1, 3,
            exercises="generic m>2 insert at N=626; full-population duplicate "
            "shortcut; O(N^2) selector set-up per repetition; inner-level tracking",
            bypasses="stop at coverage (fixed 1000-iteration budget); sampled-eligible "
            "removal; m=2 fast path; process pool",
        ),
    )
}

# name -> unit, in print order; the JSON result carries one of these groups
END_TO_END = {"us_per_iter": "us", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "variation.mutate_calls": "count",
    "variation.mutate_us": "us",
    "benchmarks.evaluate_calls": "count",
    "benchmarks.evaluate_us": "us",
    "benchmarks.front_ms": "ms",
    "selection.init_ms": "ms",
    "selection.insert_us": "us",
    "selection.choose_us": "us",
    "selection.commit_us": "us",
    "selection.hv_calls": "count",
    "selection.hv_us": "us",
    "selection.hv_front_size": "points",
    "selection.hv_share": "ratio",
    "algorithms.iterations": "count",
    "algorithms.loop_self_us": "us",
    "harness.overhead_s": "s",
    "rep_s_p50": "s",
    "trace_overhead": "ratio",
}
# Printed in both modes.  rep_fail_frac is 0 on a correct run, so it travels
# as the result's failed/attempted; rep_s_p50 on a to-coverage workload
# mostly measures which seeds ran, so it is an unbounded per-layer metric.
REPORTED = {"rep_fail_frac": "ratio", "rep_s_p50": "s"}


@dataclass
class Setup:
    spec: object
    mu: int
    jobs: int  # workers the harness actually uses for this workload
    setup_s: float


@dataclass
class Batch:
    rows: list
    wall_s: float
    iterations: int
    jobs: int

    @property
    def us_per_iter(self) -> float:
        return self.wall_s * 1e6 / self.iterations


def setup(wl: Workload, seed: int, t0_ns: int) -> Setup:
    """Imports, problem parsing, the Pareto front and auto mu: everything a
    user waits for before the first repetition starts."""
    from emoabench import harness
    from emoabench.algorithms import AlgorithmConfig, auto_mu
    from emoabench.benchmarks import parse_problem

    inst = parse_problem(wl.problem)
    inst.pareto_front()
    mu = wl.mu if wl.mu is not None else auto_mu(inst, wl.update)
    cfg = AlgorithmConfig(
        mu=wl.mu, update=wl.update, max_iterations=wl.max_iterations,
        stop_at_coverage=wl.stop_at_coverage,
    )
    spec = harness.ExperimentSpec(
        problem=inst, config=cfg, repetitions=wl.reps, master_seed=seed,
        out=OUT_DIR / f"{wl.name}.csv",
    )
    jobs = wl.jobs if wl.jobs is not None else min(os.cpu_count() or 1, wl.reps)
    return Setup(spec, mu, jobs, (time.time_ns() - t0_ns) / 1e9)


def trace_targets() -> list:
    from emoabench import harness, selection
    from emoabench.benchmarks import ProblemInstance
    from emoabench.selection import SteadyStateSelector
    from emoabench.variation import MutationOperator

    return [
        (harness, "run_experiment", "harness.batch", None),
        (harness, "sms_emoa_run", "algorithms.run", None),
        (MutationOperator, "mutate_mask", "variation.mutate", None),
        (ProblemInstance, "evaluate_mask", "benchmarks.evaluate", None),
        (ProblemInstance, "pareto_front", "benchmarks.front", None),
        (SteadyStateSelector, "__init__", "selection.init", None),
        (SteadyStateSelector, "set_offspring", "selection.insert", None),
        (SteadyStateSelector, "choose_removal", "selection.choose", None),
        (SteadyStateSelector, "commit_removal", "selection.commit", None),
        (selection, "min_contribution_indices", "selection.hv", lambda points, r: len(points)),
    ]


def run_batch(s: Setup, jobs: int, traced: bool = False) -> Batch:
    """One call of ``harness.run_experiment``; an untraced batch refuses to
    start while any trace wrapper is still installed."""
    from emoabench import harness

    if not traced and wrapped(trace_targets()):
        raise RuntimeError("trace wrappers are still installed before a timed run")
    start = time.perf_counter()
    rows, _ = harness.run_experiment(s.spec, jobs=jobs)
    wall = time.perf_counter() - start
    # steady-state iterations executed: one evaluation each after the mu
    # initial ones, whether or not the repetition stopped at coverage
    iterations = sum(r.evaluations - s.mu for r in rows)
    return Batch(rows, wall, iterations, jobs)


def rounds(seconds: float, once) -> list:
    """Call ``once`` at least once, and again while another call of average
    length still ends within ``seconds``."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(once())
        elapsed = time.perf_counter() - start
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def _replay(args: tuple) -> tuple[int, int, bool, int]:
    spec, rep = args
    import numpy as np
    from emoabench.algorithms import sms_emoa_run

    # the harness derives each repetition's stream from (master seed, rep)
    rng = np.random.default_rng([spec.master_seed, rep])
    rec = sms_emoa_run(spec.problem, replace(spec.config, seed=spec.master_seed), rng)
    return rep, rec.evaluations, rec.censored, rec.coverage_violations


def audit(s: Setup, batches: list[Batch], wl: Workload, log) -> tuple[int, list[int]]:
    """Gate every repetition; return (failed repetitions, iterations per rep).

    A repetition fails if it is censored in a to-coverage workload, if it
    lost a covered front value (all workloads are at or above auto mu), or
    if its iteration count differs between batches or from a direct replay
    of the same seed: the RNG decision stream must not depend on timing.
    """
    reps = range(s.spec.repetitions)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(reps)), mp_context=ctx) as pool:
        replays = {
            rep: rest
            for rep, *rest in pool.map(_replay, [(s.spec, rep) for rep in reps])
        }
    counts = [row.iterations for row in batches[0].rows]
    failed = 0
    for rep in reps:
        evaluations, censored, violations = replays[rep]
        seen = {(b.rows[rep].rep, b.rows[rep].evaluations, b.rows[rep].censored) for b in batches}
        reasons = []
        if seen != {(rep, evaluations, censored)}:
            reasons.append(f"nondeterministic: batches {sorted(seen)} vs replay {evaluations}")
        if censored and wl.stop_at_coverage:
            reasons.append("censored before coverage")
        if violations:
            reasons.append(f"{violations} coverage violations")
        if reasons:
            failed += 1
            log(f"FAIL rep {rep}: {'; '.join(reasons)}")
    return failed, counts


def check_csv(s: Setup, batch: Batch) -> bool:
    """The CSV the harness wrote for the last batch matches its rows."""
    with open(s.spec.out, newline="") as fh:
        table = list(csv.reader(fh))
    iters = table[0].index("iterations")
    return [r[iters] for r in table[1:]] == [str(r.iterations) for r in batch.rows]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def provenance(seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD commit, read from .git without running git; "none" outside a
    git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "emoabench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def digest(counts: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()[:16]


def end_to_end(s: Setup, batches: list[Batch]) -> dict[str, float]:
    # Wall time over iterations of the whole run, not a median of batches:
    # on a shared host the speed can sit at one of a few levels for tens of
    # seconds, and a median flips with whichever level held most batches.
    return {
        "us_per_iter": sum(b.wall_s for b in batches) * 1e6 / sum(b.iterations for b in batches),
        "setup_s": s.setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(
    s: Setup, tracer: Tracer, front_ms: float, rounds_: list, log
) -> tuple[dict[str, float], bool]:
    """Reduce the traced batches to per-layer metrics; also check that the
    traced self times account for the repetitions' wall time.

    ``rounds_`` holds (untraced with the workload's jobs, untraced with
    jobs=1, traced with jobs=1) batches.
    """
    calls, self_s, total_s, reduce_s = tracer.calls, tracer.self_s, tracer.total_s, tracer.reduce_s
    traced = [r[2] for r in rounds_]
    iterations = sum(b.iterations for b in traced)

    def mean_us(name: str) -> float:
        return self_s.get(name, 0.0) / calls[name] * 1e6 if calls.get(name) else 0.0

    under_reps = sum(v for k, v in self_s.items() if k != "harness.batch")
    rep_wall = total_s["algorithms.run"]
    # the harness times each repetition around the traced one, so its
    # seconds also hold the tracer's span folding
    harness_rep_s = sum(r.seconds for b in traced for r in b.rows)
    ok = (
        abs(under_reps - rep_wall) <= 1e-6 * rep_wall
        and abs(harness_rep_s - reduce_s - rep_wall) <= 0.01 * harness_rep_s
    )
    reps = sum(len(b.rows) for b in traced)
    expect = {
        "variation.mutate": iterations,
        "benchmarks.evaluate": iterations + s.mu * reps,
        "selection.insert": iterations,
        "selection.choose": iterations,
        "selection.commit": iterations,
        "selection.init": reps,
        "algorithms.run": reps,
    }
    for name, n in expect.items():
        if calls.get(name, 0) != n:
            ok = False
            log(f"FAIL trace: {calls.get(name, 0)} calls of {name}, expected {n}")
    log(
        f"trace accounting: self times sum to {under_reps:.6f} s, traced rep wall "
        f"{rep_wall:.6f} s, harness rep seconds {harness_rep_s:.6f} s of which span "
        f"folding {reduce_s:.6f} s -> {'ok' if ok else 'FAIL'}"
    )
    untimed = [r[0] for r in rounds_]
    untraced1 = [r[1] for r in rounds_]
    hv_calls = calls.get("selection.hv", 0)
    metrics = {
        "variation.mutate_calls": calls["variation.mutate"],
        "variation.mutate_us": mean_us("variation.mutate"),
        "benchmarks.evaluate_calls": calls["benchmarks.evaluate"],
        "benchmarks.evaluate_us": mean_us("benchmarks.evaluate"),
        "benchmarks.front_ms": front_ms,
        "selection.init_ms": mean_us("selection.init") / 1e3,
        "selection.insert_us": mean_us("selection.insert"),
        "selection.choose_us": mean_us("selection.choose"),
        "selection.commit_us": mean_us("selection.commit"),
        "selection.hv_calls": hv_calls,
        "selection.hv_us": mean_us("selection.hv"),
        "selection.hv_front_size": tracer.size_sum["selection.hv"] / hv_calls if hv_calls else 0.0,
        "selection.hv_share": hv_calls / calls["selection.choose"],
        "algorithms.iterations": iterations,
        "algorithms.loop_self_us": self_s["algorithms.run"] * 1e6 / iterations,
        "harness.overhead_s": statistics.median(
            b.wall_s - sum(r.seconds for r in b.rows) / b.jobs for b in untimed
        ),
        "trace_overhead": statistics.median(
            t.us_per_iter / u.us_per_iter for t, u in zip(traced, untraced1)
        ),
    }
    return metrics, ok


def run(wl: Workload, seed: int, seconds: float, trace: bool, t0_ns: int, log=print) -> dict:
    """Run one workload and return the result object (see module docstring)."""
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        # set-up runs traced, so the first (uncached) Pareto front is timed
        with Tracer(trace_targets()) as t:
            s = setup(wl, seed, t0_ns)
        front_ms = t.total_s["benchmarks.front"] * 1e3

        tracer = Tracer(trace_targets())

        def one_round():
            untimed = run_batch(s, s.jobs)
            untraced = untimed if s.jobs == 1 else run_batch(s, 1)
            with tracer:
                traced = run_batch(s, 1, traced=True)
            return untimed, untraced, traced

        rounds_ = rounds(seconds, one_round)
        plain = [r[0] for r in rounds_]
        batches = [b for u, v, t in rounds_ for b in ((u, t) if v is u else (u, v, t))]
        metrics, ok = per_layer(s, tracer, front_ms, rounds_, log)
        wanted = PER_LAYER
    else:
        s = setup(wl, seed, t0_ns)
        plain = batches = rounds(seconds, lambda: run_batch(s, s.jobs))
        metrics = end_to_end(s, batches)
        ok = True
        wanted = END_TO_END
    clean = not wrapped(trace_targets())
    csv_ok = check_csv(s, batches[-1])
    failed, counts = audit(s, batches, wl, log)
    ok = ok and clean and csv_ok and failed == 0

    log(f"workload {wl.name}: {wl.problem} mu={s.mu} update={wl.update} jobs={s.jobs} "
        f"reps={wl.reps} batches={len(batches)} trace={int(trace)}")
    log(f"exercises: {wl.exercises}")
    log(f"bypasses: {wl.bypasses}")
    log("provenance: " + json.dumps(provenance(seed), sort_keys=True))
    log(f"iterations per seed (rep 0..{wl.reps - 1}): {counts}")
    log(f"iteration digest: {digest(counts)}")
    log(f"wrappers removed: {clean}; csv rows match: {csv_ok}")
    log(f"us_per_iter per untraced batch (jobs={s.jobs}): {[b.us_per_iter for b in plain]}")
    rep_s = [r.seconds for b in plain for r in b.rows]
    reported = {"rep_fail_frac": failed / wl.reps, "rep_s_p50": statistics.median(rep_s), **metrics}
    units = {**REPORTED, **wanted}
    for name, value in reported.items():
        note = " (this interpreter)" if name == "setup_s" else ""
        log(f"metric {name} = {value!r} {units[name]}{note}")
    log(f"rep_s_p50 is over {len(rep_s)} untraced repetitions with jobs={s.jobs}")
    return {
        "correct": ok,
        "attempted": wl.reps,
        "failed": failed,
        "metrics": {k: {"value": reported[k], "unit": u} for k, u in wanted.items()},
    }


def main(argv: list[str] | None = None) -> int:
    t0_ns = time.time_ns()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0-ns", type=int, help="spawn time of this process (time.time_ns)")
    p.add_argument("--probe", action="store_true", help="time set-up only")
    args = p.parse_args(argv)
    t0_ns = args.t0_ns or t0_ns
    sys.path.insert(0, str(SRC))
    import emoabench

    if Path(emoabench.__file__).resolve().parent != SRC / "emoabench":
        raise RuntimeError(f"imported emoabench from {emoabench.__file__}, not {SRC}")
    wl = WORKLOADS[args.workload]
    if args.probe:
        print(json.dumps({"setup_s": setup(wl, args.seed, t0_ns).setup_s}))
        return 0
    result = run(wl, args.seed, args.seconds, bool(args.trace), t0_ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
