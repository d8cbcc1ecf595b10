"""Command-line harness.

Subcommands:

- ``run``    execute seeded repetitions of one algorithm on one problem,
             write a CSV, print summary statistics and (optionally) the
             closed-form bound report; exits 2 on any failed bound
- ``verify`` run the brute-force oracle suite; exits 2 on any mismatch
- ``front``  print the closed-form Pareto front of a problem

Exit codes: 0 success, 1 usage error, 2 verification or bound failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algorithms import AlgorithmConfig
from .benchmarks import parse_problem
from .harness import ExperimentSpec, run_experiment, summarize
from .oracle import OracleBudget, run_verification
from .variation import MutationOperator

USAGE_ERROR = 1
VERIFY_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this harness reserves 2
    # for verification and bound failures
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emoabench")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run seeded repetitions and write a CSV", add_help=True
    )
    run_p.add_argument("--config", help="key=value config file; flags override it")
    run_p.add_argument("--problem", help="e.g. mojzj:n=8,m=4,k=2 | omm:n=20 | lotz:n=20")
    run_p.add_argument("--algo", choices=["sms", "gsemo"], default=None)
    run_p.add_argument("--mu", default=None, help="population size or 'auto'")
    run_p.add_argument("--mutation", choices=["standard", "heavy"], default=None)
    run_p.add_argument("--beta", type=float, default=None, help="power-law exponent (heavy mutation)")
    run_p.add_argument("--update", choices=["standard", "stochastic"], default=None)
    run_p.add_argument(
        "--refpoint", default=None,
        help="hypervolume reference point as comma-separated ints (default all -1)",
    )
    run_p.add_argument("--reps", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None, help="master seed")
    run_p.add_argument("--max-iters", default=None, help="iteration cap or 'auto'")
    run_p.add_argument("--out", default=None, help="CSV output path")
    run_p.add_argument("--bounds", action="store_true", help="print the bound report")
    run_p.add_argument("--jobs", type=int, default=None, help="parallel workers")

    verify_p = sub.add_parser("verify", help="run the brute-force oracle suite")
    verify_p.add_argument("--max-n", type=int, default=14, help="exhaustive enumeration cap")
    verify_p.add_argument("--mc-samples", type=int, default=10**6)
    verify_p.add_argument("--seed", type=int, default=0)

    front_p = sub.add_parser("front", help="print the closed-form Pareto front")
    front_p.add_argument("--problem", required=True)
    return parser


def _merged(args: argparse.Namespace, key: str, default):
    value = getattr(args, key.replace("-", "_"))
    if value is not None:
        return value
    if getattr(args, "_config", None) and key in args._config:
        return args._config[key]
    return default


def _cmd_run(args: argparse.Namespace) -> int:
    args._config = _read_config_file(args.config) if args.config else {}
    problem_spec = _merged(args, "problem", None)
    if problem_spec is None:
        print("error: --problem is required (flag or config file)", file=sys.stderr)
        return USAGE_ERROR
    inst = parse_problem(str(problem_spec))

    algo = {"sms": "sms_emoa", "gsemo": "gsemo"}[str(_merged(args, "algo", "sms"))]
    mu_raw = str(_merged(args, "mu", "auto"))
    mu = None if mu_raw == "auto" else int(mu_raw)
    mutation_kind = str(_merged(args, "mutation", "standard"))
    beta = _merged(args, "beta", 1.5)
    if mutation_kind == "heavy":
        mutation = MutationOperator("heavy_tailed", float(beta))
    else:
        mutation = MutationOperator("standard")
    update = str(_merged(args, "update", "standard"))
    refpoint_raw = _merged(args, "refpoint", None)
    refpoint = (
        tuple(int(v) for v in str(refpoint_raw).split(","))
        if refpoint_raw is not None
        else None
    )
    max_raw = str(_merged(args, "max-iters", "auto"))
    max_iters = None if max_raw == "auto" else int(max_raw)
    reps = int(_merged(args, "reps", 1))
    seed = int(_merged(args, "seed", 0))
    out = _merged(args, "out", None)

    cfg = AlgorithmConfig(
        algo=algo, mu=mu, mutation=mutation, update=update,
        max_iterations=max_iters, seed=seed, refpoint=refpoint,
    )
    spec = ExperimentSpec(
        problem=inst, config=cfg, repetitions=reps, master_seed=seed,
        out=Path(out) if out else None, bound_report=bool(args.bounds),
    )
    rows, report = run_experiment(spec, jobs=args.jobs)
    summary = summarize(rows)
    print(f"problem={inst} algo={cfg.algo} mu={mu_raw} mutation={mutation.kind} update={update}")
    print(
        f"reps={summary.repetitions} censored={summary.censored} "
        f"mean_iters={summary.mean_iterations:.1f} median={summary.median_iterations:.1f} "
        f"ci95_half={summary.ci_half_width:.1f}"
    )
    if summary.censored:
        print(
            f"note: mean, median and ci95 cover only the "
            f"{summary.repetitions - summary.censored} uncensored repetitions"
        )
    failed = False
    if report is not None:
        for row in report.rows:
            status = "pass" if row.passed else "FAIL"
            failed |= not row.passed
            print(
                f"bound[{row.theorem}]: closed-form={row.bound:.1f} "
                f"mean={row.empirical_mean:.1f} ci95_half={row.ci_half_width:.1f} -> {status}"
            )
    if out:
        print(f"wrote {len(rows)} rows to {out}")
    return VERIFY_ERROR if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    budget = OracleBudget(max_n_exhaustive=args.max_n, mc_samples=args.mc_samples)
    results = run_verification(budget, seed=args.seed)
    failed = False
    for name, ok, detail in results:
        status = "ok" if ok else "MISMATCH"
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        failed |= not ok
    return VERIFY_ERROR if failed else 0


def _cmd_front(args: argparse.Namespace) -> int:
    inst = parse_problem(args.problem)
    front = inst.pareto_front()
    for point in sorted(front.points):
        print(",".join(str(v) for v in point))
    print(f"# size={front.size}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_front(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
