"""Command-line harness.

Subcommands:

- ``run``    execute seeded repetitions of one algorithm on one problem,
             write a CSV and print summary statistics; with ``--bounds``,
             print the closed-form bound verdict and exit 2 when it fails
- ``verify`` run the brute-force oracle suite; exits 2 on any mismatch
- ``front``  print the closed-form Pareto front of a problem

Exit codes: 0 success, 1 usage error, 2 verification or bound failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .algorithms import AlgorithmConfig, run_limits
from .benchmarks import parse_problem
from .harness import ALGO_NAMES, ExperimentSpec, run_experiment, summarize
from .oracle import run_verification
from .variation import MutationOperator

USAGE_ERROR = 1
VERIFY_ERROR = 2

ALGOS = {short: name for name, short in ALGO_NAMES.items()}
SWITCHES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this harness reserves 2
    # for verification and bound failures
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int_or_auto(value: str) -> int | None:
    try:
        return None if value == "auto" else int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {value!r}")


def _config_flags(path: str, keys: set[str]) -> list[str]:
    """A flat key=value config file as ``run`` flags, so argparse checks its
    values as it checks the command line; a key is a long flag name without
    its dashes, ``bounds`` takes true/false, and '#' starts a comment."""
    flags = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key != "bounds":
            flags.append(f"--{key}={value}")
        elif value.lower() not in SWITCHES:
            raise ValueError(f"{path}:{lineno}: bounds must be true or false, got {value!r}")
        elif SWITCHES[value.lower()]:
            flags.append("--bounds")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emoabench")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run seeded repetitions and write a CSV", add_help=True
    )
    run_p.add_argument(
        "--config",
        help="key=value file of run options (e.g. 'max-iters = 500'); flags override it",
    )
    run_p.add_argument("--problem", help="e.g. mojzj:n=8,m=4,k=2 | omm:n=20 | lotz:n=20")
    run_p.add_argument("--algo", choices=list(ALGOS), default="sms")
    run_p.add_argument("--mu", type=_int_or_auto, default="auto", help="population size or 'auto'")
    run_p.add_argument("--mutation", choices=["standard", "heavy"], default="standard")
    run_p.add_argument("--beta", type=float, help="power-law exponent, heavy mutation only (1.5)")
    run_p.add_argument("--update", choices=["standard", "stochastic"], default="standard")
    run_p.add_argument("--reps", type=int, default=1)
    run_p.add_argument("--seed", type=int, default=0, help="master seed")
    run_p.add_argument(
        "--max-iters", type=_int_or_auto, default="auto", help="iteration cap or 'auto'"
    )
    run_p.add_argument("--out", default=None, help="CSV output path")
    run_p.add_argument(
        "--bounds", action="store_true", help="print the bound verdict; exit 2 if it fails"
    )
    run_p.add_argument("--jobs", type=int, default=None, help="parallel workers (>= 1)")

    verify_p = sub.add_parser("verify", help="run the brute-force oracle suite")
    verify_p.add_argument(
        "--max-n", type=int, default=14, help="exhaustive enumeration cap (2..24)"
    )
    verify_p.add_argument("--seed", type=int, default=0)

    front_p = sub.add_parser("front", help="print the closed-form Pareto front")
    front_p.add_argument("--problem", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.problem is None:
        print("error: --problem is required (flag or config file)", file=sys.stderr)
        return USAGE_ERROR
    inst = parse_problem(args.problem)
    if args.mutation == "heavy":
        mutation = MutationOperator("heavy_tailed", 1.5 if args.beta is None else args.beta)
    else:
        mutation = MutationOperator("standard", args.beta)
    cfg = AlgorithmConfig(
        algo=ALGOS[args.algo],
        mu=args.mu,
        mutation=mutation,
        update=args.update,
        max_iterations=args.max_iters,
        seed=args.seed,
    )
    spec = ExperimentSpec(
        problem=inst, config=cfg, repetitions=args.reps, master_seed=args.seed,
        out=Path(args.out) if args.out else None,
    )
    rows, bound = run_experiment(spec, jobs=args.jobs)
    summary = summarize(rows)
    # GSEMO's archive has no mu or update rule; an auto mu is the value the run chose
    sms = cfg.algo != "gsemo"
    mu = f" mu={run_limits(inst, cfg)[0]}" if sms else ""
    update = f" update={cfg.update}" if sms else ""
    print(f"problem={inst} algo={args.algo}{mu} mutation={args.mutation}{update}")
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
    if args.bounds and bound is None:
        setting = f"{inst} with {args.algo}/{args.mutation} mutation"
        print(f"bound: no closed-form bound for {setting}")
    elif args.bounds:
        failed = not bound.passed
        print(
            f"bound[{bound.theorem}]: closed-form={bound.bound:.1f} "
            f"mean={summary.mean_iterations:.1f} ci95_half={summary.ci_half_width:.1f} "
            f"-> {'FAIL' if failed else 'pass'}"
        )
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return VERIFY_ERROR if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(args.max_n, seed=args.seed)
    failed = False
    for name, ok, detail in results:
        status = "skipped" if ok is None else "ok" if ok else "MISMATCH"
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
        failed |= ok is False
    return VERIFY_ERROR if failed else 0


def _cmd_front(args: argparse.Namespace) -> int:
    inst = parse_problem(args.problem)
    front = inst.pareto_front()
    for point in sorted(front):
        print(",".join(str(v) for v in point))
    print(f"# size={len(front)}", file=sys.stderr)
    return 0


def _show_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # a warning reads as the CLI's own message, without the library's source
    # line; forked pool workers inherit the hook
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            if args.command == "run":
                if args.config:
                    # the file's flags go first, so the command line overrides them
                    keys = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
                    args = parser.parse_args(["run", *_config_flags(args.config, keys), *argv[1:]])
                return _cmd_run(args)
            if args.command == "verify":
                return _cmd_verify(args)
            return _cmd_front(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
