"""Benchmark entry point.

    python3 perfbench/run.py --workload omm-n20 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout.  It times set-up in several fresh
interpreters (``--probe``), then runs the workload itself in one more fresh
interpreter (``perfbench/workload.py``), echoes its report, and prints the
result as one JSON object on the last line: ``correct``, ``attempted`` and
``failed`` repetitions, and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  ``setup_s`` is the median over all
set-ups.  Exits non-zero, printing no result, when the program's sources are
missing or the workload fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
PROBES = 4  # set-up samples before and again after the workload run, which adds one
DEADLINE_S = 170  # whole run, inside the 180 s a run may take


def child(args: argparse.Namespace, extra: list[str], deadline: float) -> list[str]:
    """Run workload.py in a fresh interpreter; return its stdout lines."""
    cmd = [
        sys.executable, str(WORKLOAD), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0-ns", str(time.time_ns()), *extra,
    ]
    # users run with compiled bytecode cached, so let the children write it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return proc.stdout.splitlines()


def probe(args: argparse.Namespace, deadline: float) -> float:
    return json.loads(child(args, ["--probe"], deadline)[-1])["setup_s"]


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    p = argparse.ArgumentParser(description="emoabench benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must not be negative")
    if not (ROOT / "src" / "emoabench" / "__init__.py").is_file():
        print(f"error: no emoabench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # probes on both sides of the workload run, so set-up is sampled across
    # the whole run and not in one moment of machine load
    n = PROBES if args.trace == 0 else 0
    try:
        probe(args, deadline)  # warm-up, fills the bytecode cache; not counted
        probes = [probe(args, deadline) for _ in range(n)]
        lines = child(args, [], deadline)
        probes += [probe(args, deadline) for _ in range(n)]
    except (RuntimeError, subprocess.TimeoutExpired, IndexError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if args.trace == 0:
        samples = probes + [result["metrics"]["setup_s"]["value"]]
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        print(f"setup_s samples ({len(samples)} fresh interpreters): {samples}")
        print(f"metric setup_s = {statistics.median(samples)!r} s (median of {len(samples)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
