"""Smoke test of the benchmark itself, at a tiny run length.

    python3 -m pytest -q perfbench

Checks that every metric is printed by name with its unit, that the JSON
result carries exactly the metrics BENCHMARK.json lists, and that no trace
wrapper is left in place for a timed run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workload  # noqa: E402
from tracer import Tracer, wrapped  # noqa: E402

TINY = workload.Workload(
    "tiny", "omm:n=8", 9, "standard", True, None, None, 4, exercises="-", bypasses="-"
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(group: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[group]}


def printed_units(lines: list[str]) -> dict[str, str]:
    # "metric <name> = <value> <unit> [note]"
    return {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workload.WORKLOADS)
    assert units("end_to_end") == workload.END_TO_END
    assert units("per_layer") == workload.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace):
    lines: list[str] = []
    result = workload.run(TINY, 3, 0, bool(trace), time.time_ns(), log=lines.append)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == TINY.reps
    expected = units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    shown = printed_units(lines)
    for name, unit in {**expected, **workload.REPORTED}.items():
        assert shown.get(name) == unit, name
    assert not wrapped(workload.trace_targets())


def test_untraced_batch_refuses_installed_wrappers():
    s = workload.setup(TINY, 3, time.time_ns())
    targets = workload.trace_targets()
    with Tracer(targets):
        assert len(wrapped(targets)) == len(targets)
        with pytest.raises(RuntimeError, match="still installed"):
            workload.run_batch(s, 1)
    assert not wrapped(targets)
    assert workload.run_batch(s, 1).iterations > 0


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "omm-n20", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(workload.END_TO_END)
    for name, unit in {**workload.END_TO_END, **workload.REPORTED}.items():
        assert printed_units(lines).get(name) == unit, name


def test_command_fails_without_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "omm-n20", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
