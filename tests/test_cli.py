"""Command-line interface: subcommands, config files, exit codes."""

import csv
import subprocess
import sys

import pytest

from emoabench.cli import main


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout/stderr via capsys at the
    call site; returns the exit code."""
    return main(list(argv))


class TestRun:
    def test_basic_run(self, capsys):
        code = run_cli("run", "--problem", "omm:n=10", "--reps", "2", "--seed", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_iters" in out
        assert "censored=0" in out

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = run_cli(
            "run", "--problem", "lotz:n=8", "--reps", "2", "--out", str(out)
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "problem"
        assert len(rows) == 3

    def test_bound_report_flag(self, capsys):
        code = run_cli(
            "run", "--problem", "omm:n=10", "--reps", "5", "--seed", "1", "--bounds"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound[omm]" in out
        assert "pass" in out

    def test_failed_bound_report_exits_2(self, capsys):
        # three iterations cannot cover the front: censored, so the bound fails
        code = run_cli("run", "--problem", "omm:n=10", "--max-iters", "3", "--bounds")
        out = capsys.readouterr().out
        assert code == 2
        assert "-> FAIL" in out

    def test_single_repetition_bound_report_exits_2(self, capsys):
        # one repetition has no confidence interval to check against the bound
        code = run_cli("run", "--problem", "omm:n=10", "--reps", "1", "--bounds")
        out = capsys.readouterr().out
        assert code == 2
        assert "ci95_half=nan -> FAIL" in out

    def test_censored_summary_is_marked(self, capsys):
        code = run_cli("run", "--problem", "omm:n=10", "--reps", "3", "--max-iters", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "censored=3 mean_iters" in out
        assert "cover only the 0 uncensored repetitions" in out
        run_cli("run", "--problem", "omm:n=10", "--reps", "2")
        assert "uncensored" not in capsys.readouterr().out

    def test_gsemo_and_variants(self, capsys):
        code = run_cli(
            "run", "--problem", "mojzj:n=8,m=4,k=2", "--algo", "gsemo", "--reps", "1"
        )
        assert code == 0
        code = run_cli(
            "run", "--problem", "mojzj:n=8,m=4,k=2", "--update", "stochastic",
            "--mutation", "heavy", "--beta", "1.5", "--reps", "1",
        )
        assert code == 0

    def test_refpoint_flag(self, capsys):
        code = run_cli("run", "--problem", "omm:n=8", "--reps", "1", "--refpoint=-1,-1")
        assert code == 0
        code = run_cli("run", "--problem", "omm:n=8", "--reps", "1", "--refpoint=-1,-1,-1")
        assert code == 1
        # objectives start at 0: a reference point they need not dominate
        code = run_cli("run", "--problem", "omm:n=3", "--refpoint=5,5")
        assert code == 1
        assert "reference point" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text(
            "# experiment settings\n"
            "problem = omm:n=10\n"
            "reps = 2\n"
            "seed = 5\n"
        )
        code = run_cli("run", "--config", str(conf))
        assert code == 0
        code = run_cli("run", "--config", str(conf), "--problem", "lotz:n=6")
        out = capsys.readouterr().out
        assert code == 0
        assert "lotz:n=6" in out

    def test_missing_problem_is_usage_error(self, capsys):
        assert run_cli("run") == 1

    def test_bad_problem_spec_is_usage_error(self, capsys):
        assert run_cli("run", "--problem", "nope:n=4") == 1
        assert run_cli("run", "--problem", "mojzj:n=8,m=4,k=9") == 1


class TestFront:
    def test_prints_sorted_points(self, capsys):
        code = run_cli("front", "--problem", "lotz:n=3")
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines() == ["0,3", "1,2", "2,1", "3,0"]
        assert "size=4" in captured.err

    def test_front_requires_problem(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("front")
        assert exc.value.code == 1


class TestVerify:
    def test_verify_passes(self, capsys):
        code = run_cli("verify", "--max-n", "12", "--mc-samples", "100000")
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok]" in out
        assert "MISMATCH" not in out


class TestExitCodesEndToEnd:
    def test_usage_error_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "emoabench.cli", "run", "--problem", "bad"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_unknown_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "emoabench.cli", "run", "--nope"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_success_via_subprocess(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "emoabench.cli",
                "front", "--problem", "omm:n=4",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0,4" in proc.stdout
