"""Command-line interface: subcommands, config files, exit codes."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import emoabench
from emoabench import harness, oracle
from emoabench.benchmarks import ProblemInstance
from emoabench.cli import main


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout/stderr via capsys at the
    call site; returns the exit code."""
    return main(list(argv))


def failing_first_rep(args):
    """A stand-in repetition, sent to pool workers by reference: rep 0
    raises, every other rep returns at once."""
    rep = args[2]
    if rep == 0:
        raise ValueError("rep 0 failed")
    return rep, 1, 1, False, 0.0


def run_module(*argv):
    """Run ``python -m emoabench.cli`` in a child process that imports the
    package under test, installed or not."""
    path = [str(Path(emoabench.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "emoabench.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


class TestRun:
    def test_basic_run(self, capsys):
        code = run_cli("run", "--problem", "omm:n=10", "--reps", "2", "--seed", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_iters" in out
        assert "censored=0" in out

    def test_summary_names_the_mu_that_ran(self, capsys):
        code = run_cli(
            "run", "--problem", "mojzj:n=12,m=4,k=2", "--update", "stochastic",
            "--max-iters", "10",
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "problem=mojzj:n=12,m=4,k=2 algo=sms mu=99 mutation=standard update=stochastic"
        )
        # the archive algorithm has no mu or update rule to report
        code = run_cli("run", "--problem", "omm:n=8", "--algo", "gsemo", "--reps", "2")
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "problem=omm:n=8 algo=gsemo mutation=standard"
        )

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

    @pytest.mark.parametrize(
        "argv, setting",
        [
            (["--problem", "momm:n=8,m=4"], "momm:n=8,m=4 with sms/standard"),
            (["--problem", "mojzj:n=8,m=2,k=2", "--mutation", "heavy"],
             "mojzj:n=8,m=2,k=2 with sms/heavy"),
            (["--problem", "omm:n=6", "--algo", "gsemo"], "omm:n=6 with gsemo/standard"),
            (["--problem", "mojzj:n=8,m=4,k=2", "--algo", "gsemo", "--mutation", "heavy"],
             "mojzj:n=8,m=4,k=2 with gsemo/heavy"),
        ],
        ids=["momm", "heavy-tailed", "gsemo-omm", "gsemo-heavy"],
    )
    def test_bounds_without_closed_form_say_so(self, capsys, argv, setting):
        code = run_cli("run", *argv, "--reps", "2", "--max-iters", "50", "--bounds")
        out = capsys.readouterr().out
        assert code == 0
        assert f"bound: no closed-form bound for {setting} mutation\n" in out
        assert "bound[" not in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_warning_prints_without_source_location(self, capfd, jobs):
        code = run_cli(
            "run", "--problem", "lotz:n=8", "--mu", "5", "--reps", "2", "--max-iters", "200",
            "--jobs", jobs,
        )
        lines = capfd.readouterr().err.splitlines()
        assert code == 0
        # one line per run, however many processes ran its repetitions
        assert lines == [
            "warning: mu=5 is below the survival-guarantee regime (>= 9 for standard "
            "update); covered front values may be lost"
        ]

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = run_cli("run", "--problem", "omm:n=6", "--seed", "-1", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        assert "error: seed must be >= 0, got -1" in captured.err
        assert not out.exists()

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

    def test_gsemo_rejects_options_it_does_not_read(self, capsys):
        base = ("run", "--problem", "mojzj:n=8,m=4,k=2", "--algo", "gsemo", "--reps", "1")
        for extra in (
            ("--mu", "3", "--update", "stochastic"),
            ("--mu", "3"),
            ("--update", "stochastic"),
        ):
            assert run_cli(*base, *extra) == 1
            captured = capsys.readouterr()
            assert "gsemo" in captured.err and captured.out == ""
        assert run_cli(*base, "--mu", "auto", "--update", "standard") == 0

    def test_beta_only_with_heavy_mutation(self, tmp_path, capsys):
        # standard mutation reads no beta, so giving one is a usage error
        base = ("run", "--problem", "omm:n=10", "--reps", "2")
        assert run_cli(*base, "--beta", "0.2") == 1
        assert "beta is only meaningful" in capsys.readouterr().err
        conf = tmp_path / "exp.conf"
        conf.write_text("problem = omm:n=10\nreps = 2\nbeta = 2.5\n")
        assert run_cli("run", "--config", str(conf)) == 1
        assert "beta is only meaningful" in capsys.readouterr().err
        assert run_cli("run", "--config", str(conf), "--mutation", "heavy") == 0
        # heavy mutation defaults to 1.5 and still rejects beta <= 1
        out = tmp_path / "rows.csv"
        assert run_cli(*base, "--mutation", "heavy", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            assert [row[7] for row in csv.reader(fh)] == ["beta", "1.5", "1.5"]
        assert run_cli(*base, "--mutation", "heavy", "--beta", "0.2") == 1

    def test_refpoint_flag_is_unrecognized(self, capsys):
        # the hypervolume reference point is fixed, so it is no flag
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--problem", "omm:n=8", "--refpoint=-1,-1")
        assert exc.value.code == 1
        assert "unrecognized arguments: --refpoint=-1,-1" in capsys.readouterr().err

    def test_csv_mu_column_matches_summary(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        # GSEMO's archive has neither a mu nor an update rule to write
        for algo, mu, update in (("sms", "9", "standard"), ("gsemo", "", "")):
            code = run_cli(
                "run", "--problem", "omm:n=8", "--algo", algo, "--reps", "2", "--out", str(out)
            )
            assert code == 0
            summary = capsys.readouterr().out.splitlines()[0]
            assert (f" mu={mu} " in summary) == (algo == "sms")
            assert summary.endswith(f" update={update}") == (algo == "sms")
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            for name, value in (("mu", mu), ("update", update)):
                column = rows[0].index(name)
                assert [row[column] for row in rows[1:]] == [value, value]

    def test_failed_run_creates_no_csv(self, tmp_path, capsys, monkeypatch):
        # the first repetition fails before any row is ready, pooled or not
        monkeypatch.setattr(harness, "_one_rep", failing_first_rep)
        out = tmp_path / "rows.csv"
        for jobs in ("1", "2"):
            code = run_cli(
                "run", "--problem", "omm:n=6", "--reps", "2", "--jobs", jobs, "--out", str(out)
            )
            assert code == 1
            assert "error: rep 0 failed" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_out_directory_fails_before_any_repetition(
        self, tmp_path, capsys, monkeypatch
    ):
        reps = []
        real = harness._one_rep

        def counted(args):
            reps.append(args[2])
            return real(args)

        monkeypatch.setattr(harness, "_one_rep", counted)
        out = tmp_path / "missing" / "x.csv"
        code = run_cli(
            "run", "--problem", "mojzj:n=12,m=4,k=2", "--reps", "2", "--jobs", "1",
            "--out", str(out),
        )
        assert code == 1
        assert str(out) in capsys.readouterr().err
        assert reps == [] and not out.parent.exists()
        # an existing directory, pooled or not
        for jobs in ("1", "2"):
            code = run_cli(
                "run", "--problem", "mojzj:n=12,m=4,k=2", "--reps", "2", "--jobs", jobs,
                "--out", str(tmp_path),
            )
            assert code == 1
            assert f"{tmp_path} is a directory" in capsys.readouterr().err
            assert reps == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, value",
        [("mu", "abc"), ("max-iters", "1.5"), ("beta", "abc"), ("seed", "x")],
        ids=["mu", "max-iters", "beta", "seed"],
    )
    def test_bad_number_names_its_option(self, tmp_path, capsys, key, value, source):
        if source == "flag":
            argv = ["--problem", "omm:n=6", f"--{key}={value}"]
        else:
            conf = tmp_path / "exp.conf"
            conf.write_text(f"problem = omm:n=6\n{key} = {value}\n")
            argv = ["--config", str(conf)]
        with pytest.raises(SystemExit) as exc:
            run_cli("run", *argv)
        assert exc.value.code == 1
        assert f"error: argument --{key}: " in capsys.readouterr().err

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

    def test_config_file_matches_flags(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        options = {
            "problem": "omm:n=8", "algo": "sms", "mu": "12", "mutation": "heavy",
            "beta": "2.5", "update": "stochastic", "reps": "2",
            "seed": "4", "max-iters": "5000", "out": str(out),
        }
        conf = tmp_path / "exp.conf"
        conf.write_text("".join(f"{k} = {v}\n" for k, v in options.items()) + "bounds = true\n")
        runs = []
        for argv in (
            ["--config", str(conf)],
            [f"--{k}={v}" for k, v in options.items()] + ["--bounds"],
        ):
            code = run_cli("run", *argv)
            with open(out, newline="") as fh:
                rows = [row[:-1] for row in csv.reader(fh)]  # all but seconds
            runs.append((code, capsys.readouterr().out, rows))
        assert runs[0] == runs[1]
        code, printed, rows = runs[0]
        assert "bound[omm]" in printed and "mutation=heavy update=stochastic" in printed
        assert rows[1][:10] == ["omm", "8", "2", "", "sms", "12", "heavy", "2.5", "stochastic", "4"]
        assert len(rows) == 3

    def test_config_file_rejects_unknown_keys_and_values(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("problem = omm:n=6\nrep = 50\nseeed = 3\nbounds = 1\n")
        assert run_cli("run", "--config", str(conf)) == 1
        assert "unknown key 'rep'" in capsys.readouterr().err
        # the hypervolume reference point is fixed, so it is no key
        conf.write_text("problem = omm:n=6\nrefpoint = -1,-1\n")
        assert run_cli("run", "--config", str(conf)) == 1
        assert "unknown key 'refpoint'" in capsys.readouterr().err
        conf.write_text("problem = omm:n=6\nbounds\n")
        assert run_cli("run", "--config", str(conf)) == 1
        assert ":2: expected key=value, got 'bounds'" in capsys.readouterr().err
        conf.write_text("problem = omm:n=6\nbounds = maybe\n")
        assert run_cli("run", "--config", str(conf)) == 1
        # file values go through the same checks as flags
        conf.write_text("problem = omm:n=6\nalgo = nsga\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(conf))
        assert exc.value.code == 1

    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys):
        for jobs in ("0", "-1"):
            assert run_cli("run", "--problem", "omm:n=6", "--jobs", jobs) == 1
            assert "jobs must be >= 1" in capsys.readouterr().err
            conf = tmp_path / "exp.conf"
            conf.write_text(f"problem = omm:n=6\njobs = {jobs}\n")
            assert run_cli("run", "--config", str(conf)) == 1

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
        code = run_cli("verify", "--max-n", "12")
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok]" in out
        assert "MISMATCH" not in out

    def test_small_max_n_skips_larger_instances(self, capsys):
        code = run_cli("verify", "--max-n", "8")
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "MISMATCH" not in "".join(lines)
        assert lines[0] == (
            "[ok] closed-form front vs brute force (20 instances, 25 of 45 above n=8 skipped)"
        )
        assert lines[1] == (
            "[ok] block membership vs brute-force non-dominance (1 of 2 above n=8 skipped)"
        )

    def test_membership_mismatch_is_reported_and_exits_2(self, capsys, monkeypatch):
        # a characterization that is wrong on one genome of mojzj(8, 4, 2)
        right = oracle.is_pareto_optimal
        monkeypatch.setattr(
            oracle, "is_pareto_optimal",
            lambda mask, inst: right(mask, inst) != (mask == 5 and inst.n == 8),
        )
        detail = f"membership mismatch at mask=5 on {ProblemInstance.mojzj(8, 4, 2)}"
        results = oracle.run_verification(max_n=8)
        assert results[1] == ("block membership vs brute-force non-dominance", False, detail)
        assert all(ok for _, ok, _ in results[:1] + results[2:])
        code = run_cli("verify", "--max-n", "8")
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert lines[1] == f"[MISMATCH] block membership vs brute-force non-dominance ({detail})"

    @pytest.mark.parametrize(
        "row, name, detail",
        [
            (0, "brute_force_front", r"front mismatch on mojzj:n=6,m=4,k=1"),
            (2, "hypervolume", r"HV mismatch on trial 0: (\d+) vs (\d+)"),
        ],
    )
    def test_engine_mismatch_is_reported_and_exits_2(
        self, capsys, monkeypatch, row, name, detail
    ):
        # a front wrong on one instance, a sweep off by one
        right, target = getattr(oracle, name), ProblemInstance.mojzj(6, 4, 1)
        wrong = {
            "brute_force_front": lambda inst, max_n: right(inst, max_n)
            - ({max(right(inst, max_n))} if inst == target else set()),
            "hypervolume": lambda pts, r: right(pts, r) + 1,
        }[name]
        monkeypatch.setattr(oracle, name, wrong)
        results = oracle.run_verification(max_n=8)
        assert [ok for _, ok, _ in results] == [i != row for i in range(len(results))]
        found = re.fullmatch(detail, results[row][2])
        assert found
        if name == "hypervolume":
            assert int(found[1]) == int(found[2]) + 1
        code = run_cli("verify", "--max-n", "8")
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert lines[row] == f"[MISMATCH] {results[row][0]} ({results[row][2]})"

    def test_fully_skipped_check_reads_skipped(self, capsys):
        code = run_cli("verify", "--max-n", "7")
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[1] == (
            "[skipped] block membership vs brute-force non-dominance (2 of 2 above n=7 skipped)"
        )
        assert all(line.startswith("[ok] ") for line in lines[:1] + lines[2:])

    @pytest.mark.parametrize("max_n", ["1", "0", "-3"])
    def test_max_n_below_two_is_usage_error(self, capsys, max_n):
        code = run_cli("verify", "--max-n", max_n)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"exhaustive enumeration cap must be >= 2, got {max_n}" in captured.err

    def test_max_n_above_24_is_usage_error(self, capsys):
        code = run_cli("verify", "--max-n", "25")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "exhaustive enumeration beyond n=24 is not desk-scale" in captured.err

    def test_monte_carlo_flag_is_unrecognized(self, capsys):
        # every hypervolume check is exact, so no sample count is read
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--mc-samples", "1000")
        assert exc.value.code == 1
        assert "unrecognized arguments: --mc-samples 1000" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        code = run_cli("verify", "--seed", "-1")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: seed must be >= 0, got -1" in captured.err


class TestExitCodesEndToEnd:
    def test_usage_error_via_subprocess(self):
        proc = run_module("run", "--problem", "bad")
        assert proc.returncode == 1
        assert "error: unknown problem" in proc.stderr

    def test_unknown_flag_is_usage_error(self):
        proc = run_module("run", "--nope")
        assert proc.returncode == 1
        assert "unrecognized arguments: --nope" in proc.stderr

    def test_success_via_subprocess(self):
        proc = run_module("front", "--problem", "omm:n=4")
        assert proc.returncode == 0
        assert "0,4" in proc.stdout
