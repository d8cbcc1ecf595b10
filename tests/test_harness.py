"""Experiment runner: CSV schema, reproducibility, statistics, bound rows."""

import csv
import math
from dataclasses import replace

import pytest

from emoabench import harness
from emoabench.algorithms import AlgorithmConfig
from emoabench.benchmarks import ProblemInstance
from emoabench.bounds import bound_value
from emoabench.harness import (
    CSV_HEADER,
    ExperimentSpec,
    ResultRow,
    applicable_theorems,
    build_bound_report,
    run_experiment,
    summarize,
)
from emoabench.variation import MutationOperator

OMM20 = ProblemInstance.oneminmax(20)


def cfg(**kw):
    kw.setdefault("mutation", MutationOperator("standard"))
    return AlgorithmConfig(**kw)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSpec:
    def test_repetitions_positive(self):
        with pytest.raises(ValueError):
            ExperimentSpec(OMM20, cfg(), repetitions=0)


class TestBoundValues:
    def test_oneminmax_bound(self):
        v = bound_value("omm", OMM20, 21)
        assert v == pytest.approx(2 * math.e * 21 * 20 * (math.log(20) + 1))
        assert v == pytest.approx(9123.7, abs=0.5)

    def test_lotz_bound(self):
        v = bound_value("lotz", ProblemInstance.lotz(20), 21)
        assert v == pytest.approx(2 * math.e * 21 * 400)

    def test_jump_bound(self):
        inst = ProblemInstance.mojzj(12, 4, 2)
        v = bound_value("sms", inst, 49)
        expect = math.e * 49 * 16 * (1 + math.log(4)) + math.e * 49 * 25 * 144
        assert v == pytest.approx(expect)

    def test_stochastic_bound_has_capped_factor(self):
        inst = ProblemInstance.mojzj(12, 4, 2)
        mu = 99
        v = bound_value("spu", inst, mu)
        factor = min(1.0, 4 * math.e * mu / 2**2)
        expect = (
            math.e * mu * 16 * (1 + math.log(4))
            + math.e * 12 * mu * 9
            + math.e * mu * (25 - 9) * 144 * factor
        )
        assert v == pytest.approx(expect)

    def test_auto_mu_resolved(self):
        # the report resolves mu=None to auto_mu: n+1 = 21 for OneMinMax
        rows = [ResultRow(OMM20, cfg(), 0, 100, 121, False, 0.0)]
        report = build_bound_report(ExperimentSpec(OMM20, cfg()), rows)
        assert report[0].bound == bound_value("omm", OMM20, 21)

    def test_single_repetition_has_no_interval(self):
        rows = [ResultRow(OMM20, cfg(), 0, 100, 121, False, 0.0)]
        (row,) = build_bound_report(ExperimentSpec(OMM20, cfg()), rows)
        assert row.empirical_mean == 100 < row.bound
        assert math.isnan(row.ci_half_width)
        assert not row.passed

    def test_inapplicable_pairings(self):
        with pytest.raises(ValueError):
            bound_value("omm", ProblemInstance.lotz(8), 9)
        with pytest.raises(ValueError):
            bound_value("sms", OMM20, 21)

    def test_applicable_theorems(self):
        assert applicable_theorems(OMM20, cfg()) == ["omm"]
        jz = ProblemInstance.mojzj(8, 4, 2)
        assert applicable_theorems(jz, cfg()) == ["sms"]
        assert applicable_theorems(jz, cfg(update="stochastic")) == ["spu"]
        assert applicable_theorems(jz, cfg(algo="gsemo")) == ["gsemo"]
        # no explicit-constant closed form for these
        assert applicable_theorems(jz, cfg(mutation=MutationOperator("heavy_tailed", 1.5))) == []
        heavy_gsemo = cfg(algo="gsemo", mutation=MutationOperator("heavy_tailed", 1.5))
        assert applicable_theorems(jz, heavy_gsemo) == []
        assert applicable_theorems(ProblemInstance.momm(8, 4), cfg()) == []
        rows = [ResultRow(OMM20, cfg(), 0, 100, 121, False, 0.0)]
        momm = ExperimentSpec(ProblemInstance.momm(8, 4), cfg())
        assert build_bound_report(momm, rows) == ()


class TestRunExperiment:
    def test_rows_and_csv(self, tmp_path):
        out = tmp_path / "runs.csv"
        spec = ExperimentSpec(OMM20, cfg(), repetitions=4, master_seed=9, out=out)
        rows, report = run_experiment(spec, jobs=1)
        assert len(rows) == 4
        assert report is None
        data = read_csv(out)
        assert data[0] == CSV_HEADER
        assert len(data) == 5
        first = dict(zip(CSV_HEADER, data[1]))
        assert first["problem"] == "omm"
        assert first["n"] == "20"
        assert first["algo"] == "sms"
        assert first["rep"] == "0"
        assert first["censored"] == "0"
        assert int(first["evaluations"]) == int(first["iterations"]) + 21

    def test_deterministic_apart_from_wall_clock(self, tmp_path):
        def strip_seconds(path):
            return [row[:-1] for row in read_csv(path)]

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(ExperimentSpec(OMM20, cfg(), 3, 123, a), jobs=1)
        run_experiment(ExperimentSpec(OMM20, cfg(), 3, 123, b), jobs=1)
        assert strip_seconds(a) == strip_seconds(b)

    def test_reps_independent_of_scheduling(self):
        spec = ExperimentSpec(OMM20, cfg(), repetitions=4, master_seed=5)
        serial, _ = run_experiment(spec, jobs=1)
        parallel, _ = run_experiment(spec, jobs=2)
        assert [r.iterations for r in serial] == [r.iterations for r in parallel]

    def test_rows_share_problem_and_config_across_jobs(self, tmp_path):
        def strip_seconds(path):
            return [row[:-1] for row in read_csv(path)]

        base = cfg(max_iterations=3000)
        for jobs in (1, 2):
            spec = ExperimentSpec(OMM20, base, 4, 11, tmp_path / f"jobs{jobs}.csv")
            rows, _ = run_experiment(spec, jobs=jobs)
            # one problem object and one seeded config for all rows, not a
            # copy per pooled repetition
            assert all(row.problem is spec.problem for row in rows)
            assert all(row.config is rows[0].config for row in rows)
            assert rows[0].config == replace(base, seed=11)
            assert [row.rep for row in rows] == [0, 1, 2, 3]
        assert strip_seconds(tmp_path / "jobs1.csv") == strip_seconds(tmp_path / "jobs2.csv")

    def test_pool_has_no_more_workers_than_repetitions(self, monkeypatch):
        # a stand-in executor that records its size and maps in this
        # process, so the test starts no worker
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        rows, _ = run_experiment(ExperimentSpec(OMM20, cfg(), 2, 3), jobs=500)
        assert sizes == [2]
        assert [row.rep for row in rows] == [0, 1]
        # a single repetition runs in this process
        run_experiment(ExperimentSpec(OMM20, cfg(), 1, 3), jobs=500)
        assert sizes == [2]

    def test_negative_master_seed_rejected_before_the_csv(self, tmp_path):
        out = tmp_path / "runs.csv"
        with pytest.raises(ValueError, match="seed must be >= 0, got -2"):
            run_experiment(ExperimentSpec(OMM20, cfg(), 2, -2, out), jobs=1)
        assert not out.exists()

    def test_bound_report(self):
        spec = ExperimentSpec(OMM20, cfg(), repetitions=10, master_seed=1, bound_report=True)
        rows, report = run_experiment(spec, jobs=1)
        assert report is not None and len(report) == 1
        row = report[0]
        assert row.theorem == "omm"
        assert row.passed
        assert row.empirical_mean + row.ci_half_width <= row.bound


class TestStatistics:
    def test_summarize(self):
        rows = [
            ResultRow(OMM20, cfg(), i, iters, iters + 21, False, 0.0)
            for i, iters in enumerate([100, 200, 300])
        ]
        s = summarize(rows)
        assert s.mean_iterations == 200
        assert s.median_iterations == 200
        assert s.censored == 0
        assert s.ci_half_width == pytest.approx(1.96 * 100 / math.sqrt(3))

    def test_censored_excluded_from_mean(self):
        rows = [
            ResultRow(OMM20, cfg(), 0, 100, 121, False, 0.0),
            ResultRow(OMM20, cfg(), 1, 10**6, 10**6 + 21, True, 0.0),
        ]
        s = summarize(rows)
        assert s.censored == 1
        assert s.mean_iterations == 100

    def test_all_censored(self):
        rows = [ResultRow(OMM20, cfg(), 0, 5, 26, True, 0.0)]
        s = summarize(rows)
        assert s.censored == 1
        assert math.isnan(s.mean_iterations)

    def test_censored_runs_fail_bound(self):
        spec = ExperimentSpec(OMM20, cfg(max_iterations=1), repetitions=2, master_seed=0)
        rows, _ = run_experiment(spec, jobs=1)
        report = build_bound_report(spec, rows)
        assert not report[0].passed


def test_write_csv_round_trip(tmp_path):
    row = ResultRow(OMM20, cfg(), 0, 10, 31, False, 0.5)
    path = tmp_path / "x.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([CSV_HEADER, row.as_csv()])
    data = read_csv(path)
    assert data[0] == CSV_HEADER
    assert len(data[1]) == len(CSV_HEADER)
    assert data[1][CSV_HEADER.index("iterations")] == "10"
