"""Experiment runner: CSV schema, reproducibility, statistics, bound rows."""

import csv
import math

import pytest

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
        assert report.rows[0].bound == bound_value("omm", OMM20, 21)

    def test_single_repetition_has_no_interval(self):
        rows = [ResultRow(OMM20, cfg(), 0, 100, 121, False, 0.0)]
        row = build_bound_report(ExperimentSpec(OMM20, cfg()), rows).rows[0]
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
        assert applicable_theorems(ProblemInstance.momm(8, 4), cfg()) == []


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

    def test_bound_report(self):
        spec = ExperimentSpec(OMM20, cfg(), repetitions=10, master_seed=1, bound_report=True)
        rows, report = run_experiment(spec, jobs=1)
        assert report is not None and len(report.rows) == 1
        row = report.rows[0]
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
        assert not report.rows[0].passed


def test_write_csv_round_trip(tmp_path):
    row = ResultRow(OMM20, cfg(), 0, 10, 31, False, 0.5)
    path = tmp_path / "x.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([CSV_HEADER, row.as_csv()])
    data = read_csv(path)
    assert data[0] == CSV_HEADER
    assert len(data[1]) == len(CSV_HEADER)
    assert data[1][CSV_HEADER.index("iterations")] == "10"
