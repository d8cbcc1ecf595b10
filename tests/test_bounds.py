"""Pins each run setting's iteration cap and bound report.

For every valid pairing of problem kind, algorithm, update rule and
mutation, at auto and at explicit mu, the table holds the run's
(mu, auto iteration cap) and the bound report's (theorem, bound, passed)
rows for three uncensored repetitions of 1000, 2000 and 3000 iterations
(mean 2000 plus a 95% half-width of 1131.6).  momm at n = 2, m = 4 has
block length 1, where its cap reads the gap-1 mojzj bound beyond the
largest gap n'/2.
"""

from dataclasses import astuple

import pytest

from emoabench.algorithms import AlgorithmConfig, run_limits
from emoabench.benchmarks import parse_problem
from emoabench.harness import ExperimentSpec, ResultRow, build_bound_report
from emoabench.variation import MutationOperator

ALGOS = {"sms": "sms_emoa", "gsemo": "gsemo"}
MUTATIONS = {
    "standard": MutationOperator("standard"),
    "heavy": MutationOperator("heavy_tailed", 1.5),
}

# (problem, algo, update, mutation, mu) -> (mu, cap, ((theorem, bound, passed), ...))
PINNED = {
    ('omm:n=8', 'sms', 'standard', 'standard', None): (9, 120539, (('omm', 1205.3937577752295, False),)),
    ('omm:n=8', 'sms', 'standard', 'standard', 5): (5, 66966, (('omm', 669.6631987640163, False),)),
    ('omm:n=8', 'sms', 'standard', 'heavy', None): (9, 120539, (('omm', 1205.3937577752295, False),)),
    ('omm:n=8', 'sms', 'standard', 'heavy', 5): (5, 66966, (('omm', 669.6631987640163, False),)),
    ('omm:n=8', 'sms', 'stochastic', 'standard', None): (19, 254472, (('omm', 2544.7201553032623, False),)),
    ('omm:n=8', 'sms', 'stochastic', 'standard', 5): (5, 66966, (('omm', 669.6631987640163, False),)),
    ('omm:n=8', 'sms', 'stochastic', 'heavy', None): (19, 254472, (('omm', 2544.7201553032623, False),)),
    ('omm:n=8', 'sms', 'stochastic', 'heavy', 5): (5, 66966, (('omm', 669.6631987640163, False),)),
    ('omm:n=8', 'gsemo', 'standard', 'standard', None): (9, 120539, ()),
    ('omm:n=8', 'gsemo', 'standard', 'heavy', None): (9, 120539, ()),
    ('lotz:n=8', 'sms', 'standard', 'standard', None): (9, 313146, (('lotz', 3131.46066638482, False),)),
    ('lotz:n=8', 'sms', 'standard', 'standard', 5): (5, 173970, (('lotz', 1739.7003702137888, False),)),
    ('lotz:n=8', 'sms', 'standard', 'heavy', None): (9, 313146, (('lotz', 3131.46066638482, False),)),
    ('lotz:n=8', 'sms', 'standard', 'heavy', 5): (5, 173970, (('lotz', 1739.7003702137888, False),)),
    ('lotz:n=8', 'sms', 'stochastic', 'standard', None): (19, 661086, (('lotz', 6610.861406812398, True),)),
    ('lotz:n=8', 'sms', 'stochastic', 'standard', 5): (5, 173970, (('lotz', 1739.7003702137888, False),)),
    ('lotz:n=8', 'sms', 'stochastic', 'heavy', None): (19, 661086, (('lotz', 6610.861406812398, True),)),
    ('lotz:n=8', 'sms', 'stochastic', 'heavy', 5): (5, 173970, (('lotz', 1739.7003702137888, False),)),
    ('lotz:n=8', 'gsemo', 'standard', 'standard', None): (9, 313146, ()),
    ('lotz:n=8', 'gsemo', 'standard', 'heavy', None): (9, 313146, ()),
    ('momm:n=8,m=4', 'sms', 'standard', 'standard', None): (25, 1391574, ()),
    ('momm:n=8,m=4', 'sms', 'standard', 'standard', 5): (5, 278314, ()),
    ('momm:n=8,m=4', 'sms', 'standard', 'heavy', None): (25, 1391574, ()),
    ('momm:n=8,m=4', 'sms', 'standard', 'heavy', 5): (5, 278314, ()),
    ('momm:n=8,m=4', 'sms', 'stochastic', 'standard', None): (51, 2838810, ()),
    ('momm:n=8,m=4', 'sms', 'stochastic', 'standard', 5): (5, 278314, ()),
    ('momm:n=8,m=4', 'sms', 'stochastic', 'heavy', None): (51, 2838810, ()),
    ('momm:n=8,m=4', 'sms', 'stochastic', 'heavy', 5): (5, 278314, ()),
    ('momm:n=8,m=4', 'gsemo', 'standard', 'standard', None): (25, 1391574, ()),
    ('momm:n=8,m=4', 'gsemo', 'standard', 'heavy', None): (25, 1391574, ()),
    ('momm:n=2,m=4', 'sms', 'standard', 'standard', None): (4, 13887, ()),
    ('momm:n=2,m=4', 'sms', 'standard', 'standard', 5): (5, 17359, ()),
    ('momm:n=2,m=4', 'sms', 'standard', 'heavy', None): (4, 13887, ()),
    ('momm:n=2,m=4', 'sms', 'standard', 'heavy', 5): (5, 17359, ()),
    ('momm:n=2,m=4', 'sms', 'stochastic', 'standard', None): (9, 31247, ()),
    ('momm:n=2,m=4', 'sms', 'stochastic', 'standard', 5): (5, 17359, ()),
    ('momm:n=2,m=4', 'sms', 'stochastic', 'heavy', None): (9, 31247, ()),
    ('momm:n=2,m=4', 'sms', 'stochastic', 'heavy', 5): (5, 17359, ()),
    ('momm:n=2,m=4', 'gsemo', 'standard', 'standard', None): (4, 13887, ()),
    ('momm:n=2,m=4', 'gsemo', 'standard', 'heavy', None): (4, 13887, ()),
    ('mojzj:n=8,m=4,k=2', 'sms', 'standard', 'standard', None): (25, 4173790, (('sms', 41737.90656948484, True),)),
    ('mojzj:n=8,m=4,k=2', 'sms', 'standard', 'standard', 5): (5, 834758, (('sms', 8347.581313896968, True),)),
    ('mojzj:n=8,m=4,k=2', 'sms', 'standard', 'heavy', None): (25, 4173790, ()),
    ('mojzj:n=8,m=4,k=2', 'sms', 'standard', 'heavy', 5): (5, 834758, ()),
    ('mojzj:n=8,m=4,k=2', 'sms', 'stochastic', 'standard', None): (51, 7738191, (('spu', 77381.91649967006, True),)),
    ('mojzj:n=8,m=4,k=2', 'sms', 'stochastic', 'standard', 5): (5, 758646, (('spu', 7586.462401928436, True),)),
    ('mojzj:n=8,m=4,k=2', 'sms', 'stochastic', 'heavy', None): (51, 7738191, ()),
    ('mojzj:n=8,m=4,k=2', 'sms', 'stochastic', 'heavy', 5): (5, 758646, ()),
    ('mojzj:n=8,m=4,k=2', 'gsemo', 'standard', 'standard', None): (25, 4173790, (('gsemo', 41737.90656948484, True),)),
    ('mojzj:n=8,m=4,k=2', 'gsemo', 'standard', 'heavy', None): (25, 4173790, ()),
}


@pytest.mark.parametrize("setting", list(PINNED), ids=lambda s: "-".join(map(str, s)))
def test_run_limits_and_bound_report_are_pinned(setting):
    problem, algo, update, mutation, mu = setting
    inst = parse_problem(problem)
    cfg = AlgorithmConfig(
        algo=ALGOS[algo], mu=mu, mutation=MUTATIONS[mutation], update=update
    )
    rows = [
        ResultRow(inst, cfg, rep, it, it, False, 0.0)
        for rep, it in enumerate((1000, 2000, 3000))
    ]
    report = build_bound_report(ExperimentSpec(inst, cfg), rows)
    got = (*run_limits(inst, cfg), () if report is None else (astuple(report),))
    assert got == PINNED[setting]


def test_explicit_cap_is_kept():
    inst = parse_problem("mojzj:n=8,m=4,k=2")
    for algo, mu in (("sms_emoa", 5), ("sms_emoa", None), ("gsemo", None)):
        cfg = AlgorithmConfig(algo=algo, mu=mu, max_iterations=700)
        assert run_limits(inst, cfg)[1] == 700
