"""The narrative demo scripts import and (the fast one) run."""

import importlib.util
from pathlib import Path

import pytest

from emoabench import AlgorithmConfig, ProblemInstance, bound_value
from emoabench.algorithms import run_limits
from emoabench.bounds import proven_theorem

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    ["front_structure", "heavy_tailed_mutation", "runtime_bounds", "stochastic_update"],
)
def test_demo_imports(name):
    assert callable(load(name).main)


def test_front_structure_compares_against_the_family_instance(capsys):
    load("front_structure").main()
    out = capsys.readouterr().out
    # the family lives on k = n'/2, whose front has 3^2 points for any n'
    assert "19 mutually incomparable inner points vs front size 9" in out
    assert "front size 1521" not in out


def test_runtime_bounds_prints_the_proven_bound(capsys):
    inst, cfg = ProblemInstance.mojzj(8, 2, 2), AlgorithmConfig(mu=None)
    load("runtime_bounds").run_case("mojzj n=8", inst, cfg, 5)
    out = capsys.readouterr().out
    mu, _ = run_limits(inst, cfg)
    theorem = proven_theorem(inst.kind, cfg.algo, cfg.update, cfg.mutation.kind)
    assert out.startswith(f"mojzj n=8      mu={mu:<3} reps=5    mean=")
    assert out.endswith(f"  {theorem} bound {bound_value(theorem, inst, mu):.3e}\n")
