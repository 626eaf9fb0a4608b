"""The check rule: a check on floats states the condition that must hold, or
first requires finite values, and raises a MarketGameError when it fails, so
a NaN fails it; no check is an ``assert``, which ``python -O`` skips."""

import ast
from pathlib import Path

import numpy as np
import pytest

from modelmarket import game
from modelmarket.entry import EntryDataset, RewardTable, TrainingConfig, resample_weights
from modelmarket.equilibrium import CentralizationParams
from modelmarket.errors import InvalidInstanceError, InvalidParameterError
from modelmarket.fixtures import builtin_instance
from modelmarket.game import AllocationMatrix, GameSpec, ScoreMatrix, UserPopulation
from modelmarket.metrics import GameAnalysis, MetricsRecord, ProfileScore, coverage_value
from modelmarket.synthetic import GmmComponent, GmmPopulationSpec

SRC = Path(__file__).resolve().parents[1] / "src" / "modelmarket"
NAN = float("nan")


def test_no_check_is_an_assert():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name)
                                                and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _market():
    return GameSpec(ScoreMatrix([[0.5, 0.2]]), UserPopulation(["a", "b"], [0.5, 0.5]), 1)


def _record(shares, hhi):
    score = ProfileScore(0.5, shares, hhi, 1, (0.5,))
    return MetricsRecord({(0,): score}, (0,), None, GameAnalysis(None, "", None, ""), 1.0)


def _component_total_nan():
    # a component whose weight skipped its own check reaches the weight total
    component = GmmComponent(1.0, [0.0], [[1.0]])
    object.__setattr__(component, "weight", NAN)
    return GmmPopulationSpec([component], k_types=1)


def _coverage_with_nan_average_scores(monkeypatch):
    monkeypatch.setattr(game, "average_scores", lambda spec: np.full(spec.n_models, NAN))
    return coverage_value(builtin_instance("c7_welfare_gap").spec, (0, 1))


# (error, message, a call that feeds NaN to the check, or inf where NaN
# already fails an earlier check of the same input)
NON_FINITE_CASES = {
    "allocation entries": (InvalidInstanceError, "allocation entries",
                           lambda mp: AllocationMatrix([[NAN], [1.0]])),
    "training gamma": (InvalidParameterError, "gamma", lambda mp: TrainingConfig(gamma=NAN)),
    "training lambda": (InvalidParameterError, "lambda", lambda mp: TrainingConfig(lam=NAN)),
    "attribute preferences": (InvalidInstanceError, "attribute preferences", lambda mp: EntryDataset(
        ["x1", "x2"], [1, 1], attributes=["u", "v"], type_attribute_prefs=[[NAN, 1.0]])),
    "resampling gamma": (InvalidParameterError, "gamma", lambda mp: resample_weights(
        EntryDataset(["x1", "x2"], [1, 1]), np.zeros(2), _market(), 4.0, NAN,
        RewardTable([[0.5, 0.5], [0.2, 0.8]]))),
    "component weight": (InvalidParameterError, "component weight",
                         lambda mp: GmmComponent(NAN, [0.0], [[1.0]])),
    "component mean": (InvalidInstanceError, "component mean",
                       lambda mp: GmmComponent(1.0, [NAN], [[1.0]])),
    "component covariance": (InvalidInstanceError, "covariance must be finite",
                             lambda mp: GmmComponent(1.0, [0.0], [[float("inf")]])),
    "component weight total": (InvalidInstanceError, "component weights must sum to 1",
                               lambda mp: _component_total_nan()),
    "gamma_cap": (InvalidParameterError, "gamma_cap", lambda mp: CentralizationParams(
        dominant_type=0, dominant_model=0, rho=1.0, gamma_cap=NAN, pi_star=0.5)),
    "share sum": (InvalidInstanceError, "shares must sum to the population's weight total", lambda mp: _record((NAN,), 1.0)),
    "hhi identity": (InvalidInstanceError, "hhi must equal", lambda mp: _record((1.0,), NAN)),
    "coverage decomposition": (InvalidInstanceError, "coverage decomposition mismatch",
                               _coverage_with_nan_average_scores),
}


@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_a_non_finite_value_fails_the_check(case, monkeypatch):
    error, message, call = NON_FINITE_CASES[case]
    with pytest.raises(error, match=message):
        call(monkeypatch)
