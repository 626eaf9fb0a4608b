"""The check rule: a check on floats states the condition that must hold, or
first requires finite values, and raises a MarketGameError when it fails, so
a NaN fails it; no check is an ``assert``, which ``python -O`` skips."""

import ast
from pathlib import Path

import numpy as np
import pytest

from modelmarket import game
from modelmarket.entry import (EntryDataset, RewardBaseline, RewardTable, ToyGenerator, TrainingConfig,
                               _reinforce_gradients, adoption_gate, grad_s_reinforce, resample_weights,
                               train_resampling)
from modelmarket.equilibrium import (CentralizationParams, centralization_check, check_differentiated_condition,
                                     check_homogeneous_condition, enumerate_pne, run_dynamics)
from modelmarket.errors import MarketGameError
from modelmarket.fixtures import builtin_instance
from modelmarket.game import ChoiceRule, GameSpec, ScoreMatrix, UserPopulation
from modelmarket.metrics import GameAnalysis, MetricsRecord, ProfileScore, coverage_value, social_optimum
from modelmarket.preferences import PreferenceTable, scores_from_preferences
from modelmarket.synthetic import (GmmComponent, GmmPopulationSpec, RbfKernel, RbfModelSpec, rbf_scores,
                                   seeded_kmeans)

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


def test_no_code_is_generated():
    """No module imports ``dataclasses``, ``NamedTuple`` or ``namedtuple`` or calls ``exec``,
    ``eval`` or ``compile``, so importing the package builds no method from source text:
    records subclass ``game.Record`` and ``config.Field`` is a plain class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(m is not None and m.split(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.name}:{node.lineno} imports dataclasses")
            named = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [f"{path.name}:{node.lineno} reads {n}" for n in named if n in ("NamedTuple", "namedtuple")]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                found.append(f"{path.name}:{node.lineno} calls {node.func.id}")
    assert found == []


ERROR_CLASSES = {"MarketGameError", "BudgetExceededError", "TrainingDivergedError"}


def test_every_refusal_raises_one_error_class():
    """A refusal raises MarketGameError, or one of the two subclasses that carry
    data; no check is handed the class it raises."""
    raised, takes_error = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                named = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(named, ast.Name) and named.id in ERROR_CLASSES):
                    raised.append(f"{path.name}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                if "error" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                    takes_error.append(f"{path.name}:{node.lineno}")
    defined = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    assert raised == []
    assert defined == ERROR_CLASSES
    assert takes_error == []


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


# (message, a call that feeds NaN to the check, or inf where NaN
# already fails an earlier check of the same input)
NON_FINITE_CASES = {
    "training gamma": ("gamma", lambda mp: TrainingConfig(gamma=NAN)),
    "training lambda": ("lambda", lambda mp: TrainingConfig(lam=NAN)),
    "attribute preferences": ("attribute preferences", lambda mp: EntryDataset(
        ["x1", "x2"], [1, 1], attributes=["u", "v"], type_attribute_prefs=[[NAN, 1.0]])),
    "resampling gamma": ("gamma", lambda mp: resample_weights(
        EntryDataset(["x1", "x2"], [1, 1]), np.zeros(2), _market(), 4.0, NAN,
        RewardTable([[0.5, 0.5], [0.2, 0.8]]))),
    "component weight": ("component weight",
                         lambda mp: GmmComponent(NAN, [0.0], [[1.0]])),
    "component mean": ("component mean",
                       lambda mp: GmmComponent(1.0, [NAN], [[1.0]])),
    "component covariance": ("covariance must be finite",
                             lambda mp: GmmComponent(1.0, [0.0], [[float("inf")]])),
    "component weight total": ("component weights must sum to 1",
                               lambda mp: _component_total_nan()),
    "gamma_cap": ("gamma_cap", lambda mp: CentralizationParams(
        dominant_type=0, rho=1.0, gamma_cap=NAN)),
    "share sum": ("shares must sum to the population's weight total", lambda mp: _record((NAN,), 1.0)),
    "hhi identity": ("hhi must equal", lambda mp: _record((1.0,), NAN)),
    "coverage decomposition": ("coverage decomposition mismatch",
                               _coverage_with_nan_average_scores),
}


@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_a_non_finite_value_fails_the_check(case, monkeypatch):
    message, call = NON_FINITE_CASES[case]
    with pytest.raises(MarketGameError, match=message):
        call(monkeypatch)


# the library's parameter checks that read a config.Field: the name each
# message gives, and a call that feeds the parameter a value
def _central(**values):
    return CentralizationParams(**{"dominant_type": 0, "rho": 1.0, "gamma_cap": 0.0, **values})


def _reinforce_inputs(n_samples):
    # (generator, rewards, type, n_samples, baseline, rng) for one REINFORCE estimate
    return (ToyGenerator.from_distribution(["x1", "x2"], [0.5, 0.5]), RewardTable([[0.5, 0.5], [0.2, 0.8]]),
            0, n_samples, RewardBaseline.zeros(2, 0.9), np.random.default_rng(0))


def _gmm(**values):
    return GmmPopulationSpec([GmmComponent(1.0, [0.0], [[1.0]])], **{"k_types": 1, **values})


NUMBER_PARAMETERS = {
    **{f"TrainingConfig.{name}": (name, lambda v, key=key: TrainingConfig(**{key: v}))
       for name, key in (("beta", "beta"), ("gamma", "gamma"), ("lambda", "lam"),
                         ("learning_rate", "learning_rate"), ("baseline_decay", "baseline_decay"),
                         ("blend", "blend"))},
    "adoption_gate.beta": ("beta", lambda v: adoption_gate(np.zeros(2), _market(), v)),
    "resample_weights.gamma": ("gamma", lambda v: resample_weights(
        EntryDataset(["x1", "x2"], [1, 1]), np.zeros(2), _market(), 4.0, v,
        RewardTable([[0.5, 0.5], [0.2, 0.8]]))),
    "GmmPopulationSpec.dx": ("dx", lambda v: _gmm(dx=v)),
    "GmmComponent.weight": ("component weight", lambda v: GmmComponent(v, [0.0], [[1.0]])),
    "RbfKernel.width": ("kernel width", lambda v: RbfKernel((0.0,), 1.0, v)),
    "RbfKernel.amplitude": ("kernel amplitude", lambda v: RbfKernel((0.0,), v, 1.0)),
    "RbfKernel.center": ("an entry of kernel center", lambda v: RbfKernel((0.0, v), 1.0, 1.0)),
    "RbfModelSpec.bias": ("model bias", lambda v: RbfModelSpec(v, [RbfKernel((0.0,), 1.0, 1.0)])),
    "ChoiceRule.tau": ("tau", lambda v: ChoiceRule.softmax(v)),
    **{f"CentralizationParams.{name}": (name, lambda v, name=name: _central(**{name: v}))
       for name in ("rho", "gamma_cap")},
}


@pytest.mark.parametrize("value", [NAN, float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(NUMBER_PARAMETERS))
def test_every_number_parameter_refuses_a_non_finite_value(case, value):
    name, call = NUMBER_PARAMETERS[case]
    with pytest.raises(MarketGameError) as info:
        call(value)
    assert str(info.value) == f"{name} must be finite (got {value!r})"


# (message, a call that breaks one bound of a config.Field)
BOUND_CASES = {
    "beta": ("beta must be > 0 (got 0)", lambda: TrainingConfig(beta=0)),
    "baseline_decay": ("baseline_decay must be < 1 (got 1)",
                       lambda: TrainingConfig(baseline_decay=1)),
    "blend": ("blend must be <= 1 (got 1.5)", lambda: TrainingConfig(blend=1.5)),
    "blend at 0": ("blend must be > 0 (got 0.0)", lambda: TrainingConfig(blend=0.0)),
    "rho": ("rho must be > 0 (got 0)", lambda: _central(rho=0)),
    "k_types": ("k_types must be >= 1 (got 0)", lambda: _gmm(k_types=0)),
    "tau": ("tau must be > 0 (got 0)", lambda: ChoiceRule.softmax(0)),
    "tau missing": ("tau must be a number (got None)",
                    lambda: ChoiceRule("softmax")),
    "tau under hardmax": ("a hardmax choice rule takes no tau (got 0.5)",
                          lambda: ChoiceRule("hardmax", 0.5)),
    "n_platforms": ("n_platforms must be >= 1 (got 0)",
                    lambda: _market().with_platforms(0)),
    "n_platforms bool": ("n_platforms must be an integer (got True)",
                         lambda: _market().with_platforms(True)),
    "max_steps": ("max_steps must be an integer (got 2.5)",
                  lambda: run_dynamics(_market(), (0,), max_steps=2.5)),
    "max_steps at 0": ("max_steps must be >= 1 (got 0)",
                       lambda: run_dynamics(_market(), (0,), max_steps=0)),
    "enumerate_pne budget string": ("budget must be an integer (got '10')",
                                    lambda: enumerate_pne(_market(), budget="10")),
    "enumerate_pne budget float": ("budget must be an integer (got 1000000000.0)",
                                   lambda: enumerate_pne(_market(), budget=1e9)),
    "enumerate_pne budget bool": ("budget must be an integer (got True)",
                                  lambda: enumerate_pne(_market(), budget=True)),
    "social_optimum budget None": ("budget must be an integer (got None)",
                                   lambda: social_optimum(_market(), budget=None)),
    "social_optimum budget bool": ("budget must be an integer (got True)",
                                   lambda: social_optimum(_market(), budget=True)),
    "social_optimum budget at -1": ("budget must be >= 0 (got -1)",
                                    lambda: social_optimum(_market(), budget=-1)),
    # library-only arguments, which read the field of the config value they stand for
    "model bias string": ("model bias must be a number (got '0.5')",
                          lambda: RbfModelSpec("0.5", [RbfKernel((0.0,), 1.0, 1.0)])),
    "model bias bool": ("model bias must be a number (got True)",
                        lambda: RbfModelSpec(True, [RbfKernel((0.0,), 1.0, 1.0)])),
    "kernel center entry": ("an entry of kernel center must be a number (got 'x')",
                            lambda: RbfKernel(("x", 0.0), 1.0, 1.0)),
    "kernel center bool": ("an entry of kernel center must be a number (got True)",
                           lambda: RbfKernel((0.0, True), 1.0, 1.0)),
    "kernel center scalar": ("kernel center must be a list (got 0.5)",
                             lambda: RbfKernel(0.5, 1.0, 1.0)),
    "k fraction": ("k must be an integer (got 2.5)",
                   lambda: seeded_kmeans(np.zeros((4, 1)), 2.5, np.random.default_rng(0))),
    "k bool": ("k must be an integer (got True)",
               lambda: seeded_kmeans(np.zeros((4, 1)), True, np.random.default_rng(0))),
    "uniform k at 0": ("k must be >= 1 (got 0)", lambda: UserPopulation.uniform(0)),
    "uniform k at -1": ("k must be >= 1 (got -1)", lambda: UserPopulation.uniform(-1)),
    "uniform k fraction": ("k must be an integer (got 2.5)",
                           lambda: UserPopulation.uniform(2.5)),
    "n_samples fraction": ("n_samples must be an integer (got 2.5)",
                           lambda: grad_s_reinforce(*_reinforce_inputs(2.5))),
    "n_samples bool": ("n_samples must be an integer (got True)",
                       lambda: grad_s_reinforce(*_reinforce_inputs(True))),
    "n_samples at 0": ("n_samples must be >= 1 (got 0)",
                       lambda: _reinforce_gradients(*_reinforce_inputs(0))),
}


@pytest.mark.parametrize("case", list(BOUND_CASES))
def test_a_library_bound_is_one_error_naming_the_parameter(case):
    message, call = BOUND_CASES[case]
    with pytest.raises(MarketGameError) as info:
        call()
    assert str(info.value) == message


def _softmax_pair():
    return builtin_instance("fig2_a").spec.with_choice(ChoiceRule.softmax(0.5))


# (message, a call) for each refusal of an input that no other test reaches
REFUSALS = {
    "negative population weight": ("weights must be finite and non-negative",
                                   lambda: UserPopulation(["a", "b"], [1.5, -0.5])),
    "NaN population weight": ("weights must be finite and non-negative",
                              lambda: UserPopulation(["a", "b"], [NAN, 1.0])),
    "unknown choice rule": ("unknown choice rule 'maxmin'", lambda: ChoiceRule("maxmin")),
    "preference weights shape": ("weights must be a K x C matrix matching labels and criteria",
                                 lambda: PreferenceTable(["c1", "c2"], ["a"], [0.5, 0.5])),
    "negative preference weight": ("preference weights must be finite and non-negative",
                                   lambda: PreferenceTable(["c1"], ["a"], [[-1.0]])),
    "negative performance": ("performance entries must be finite and non-negative",
                             lambda: scores_from_preferences([[-0.5]], PreferenceTable(["c1"], ["a"], [[1.0]]))),
    "1-D rbf types": ("types must be a K x d array of coordinates",
                      lambda: rbf_scores([RbfModelSpec(0.0, [RbfKernel((0.0,), 1.0, 1.0)])], [0.0, 1.0])),
    "logits length": ("logits must be one value per outcome",
                      lambda: ToyGenerator(["x1", "x2"], [0.0])),
    "one outcome": ("a generator needs at least two outcomes",
                    lambda: ToyGenerator(["x1"], [0.0])),
    "zero probability": ("distribution must be strictly positive and sum to 1",
                         lambda: ToyGenerator.from_distribution(["x1", "x2"], [1.0, 0.0])),
    "reward table outcomes": ("reward table does not match the dataset and population",
                              lambda: resample_weights(EntryDataset(["x1", "x2"], [1, 1]), np.zeros(2), _market(),
                                                       4.0, 1.0, RewardTable([[0.5, 0.5, 0.5], [0.2, 0.8, 0.0]]))),
    "init outcomes": ("initial generator does not match the dataset outcomes",
                      lambda: train_resampling(EntryDataset(["x1", "x2"], [1, 1]),
                                               RewardTable([[0.5, 0.5], [0.2, 0.8]]), _market(), TrainingConfig(),
                                               init=ToyGenerator.uniform(["x1", "x2", "x3"]))),
    "softmax differentiated": ("the differentiated-equilibrium condition is defined for hardmax instances",
                               lambda: check_differentiated_condition(_softmax_pair(), (0, 1))),
    "softmax homogeneous": ("the homogeneous-equilibrium condition is defined for hardmax instances",
                            lambda: check_homogeneous_condition(_softmax_pair(), 0)),
    "softmax centralization": ("the centralization check is defined for hardmax instances",
                               lambda: centralization_check(_softmax_pair(), CentralizationParams(0, 0.1, 0.0))),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_every_reachable_refusal_names_its_input(case):
    message, call = REFUSALS[case]
    with pytest.raises(MarketGameError) as info:
        call()
    assert str(info.value) == message


def test_numpy_scalars_pass_the_checks():
    config = TrainingConfig(beta=np.float64(2.0), outer_rounds=np.int64(2), blend=np.float32(0.5))
    assert (config.beta, config.outer_rounds) == (2.0, 2)
    spec = _market().with_platforms(np.int64(2))
    assert spec.n_platforms == 2 and type(spec.n_platforms) is int
    assert ChoiceRule.softmax(np.float64(0.5)).tau == 0.5 and type(ChoiceRule.softmax(1).tau) is float


def test_config_imports_only_errors_from_the_package():
    # the library's records import config's tables, so config imports none of them
    tree = ast.parse((SRC / "config.py").read_text())
    imported = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert imported == ["errors"]


# every record that takes a list of labels, given a repeated one; labels are
# compared as the strings they are stored as
DUPLICATE_LABEL_CASES = {
    "population": ("user type labels", lambda: UserPopulation(["a", "a"], [0.5, 0.5])),
    "score matrix": ("model labels", lambda: ScoreMatrix([[0.5], [0.2]], [1, "1"])),
    "preference criteria": ("preference criteria",
                            lambda: PreferenceTable(["c", "c"], ["a"], [[0.5, 0.5]])),
    "preference types": ("user type labels", lambda: PreferenceTable(["c"], ["a", "a"], [[1.0], [1.0]])),
    "generator outcomes": ("outcome labels", lambda: ToyGenerator(["x", "x"], [0.0, 0.0])),
    "dataset outcomes": ("outcome labels", lambda: EntryDataset(["x", "x"], [1, 1])),
    # read as it was, every "u2" named column 1, so x2's resampling weight was
    # 0 where merging the two "u2" columns gives it 0.75
    "dataset attributes": ("attribute labels", lambda: EntryDataset(
        ["x1", "x2"], [1, 1], attributes=["u1", "u2"], attribute_labels=["u1", "u2", "u2"],
        type_attribute_prefs=[[0.25, 0.0, 0.75]])),
}


@pytest.mark.parametrize("case", list(DUPLICATE_LABEL_CASES))
def test_a_repeated_label_is_refused_naming_its_list(case):
    name, call = DUPLICATE_LABEL_CASES[case]
    with pytest.raises(MarketGameError) as info:
        call()
    assert str(info.value) == f"{name} must be unique"


def test_absent_labels_default_to_numbered_ones():
    assert ScoreMatrix([[0.5], [0.2]]).model_labels == ("g1", "g2")
    assert UserPopulation(None, [0.5, 0.5]).type_labels == ("t1", "t2")
    assert UserPopulation.uniform(3).type_labels == ("t1", "t2", "t3")
