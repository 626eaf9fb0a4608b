"""Built-in game instances with machine-checkable expected outcomes.

Each fixture lives in ``data/<name>.json``: the exact inputs of a reference
instance plus an expectation record -- the values an independent re-derivation
through the equilibrium and metrics modules must reproduce.  The JSON schema
is documented in the README next to the CLI reference; ``verify_fixture``
performs the re-derivation and the ``verify-fixtures`` CLI command runs it
for the whole registry.

Where a fixture's source tables are internally inconsistent, the stored
inputs are the ones that reproduce the recorded outcomes, and the ``notes``
field documents the discrepancy.  Expectation values are always the ones
implied by the stored inputs.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection

from .errors import ConfigError
from .game import (
    ChoiceRule,
    GameSpec,
    ScoreMatrix,
    UserPopulation,
    average_scores,
    platform_utilities,
)
from . import equilibrium as eq
from . import metrics as mt
from .preferences import PreferenceTable, scores_from_preferences
from .synthetic import (
    GmmComponent,
    GmmPopulationSpec,
    RbfKernel,
    RbfModelSpec,
    gmm_population,
    rbf_scores,
)

__all__ = ["Fixture", "Check", "builtin_instance", "fixture_names", "verify_fixture", "verify_all"]

DATA_DIR = Path(__file__).resolve().parent / "data"

_FIXTURE_NAMES = [
    "c1_rps",
    "fig2_a",
    "fig2_b",
    "fig3_b",
    "c7_welfare_gap",
    "c8_players_2",
    "c8_players_3",
    "c9_softmax",
    "llm_pool1",
    "llm_pool2",
    "llm_pool3",
    "simu_appendix_d",
]


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    spec: GameSpec
    expected: dict[str, Any]
    notes: str = ""


@dataclass(frozen=True)
class Check:
    fixture: str
    name: str
    passed: bool
    expected: Any
    actual: Any
    tol: float | None = None


def fixture_names() -> list[str]:
    return list(_FIXTURE_NAMES)


def _load_record(name: str) -> dict:
    path = DATA_DIR / f"{name}.json"
    if not path.exists():
        raise ConfigError(f"fixture record missing: {path}")
    with open(path) as handle:
        return json.load(handle)


def require(block: dict, key: str, where: str):
    """``block[key]``, or a ConfigError naming the block that lacks it."""
    if key not in block:
        raise ConfigError(f"missing {key!r} in the {where} block")
    return block[key]


def config_int(value, name: str) -> int:
    """``value`` as an int, or a ConfigError naming the field: a float, a
    string or a bool is not read as an integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer (got {value!r})")


def config_float(value, name: str) -> float:
    """``value`` as a float, or a ConfigError naming the field: only a JSON
    number is read as a number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number (got {value!r})")
    return float(value)


def config_list(value, name: str) -> list:
    """``value`` itself, or a ConfigError naming the field unless it is a JSON
    list: a number or a string is not read as a list."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list (got {value!r})")
    return value


def check_keys(block, known: Collection[str], name: str) -> None:
    """ConfigError unless ``block`` is a JSON object whose keys are all in ``known``."""
    if not isinstance(block, dict):
        raise ConfigError(f"the {name} block must be a JSON object")
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in the {name} block")


def choice_from_block(block: dict | None) -> ChoiceRule | None:
    """The choice rule a ``choice`` block names, or None when there is no block."""
    if block is None:
        return None
    check_keys(block, ("kind", "tau"), "choice")
    kind = require(block, "kind", "choice")
    if kind == "hardmax":
        return ChoiceRule.hardmax()
    if kind == "softmax":
        return ChoiceRule.softmax(config_float(require(block, "tau", "choice"), "choice.tau"))
    raise ConfigError(f"unknown choice kind {kind!r}")


def rbf_gmm_instance(block: dict, where: str,
                     model_labels: list[str] | None = None) -> tuple[UserPopulation, ScoreMatrix]:
    """Population and scores of an RBF-model / GMM-population block.

    The caller checks the keys of ``block`` itself; the blocks nested in it
    (models, kernels, ``gmm`` and its components) are checked here.
    """
    def model(m: dict) -> RbfModelSpec:
        check_keys(m, ("bias", "kernels"), f"{where} model")
        return RbfModelSpec(config_float(m.get("bias", 0.0), f"{where} model bias"),
                            [kernel(k) for k in config_list(require(m, "kernels", f"{where} model"),
                                                            f"{where} model kernels")])

    def kernel(k: dict) -> RbfKernel:
        check_keys(k, ("center", "amplitude", "width"), "kernel")
        return RbfKernel(tuple(config_list(require(k, "center", "kernel"), "kernel center")),
                         config_float(require(k, "amplitude", "kernel"), "kernel amplitude"),
                         config_float(require(k, "width", "kernel"), "kernel width"))

    def component(c: dict) -> GmmComponent:
        check_keys(c, ("weight", "mean", "covariance"), "gmm component")
        return GmmComponent(config_float(require(c, "weight", "gmm component"), "gmm component weight"),
                            tuple(config_list(require(c, "mean", "gmm component"),
                                              "gmm component mean")),
                            config_list(require(c, "covariance", "gmm component"),
                                        "gmm component covariance"))

    models = [model(m) for m in config_list(require(block, "models", where), f"{where}.models")]
    g = require(block, "gmm", where)
    check_keys(g, ("components", "k_types", "dx", "seed", "sample_size"), "gmm")
    gmm = GmmPopulationSpec(
        [component(c) for c in config_list(require(g, "components", "gmm"), "gmm.components")],
        k_types=config_int(require(g, "k_types", "gmm"), "gmm.k_types"),
        dx=config_float(g.get("dx", 0.0), "gmm.dx"),
        seed=config_int(g.get("seed", 0), "gmm.seed"),
        sample_size=config_int(g.get("sample_size", 10_000), "gmm.sample_size"),
    )
    population, anchors = gmm_population(gmm)
    return population, rbf_scores(models, anchors, model_labels=model_labels)


def _spec_from_record(record: dict) -> GameSpec:
    scores_block = record["scores"]
    kind = scores_block["kind"]
    population = None
    if "population" in record:
        population = UserPopulation(
            record["population"]["type_labels"], record["population"]["weights"]
        )
    if kind == "explicit":
        scores = ScoreMatrix(scores_block["values"], scores_block.get("model_labels"))
    elif kind == "preferences":
        prefs = PreferenceTable(
            criteria=scores_block["criteria"],
            type_labels=record["population"]["type_labels"],
            weights=scores_block["preference_weights"],
        )
        scores = scores_from_preferences(
            scores_block["performance"],
            prefs,
            normalize=bool(scores_block.get("normalize", False)),
            model_labels=scores_block.get("model_labels"),
        )
    elif kind == "rbf_gmm":
        population, scores = rbf_gmm_instance(scores_block, "scores", scores_block.get("model_labels"))
    else:
        raise ConfigError(f"unknown fixture score derivation {kind!r}")
    if population is None:
        raise ConfigError("fixture record has no population")
    choice = choice_from_block(record.get("choice")) or ChoiceRule.hardmax()
    return GameSpec(scores, population, config_int(record["n_platforms"], "n_platforms"), choice)


def builtin_instance(name: str) -> Fixture:
    """Look up a registered fixture by name."""
    if name not in _FIXTURE_NAMES:
        known = ", ".join(sorted(_FIXTURE_NAMES))
        raise ConfigError(f"unknown fixture {name!r}; known fixtures: {known}")
    record = _load_record(name)
    return Fixture(
        name=name,
        description=record.get("description", ""),
        spec=_spec_from_record(record),
        expected=record.get("expected", {}),
        notes=record.get("notes", ""),
    )


# ---------------------------------------------------------------------------
# re-derivation of expectation records
# ---------------------------------------------------------------------------

def verify_fixture(fixture: Fixture | str) -> list[Check]:
    """Re-derive a fixture's expectation record and compare value by value."""
    if isinstance(fixture, str):
        fixture = builtin_instance(fixture)
    spec = fixture.spec
    expected = fixture.expected
    checks: list[Check] = []

    def add(name: str, passed: bool, want, got, tol: float | None = None) -> None:
        checks.append(Check(fixture.name, name, bool(passed), want, got, tol))

    if "pne" in expected:
        want = [tuple(p) for p in expected["pne"]]
        got = eq.enumerate_pne(spec)
        add("pne_set", got == want, want, got)

    for prof, want_u, tol in expected.get("payoffs", []):
        got_u = [float(x) for x in platform_utilities(spec, prof)]
        ok = all(abs(g - w) <= tol for g, w in zip(got_u, want_u))
        add(f"payoff{tuple(prof)}", ok, want_u, got_u, tol)

    if "average_scores" in expected:
        want_t, tol = expected["average_scores"]
        got_t = [float(x) for x in average_scores(spec)]
        add("average_scores", all(abs(g - w) <= tol for g, w in zip(got_t, want_t)), want_t, got_t, tol)

    for i, j, want_d, tol in expected.get("pair_deltas", []):
        got_d = eq.pair_delta(spec, i, j)
        add(f"delta({i},{j})", abs(got_d - want_d) <= tol, want_d, got_d, tol)

    if "welfare" in expected:
        want_w, tol = expected["welfare"]
        anchor = expected.get("canonical_pne") or expected["pne"][0]
        got_w = mt.coverage_value(spec, anchor)
        add("welfare", abs(got_w - want_w) <= tol, want_w, got_w, tol)

    if "social_optimum" in expected:
        want_o, tol = expected["social_optimum"]
        opt = mt.social_optimum(spec)
        add("social_optimum", abs(opt.value - want_o) <= tol, want_o, opt.value, tol)
        if "social_optimum_profile" in expected:
            want_p = tuple(expected["social_optimum_profile"])
            add("social_optimum_profile", opt.profile == want_p, want_p, opt.profile)

    if "hhi" in expected or "support" in expected:
        shares = mt.market_shares(spec, expected["canonical_pne"])
    if "hhi" in expected:
        want_h, tol = expected["hhi"]
        add("hhi", abs(shares.hhi - want_h) <= tol, want_h, shares.hhi, tol)
    if "support" in expected:
        add("support", shares.support == expected["support"], expected["support"], shares.support)

    if "differentiated_condition" in expected:
        want = expected["differentiated_condition"]
        report = eq.check_differentiated_condition(spec, want["profile"])
        agree = report.holds == eq.verify_pne(spec, want["profile"]).is_pne
        add("differentiated_condition", report.holds == want["holds"] and agree, want["holds"], report.holds)
    if "homogeneous_condition" in expected:
        want = expected["homogeneous_condition"]
        report = eq.check_homogeneous_condition(spec, want["model"])
        hom = [want["model"]] * spec.n_platforms
        agree = report.holds == eq.verify_pne(spec, hom).is_pne
        add("homogeneous_condition", report.holds == want["holds"] and agree, want["holds"], report.holds)

    if "dynamics" in expected:
        want = expected["dynamics"]
        outcome = eq.run_dynamics(spec, want["start"])
        add("dynamics_kind", outcome.kind == want["kind"], want["kind"], outcome.kind)
        if "cycle_profile_set" in want:
            want_set = {tuple(p) for p in want["cycle_profile_set"]}
            got_set = set(outcome.cycle_profiles)
            add("cycle_profile_set", got_set == want_set, sorted(want_set), sorted(got_set))
        if "cycle_multisets" in want:
            want_ms = {tuple(p) for p in want["cycle_multisets"]}
            got_ms = {tuple(sorted(p)) for p in outcome.cycle_profiles}
            add("cycle_multisets", want_ms <= got_ms, sorted(want_ms), sorted(got_ms))
        if "welfare_interval" in want and outcome.kind == "cycle":
            lo, hi = want["welfare_interval"]
            figs = mt.welfare_figures(spec, outcome)
            ok = lo <= figs.state_average <= hi and lo <= figs.multiset_average <= hi
            add("cycle_welfare_interval", ok, [lo, hi], [figs.state_average, figs.multiset_average])
            if "welfare_state_average" in want:
                w, tol = want["welfare_state_average"]
                add("welfare_state_average", abs(figs.state_average - w) <= tol, w, figs.state_average, tol)
            if "welfare_multiset_average" in want:
                w, tol = want["welfare_multiset_average"]
                add("welfare_multiset_average", abs(figs.multiset_average - w) <= tol, w, figs.multiset_average, tol)

    return checks


def verify_all() -> list[Check]:
    checks: list[Check] = []
    for name in fixture_names():
        checks.extend(verify_fixture(name))
    return checks
