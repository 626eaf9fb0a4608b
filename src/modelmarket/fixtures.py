"""Built-in game instances with machine-checkable expected outcomes.

Each fixture lives in ``data/<name>.json``: the exact inputs of a reference
instance plus an expectation record -- the values an independent re-derivation
through the equilibrium and metrics modules must reproduce.  A record is
checked against ``config.FIXTURE_RECORD``; its game is an ``explicit``,
``synthetic`` or ``preferences`` block, which ``game_spec`` builds as it
builds a run config's ``instance.file`` and ``instance.synthetic``.  The
README documents the format next to the CLI reference; ``verify_fixture``
performs the re-derivation and the ``verify-fixtures`` CLI command runs it
for the whole registry.

Where a fixture's source tables are internally inconsistent, the stored
inputs are the ones that reproduce the recorded outcomes, and the ``notes``
field documents the discrepancy.  Expectation values are always the ones
implied by the stored inputs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from . import config as config_mod
from .errors import MarketGameError
from .game import (
    ChoiceRule,
    GameSpec,
    Record,
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

__all__ = ["Fixture", "Check", "builtin_instance", "fixture_names", "verify_fixture"]

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


class Fixture(Record, eq=False):
    name: str
    description: str
    spec: GameSpec
    expected: dict[str, Any]
    notes: str = ""


class Check(Record):
    fixture: str
    name: str
    passed: bool
    expected: Any
    actual: Any
    tol: float | None = None


def fixture_names() -> list[str]:
    return list(_FIXTURE_NAMES)


def choice_from_block(block: dict | None) -> ChoiceRule | None:
    """The choice rule a checked ``choice`` block names, or None when there is no block."""
    if block is not None and block["kind"] == "softmax" and "tau" not in block:
        raise MarketGameError("missing 'tau' in a softmax choice block")
    return None if block is None else ChoiceRule(**block)


def rbf_gmm_instance(block: dict) -> tuple[UserPopulation, ScoreMatrix]:
    """Population and scores of a checked RBF-model / GMM-population block."""
    models = [RbfModelSpec(m["bias"], [RbfKernel(tuple(k["center"]), k["amplitude"], k["width"])
                                       for k in m["kernels"]])
              for m in block["models"]]
    g = block["gmm"]
    gmm = GmmPopulationSpec(
        [GmmComponent(c["weight"], tuple(c["mean"]), c["covariance"]) for c in g["components"]],
        k_types=g["k_types"], dx=g["dx"], seed=g["seed"], sample_size=g["sample_size"])
    population, anchors = gmm_population(gmm)
    return population, rbf_scores(models, anchors)


def game_spec(kind: str, block: dict) -> GameSpec:
    """The game of a checked instance block of ``kind``: ``explicit`` (an
    instance file), ``synthetic`` or ``preferences`` (see ``config``)."""
    if kind == "synthetic":
        population, scores = rbf_gmm_instance(block)
        return GameSpec(scores, population, block["n_platforms"])
    population = UserPopulation(block["type_labels"], block["weights"])
    if kind == "preferences":
        prefs = PreferenceTable(block["criteria"], population.type_labels, block["preference_weights"])
        scores = scores_from_preferences(block["performance"], prefs,
                                         model_labels=block["model_labels"])
    else:
        scores = ScoreMatrix(block["scores"], block["model_labels"])
    return GameSpec(scores, population, block["n_platforms"],
                    choice_from_block(block["choice"]) or ChoiceRule.hardmax())


def builtin_instance(name: str) -> Fixture:
    """Look up a registered fixture by name."""
    if name not in _FIXTURE_NAMES:
        known = ", ".join(sorted(_FIXTURE_NAMES))
        raise MarketGameError(f"unknown fixture {name!r}; known fixtures: {known}")
    # fields are named <name>.<key>, as fig2_a.explicit.scores
    record = config_mod.load(DATA_DIR / f"{name}.json", config_mod.FIXTURE_RECORD, name,
                             f"fixture record {name}")
    kind = next(key for key in ("explicit", "synthetic", "preferences") if key in record)
    return Fixture(name, record["description"], game_spec(kind, record[kind]),
                   record["expected"], record["notes"])


# ---------------------------------------------------------------------------
# re-derivation of expectation records
# ---------------------------------------------------------------------------

def verify_fixture(fixture: Fixture | str) -> list[Check]:
    """Re-derive a fixture's expectation record and compare value by value.  The PNE
    list and optimum come from ``metrics.analyze``; a refused one fails, its note as actual."""
    if isinstance(fixture, str):
        fixture = builtin_instance(fixture)
    spec = fixture.spec
    expected = fixture.expected
    checks: list[Check] = []
    analysis = mt.analyze(spec)

    def add(name: str, passed: bool, want, got, tol: float | None = None) -> None:
        checks.append(Check(fixture.name, name, bool(passed), want, got, tol))

    def within(name: str, got, want, tol: float) -> None:
        """Add a check that ``got``, a number or a list of them, has ``want``'s shape
        and every entry within ``tol``; a refusal note or None (a timeout) fails."""
        ok = got is not None and not isinstance(got, str) and np.shape(got) == np.shape(want)
        add(name, ok and bool(np.all(np.abs(np.subtract(got, want)) <= tol)), want, got, tol)

    if "pne" in expected:
        want = [tuple(p) for p in expected["pne"]]
        got = analysis.pne_note if analysis.pne is None else list(analysis.pne)
        add("pne_set", got == want, want, got)

    for prof, want_u, tol in expected.get("payoffs", []):
        within(f"payoff{tuple(prof)}", platform_utilities(spec, prof).tolist(), want_u, tol)

    if "average_scores" in expected:
        within("average_scores", average_scores(spec).tolist(), *expected["average_scores"])

    for i, j, want_d, tol in expected.get("pair_deltas", []):
        within(f"delta({i},{j})", eq.pair_delta(spec, i, j), want_d, tol)

    # welfare, hhi and support describe one equilibrium: canonical_pne, else the first PNE
    if expected.keys() & {"welfare", "hhi", "support"}:
        anchor = expected.get("canonical_pne") or expected["pne"][0]
    if "welfare" in expected:
        within("welfare", mt.coverage_value(spec, anchor), *expected["welfare"])

    if "social_optimum" in expected:
        opt = analysis.optimum
        within("social_optimum", analysis.optimum_note if opt is None else opt.value,
               *expected["social_optimum"])
        if opt is not None and "social_optimum_profile" in expected:
            want_p = tuple(expected["social_optimum_profile"])
            add("social_optimum_profile", opt.profile == want_p, want_p, opt.profile)

    if "hhi" in expected or "support" in expected:
        shares = mt.market_shares(spec, anchor)
    if "hhi" in expected:
        within("hhi", shares.hhi, *expected["hhi"])
    if "support" in expected:
        add("support", shares.support == expected["support"], expected["support"], shares.support)

    # each condition's verdict must match the record and verify_pne on its profile
    for name, condition, key in (
            ("differentiated_condition", eq.check_differentiated_condition, "profile"),
            ("homogeneous_condition", eq.check_homogeneous_condition, "model")):
        if name in expected:
            want = expected[name]
            report = condition(spec, want[key])
            profile = want[key] if key == "profile" else [want[key]] * spec.n_platforms
            agree = report.holds == eq.verify_pne(spec, profile).is_pne
            add(name, report.holds == want["holds"] and agree, want["holds"], report.holds)

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
        figs = mt.welfare_figures(spec, outcome) if outcome.kind != "timeout" else None
        if "welfare_interval" in want and outcome.kind == "cycle":
            lo, hi = want["welfare_interval"]
            ok = lo <= figs.state_average <= hi and lo <= figs.multiset_average <= hi
            add("cycle_welfare_interval", ok, [lo, hi], [figs.state_average, figs.multiset_average])
        for name in ("state_average", "multiset_average"):
            if f"welfare_{name}" in want:
                within(f"welfare_{name}", getattr(figs, name, None), *want[f"welfare_{name}"])

    return checks
