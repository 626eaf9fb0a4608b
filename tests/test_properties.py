"""Randomized invariant suite over small instances.

``run_property_suite`` draws seeded random instances (scores in [0, 1],
M <= 6, N <= 4, K <= 6) and checks every structural identity on each one;
the acceptance tests run it at full width, the tests here at a smaller count.
The solvers are also checked against the profile-by-profile reference
solvers in ``helpers``, on instances with exact ties, M=1, N=1, and softmax
at temperatures where the exponentials underflow or flatten, and on
instances with more multisets than one block of the blocked kernels.
``verify_pne`` and the closed-form checks are compared bit for bit with
their loop forms in ``helpers``.  Under softmax, verification agrees with
enumeration on instances bisected to the threshold to the ulp, and no value
or decision depends on the order in which the rivals are given.
"""

from collections import Counter
import itertools
import math

import numpy as np

from modelmarket import game
from modelmarket.game import (
    ChoiceRule,
    GameSpec,
    ScoreMatrix,
    UserPopulation,
    allocate,
    average_scores,
    deviation_advantage,
    platform_utilities,
)
from modelmarket.equilibrium import (
    IMPROVEMENT_EPS,
    CentralizationParams,
    ConditionReport,
    Deviation,
    PneCheck,
    best_response,
    centralization_check,
    check_differentiated_condition,
    check_homogeneous_condition,
    enumerate_pne,
    pair_delta,
    run_dynamics,
    verify_pne,
)
from modelmarket.fixtures import builtin_instance
from modelmarket.metrics import (
    analyze,
    coverage_value,
    market_shares,
    outcome_metrics,
    social_optimum,
    welfare_figures,
)

from helpers import (
    CentralizationInputs,
    pair_conditions,
    random_spec,
    reference_best_response,
    reference_centralization_check,
    reference_check_differentiated_condition,
    reference_check_homogeneous_condition,
    reference_enumerate_pne,
    reference_social_optimum,
    reference_two_player_conditions,
    reference_verify_pne,
    reference_verify_pne_by_platform,
)


def run_property_suite(n_instances: int, seed: int = 2024) -> int:
    """Check every invariant on ``n_instances`` random games; returns the count."""
    rng = np.random.default_rng(seed)
    for index in range(n_instances):
        spec = random_spec(rng, max_models=6, max_platforms=4, max_types=6, min_platforms=2)
        tau = float(rng.uniform(0.05, 2.0))
        soft = spec.with_choice(ChoiceRule.softmax(tau))
        prof = tuple(int(x) for x in rng.integers(0, spec.n_models, spec.n_platforms))
        n = spec.n_platforms

        # allocation columns sum to 1 under both rules
        for alloc in (allocate(spec, prof), allocate(soft, prof)):
            assert np.all(np.abs(alloc.sum(axis=0) - 1.0) <= 1e-9), index
            assert np.all((alloc >= 0.0) & (alloc <= 1.0)), index

        # decomposition identity, hardmax and softmax
        hard_u = platform_utilities(spec, prof)
        soft_u = platform_utilities(soft, prof)
        t = average_scores(spec)[list(prof)]
        assert np.all(np.abs(hard_u - (t + deviation_advantage(spec, prof)) / n) < 1e-12), index
        assert np.all(np.abs(soft_u - (t + deviation_advantage(soft, prof)) / n) < 1e-12), index

        # total hardmax utility equals coverage; softmax total never exceeds it
        v = coverage_value(spec, prof)
        assert abs(float(hard_u.sum()) - v) < 1e-12, index
        assert float(soft_u.sum()) <= v + 1e-12, index

        # welfare never beats the social optimum; converged outcomes verify
        out = run_dynamics(spec, prof, max_steps=2000)
        if out.kind != "timeout":
            assert welfare_figures(spec, out).value <= social_optimum(spec).value + 1e-12, index
        if out.kind == "equilibrium":
            assert verify_pne(spec, out.equilibrium_profile).is_pne, index

        # two-player identity for every model pair
        if spec.n_models >= 2:
            i, j = (int(x) for x in rng.choice(spec.n_models, size=2, replace=False))
            gap = float(np.abs(spec.scores.scores[i] - spec.scores.scores[j])
                        @ spec.population.weights)
            assert abs(pair_delta(spec, i, j) + pair_delta(spec, j, i) - gap) < 1e-12, index

        # the hardmax equilibrium set is invariant under positive score rescaling
        base_pne = enumerate_pne(spec)
        for c in (0.5, 2.0, 10.0):
            scaled = GameSpec(ScoreMatrix(spec.scores.scores * c), spec.population,
                              spec.n_platforms, spec.choice)
            assert enumerate_pne(scaled) == base_pne, index
    return n_instances


def test_property_suite_small():
    assert run_property_suite(250, seed=99) == 250


def test_property_suite_catches_seed_variation():
    # different seeds explore different instances but the suite stays green
    assert run_property_suite(50, seed=7) == 50


ORACLE_CHOICES = (ChoiceRule.hardmax(), ChoiceRule.softmax(1e-4), ChoiceRule.softmax(0.05),
                  ChoiceRule.softmax(1e3))
ORACLE_SHAPES = ("plain", "duplicated_rows", "one_model", "one_platform")


def oracle_instance(rng: np.random.Generator, index: int) -> tuple[GameSpec, str]:
    """Every choice rule meets every shape once per 16 consecutive indices."""
    spec = random_spec(rng, max_models=6, max_platforms=4, max_types=6,
                       choice=ORACLE_CHOICES[index % 4])
    shape = ORACLE_SHAPES[(index // 4) % 4]
    if shape == "duplicated_rows":
        scores = np.array(spec.scores.scores)
        if spec.n_models == 1:
            scores = np.vstack([scores, scores])
        src, dst = rng.choice(scores.shape[0], size=2, replace=False)
        scores[dst] = scores[src]  # exact ties between two models on every type
        spec = GameSpec(ScoreMatrix(scores), spec.population, spec.n_platforms, spec.choice)
    elif shape == "one_model":
        spec = spec.with_models(1)
    elif shape == "one_platform":
        spec = spec.with_platforms(1)
    return spec, shape


def test_solvers_match_the_profile_by_profile_reference():
    rng = np.random.default_rng(31)
    seen = set()
    for index in range(320):
        spec, shape = oracle_instance(rng, index)
        seen.add((shape, spec.choice.tau))
        pne = enumerate_pne(spec)
        assert pne == reference_enumerate_pne(spec), index
        starts = [tuple(int(x) for x in rng.integers(0, spec.n_models, spec.n_platforms))
                  for _ in range(3)]
        for prof in starts + pne[:2]:
            for i in range(spec.n_platforms):
                assert best_response(spec, prof, i) == reference_best_response(spec, prof, i), index
            got, want = verify_pne(spec, prof), reference_verify_pne(spec, prof)
            assert got.is_pne == want.is_pne, index
            if not want.is_pne:
                assert (got.witness.platform, got.witness.model) == (
                    want.witness.platform, want.witness.model), index
                assert abs(got.witness.gain - want.witness.gain) < 1e-12, index
    assert seen == {(shape, c.tau) for shape in ORACLE_SHAPES for c in ORACLE_CHOICES}
    # rival multisets that fill more than one block of the best-response table
    for choice in (ChoiceRule.hardmax(), ChoiceRule.softmax(0.05)):
        for scores in (rng.uniform(0.0, 1.0, size=(8, 40)),
                       rng.choice([0.0, 0.25, 0.5, 1.0], size=(8, 40))):
            spec = GameSpec(ScoreMatrix(scores), UserPopulation.uniform(40), 4, choice)
            assert math.comb(8 + 4 - 2, 4 - 1) > game._BLOCK_ELEMENTS // scores.size
            assert enumerate_pne(spec) == reference_enumerate_pne(spec), choice
    for choice in (ChoiceRule.hardmax(), ChoiceRule.softmax(0.05)):
        # all scores equal: every model answers every rival multiset, so every profile is listed
        spec = GameSpec(ScoreMatrix(np.full((3, 2), 0.5)), UserPopulation.uniform(2), 3, choice)
        assert enumerate_pne(spec) == reference_enumerate_pne(spec) == list(itertools.product(range(3), repeat=3))
        # more platforms than models
        spec = GameSpec(ScoreMatrix(rng.uniform(0.0, 1.0, size=(2, 3))), UserPopulation.uniform(3), 5, choice)
        assert enumerate_pne(spec) == reference_enumerate_pne(spec), choice
    # (0, 7, 7, 7) is stable, and the rival multisets of its two rows, (0, 7, 7)
    # and (7, 7, 7), fall in different blocks of the best-response table
    scores = np.full((8, 40), 0.5)
    scores[0], scores[7] = np.arange(40) < 10, np.arange(40) >= 10
    spec = GameSpec(ScoreMatrix(scores), UserPopulation.uniform(40), 4)
    rivals = list(itertools.combinations_with_replacement(range(8), 3))
    rows = game._BLOCK_ELEMENTS // scores.size
    assert rivals.index((0, 7, 7)) // rows != rivals.index((7, 7, 7)) // rows
    pne = enumerate_pne(spec)
    assert (0, 7, 7, 7) in pne and pne == reference_enumerate_pne(spec)


def test_social_optimum_matches_the_per_multiset_reference():
    """The blocked optimum keeps the reference's value bit for bit and its first maximiser."""
    rng = np.random.default_rng(53)
    specs = [oracle_instance(rng, index)[0] for index in range(400)]
    for _ in range(40):  # exact ties on a coarse score grid, and N > M
        m, n, k = int(rng.integers(1, 4)), int(rng.integers(4, 7)), int(rng.integers(1, 7))
        scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, k))
        specs.append(GameSpec(ScoreMatrix(scores), UserPopulation.uniform(k), n))
    for index in range(20):  # M=12, N=5: 4,368 multisets, more than one block
        k = int(rng.integers(2, 9))
        scores = (rng.choice([0.0, 0.25, 0.5, 1.0], size=(12, k)) if index % 2
                  else rng.uniform(0.0, 1.0, size=(12, k)))
        specs.append(GameSpec(ScoreMatrix(scores), UserPopulation.uniform(k), 5))
        assert math.comb(12 + 5 - 1, 5) > game._BLOCK_ELEMENTS // (5 * k)
    for index, spec in enumerate(specs):
        got, want = social_optimum(spec), reference_social_optimum(spec)
        assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes(), index
        assert got.profile == want.profile, index


def test_outcome_metrics_match_the_single_figure_functions():
    """Every figure of the record is bit-equal to the function that computes it alone."""
    rng = np.random.default_rng(47)
    cycling = [builtin_instance(name).spec for name in ("c1_rps", "c8_players_3")]
    kinds = []
    for index in range(400):
        if index % 10 == 9:  # the fixtures that cycle, run to the end
            spec, max_steps = cycling[(index // 10) % 2], 1000
        else:
            spec, _ = oracle_instance(rng, index)
            max_steps = int(rng.choice([1, 2, 3, 1000]))
        start = tuple(int(x) for x in rng.integers(0, spec.n_models, spec.n_platforms))
        outcome = run_dynamics(spec, start, max_steps=max_steps)
        kinds.append(outcome.kind)
        trajectory = [step.profile_after for step in outcome.trajectory]
        analysis = analyze(spec)
        full = outcome_metrics(spec, outcome, analysis, trajectory)
        bare = outcome_metrics(spec, outcome, analysis)
        assert set(full.scores) == set(trajectory), index
        # the anchor plus the cycle profiles
        assert set(bare.scores) == (
            {full.anchor} if full.anchor is not None else set()) | set(outcome.cycle_profiles), index
        assert analysis.optimum == social_optimum(spec), index
        assert analysis.pne == tuple(enumerate_pne(spec)), index
        for record in (full, bare):
            assert record.analysis is analysis, index
            for profile, score in record.scores.items():
                shares = market_shares(spec, profile)
                assert score.coverage == coverage_value(spec, profile), index
                assert (score.shares, score.hhi, score.support) == (
                    shares.shares, shares.hhi, shares.support), index
                assert score.utilities == tuple(
                    float(u) for u in platform_utilities(spec, profile)), index
            if outcome.kind == "timeout":
                assert record.anchor is None and record.welfare is None, index
            else:
                assert record.welfare == welfare_figures(spec, outcome), index
        if outcome.kind == "equilibrium":
            assert full.anchor == outcome.equilibrium_profile, index
        elif outcome.kind == "cycle":
            assert full.anchor == outcome.cycle_profiles[0], index
    assert min(kinds.count(kind) for kind in ("equilibrium", "cycle", "timeout")) >= 20, kinds


def _bits(value):
    """A result record with every float as its hex string, so == is bit equality."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    fields = getattr(type(value), "__match_args__", None)
    if not fields:  # anything else must be a record whose fields can be listed
        raise TypeError(f"cannot read the bits of a {type(value).__name__}")
    return (type(value).__name__,) + tuple(_bits(getattr(value, f)) for f in fields)


def _outcome(fn, *args):
    """``fn``'s result in bits, or the type and message of what it raised."""
    try:
        return "ok", _bits(fn(*args))
    except Exception as exc:  # the reference and the new form must raise alike
        return "raised", type(exc).__name__, str(exc)


def _centralization_case(rng: np.random.Generator, index: int,
                         spec: GameSpec) -> tuple[GameSpec, CentralizationParams]:
    """Premises that hold (index % 3 == 0), that one rival breaks by a margin or
    a gap (== 1), or a raw random instance, which mostly breaks them (== 2)."""
    scores = np.array(spec.scores.scores)
    m, k = scores.shape
    k_star, dom = int(rng.integers(k)), int(rng.integers(m))
    rho = float(rng.choice([0.05, 0.1, 0.3]))
    gamma = float(rng.choice([0.0, 0.05, 0.2]))
    if index % 3 < 2:
        base = scores[dom].copy()
        base[k_star] = 1.0 + rho
        scores = np.clip(base + rng.uniform(-gamma, gamma, size=(m, k)), 0.0, None)
        scores[:, k_star] = base[k_star] - rho - rng.uniform(0.0, 0.1, size=m)
        scores[dom] = base
        if index % 3 == 1 and m > 1:
            j = int(rng.choice([r for r in range(m) if r != dom]))
            if k > 1 and rng.random() < 0.5:
                col = int(rng.choice([c for c in range(k) if c != k_star]))
                scores[j, col] = base[col] + gamma + 0.01
            else:
                scores[j, k_star] = base[k_star] - rho / 2
    central = GameSpec(ScoreMatrix(scores), spec.population, spec.n_platforms)
    return central, CentralizationParams(k_star, rho, gamma)


def _reference_inputs(spec: GameSpec, params: CentralizationParams) -> CentralizationInputs:
    """The reference's inputs: the first model with the top score on the
    dominant type, and that type's weight as pi*."""
    k = params.dominant_type
    return CentralizationInputs(k, int(spec.scores.scores[:, k].argmax()), params.rho,
                                params.gamma_cap, float(spec.population.weights[k]))


def _margin_reports_match(monkeypatch, spec, profiles, seen, index):
    """Both margin reports on ``spec`` equal their loop forms at the default block
    size and at blocks of 8 and of 1 floats, where a report spans many blocks
    (a block holds at least one deviation profile)."""
    default = game._BLOCK_ELEMENTS
    for block in (default, 8, 1):
        monkeypatch.setattr(game, "_BLOCK_ELEMENTS", block)
        for model in range(spec.n_models):
            got = _outcome(check_homogeneous_condition, spec, model)
            assert got == _outcome(reference_check_homogeneous_condition, spec, model), (index, block)
            seen["homogeneous", got[1][1]] += 1
        for prof in profiles:
            got = _outcome(check_differentiated_condition, spec, prof)
            assert got == _outcome(reference_check_differentiated_condition, spec, prof), (index, block)
            seen["differentiated", got[1][1] if got[0] == "ok" else got[0]] += 1
    monkeypatch.setattr(game, "_BLOCK_ELEMENTS", default)


def test_equilibrium_checks_match_their_loop_forms(monkeypatch):
    """verify_pne, both margin reports, the two-player verdicts of those reports
    at N = 2 and the centralization check equal the loop forms in ``helpers``
    bit for bit, errors included; the centralization reference is given the
    first top model on the dominant type and that type's weight.  A forced
    M = 1 instance, with no deviation rows, gives empty margin reports."""
    rng = np.random.default_rng(71)
    seen = Counter()
    for index in range(400):
        shape = ("plain", "tied_grid", "duplicated_rows", "two_models")[index % 4]
        m = 2 if shape == "two_models" else int(rng.integers(1, 7))
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        if shape == "tied_grid":
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, k))
            population = UserPopulation.uniform(k)
        else:
            scores = rng.uniform(0.0, 1.0, size=(m, k))
            population = UserPopulation([f"t{i}" for i in range(k)], rng.dirichlet(np.ones(k)))
        if shape == "duplicated_rows" and m > 1:
            src, dst = rng.choice(m, size=2, replace=False)
            scores[dst] = scores[src]
        spec = GameSpec(ScoreMatrix(scores), population, n)
        soft = spec.with_choice(ChoiceRule.softmax(float(rng.choice([1e-4, 0.05, 1e3]))))

        for game_spec in (spec, soft):
            profiles = [tuple(int(x) for x in rng.integers(0, m, n)) for _ in range(3)]
            profiles += [(g,) * n for g in range(m)] + enumerate_pne(game_spec)[:2]
            for prof in profiles:
                got = _outcome(verify_pne, game_spec, prof)
                assert got == _outcome(reference_verify_pne_by_platform, game_spec, prof), index
                seen[game_spec.choice.kind, got[1][1]] += 1

        distinct = tuple(int(x) for x in rng.permutation(m)[:n])
        _margin_reports_match(monkeypatch, spec, (distinct, tuple(int(x) for x in rng.integers(0, m, n))),
                              seen, index)

        pair_spec = spec.with_platforms(2)
        for i in range(-1, m + 1):
            for j in range(-1, m + 1):
                got = _outcome(pair_conditions, pair_spec, i, j)
                assert got == _outcome(reference_two_player_conditions, pair_spec, i, j), index
                # a refusal counts by its message: a model index out of range, or equal models
                refusal = got[0] == "raised" and ("out of range" if " out of range " in got[2] else got[2])
                seen["two_player", m == 2, refusal or got[1]] += 1
        soft_pair = soft.with_platforms(2)
        got = _outcome(pair_conditions, soft_pair, 0, m - 1)
        assert got == _outcome(reference_two_player_conditions, soft_pair, 0, m - 1), index
        seen["two_player", "softmax", got[0]] += 1

        central, params = _centralization_case(rng, index, spec)
        got = _outcome(centralization_check, central, params)
        assert got == _outcome(reference_centralization_check, central, _reference_inputs(central, params)), index
        seen["centralization", got[0] if got[0] == "ok" else got[2].split()[0]] += 1

    one_model = GameSpec(ScoreMatrix(rng.uniform(0.0, 1.0, size=(1, 5))), UserPopulation.uniform(5), 3)
    _margin_reports_match(monkeypatch, one_model, [(0, 0, 0)], seen, "M = 1")
    assert check_homogeneous_condition(one_model, 0) == ConditionReport(True, ())

    for kind in ("hardmax", "softmax"):
        assert seen[kind, True] and seen[kind, False], seen
    for key in (("homogeneous", True), ("homogeneous", False), ("differentiated", True),
                ("differentiated", False), ("differentiated", "raised"),
                ("centralization", "ok"), ("centralization", "dominant-type"),
                ("centralization", "off-dominant"), ("two_player", False, "out of range"),
                ("two_player", False, "profile must use distinct models on every platform"),
                ("two_player", "softmax", "raised")):
        assert seen[key], (key, seen)
    two_model = {k[2] for k in seen if k[:2] == ("two_player", True) and isinstance(k[2], tuple)}
    assert len(two_model) >= 3, two_model


def test_verification_and_best_responses_read_one_best_response_row():
    """The witness is the lowest-index profitable model, which need not be a
    best response; ``best_response`` answers the lowest-index best response.
    At every N from 1, where the rival rows are empty, to 8, ``verify_pne``
    keeps the full-utility reference's verdict, witness platform and model,
    and the gain bits of the per-platform kernel reference (the full-utility
    reference's one-row products may round the gain differently in its last
    bit)."""
    spec = GameSpec(ScoreMatrix([[0.0], [0.5], [1.0]]), UserPopulation(["t"], [1.0]), 1)
    assert verify_pne(spec, (0,)) == PneCheck(False, Deviation(0, 1, 0.5))
    assert best_response(spec, (0,), 0) == 2
    rng = np.random.default_rng(97)
    verdicts = Counter()
    for n in range(1, 9):
        for index in range(40):
            m, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, k)) if index % 3 == 0 \
                else rng.uniform(0.0, 1.0, size=(m, k))
            population = UserPopulation([f"t{i}" for i in range(k)], rng.dirichlet(np.ones(k)))
            spec = GameSpec(ScoreMatrix(scores), population, n)
            if index % 2:
                spec = spec.with_choice(ChoiceRule.softmax(float(rng.choice([0.05, 0.3, 2.0]))))
            profiles = [tuple(int(x) for x in rng.integers(0, m, n)) for _ in range(3)] + [(0,) * n]
            for prof in profiles:
                got, want = verify_pne(spec, prof), reference_verify_pne(spec, prof)
                assert repr(got) == repr(reference_verify_pne_by_platform(spec, prof)), (n, index)
                assert got.is_pne == want.is_pne, (n, index)
                if not got.is_pne:
                    assert got.witness.platform == want.witness.platform, (n, index)
                    assert got.witness.model == want.witness.model, (n, index)
                    assert abs(got.witness.gain - want.witness.gain) < 1e-12, (n, index)
                verdicts[n, got.is_pne] += 1
    assert all(verdicts[n, False] and verdicts[n, True] for n in range(1, 9)), verdicts


def _straddling_instance(rng: np.random.Generator, n: int) -> tuple[GameSpec, bool]:
    """A hardmax instance, found by search, in which model 1's shortfall from
    model 2 against rival model 0 lies within 0.1% of the threshold; and
    whether it exceeds it.  Model 0 scores below both on every type, so
    models 1 and 2 win every type they play and their values differ by about
    ``delta``; with one platform there is no rival."""
    while True:
        k = int(rng.integers(1, 4))
        high = rng.uniform(0.1, 1.0, size=k)
        delta = IMPROVEMENT_EPS * (1 + rng.uniform(-2e-4, 2e-4))
        scores = [high * rng.uniform(0.0, 0.9, size=k), high, high + delta]
        population = UserPopulation([f"t{i}" for i in range(k)], rng.dirichlet(np.ones(k)))
        spec = GameSpec(ScoreMatrix(scores), population, n)
        values = game.deviation_values(spec, (0,) * (n - 1))
        shortfall = values.max() - values[1]
        if abs(shortfall - IMPROVEMENT_EPS) < 1e-3 * IMPROVEMENT_EPS and shortfall != IMPROVEMENT_EPS:
            return spec, bool(shortfall > IMPROVEMENT_EPS)


def test_dynamics_verification_and_enumeration_agree_under_hardmax():
    """Every dynamics equilibrium verifies and is listed, and best responses
    keep every listed profile, on random hardmax instances and on instances
    whose deviation values straddle the threshold."""
    rng = np.random.default_rng(83)
    instances = [random_spec(rng) for _ in range(400)]
    sides = Counter()
    for index in range(160):
        n = 1 + index % 2
        spec, above = _straddling_instance(rng, n)
        instances.append(spec)
        sides[n, above] += 1
    assert {key: count > 10 for key, count in sides.items()} == {
        (n, above): True for n in (1, 2) for above in (False, True)}, sides
    for index, spec in enumerate(instances):
        m, n = spec.n_models, spec.n_platforms
        listed = set(enumerate_pne(spec))
        for prof in listed:
            assert verify_pne(spec, prof), index
            assert all(best_response(spec, prof, i) == prof[i] for i in range(n)), index
        profiles = list(itertools.product(range(m), repeat=n))
        if len(profiles) <= 64:
            assert {p for p in profiles if verify_pne(spec, p)} == listed, index
        else:
            profiles = [tuple(int(x) for x in rng.integers(0, m, n)) for _ in range(8)]
        for start in profiles[:16]:
            outcome = run_dynamics(spec, start)
            if outcome.kind == "equilibrium":
                assert verify_pne(spec, outcome.equilibrium_profile), index
                assert outcome.equilibrium_profile in listed, index


# the softmax instance (tau = 0.2, N = 4) on which verify_pne once rejected three
# orderings of the listed multiset {1, 1, 3, 3}, adding the rivals' exponentials
# in profile order where enumerate_pne added them sorted
RIVAL_ORDER_INSTANCE = GameSpec(
    ScoreMatrix([[0.3792938853014244, 0.10421019388155572, 0.9054290816103407],
                 [0.025232939887885886, 0.22396692242099092, 0.9094703295567117],
                 [0.2807764740442198, 0.27089834498352905, 0.6792624397768348],
                 [0.8829032712488051, 0.2958443441484473, 0.37632881322022116]]),
    UserPopulation(["t1", "t2", "t3"], [0.4400542636588001, 0.10303236554472871, 0.4569133707964711]),
    4, ChoiceRule.softmax(0.2))


def _with_score(spec: GameSpec, model: int, type_index: int, value: float) -> GameSpec:
    scores = np.array(spec.scores.scores)
    scores[model, type_index] = value
    return GameSpec(ScoreMatrix(scores), spec.population, spec.n_platforms, spec.choice)


def _excess(spec: GameSpec, profile: tuple[int, ...], model: int) -> float:
    """Platform 0's gain from moving to ``model`` less the threshold, its rivals given in
    profile order; positive exactly when the gain exceeds the threshold."""
    values = game.deviation_values(spec, profile[1:])
    return float(values[model] - values[profile[0]]) - IMPROVEMENT_EPS


def _boundary_instance(rng: np.random.Generator):
    """A softmax instance (M = N = 4, K = 3, tau = 0.2), a PNE p whose platform-0
    rivals are unsorted, and platform 0's best alternative g, one of whose scores
    is moved to where g's gain crosses the threshold: the instance, p, g, the
    score's type and the float bits of the first score at which the gain exceeds it."""
    while True:
        population = UserPopulation(["t0", "t1", "t2"], rng.dirichlet(np.ones(3)))
        spec = GameSpec(ScoreMatrix(rng.uniform(0.0, 1.0, size=(4, 3))), population, 4,
                        ChoiceRule.softmax(0.2))
        unsorted = [p for p in enumerate_pne(spec) if list(p[1:]) != sorted(p[1:])]
        if not unsorted:
            continue
        p = unsorted[int(rng.integers(len(unsorted)))]
        values = game.deviation_values(spec, p[1:])
        values[p[0]] = -np.inf
        g, k = int(np.argmax(values)), int(rng.integers(3))
        excess = lambda x: _excess(_with_score(spec, g, k, x), p, g)  # noqa: E731
        low, high = float(spec.scores.scores[g, k]), float(spec.scores.scores[g, k]) + 1.0
        f_low, f_high = excess(low), excess(high)
        if not f_high > 0:
            continue
        # the excess is within the threshold at low and above it at high: regula
        # falsi narrows the bracket, halving the value kept at an end that stays
        # twice (Illinois), then its float bits are bisected
        kept = 0
        for _ in range(20):
            mid = low - f_low * (high - low) / (f_high - f_low)
            if not low < mid < high:
                break
            f_mid = excess(mid)
            if f_mid > 0:
                high, f_high = mid, f_mid
                f_low, kept = (f_low / 2 if kept < 0 else f_low), -1
            else:
                low, f_low = mid, f_mid
                f_high, kept = (f_high / 2 if kept > 0 else f_high), 1
        low_bits, high_bits = np.float64(low).view(np.int64), np.float64(high).view(np.int64)
        while high_bits - low_bits > 1:
            mid_bits = low_bits + (high_bits - low_bits) // 2
            if excess(float(mid_bits.view(np.float64))) > 0:
                high_bits = mid_bits
            else:
                low_bits = mid_bits
        return spec, p, g, k, high_bits


def test_softmax_verification_agrees_with_enumeration_at_the_threshold():
    """verify_pne accepts exactly the profiles enumerate_pne lists under softmax,
    on 400 instances whose deviation gain sits on the threshold to the ulp."""
    spec = RIVAL_ORDER_INSTANCE
    listed = enumerate_pne(spec)
    assert len(listed) == 18 and (1, 3, 3, 1) in listed
    assert [p for p in itertools.product(range(4), repeat=4) if verify_pne(spec, p)] == listed
    assert run_dynamics(spec, (1, 3, 3, 1)).equilibrium_profile == (1, 3, 3, 1)
    rng = np.random.default_rng(97)
    for index in range(400):
        spec, p, g, k, crossing = _boundary_instance(rng)
        orderings = set(itertools.permutations(p))
        # the crossing and 6 ulps on either side; every profile at the crossing
        # of every 20th instance, and every ordering of p's multiset elsewhere
        for bits in range(crossing - 6, crossing + 7):
            moved = _with_score(spec, g, k, float(np.int64(bits).view(np.float64)))
            listed = set(enumerate_pne(moved))
            full = bits == crossing and index % 20 == 0
            for q in itertools.product(range(4), repeat=4) if full else orderings:
                assert verify_pne(moved, q).is_pne == (q in listed), (index, bits - crossing, q)


def test_no_bit_depends_on_the_rivals_order():
    """deviation_values, best_response and verify_pne, witness gain included,
    give the same bits under every permutation of the rivals, under both rules."""
    rng = np.random.default_rng(101)
    for index in range(40):
        tau = float(rng.choice([1e-4, 0.2, 1e3]))
        choice = ChoiceRule.hardmax() if index % 2 else ChoiceRule.softmax(tau)
        spec = random_spec(rng, max_models=5, min_platforms=4, max_platforms=5, choice=choice)
        q = tuple(int(x) for x in rng.integers(0, spec.n_models, spec.n_platforms))
        for i in range(spec.n_platforms):
            orders = set(itertools.permutations(q[:i] + q[i + 1:]))
            assert len({game.deviation_values(spec, r).tobytes() for r in orders}) == 1, index
            assert len({best_response(spec, r[:i] + (q[i],) + r[i:], i) for r in orders}) == 1, index
        # the lowest profitable model and its gain follow from the deviator's model alone
        witnesses = {}
        verdicts = set()
        for r in set(itertools.permutations(q)):
            check = verify_pne(spec, r)
            verdicts.add(check.is_pne)
            if check.witness is not None:
                w = check.witness
                found = (w.model, float.hex(w.gain))
                assert witnesses.setdefault(r[w.platform], found) == found, index
        assert len(verdicts) == 1, index
