"""The per-step dynamics path against the previous release's formulation, bit for bit.

The hardmax deviation kernel, the hardmax shares, best responses, the PNE
witness, coverage, market shares and whole trajectories (whose silent turns
reuse the previous turn's utilities) are compared with the ``previous_*``
oracles of ``helpers`` by ``tobytes`` or ``repr``, so a sign of zero or a last
bit that moves fails.  The end-of-run rule, a run ends at its first repeated
state, is compared with ``helpers.reference_run_dynamics``, which ends a run
by a silent-turn counter or a repeated state before a turn.  Both sides run
in one process, so the comparisons hold under every BLAS kernel.
"""

from collections import Counter

import numpy as np
import pytest

from modelmarket import equilibrium, game, metrics
from modelmarket.equilibrium import best_response, run_dynamics, verify_pne
from modelmarket.fixtures import builtin_instance
from modelmarket.game import ChoiceRule, GameSpec, ScoreMatrix, UserPopulation, platform_utilities

from helpers import (
    previous_best_response,
    previous_coverage_value,
    previous_deviation_block,
    previous_hardmax_shares,
    previous_market_shares,
    previous_run_dynamics,
    previous_verify_pne,
    reference_run_dynamics,
)

N_INSTANCES = 400
GRID = [0.0, 0.25, 0.5, 1.0]


def _instance(rng: np.random.Generator, index: int) -> GameSpec:
    """A hardmax instance with M, N in [1, 6] and K in [1, 8], its scores by ``index % 4``:
    a coarse grid (exact ties), draws clipped to exact 0s and 1s, plain draws, or
    the grid with one entry -0.0."""
    m, n, k = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
    kind = index % 4
    if kind == 1:
        scores = np.clip(rng.uniform(-0.3, 1.3, size=(m, k)), 0.0, 1.0)
    elif kind == 2:
        scores = rng.uniform(0.0, 1.0, size=(m, k))
    else:
        scores = rng.choice(GRID, size=(m, k))
    if kind == 3:
        scores[rng.integers(m), rng.integers(k)] = -0.0
    population = UserPopulation([f"t{i}" for i in range(k)], rng.dirichlet(np.ones(k)))
    return GameSpec(ScoreMatrix(scores), population, n)


def _instances():
    rng = np.random.default_rng(2024)
    return [_instance(rng, index) for index in range(N_INSTANCES)]


INSTANCES = _instances()


def test_the_instances_reach_every_edge():
    s = [spec.scores.scores for spec in INSTANCES]
    assert sum(spec.n_models == 1 for spec in INSTANCES) >= 10
    assert sum(spec.n_platforms == 1 for spec in INSTANCES) >= 10
    assert sum(spec.n_platforms > spec.n_models for spec in INSTANCES) >= 10
    assert sum(bool((a == 0).any() and (a == 1).any()) for a in s) >= 10
    assert sum(bool(np.signbit(a).any()) for a in s) >= 10
    # exact ties between two models of one type
    assert sum(any(len(set(col)) < len(col) for col in a.T) for a in s if len(a) > 1) >= 100


def _profiles(rng, spec, count):
    return [tuple(int(g) for g in rng.integers(0, spec.n_models, size=spec.n_platforms))
            for _ in range(count)]


@pytest.mark.parametrize("part", range(4))
def test_deviation_block_matches_on_single_stacks_and_stacks(part):
    rng = np.random.default_rng(part)
    for index in range(part, N_INSTANCES, 4):
        spec = INSTANCES[index]
        stacks = rng.integers(0, spec.n_models, size=(int(rng.integers(1, 7)), spec.n_platforms - 1))
        # the rivals' sorted score rows: (B, N-1, K), and rivals[0] one (N-1, K) stack
        rivals = spec.scores.scores[np.sort(stacks, axis=-1)]
        got = game._deviation_block(spec, stacks)
        assert got.tobytes() == previous_deviation_block(spec, rivals).tobytes(), index
        want = previous_deviation_block(spec, rivals[0]).tobytes()
        assert game._deviation_block(spec, stacks[0]).tobytes() == want, index
        assert game.deviation_values(spec, stacks[0]).tobytes() == want, index


def test_hardmax_shares_match_on_profiles_and_stacks():
    rng = np.random.default_rng(5)
    hardmax = ChoiceRule.hardmax()
    for index, spec in enumerate(INSTANCES):
        profiles = rng.integers(0, spec.n_models, size=(int(rng.integers(1, 5)), spec.n_platforms))
        chosen = spec.scores.scores[profiles]
        assert game._shares(hardmax, chosen).tobytes() == previous_hardmax_shares(chosen).tobytes(), index
        assert game._shares(hardmax, chosen[0]).tobytes() == previous_hardmax_shares(chosen[0]).tobytes()


def test_best_responses_and_pne_witnesses_match():
    rng = np.random.default_rng(6)
    for index, spec in enumerate(INSTANCES):
        for profile in _profiles(rng, spec, 3):
            for platform in range(spec.n_platforms):
                assert best_response(spec, profile, platform) == \
                    previous_best_response(spec, profile, platform), (index, profile, platform)
            assert repr(verify_pne(spec, profile)) == repr(previous_verify_pne(spec, profile)), index


def test_trajectories_and_their_scores_match():
    rng = np.random.default_rng(7)
    kinds = set()
    silent = 0
    for index, spec in enumerate(INSTANCES):
        start = _profiles(rng, spec, 1)[0]
        outcome = run_dynamics(spec, start, max_steps=40)
        # repr shows every utility's bits, the silent turns' too, and -0.0
        assert repr(outcome) == repr(previous_run_dynamics(spec, start, max_steps=40)), index
        kinds.add(outcome.kind)
        silent += sum(not step.changed for step in outcome.trajectory)
        for profile in {step.profile_after for step in outcome.trajectory}:
            assert repr(metrics.coverage_value(spec, profile)) == \
                repr(previous_coverage_value(spec, profile)), (index, profile)
            assert repr(metrics.market_shares(spec, profile)) == \
                repr(previous_market_shares(spec, profile)), (index, profile)
    assert kinds == {"equilibrium", "cycle", "timeout"} and silent > 500


@pytest.mark.parametrize("choice", [ChoiceRule.hardmax(), ChoiceRule.softmax(0.05)])
def test_a_silent_turn_reuses_the_utilities_of_its_unchanged_profile(monkeypatch, choice):
    calls = []

    def counted(spec, profile):
        calls.append(profile)
        return platform_utilities(spec, profile)

    monkeypatch.setattr(game, "platform_utilities", counted)
    rng = np.random.default_rng(8)
    for index, spec in enumerate(INSTANCES[:100]):
        spec = spec.with_choice(choice)
        calls.clear()
        outcome = equilibrium.run_dynamics(spec, _profiles(rng, spec, 1)[0], max_steps=40)
        steps = outcome.trajectory
        # one evaluation per changing turn, and one for a first turn that changes nothing
        assert len(calls) == sum(step.changed for step in steps) + (not steps[0].changed), index
        for step in steps:
            want = tuple(platform_utilities(spec, step.profile_after).tolist())
            assert repr(step.utilities) == repr(want), index


def _end_rule_case(rng: np.random.Generator, index: int):
    """An instance with M in [1, 5], N in [1, 4] and K in [1, 4], and a start.
    Hardmax on even and softmax on odd indices; the scores a tie grid, plain
    draws, or K rotations of one row (M = K), where best responses cycle as in
    ``c1_rps``, by ``index % 3``."""
    m, n, k = (int(x) for x in rng.integers(1, [6, 5, 5]))
    if index % 3 == 0:
        scores = rng.choice(GRID, size=(m, k))
    elif index % 3 == 1:
        scores = rng.uniform(0.0, 1.0, size=(m, k))
    else:
        row = rng.uniform(0.0, 1.0, size=k)
        scores = np.array([np.roll(row, i) for i in range(k)])
    choice = ChoiceRule.hardmax() if index % 2 == 0 else ChoiceRule.softmax(float(rng.choice([0.05, 0.2, 1.0])))
    population = UserPopulation([f"t{i}" for i in range(k)], rng.dirichlet(np.ones(k)))
    spec = GameSpec(ScoreMatrix(scores), population, n, choice)
    return spec, tuple(int(g) for g in rng.integers(0, len(scores), size=n))


def test_a_run_ends_at_its_first_repeated_state():
    """``run_dynamics`` equals the two-rule reference field for field, utilities'
    bits included, at every tested ``max_steps``.  The one exception is a run
    whose last allowed turn reaches a repeated state across a change: the
    reference reads timeout, and this run is the cycle the reference finds
    when given one more turn, with the same trajectory."""
    rng = np.random.default_rng(3)
    kinds, late = Counter(), 0
    for index in range(2000):
        spec, start = _end_rule_case(rng, index)
        n = spec.n_platforms
        for max_steps in sorted({1, 2, 3, n, n + 1, 2 * n, 7, 50}):
            got = run_dynamics(spec, start, max_steps=max_steps)
            want = reference_run_dynamics(spec, start, max_steps)
            if got.kind == "cycle" and want.kind == "timeout":
                want = reference_run_dynamics(spec, start, max_steps + 1)
                late += 1
            assert repr(got) == repr(want), (index, max_steps)
            kinds[got.kind, spec.choice.kind] += 1
    assert len(kinds) == 6 and late >= 3, (kinds, late)


@pytest.mark.parametrize("name, max_steps, kind, steps, cycle", [
    ("c1_rps", 6, "timeout", 6, 0),
    ("c1_rps", 7, "cycle", 7, 6),  # the 7th turn returns to the state after the first
    ("fig2_a", 2, "timeout", 2, 0),
    ("fig2_a", 3, "equilibrium", 3, 0),
])
def test_the_last_allowed_turn_ends_a_run_at_a_repeated_state(name, max_steps, kind, steps, cycle):
    outcome = run_dynamics(builtin_instance(name).spec, (0, 0), max_steps=max_steps)
    assert (outcome.kind, len(outcome.trajectory), len(outcome.cycle_profiles)) == (kind, steps, cycle)
