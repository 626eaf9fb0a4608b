"""Equilibrium search, dynamics, and closed-form condition checks."""

import itertools

import numpy as np
import pytest

from modelmarket.errors import BudgetExceededError, MarketGameError
from modelmarket.fixtures import builtin_instance
from modelmarket.game import ChoiceRule, GameSpec, ScoreMatrix, UserPopulation, platform_utilities
from modelmarket.equilibrium import (
    CentralizationParams,
    _count_text,
    best_response,
    centralization_check,
    check_differentiated_condition,
    check_homogeneous_condition,
    enumerate_pne,
    pair_delta,
    run_dynamics,
    verify_pne,
)
from modelmarket.metrics import market_shares, platform_entry_check

from helpers import pair_conditions, random_spec


@pytest.fixture
def c1():
    return builtin_instance("c1_rps").spec


@pytest.fixture
def fig2a():
    return builtin_instance("fig2_a").spec


@pytest.fixture
def fig2b():
    return builtin_instance("fig2_b").spec


@pytest.fixture
def fig3b():
    return builtin_instance("fig3_b").spec


class TestVerifyPne:
    def test_differentiated_profile_is_equilibrium(self, fig2a):
        assert verify_pne(fig2a, (0, 1)).is_pne

    def test_counterexample_has_no_equilibrium_profile(self, c1):
        for prof in itertools.product(range(3), repeat=2):
            check = verify_pne(c1, prof)
            assert not check.is_pne
            assert check.witness is not None and check.witness.gain > 0

    def test_single_model_game_is_trivially_stable(self):
        spec = GameSpec(ScoreMatrix([[0.3, 0.9]]), UserPopulation.uniform(2), 3)
        assert verify_pne(spec, (0, 0, 0)).is_pne

    def test_witness_names_a_profitable_deviation(self, fig2b):
        check = verify_pne(fig2b, (0, 1))
        dev = check.witness
        base = platform_utilities(fig2b, (0, 1))[dev.platform]
        prof = [0, 1]
        prof[dev.platform] = dev.model
        assert platform_utilities(fig2b, prof)[dev.platform] - base == pytest.approx(dev.gain)


class TestEnumeratePne:
    def test_homogeneous_scenario(self, fig2b):
        assert enumerate_pne(fig2b) == [(1, 1)]
        assert market_shares(fig2b, (1, 1)).support == 1  # homogeneous

    def test_counterexample_is_empty(self, c1):
        assert enumerate_pne(c1) == []

    def test_three_model_extension(self, fig3b):
        assert enumerate_pne(fig3b) == [(2, 2)]

    def test_classification_of_differentiated_pair(self, fig2a):
        found = enumerate_pne(fig2a)
        assert found == [(0, 1), (1, 0)]
        # fully differentiated: a distinct model on every platform
        assert all(market_shares(fig2a, p).support == fig2a.n_platforms for p in found)

    def test_budget_refusal_names_required_count(self, c1):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_pne(c1.with_platforms(20), budget=100)
        assert err.value.required == 3 ** 20

    def test_a_count_past_the_int_str_limit_is_named_by_its_power_of_ten(self, c1):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_pne(c1.with_platforms(10_000), budget=100)
        assert err.value.required == 3 ** 10_000
        assert str(err.value) == "enumeration needs more than 10**4771 profiles but the budget is 100"

    @pytest.mark.parametrize("count, text", [
        (12345, "12345"),
        (10 ** 4299, "1" + "0" * 4299),
        (10 ** 5000, "10**5000"),
        (10 ** 5000 + 1, "more than 10**5000"),
        (10 ** 5000 - 1, "more than 10**4999"),
    ], ids=["fits", "widest-that-fits", "power-of-ten", "above-a-power", "below-a-power"])
    def test_a_count_is_written_exactly_or_by_its_power_of_ten(self, count, text):
        assert _count_text(count) == text

    def test_agrees_with_per_profile_verification(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            spec = random_spec(rng, max_models=4, max_platforms=3, min_platforms=2)
            found = set(enumerate_pne(spec))
            brute = {
                prof
                for prof in itertools.product(range(spec.n_models), repeat=spec.n_platforms)
                if verify_pne(spec, prof).is_pne
            }
            assert found == brute

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            spec = random_spec(rng, max_platforms=3, min_platforms=2)
            found = set(enumerate_pne(spec))
            for prof in found:
                for perm in itertools.permutations(prof):
                    assert perm in found


class TestBestResponse:
    def test_counterexample_best_reply(self, c1):
        # against g1, switching to g3 earns 0.1 over the diagonal's 0.05
        assert best_response(c1, (0, 0), 0) == 2

    def test_unique_maximizer_is_kept(self, fig2b):
        assert best_response(fig2b, (1, 1), 0) == 1

    def test_tie_keeps_current_model(self):
        spec = GameSpec(ScoreMatrix([[0.5, 0.5], [0.5, 0.5]]), UserPopulation.uniform(2), 2)
        assert best_response(spec, (1, 0), 0) == 1

    @pytest.mark.parametrize("platform", [2, -1, 5])
    def test_platform_out_of_range_rejected(self, fig2a, platform):
        with pytest.raises(MarketGameError, match=f"platform index {platform} out of range"):
            best_response(fig2a, (0, 1), platform)


class TestRunDynamics:
    def test_counterexample_cycles_through_off_diagonal(self, c1):
        out = run_dynamics(c1, (0, 0))
        assert out.kind == "cycle"
        assert set(out.cycle_profiles) == {
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
        }

    def test_start_at_equilibrium_is_one_silent_pass(self, fig2a):
        out = run_dynamics(fig2a, (0, 1))
        assert out.kind == "equilibrium"
        assert out.equilibrium_profile == (0, 1)
        assert len(out.trajectory) == fig2a.n_platforms
        assert not any(s.changed for s in out.trajectory)

    def test_three_platform_cycle_multisets(self):
        spec = builtin_instance("c8_players_3").spec
        out = run_dynamics(spec, (2, 2, 0))
        assert out.kind == "cycle"
        multisets = {tuple(sorted(p)) for p in out.cycle_profiles}
        assert {(0, 2, 2), (2, 2, 5), (0, 2, 5)} <= multisets

    def test_cycle_state_repeats_with_same_mover(self, c1):
        out = run_dynamics(c1, (0, 0))
        # L strategy changes bring the segment back to its first profile
        changed = [s for s in out.trajectory if s.changed]
        assert len(out.cycle_profiles) == 6

    def test_deterministic_given_start(self, c1):
        a = run_dynamics(c1, (1, 2))
        b = run_dynamics(c1, (1, 2))
        assert a == b

    def test_timeout_is_reported(self, c1):
        out = run_dynamics(c1, (0, 0), max_steps=3)
        assert out.kind == "timeout"

    def test_max_steps_validation(self, c1):
        with pytest.raises(MarketGameError):
            run_dynamics(c1, (0, 0), max_steps=0)

    def test_a_third_positional_argument_is_a_type_error(self, c1):
        # max_steps is keyword-only, so a call that still passes a mover order fails
        with pytest.raises(TypeError):
            run_dynamics(c1, (0, 0), [1, 0])


class TestConditionCheckers:
    def test_differentiated_condition_scenario_a(self, fig2a):
        report = check_differentiated_condition(fig2a, (0, 1))
        assert report.holds

    def test_differentiated_condition_scenario_b(self, fig2b):
        assert not check_differentiated_condition(fig2b, (0, 1)).holds

    def test_non_distinct_profile_rejected(self, fig2a):
        with pytest.raises(MarketGameError):
            check_differentiated_condition(fig2a, (0, 0))

    def test_single_platform_call_rejected(self, fig2a):
        with pytest.raises(MarketGameError, match="two platforms"):
            check_differentiated_condition(fig2a.with_platforms(1), (0,))

    def test_homogeneous_condition_scenario_b(self, fig2b):
        assert check_homogeneous_condition(fig2b, 1).holds
        assert not check_homogeneous_condition(fig2b, 0).holds

    def test_homogeneous_condition_three_models(self, fig3b):
        assert check_homogeneous_condition(fig3b, 2).holds

    def test_single_model_homogeneous_condition(self):
        spec = GameSpec(ScoreMatrix([[0.3, 0.9]]), UserPopulation.uniform(2), 2)
        assert check_homogeneous_condition(spec, 0).holds

    def test_checkers_agree_with_verification(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            spec = random_spec(rng, max_models=5, max_platforms=3, min_platforms=2)
            for m in range(spec.n_models):
                hom = [m] * spec.n_platforms
                assert (check_homogeneous_condition(spec, m).holds
                        == verify_pne(spec, hom).is_pne)
            if spec.n_models >= spec.n_platforms:
                prof = tuple(int(x) for x in
                             rng.choice(spec.n_models, spec.n_platforms, replace=False))
                assert (check_differentiated_condition(spec, prof).holds
                        == verify_pne(spec, prof).is_pne)


class TestTwoPlayerConditions:
    """The N-platform conditions at N = 2, on the pair (i, j) and on each of i and j."""

    def test_scenario_a_differentiates(self, fig2a):
        differentiated, homogeneous_i, homogeneous_j = pair_conditions(fig2a, 0, 1)
        assert differentiated
        assert not homogeneous_i and not homogeneous_j

    def test_scenario_b_consolidates(self, fig2b):
        differentiated, _, homogeneous_j = pair_conditions(fig2b, 0, 1)
        assert not differentiated
        assert homogeneous_j  # model j = g2 wins the whole market

    def test_three_model_instance(self):
        spec = builtin_instance("c7_welfare_gap").spec
        assert check_differentiated_condition(spec, (1, 2)).holds

    def test_same_model_rejected(self, fig2a):
        with pytest.raises(MarketGameError, match="distinct models"):
            check_differentiated_condition(fig2a, (1, 1))

    def test_matches_verification_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            spec = random_spec(rng, max_models=5, max_platforms=2, min_platforms=2)
            if spec.n_models < 2:
                continue
            i, j = (int(x) for x in rng.choice(spec.n_models, 2, replace=False))
            assert pair_conditions(spec, i, j) == (verify_pne(spec, (i, j)).is_pne,
                                                   verify_pne(spec, (i, i)).is_pne,
                                                   verify_pne(spec, (j, j)).is_pne)


def _centralized_instance(rng: np.random.Generator):
    """Random instance satisfying the dominant-type premises with pi* large."""
    m_count = int(rng.integers(2, 7))
    k_count = int(rng.integers(2, 7))
    n = int(rng.integers(2, 5))
    rho = float(rng.uniform(0.2, 0.5))
    gamma_cap = float(rng.uniform(0.0, 0.12))
    threshold = 1.0 - rho / (rho + 2.0 * gamma_cap) if gamma_cap > 0 else 0.0
    pi_star = float(max(threshold + 1e-6, rng.uniform(0.88, 0.97)))
    rest = rng.dirichlet(np.ones(k_count - 1)) * (1.0 - pi_star)
    weights = np.concatenate([[pi_star], rest])
    dominant_model = int(rng.integers(m_count))
    scores = np.empty((m_count, k_count))
    scores[dominant_model, 0] = rng.uniform(0.65, 0.95)
    scores[dominant_model, 1:] = rng.uniform(0.2, 0.85, size=k_count - 1)
    for j in range(m_count):
        if j == dominant_model:
            continue
        scores[j, 0] = max(0.0, scores[dominant_model, 0] - rho - rng.uniform(0.0, 0.1))
        drift = rng.uniform(-gamma_cap, gamma_cap, size=k_count - 1)
        scores[j, 1:] = np.clip(scores[dominant_model, 1:] + drift, 0.0, None)
    spec = GameSpec(
        ScoreMatrix(scores),
        UserPopulation([f"t{i}" for i in range(k_count)], weights),
        n,
    )
    params = CentralizationParams(0, rho, gamma_cap)
    return spec, params


class TestCentralizationCheck:
    def test_zero_variation_gives_zero_threshold(self):
        scores = np.array([[0.9, 0.5, 0.6], [0.4, 0.5, 0.6]])
        spec = GameSpec(ScoreMatrix(scores), UserPopulation(["a", "b", "c"], [0.2, 0.4, 0.4]), 2)
        res = centralization_check(spec, CentralizationParams(0, 0.5, 0.0))
        assert res.threshold == 0.0
        assert res.satisfied and res.pne_confirmed

    def test_threshold_formula_at_unit_ratio(self):
        # gamma_cap / rho = 1 puts the threshold at 2/3
        scores = np.array([[0.9, 0.5], [0.5, 0.6]])
        spec = GameSpec(ScoreMatrix(scores), UserPopulation(["a", "b"], [0.7, 0.3]), 2)
        res = centralization_check(spec, CentralizationParams(0, 0.1, 0.1))
        assert res.threshold == pytest.approx(2 / 3)
        assert res.satisfied
        # pi* is the dominant type's weight, here below the same threshold
        lighter = GameSpec(ScoreMatrix(scores), UserPopulation(["a", "b"], [0.6, 0.4]), 2)
        assert not centralization_check(lighter, CentralizationParams(0, 0.1, 0.1)).satisfied

    def test_the_first_top_model_is_the_dominant_one(self):
        # at rho <= IMPROVEMENT_EPS model 1, tied with model 0 on the dominant
        # type, passes the margin premise; the gaps are measured from model 0
        scores = np.array([[0.5, 0.2], [0.5, 0.9]])
        spec = GameSpec(ScoreMatrix(scores), UserPopulation(["a", "b"], [0.7, 0.3]), 2)
        with pytest.raises(MarketGameError) as info:
            centralization_check(spec, CentralizationParams(0, 1e-13, 0.1))
        assert str(info.value) == "off-dominant variation violated: |S_1,1 - S_0,1| = 0.7 > gamma_cap=0.1"

    def test_premise_violation_is_named(self):
        scores = np.array([[0.9, 0.5], [0.85, 0.6]])
        spec = GameSpec(ScoreMatrix(scores), UserPopulation(["a", "b"], [0.7, 0.3]), 2)
        with pytest.raises(MarketGameError, match="dominant-type margin"):
            centralization_check(spec, CentralizationParams(0, 0.3, 0.2))

    def test_off_dominant_variation_violation_is_named(self):
        scores = np.array([[0.9, 0.5], [0.4, 0.9]])
        spec = GameSpec(ScoreMatrix(scores), UserPopulation(["a", "b"], [0.7, 0.3]), 2)
        with pytest.raises(MarketGameError, match="off-dominant variation"):
            centralization_check(spec, CentralizationParams(0, 0.3, 0.1))

    def test_satisfied_instances_confirm_equilibrium(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            spec, params = _centralized_instance(rng)
            res = centralization_check(spec, params)
            assert res.satisfied
            assert res.pne_confirmed


def _softmax_pne(spec, tau):
    return enumerate_pne(spec.with_choice(ChoiceRule.softmax(tau)))


class TestSoftmaxScan:
    def test_reference_softmax_instance_has_no_pne(self):
        spec = builtin_instance("c9_softmax").spec
        assert _softmax_pne(spec, 0.1) == []

    def test_counterexample_stays_empty_at_small_tau(self, c1):
        assert [_softmax_pne(c1, tau) for tau in (1e-3, 1e-2)] == [[], []]

    def test_huge_tau_recovers_an_equilibrium(self, c1):
        assert len(_softmax_pne(c1, 1e9)) >= 1


# one platform, two models whose values differ by just over the threshold in
# one float form and just under it in another
BOUNDARY_SCORES = [[0.1317770745302126], [0.1317770745312126]]


class TestOneThresholdRule:
    """Dynamics, verification and enumeration decide with one threshold rule."""

    @pytest.fixture
    def boundary(self):
        return GameSpec(ScoreMatrix(BOUNDARY_SCORES), UserPopulation(["t1"], [1.0]), 1)

    def test_boundary_instance_agrees_everywhere(self, boundary):
        witness = verify_pne(boundary, (0,)).witness
        assert (witness.platform, witness.model) == (0, 1) and witness.gain > 1e-12
        assert verify_pne(boundary, (1,))
        assert enumerate_pne(boundary) == [(1,)]
        assert best_response(boundary, (0,), 0) == 1
        assert best_response(boundary, (1,), 0) == 1
        outcome = run_dynamics(boundary, (0,))
        assert outcome.kind == "equilibrium" and outcome.equilibrium_profile == (1,)

    def test_best_response_takes_the_lowest_index_model_within_the_threshold(self):
        # model 0 is 0.5e-12 below the best, model 1 the best, model 2 far below
        scores = [[0.5 - 0.5e-12], [0.5], [0.1]]
        spec = GameSpec(ScoreMatrix(scores), UserPopulation(["t1"], [1.0]), 1)
        assert best_response(spec, (2,), 0) == 0
        assert best_response(spec, (1,), 0) == 1
        assert enumerate_pne(spec) == [(0,), (1,)]


class TestIndexArguments:
    """A model, platform, user-type or entrant index is read as a profile entry
    is: through operator.index and its range, so -1 does not wrap to the last
    model, 1.7 is not truncated to 1, and True reads as 1."""

    _CENTRAL = {"rho": 0.1, "gamma_cap": 0.5}

    @pytest.mark.parametrize("call, message", [
        (lambda s: pair_delta(s, 0, -1), "model index -1 out of range [0, 2)"),
        (lambda s: pair_delta(s, 0, 9), "model index 9 out of range [0, 2)"),
        (lambda s: pair_delta(s, "0", 1), "model index must be an integer (got '0')"),
        (lambda s: platform_entry_check(s, (0, 1), 1.7), "entrant model index must be an integer (got 1.7)"),
        (lambda s: platform_entry_check(s, (0, 1), -1), "entrant model index -1 out of range [0, 2)"),
        (lambda s: check_homogeneous_condition(s, 1.0), "model index must be an integer (got 1.0)"),
        (lambda s: check_homogeneous_condition(s, -2), "model index -2 out of range [0, 2)"),
        (lambda s: best_response(s, (0, 1), 1.0), "platform index must be an integer (got 1.0)"),
        (lambda s: best_response(s, (0, 1), -1), "platform index -1 out of range [0, 2)"),
        (lambda s: centralization_check(s, CentralizationParams(-1, **TestIndexArguments._CENTRAL)),
         "dominant type index -1 out of range [0, 2)"),
    ], ids=["pair-delta-negative", "pair-delta-past-end", "pair-delta-string", "entrant-float",
            "entrant-negative", "homogeneous-float", "homogeneous-negative", "best-response-float",
            "best-response-negative", "dominant-type"])
    def test_a_bad_index_is_one_error_naming_the_index(self, fig2a, call, message):
        with pytest.raises(MarketGameError) as info:
            call(fig2a)
        assert str(info.value) == message

    def test_a_bool_reads_as_its_int(self, fig2a):
        assert check_homogeneous_condition(fig2a, True) == check_homogeneous_condition(fig2a, 1)
        assert check_differentiated_condition(fig2a, (0, True)) == check_differentiated_condition(fig2a, (0, 1))
        assert pair_delta(fig2a, np.int64(0), True) == pair_delta(fig2a, 0, 1)
        assert best_response(fig2a, (0, 1), True) == best_response(fig2a, (0, 1), 1)
