"""Coverage, welfare, social optimum, concentration, and platform-entry checks."""

import itertools

import numpy as np
import pytest

from modelmarket import game
from modelmarket import metrics as metrics_mod
from modelmarket.errors import MarketGameError
from modelmarket.fixtures import builtin_instance
from modelmarket.game import ChoiceRule, GameSpec, ScoreMatrix, UserPopulation, platform_utilities
from modelmarket.equilibrium import run_dynamics, verify_pne
from modelmarket.metrics import (
    GameAnalysis,
    analyze,
    coverage_value,
    market_shares,
    outcome_metrics,
    platform_entry_check,
    social_optimum,
    welfare_figures,
)

from helpers import brute_force_social_optimum, random_spec


@pytest.fixture
def c7():
    return builtin_instance("c7_welfare_gap").spec


class TestCoverage:
    def test_worked_pair_values(self, c7):
        assert coverage_value(c7, (0, 1)) == pytest.approx(0.7526, abs=1e-9)
        assert coverage_value(c7, (1, 2)) == pytest.approx(0.7389, abs=1e-9)

    def test_homogenized_market_value(self):
        spec = builtin_instance("fig3_b").spec
        assert coverage_value(spec, (2, 2)) == pytest.approx(0.84, abs=1e-9)

    def test_homogeneous_profile_equals_average_score(self):
        rng = np.random.default_rng(30)
        spec = random_spec(rng, min_platforms=2)
        m = int(rng.integers(spec.n_models))
        t = float(spec.scores.scores[m] @ spec.population.weights)
        assert coverage_value(spec, [m] * spec.n_platforms) == pytest.approx(t, abs=1e-12)

    def test_utilities_sum_to_coverage_under_hardmax(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            spec = random_spec(rng, min_platforms=2)
            prof = tuple(rng.integers(0, spec.n_models, spec.n_platforms))
            total = float(platform_utilities(spec, prof).sum())
            assert abs(total - coverage_value(spec, prof)) < 1e-12

    def test_monotone_under_multiset_extension(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            spec = random_spec(rng, min_platforms=2, max_platforms=3)
            wide = spec.with_platforms(spec.n_platforms + 1)
            prof = tuple(rng.integers(0, spec.n_models, spec.n_platforms))
            extra = int(rng.integers(spec.n_models))
            assert (coverage_value(wide, prof + (extra,))
                    >= coverage_value(spec, prof) - 1e-12)

    def test_permutation_invariance(self, c7):
        assert coverage_value(c7, (1, 2)) == coverage_value(c7, (2, 1))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_decomposition_check_fires_on_a_perturbed_route(self, c7, monkeypatch, scale):
        # about 1e-9 off relative to the value, at either score scale
        spec = GameSpec(ScoreMatrix(c7.scores.scores * scale), c7.population, c7.n_platforms)
        exact = game.average_scores
        monkeypatch.setattr(game, "average_scores", lambda spec: exact(spec) + 1e-9 * scale)
        with pytest.raises(MarketGameError, match="coverage decomposition mismatch"):
            coverage_value(spec, (0, 1))

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e9, 1e12])
    def test_decomposition_check_holds_at_every_score_scale(self, scale):
        # the two routes round apart by an ulp or so of the value, which an
        # absolute tolerance of 1e-12 rejects once the value is large
        rng = np.random.default_rng(9)
        for _ in range(300):
            spec = random_spec(rng)
            spec = GameSpec(ScoreMatrix(spec.scores.scores * scale), spec.population, spec.n_platforms)
            prof = tuple(rng.integers(0, spec.n_models, spec.n_platforms))
            assert coverage_value(spec, prof) == pytest.approx(
                spec.scores.scores[list(prof)].max(axis=0) @ spec.population.weights, rel=1e-15)


def _coverage_instances(rng, count):
    """Seeded instances, a quarter each: scores on a tie grid, one model, one
    platform, and more platforms than models."""
    for i in range(count):
        family = i % 4
        m = 1 if family == 1 else int(rng.integers(2, 5))
        n = 1 if family == 2 else (m + int(rng.integers(1, 3)) if family == 3 else int(rng.integers(2, 4)))
        k = int(rng.integers(1, 6))
        scores = rng.integers(0, 3, size=(m, k)) / 2.0 if family == 0 else rng.uniform(size=(m, k))
        yield GameSpec(ScoreMatrix(scores), UserPopulation(None, rng.dirichlet(np.ones(k))), n)


class TestOneCoverageRule:
    """``coverage_value`` and ``social_optimum`` score a stack with one function,
    bit-equal to the 1-D dot of one stack's best scores."""

    def test_every_profile_and_the_optimum(self):
        rng = np.random.default_rng(40)
        for spec in _coverage_instances(rng, 400):
            w = spec.population.weights
            profiles = list(itertools.product(range(spec.n_models), repeat=spec.n_platforms))
            if len(profiles) > 40:
                profiles = [profiles[j] for j in rng.choice(len(profiles), 40, replace=False)]
            for profile in profiles:
                stack = game._chosen_scores(spec, profile)
                got = np.float64(coverage_value(spec, profile)).tobytes()
                assert got == metrics_mod._coverage(stack, w).tobytes()
                assert got == np.float64(stack.max(axis=0) @ w).tobytes()
            optimum = social_optimum(spec)
            assert (np.float64(optimum.value).tobytes()
                    == np.float64(coverage_value(spec, optimum.profile)).tobytes())


class TestMarketShares:
    def test_homogeneous_three_platforms(self):
        spec = builtin_instance("llm_pool1").spec
        shares = market_shares(spec, (3, 3, 3))
        assert np.allclose(shares.shares, 1 / 3, atol=1e-12)
        assert shares.hhi == pytest.approx(1 / 3, abs=1e-9)
        assert shares.support == 1

    def test_monopoly_winner_has_unit_concentration(self):
        spec = builtin_instance("fig2_b").spec
        shares = market_shares(spec, (1, 0))
        assert shares.hhi == pytest.approx(1.0, abs=1e-12)

    def test_partial_equilibrium_concentration(self):
        spec = builtin_instance("llm_pool2").spec
        shares = market_shares(spec, (3, 2, 2))
        assert shares.hhi == pytest.approx(0.375, abs=1e-9)
        assert shares.support == 2

    def test_hhi_bounds(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            spec = random_spec(rng, min_platforms=2)
            prof = tuple(rng.integers(0, spec.n_models, spec.n_platforms))
            shares = market_shares(spec, prof)
            assert 1 / spec.n_platforms - 1e-12 <= shares.hhi <= 1 + 1e-12
            assert sum(shares.shares) == pytest.approx(1.0, abs=1e-9)


class TestSocialOptimum:
    def test_worked_three_model_instance(self, c7):
        opt = social_optimum(c7)
        assert opt.value == pytest.approx(0.7526, abs=1e-9)
        assert opt.profile == (0, 1)

    def test_softmax_reference_instance(self):
        spec = builtin_instance("c9_softmax").spec
        assert social_optimum(spec).value == pytest.approx(0.9345, abs=1e-9)

    def test_single_model(self):
        spec = GameSpec(ScoreMatrix([[0.3, 0.9]]), UserPopulation.uniform(2), 2)
        assert social_optimum(spec).value == pytest.approx(0.6, abs=1e-12)

    def test_matches_ordered_brute_force(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            spec = random_spec(rng, max_models=4, max_platforms=3, min_platforms=2)
            assert social_optimum(spec).value == pytest.approx(
                brute_force_social_optimum(spec), abs=1e-12)

    def test_budget_refusal(self):
        spec = builtin_instance("c8_players_2").spec.with_platforms(40)
        from modelmarket.errors import BudgetExceededError
        with pytest.raises(BudgetExceededError):
            social_optimum(spec, budget=1000)

    def test_a_pne_count_past_the_int_str_limit_is_a_note(self):
        analysis = analyze(builtin_instance("fig3_b").spec.with_platforms(10_000))
        assert analysis.pne is None
        assert analysis.pne_note.startswith("enumeration needs more than 10**4771 profiles")


class TestUserWelfare:
    def test_equilibrium_welfare(self):
        spec = builtin_instance("fig2_a").spec
        out = run_dynamics(spec, (0, 0))
        assert out.kind == "equilibrium"
        assert welfare_figures(spec, out).value == pytest.approx(0.85, abs=1e-9)

    def test_two_platform_entry_counterexample_welfare(self):
        # the (g3, g6) equilibrium's coverage, re-derived from the score matrix
        spec = builtin_instance("c8_players_2").spec
        out = run_dynamics(spec, (0, 0))
        assert out.kind == "equilibrium" and out.equilibrium_profile == (2, 5)
        assert welfare_figures(spec, out).value == pytest.approx(0.19957646091, abs=1e-9)

    def test_cycle_welfare_both_conventions(self):
        spec = builtin_instance("c8_players_3").spec
        out = run_dynamics(spec, (2, 2, 0))
        figs = welfare_figures(spec, out)
        assert figs.state_average == pytest.approx(0.2097252174433334, abs=1e-9)
        assert figs.multiset_average == pytest.approx(0.2097252174433334, abs=1e-9)

    def test_timeout_welfare_is_undefined(self):
        spec = builtin_instance("c1_rps").spec
        out = run_dynamics(spec, (0, 0), max_steps=2)
        with pytest.raises(MarketGameError):
            welfare_figures(spec, out).value

    def test_single_profile_cycle_equals_its_coverage(self):
        from modelmarket.equilibrium import DynamicsOutcome
        spec = builtin_instance("fig2_a").spec
        outcome = DynamicsOutcome(kind="cycle", trajectory=(), start=(0, 1),
                                  cycle_profiles=((0, 1),))
        assert welfare_figures(spec, outcome).value == pytest.approx(
            coverage_value(spec, (0, 1)), abs=1e-12)

    def test_outcome_metrics_record_is_consistent(self):
        spec = builtin_instance("c8_players_3").spec
        record = outcome_metrics(spec, run_dynamics(spec, (2, 2, 0)), analyze(spec))
        assert record.welfare.value <= record.analysis.optimum.value + 1e-12
        anchor = record.scores[record.anchor]
        assert anchor.hhi == pytest.approx(sum(s * s for s in anchor.shares), abs=1e-12)

    def test_an_equilibrium_missing_from_the_pne_list_raises_under_both_rules(self):
        hard = builtin_instance("fig2_a").spec
        for spec in (hard, hard.with_choice(ChoiceRule.softmax(0.1))):
            outcome = run_dynamics(spec, (0, 1))
            assert outcome.kind == "equilibrium"
            analysis = analyze(spec)
            assert outcome.equilibrium_profile in analysis.pne
            outcome_metrics(spec, outcome, analysis)
            missing = GameAnalysis((), analysis.pne_note, analysis.optimum, analysis.optimum_note)
            with pytest.raises(MarketGameError, match="missing from the PNE list"):
                outcome_metrics(spec, outcome, missing)
            # a refused list is not checked
            refused = GameAnalysis(None, "refused", analysis.optimum, analysis.optimum_note)
            outcome_metrics(spec, outcome, refused)


def _welfare_slack(spec, outcome):
    """The optimum less the outcome's welfare, from the record that checks the bound."""
    record = outcome_metrics(spec, outcome, analyze(spec))
    return record.analysis.optimum.value - record.welfare.value


class TestWelfareBound:
    def test_worked_slack(self, c7):
        slack = _welfare_slack(c7, run_dynamics(c7, (0, 0)))
        assert slack >= -1e-12
        assert slack == pytest.approx(0.7526 - 0.7389, abs=1e-9)

    def test_degenerate_single_model_has_zero_slack(self):
        spec = GameSpec(ScoreMatrix([[0.3, 0.9]]), UserPopulation.uniform(2), 2)
        slack = _welfare_slack(spec, run_dynamics(spec, (0, 0)))
        assert slack >= -1e-12 and slack == pytest.approx(0.0, abs=1e-12)

    def test_never_violated_on_random_instances(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            spec = random_spec(rng, min_platforms=2)
            out = run_dynamics(spec, tuple(rng.integers(0, spec.n_models, spec.n_platforms)))
            if out.kind == "timeout":
                continue
            assert welfare_figures(spec, out).value <= brute_force_social_optimum(spec) + 1e-12


class TestPlatformEntry:
    def test_base_profile_must_be_equilibrium(self):
        spec = builtin_instance("fig2_a").spec
        with pytest.raises(MarketGameError):
            platform_entry_check(spec, (0, 0), 1)

    def test_duplicate_entrant_at_homogeneous_equilibrium(self):
        spec = builtin_instance("fig2_b").spec
        check = platform_entry_check(spec, (1, 1), 1)
        assert check.is_equilibrium
        assert check.welfare_delta == pytest.approx(0.0, abs=1e-12)
        assert check.support_delta == 0

    def test_stable_entries_never_lower_welfare_or_support(self):
        rng = np.random.default_rng(36)
        hits = 0
        for _ in range(200):
            spec = random_spec(rng, max_platforms=3, min_platforms=2)
            from modelmarket.equilibrium import enumerate_pne
            pnes = enumerate_pne(spec)
            if not pnes:
                continue
            base = pnes[0]
            entrant = int(rng.integers(spec.n_models))
            check = platform_entry_check(spec, base, entrant)
            if check.is_equilibrium:
                hits += 1
                assert check.welfare_delta >= -1e-12
                assert check.support_delta >= 0
            else:
                # the extended profile must genuinely fail verification
                ext_spec = spec.with_platforms(spec.n_platforms + 1)
                assert not verify_pne(ext_spec, base + (entrant,)).is_pne
        assert hits > 10  # the monotonicity branch is actually exercised
