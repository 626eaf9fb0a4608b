"""Entry-training: gates, objective, gradients, both training schemes, evaluation."""

import numpy as np
import pytest

from modelmarket.errors import InvalidInstanceError, InvalidParameterError, MarketGameError
from modelmarket.equilibrium import check_homogeneous_condition, enumerate_pne
from modelmarket.game import GameSpec, ScoreMatrix, UserPopulation
from modelmarket.entry import (
    EntryDataset,
    OpponentPool,
    RewardBaseline,
    RewardTable,
    ToyGenerator,
    TrainingConfig,
    adoption_gate,
    entrant_scores,
    evaluate_entrant,
    grad_f_exact,
    grad_s_exact,
    grad_s_reinforce,
    objective_f,
    resample_weights,
    train_direct_gradient,
    train_resampling,
)

from helpers import entry_toy


@pytest.fixture
def toy():
    return entry_toy()


def _random_setup(rng, n_outcomes=5, n_types=3, n_incumbents=2):
    labels = [f"x{i}" for i in range(n_outcomes)]
    gen = ToyGenerator(labels, rng.normal(size=n_outcomes))
    rewards = RewardTable(rng.uniform(size=(n_types, n_outcomes)))
    population = UserPopulation([f"t{i}" for i in range(n_types)], rng.dirichlet(np.ones(n_types)))
    pool = OpponentPool(rng.uniform(0.2, 0.9, size=(n_incumbents, n_types)))
    return labels, gen, rewards, population, pool


class TestAdoptionGate:
    def test_zero_margin_is_half(self):
        pool = OpponentPool([[0.4, 0.6]])
        sigma = adoption_gate(np.array([0.4, 0.6]), pool, beta=3.0)
        assert np.allclose(sigma, 0.5)

    def test_hard_limit_at_large_sharpness(self):
        pool = OpponentPool([[0.4]])
        sigma = adoption_gate(np.array([0.5]), pool, beta=1e6)
        assert sigma[0] == pytest.approx(1.0, abs=1e-9)

    def test_quarter_margin_at_sharpness_four(self):
        pool = OpponentPool([[0.25]])
        sigma = adoption_gate(np.array([0.5]), pool, beta=4.0)
        assert sigma[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)

    def test_monotone_in_margin(self):
        pool = OpponentPool([[0.5, 0.5, 0.5]])
        sigma = adoption_gate(np.array([0.2, 0.5, 0.9]), pool, beta=2.0)
        assert sigma[0] < sigma[1] < sigma[2]
        assert np.all((sigma > 0) & (sigma < 1))

    def test_beta_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            adoption_gate(np.array([0.5]), OpponentPool([[0.4]]), beta=0.0)


class TestObjective:
    def test_dominated_entrant_scores_nothing(self):
        labels = ["x0", "x1"]
        gen = ToyGenerator.uniform(labels)
        rewards = RewardTable([[0.1, 0.2]])
        pool = OpponentPool([[0.95]])
        population = UserPopulation(["t"], [1.0])
        f = objective_f(gen, rewards, population, pool, beta=50.0)
        assert f == pytest.approx(0.0, abs=1e-8)

    def test_unit_reward_single_type(self):
        labels = ["x0", "x1"]
        gen = ToyGenerator.uniform(labels)
        rewards = RewardTable([[1.0, 1.0]])
        pool = OpponentPool([[0.7]])
        population = UserPopulation(["t"], [1.0])
        expected = 1.0 / (1.0 + np.exp(-4.0 * (1.0 - 0.7)))
        assert objective_f(gen, rewards, population, pool, beta=4.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_explicit_double_sum(self):
        rng = np.random.default_rng(50)
        labels, gen, rewards, population, pool = _random_setup(rng, n_outcomes=3, n_types=2)
        p = gen.probabilities()
        sbar = pool.best_scores()
        total = 0.0
        for k in range(2):
            s = sum(p[x] * rewards.rewards[k, x] for x in range(3))
            sigma = 1.0 / (1.0 + np.exp(-4.0 * (s - sbar[k])))
            total += population.weights[k] * sigma * s
        assert objective_f(gen, rewards, population, pool, beta=4.0) == pytest.approx(total, abs=1e-12)


class TestExactGradient:
    def test_constant_rewards_have_zero_gradient(self):
        rng = np.random.default_rng(51)
        labels, gen, _, population, pool = _random_setup(rng)
        rewards = RewardTable(np.full((3, 5), 0.6))
        assert np.allclose(grad_f_exact(gen, rewards, population, pool, 4.0), 0.0)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(52)
        h = 1e-5
        for _ in range(20):
            n_out = int(rng.integers(2, 11))
            n_typ = int(rng.integers(1, 6))
            labels, gen, rewards, population, pool = _random_setup(rng, n_out, n_typ)
            grad = grad_f_exact(gen, rewards, population, pool, 4.0)
            for i in range(n_out):
                bump = np.zeros(n_out)
                bump[i] = h
                up = objective_f(ToyGenerator(labels, gen.logits + bump), rewards, population, pool, 4.0)
                dn = objective_f(ToyGenerator(labels, gen.logits - bump), rewards, population, pool, 4.0)
                fd = (up - dn) / (2 * h)
                assert abs(grad[i] - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_symmetric_two_outcome_instance_cancels(self):
        gen = ToyGenerator(["x0", "x1"], [0.0, 0.0])
        rewards = RewardTable([[0.5, 0.5], [0.5, 0.5]])
        pool = OpponentPool([[0.4, 0.4]])
        population = UserPopulation(["a", "b"], [0.5, 0.5])
        assert np.allclose(grad_f_exact(gen, rewards, population, pool, 4.0), 0.0)


class TestReinforceEstimator:
    def test_constant_rewards_estimate_zero_in_expectation(self):
        rng = np.random.default_rng(53)
        gen = ToyGenerator.uniform(["a", "b", "c"])
        rewards = RewardTable([[0.7, 0.7, 0.7]])
        baseline = RewardBaseline.zeros(1, 0.9)
        est = np.mean([
            grad_s_reinforce(gen, rewards, 0, 2000, baseline, np.random.default_rng(100 + i))
            for i in range(20)
        ], axis=0)
        assert np.allclose(est, 0.0, atol=5e-3)

    def test_mean_within_three_standard_errors_of_exact(self):
        rng = np.random.default_rng(54)
        labels, gen, rewards, population, pool = _random_setup(rng)
        exact = grad_s_exact(gen, rewards, 1)
        estimates = []
        for rep in range(100):
            baseline = RewardBaseline.zeros(3, 0.9)
            estimates.append(grad_s_reinforce(
                gen, rewards, 1, 1000, baseline, np.random.default_rng(2000 + rep)))
        estimates = np.array(estimates)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(mean - exact) <= 3 * np.maximum(se, 1e-12))

    def test_cosine_similarity_at_ten_thousand_samples(self):
        rng = np.random.default_rng(55)
        labels, gen, rewards, population, pool = _random_setup(rng)
        exact = grad_s_exact(gen, rewards, 0)
        baseline = RewardBaseline.zeros(3, 0.9)
        est = grad_s_reinforce(gen, rewards, 0, 10_000, baseline, np.random.default_rng(77))
        cos = float(est @ exact / (np.linalg.norm(est) * np.linalg.norm(exact)))
        assert cos > 0.95

    def test_score_matched_baseline_keeps_estimator_unbiased(self):
        rng = np.random.default_rng(56)
        labels, gen, rewards, population, pool = _random_setup(rng)
        exact = grad_s_exact(gen, rewards, 2)
        s_current = float(entrant_scores(gen, rewards)[2])
        estimates = []
        for rep in range(100):
            baseline = RewardBaseline(np.full(3, s_current), 0.9)
            estimates.append(grad_s_reinforce(
                gen, rewards, 2, 1000, baseline, np.random.default_rng(3000 + rep)))
        estimates = np.array(estimates)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        assert np.all(np.abs(mean - exact) <= 3 * np.maximum(se, 1e-12))

    def test_baseline_moving_average_update(self):
        gen = ToyGenerator.uniform(["a", "b"])
        rewards = RewardTable([[1.0, 1.0]])
        baseline = RewardBaseline.zeros(1, 0.9)
        grad_s_reinforce(gen, rewards, 0, 100, baseline, np.random.default_rng(0))
        assert baseline.values[0] == pytest.approx(0.1, abs=1e-12)  # 0.9*0 + 0.1*1


class TestResampleWeights:
    def test_gate_disabled_at_zero_gamma(self, toy):
        s_lo = np.array([0.0, 0.0, 0.0])
        s_hi = np.array([0.9, 0.9, 0.9])
        w_lo = resample_weights(toy.dataset, s_lo, toy.pool, toy.population, 4.0, 0.0)
        w_hi = resample_weights(toy.dataset, s_hi, toy.pool, toy.population, 4.0, 0.0)
        assert np.allclose(w_lo, w_hi, atol=1e-12)

    def test_single_type_concentrates_on_preferred_attribute(self):
        dataset = EntryDataset(
            ["x0", "x1", "x2"], [10, 10, 10],
            attributes=["u0", "u0", "u1"], attribute_labels=["u0", "u1"],
            type_attribute_prefs=[[1.0, 0.0]],
        )
        pool = OpponentPool([[0.5]])
        population = UserPopulation(["t"], [1.0])
        w = resample_weights(dataset, np.array([0.5]), pool, population, 4.0, 1.0)
        assert w[2] == 0.0 and w[0] + w[1] == pytest.approx(1.0)

    def test_identity_preferences_reproduce_type_mass(self):
        dataset = EntryDataset(
            ["x0", "x1"], [7, 7],
            attributes=["u0", "u1"], attribute_labels=["u0", "u1"],
            type_attribute_prefs=[[1.0, 0.0], [0.0, 1.0]],
        )
        # alpha = (0.3, 0.7) once pi, gate, and best scores are folded together:
        # equal best scores and margins leave alpha proportional to pi.
        population = UserPopulation(["a", "b"], [0.3, 0.7])
        pool = OpponentPool([[0.5, 0.5]])
        w = resample_weights(dataset, np.array([0.5, 0.5]), pool, population, 4.0, 1.0)
        assert np.allclose(w, [0.3, 0.7], atol=1e-12)

    def test_unstructured_mode_uses_normalized_rewards(self, toy):
        dataset = EntryDataset(toy.outcome_labels, toy.dataset.counts)
        w = resample_weights(dataset, np.array([0.3, 0.3, 0.3]), toy.pool,
                             toy.population, 4.0, 1.0, rewards=toy.rewards)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_all_zero_signal_is_an_error(self):
        dataset = EntryDataset(["x0", "x1"], [5, 5])
        rewards = RewardTable([[0.0, 0.0]])
        pool = OpponentPool([[0.0]])
        population = UserPopulation(["t"], [1.0])
        with pytest.raises(MarketGameError):
            resample_weights(dataset, np.array([0.0]), pool, population, 4.0, 1.0, rewards=rewards)


class TestTrainResampling:
    def test_uniform_weights_preserve_the_base_distribution(self):
        labels = ["x0", "x1", "x2", "x3", "x4"]
        dataset = EntryDataset(labels, [3000, 2500, 2000, 1500, 1000],
                               attributes=["u"] * 5, attribute_labels=["u"],
                               type_attribute_prefs=[[1.0]])
        rewards = RewardTable([[0.5] * 5])
        pool = OpponentPool([[0.5]])
        population = UserPopulation(["t"], [1.0])
        gen, _ = train_resampling(dataset, rewards, population, pool, TrainingConfig(seed=5))
        tv = 0.5 * float(np.abs(gen.probabilities() - dataset.empirical_distribution()).sum())
        assert tv < 0.05

    def test_targeted_type_score_increases(self, toy):
        config = TrainingConfig(seed=3)
        gen, trace = train_resampling(toy.dataset, toy.rewards, toy.population, toy.pool, config)
        assert trace[-1]["scores"][toy.target_type] > trace[0]["scores"][toy.target_type]

    def test_zero_epochs_leave_the_generator_unchanged(self, toy):
        config = TrainingConfig(outer_rounds=1, inner_epochs=0, seed=3)
        init = ToyGenerator.uniform(toy.outcome_labels)
        gen, trace = train_resampling(toy.dataset, toy.rewards, toy.population, toy.pool,
                                      config, init=init)
        assert np.array_equal(gen.probabilities(), init.probabilities())
        assert len(trace) == 2

    def test_trace_has_one_row_per_round(self, toy):
        config = TrainingConfig(outer_rounds=4, inner_epochs=5, seed=0)
        _, trace = train_resampling(toy.dataset, toy.rewards, toy.population, toy.pool, config)
        assert [r["round"] for r in trace] == [0, 1, 2, 3, 4]


class TestTrainDirectGradient:
    def test_pure_mle_monotone_and_convergent(self, toy):
        config = TrainingConfig(lam=0.0, inner_epochs=60, seed=3)
        gen, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.population,
                                           toy.pool, config)
        ce = [r["cross_entropy"] for r in trace]
        assert all(b <= a + 1e-9 for a, b in zip(ce, ce[1:]))
        tv = 0.5 * float(np.abs(gen.probabilities() - toy.dataset.empirical_distribution()).sum())
        assert tv < 0.01

    def test_one_small_step_decreases_the_loss(self, toy):
        config = TrainingConfig(lam=0.4, inner_epochs=1, learning_rate=1e-3, seed=3)
        _, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.population,
                                         toy.pool, config)
        assert trace[1]["loss"] < trace[0]["loss"]

    def test_competitive_pressure_shifts_mass_to_heavy_type(self, toy):
        config = TrainingConfig(lam=2.0, learning_rate=0.5, inner_epochs=40, seed=3)
        gen, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.population,
                                           toy.pool, config)
        p = gen.probabilities()
        # outcomes x3/x4 (indices 2, 3) carry the heavy type's rewards
        assert p[2] + p[3] > toy.dataset.empirical_distribution()[[2, 3]].sum()
        assert trace[-1]["objective"] > trace[0]["objective"]

    def test_large_lambda_matches_logit_grid_minimizer(self):
        # brute-force oracle: evaluate the full loss on a dense logit grid of a
        # 3-outcome, 2-type instance and compare against the trained solution
        labels = ["x0", "x1", "x2"]
        rewards = RewardTable([[0.9, 0.1, 0.2], [0.1, 0.8, 0.3]])
        population = UserPopulation(["a", "b"], [0.3, 0.7])
        pool = OpponentPool([[0.5, 0.4]])
        dataset = EntryDataset(labels, [500, 300, 200])
        config = TrainingConfig(lam=6.0, learning_rate=0.5, inner_epochs=300, seed=11)
        gen, trace = train_direct_gradient(dataset, rewards, population, pool, config)

        q_hat = dataset.empirical_distribution()

        def loss(logits):
            g = ToyGenerator(labels, logits)
            ce = float(-(q_hat @ np.log(g.probabilities())))
            return ce - config.lam * objective_f(g, rewards, population, pool, config.beta)

        grid = np.arange(-4.0, 4.0 + 1e-9, 0.2)
        best_l, best_logits = np.inf, None
        for a in grid:
            for b in grid:
                l = loss(np.array([a, b, 0.0]))
                if l < best_l:
                    best_l, best_logits = l, np.array([a, b, 0.0])
        trained_l = trace[-1]["loss"]
        assert trained_l <= best_l + 1e-3  # at least as good as the grid optimum
        # and both put their largest mass on the heavy type's preferred outcome
        oracle_p = ToyGenerator(labels, best_logits).probabilities()
        assert int(np.argmax(oracle_p)) == int(np.argmax(gen.probabilities())) == 1

    def test_reinforce_estimator_variant_trains(self, toy):
        config = TrainingConfig(lam=2.0, learning_rate=0.5, inner_epochs=40, seed=3,
                                eval_budget=500)
        gen, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.population,
                                           toy.pool, config, estimator="reinforce")
        assert trace[-1]["objective"] > trace[0]["objective"]

    def test_unknown_estimator_rejected(self, toy):
        with pytest.raises(InvalidParameterError):
            train_direct_gradient(toy.dataset, toy.rewards, toy.population, toy.pool,
                                  TrainingConfig(), estimator="typo")


class TestEvaluateEntrant:
    def test_duplicate_of_incumbent_keeps_the_equilibrium_structure(self):
        # dyadic scores and a uniform 4-outcome generator make the entrant's
        # score row bit-identical to inc2's, so hardmax ties stay exact ties
        incumbents = ScoreMatrix([[0.75, 0.25, 0.5], [0.5, 0.375, 0.625]], ["inc1", "inc2"])
        population = UserPopulation(["a", "b", "c"], [0.25, 0.5, 0.25])
        labels = ["x0", "x1", "x2", "x3"]
        rewards = RewardTable(np.tile(incumbents.scores[1][:, None], (1, 4)))
        dup = ToyGenerator.uniform(labels)
        report = evaluate_entrant(dup, rewards, population, incumbents, 2)
        assert np.array_equal(report.entrant_score_row, incumbents.scores[1])
        # oracle: the game with inc2's row literally stacked on top
        from modelmarket.game import GameSpec, platform_utilities
        oracle_spec = GameSpec(
            ScoreMatrix(np.vstack([incumbents.scores, incumbents.scores[1]])),
            population, 2)
        oracle_pne = set(enumerate_pne(oracle_spec))
        assert set(report.pne) == oracle_pne
        # substituting the duplicate for the original leaves utilities unchanged
        for prof in report.pne:
            swapped = tuple(1 if i == report.entrant_index else i for i in prof)
            assert swapped in oracle_pne
            assert np.array_equal(platform_utilities(report.spec, prof),
                                  platform_utilities(report.spec, swapped))

    def test_dominating_entrant_supports_homogeneous_equilibrium(self, toy):
        logits = np.log(np.array([0.01, 0.01, 0.48, 0.48, 0.02]))
        strong = ToyGenerator(toy.outcome_labels, logits)
        big_rewards = RewardTable(np.minimum(toy.rewards.rewards + 0.6, 1.0))
        report = evaluate_entrant(strong, big_rewards, toy.population, toy.incumbents, 3)
        row = entrant_scores(strong, big_rewards)
        if np.all(row > toy.incumbents.scores.max(axis=0)):
            assert check_homogeneous_condition(report.spec, report.entrant_index).holds
            assert any(set(p) == {report.entrant_index} for p in report.pne)

    def test_dominated_entrant_is_never_adopted(self, toy):
        weak = ToyGenerator.uniform(toy.outcome_labels)
        tiny = RewardTable(toy.rewards.rewards * 0.05)
        report = evaluate_entrant(weak, tiny, toy.population, toy.incumbents, 2)
        assert not any(report.entrant_index in p for p in report.pne)
        assert not report.adopted

    def test_dimension_mismatch_rejected(self, toy):
        gen = ToyGenerator.uniform(["a", "b"])
        bad = RewardTable([[0.5, 0.5]])
        with pytest.raises(InvalidInstanceError):
            evaluate_entrant(gen, bad, toy.population, toy.incumbents, 2)

    def test_timed_out_market_has_no_welfare(self, toy):
        gen = ToyGenerator.uniform(toy.outcome_labels)
        report = evaluate_entrant(gen, toy.rewards, toy.population, toy.incumbents, 2, max_steps=1)
        assert report.outcome.kind == "timeout"
        assert report.metrics.anchor is None and report.metrics.welfare is None
        assert report.metrics.scores == {}
