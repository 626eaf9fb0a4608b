"""Entry-training: gates, objective, gradients, both training schemes, evaluation."""

import re

import numpy as np
import pytest

from modelmarket.errors import MarketGameError, TrainingDivergedError
from modelmarket.equilibrium import check_homogeneous_condition, enumerate_pne
from modelmarket.game import GameSpec, ScoreMatrix, UserPopulation
from modelmarket import config as config_mod
from modelmarket import entry as entry_mod
from modelmarket.game import _BLOCK_ELEMENTS
from modelmarket.entry import (
    EntryDataset,
    RewardBaseline,
    RewardTable,
    ToyGenerator,
    TrainingConfig,
    adoption_gate,
    entrant_scores,
    evaluate_entrant,
    grad_f_exact,
    grad_s_reinforce,
    objective_f,
    resample_weights,
    train_direct_gradient,
    train_resampling,
)

from helpers import (
    entry_toy,
    grad_s_exact,
    loop_reinforce_epoch,
    masked_sigmoid,
    previous_cross_entropy,
    reference_train_direct_gradient,
)


@pytest.fixture
def toy():
    return entry_toy()


def _market(incumbents, weights=None):
    """A one-platform market of the given incumbent score rows; uniform types by default."""
    scores = ScoreMatrix(incumbents)
    k = scores.n_types
    weights = np.full(k, 1.0 / k) if weights is None else weights
    return GameSpec(scores, UserPopulation([f"t{i}" for i in range(k)], weights), 1)


def _random_setup(rng, n_outcomes=5, n_types=3, n_incumbents=2):
    labels = [f"x{i}" for i in range(n_outcomes)]
    gen = ToyGenerator(labels, rng.normal(size=n_outcomes))
    rewards = RewardTable(rng.uniform(size=(n_types, n_outcomes)))
    weights = rng.dirichlet(np.ones(n_types))
    market = _market(rng.uniform(0.2, 0.9, size=(n_incumbents, n_types)), weights)
    return labels, gen, rewards, market


class TestAdoptionGate:
    def test_zero_margin_is_half(self):
        market = _market([[0.4, 0.6]])
        sigma = adoption_gate(np.array([0.4, 0.6]), market, beta=3.0)
        assert np.allclose(sigma, 0.5)

    def test_hard_limit_at_large_sharpness(self):
        market = _market([[0.4]])
        sigma = adoption_gate(np.array([0.5]), market, beta=1e6)
        assert sigma[0] == pytest.approx(1.0, abs=1e-9)

    def test_quarter_margin_at_sharpness_four(self):
        market = _market([[0.25]])
        sigma = adoption_gate(np.array([0.5]), market, beta=4.0)
        assert sigma[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)

    def test_monotone_in_margin(self):
        market = _market([[0.5, 0.5, 0.5]])
        sigma = adoption_gate(np.array([0.2, 0.5, 0.9]), market, beta=2.0)
        assert sigma[0] < sigma[1] < sigma[2]
        assert np.all((sigma > 0) & (sigma < 1))

    def test_beta_must_be_positive(self):
        with pytest.raises(MarketGameError):
            adoption_gate(np.array([0.5]), _market([[0.4]]), beta=0.0)


class TestObjective:
    def test_dominated_entrant_scores_nothing(self):
        labels = ["x0", "x1"]
        gen = ToyGenerator.uniform(labels)
        rewards = RewardTable([[0.1, 0.2]])
        market = _market([[0.95]])
        f = objective_f(gen, rewards, market, beta=50.0)
        assert f == pytest.approx(0.0, abs=1e-8)

    def test_unit_reward_single_type(self):
        labels = ["x0", "x1"]
        gen = ToyGenerator.uniform(labels)
        rewards = RewardTable([[1.0, 1.0]])
        market = _market([[0.7]])
        expected = 1.0 / (1.0 + np.exp(-4.0 * (1.0 - 0.7)))
        assert objective_f(gen, rewards, market, beta=4.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_explicit_double_sum(self):
        rng = np.random.default_rng(50)
        labels, gen, rewards, market = _random_setup(rng, n_outcomes=3, n_types=2)
        p = gen.probabilities()
        sbar = market.scores.scores.max(axis=0)
        total = 0.0
        for k in range(2):
            s = sum(p[x] * rewards.rewards[k, x] for x in range(3))
            sigma = 1.0 / (1.0 + np.exp(-4.0 * (s - sbar[k])))
            total += market.population.weights[k] * sigma * s
        assert objective_f(gen, rewards, market, beta=4.0) == pytest.approx(total, abs=1e-12)


class TestExactGradient:
    def test_constant_rewards_have_zero_gradient(self):
        rng = np.random.default_rng(51)
        labels, gen, _, market = _random_setup(rng)
        rewards = RewardTable(np.full((3, 5), 0.6))
        assert np.allclose(grad_f_exact(gen, rewards, market, 4.0), 0.0)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(52)
        h = 1e-5
        for _ in range(20):
            n_out = int(rng.integers(2, 11))
            n_typ = int(rng.integers(1, 6))
            labels, gen, rewards, market = _random_setup(rng, n_out, n_typ)
            grad = grad_f_exact(gen, rewards, market, 4.0)
            for i in range(n_out):
                bump = np.zeros(n_out)
                bump[i] = h
                up = objective_f(ToyGenerator(labels, gen.logits + bump), rewards, market, 4.0)
                dn = objective_f(ToyGenerator(labels, gen.logits - bump), rewards, market, 4.0)
                fd = (up - dn) / (2 * h)
                assert abs(grad[i] - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_symmetric_two_outcome_instance_cancels(self):
        gen = ToyGenerator(["x0", "x1"], [0.0, 0.0])
        rewards = RewardTable([[0.5, 0.5], [0.5, 0.5]])
        market = _market([[0.4, 0.4]])
        assert np.allclose(grad_f_exact(gen, rewards, market, 4.0), 0.0)


class TestReinforceEstimator:
    @pytest.mark.parametrize("type_index, message", [
        (-1, "type index -1 out of range [0, 2)"), (2, "type index 2 out of range [0, 2)"),
        (1.0, "type index must be an integer (got 1.0)")])
    def test_the_type_index_is_read_as_a_profile_entry(self, type_index, message):
        # -1 would wrap to the last type and 1.0 index as 1
        gen = ToyGenerator.uniform(["a", "b"])
        baseline = RewardBaseline.zeros(2, 0.9)
        with pytest.raises(MarketGameError) as info:
            grad_s_reinforce(gen, RewardTable([[0.2, 0.4], [0.6, 0.8]]), type_index, 10, baseline,
                             np.random.default_rng(0))
        assert str(info.value) == message
        assert np.array_equal(baseline.values, [0.0, 0.0])

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
        labels, gen, rewards, market = _random_setup(rng)
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
        labels, gen, rewards, market = _random_setup(rng)
        exact = grad_s_exact(gen, rewards, 0)
        baseline = RewardBaseline.zeros(3, 0.9)
        est = grad_s_reinforce(gen, rewards, 0, 10_000, baseline, np.random.default_rng(77))
        cos = float(est @ exact / (np.linalg.norm(est) * np.linalg.norm(exact)))
        assert cos > 0.95

    def test_score_matched_baseline_keeps_estimator_unbiased(self):
        rng = np.random.default_rng(56)
        labels, gen, rewards, market = _random_setup(rng)
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
        w_lo = resample_weights(toy.dataset, s_lo, toy.market, 4.0, 0.0, toy.rewards)
        w_hi = resample_weights(toy.dataset, s_hi, toy.market, 4.0, 0.0, toy.rewards)
        assert np.allclose(w_lo, w_hi, atol=1e-12)

    def test_single_type_concentrates_on_preferred_attribute(self):
        dataset = EntryDataset(
            ["x0", "x1", "x2"], [10, 10, 10],
            attributes=["u0", "u0", "u1"], attribute_labels=["u0", "u1"],
            type_attribute_prefs=[[1.0, 0.0]],
        )
        market = _market([[0.5]])
        # a structured dataset weighs items by attribute, not by reward
        w = resample_weights(dataset, np.array([0.5]), market, 4.0, 1.0,
                             RewardTable([[0.2, 0.5, 0.9]]))
        assert w[2] == 0.0 and w[0] + w[1] == pytest.approx(1.0)

    def test_identity_preferences_reproduce_type_mass(self):
        dataset = EntryDataset(
            ["x0", "x1"], [7, 7],
            attributes=["u0", "u1"], attribute_labels=["u0", "u1"],
            type_attribute_prefs=[[1.0, 0.0], [0.0, 1.0]],
        )
        # alpha = (0.3, 0.7) once pi, gate, and best scores are folded together:
        # equal best scores and margins leave alpha proportional to pi.
        market = _market([[0.5, 0.5]], [0.3, 0.7])
        w = resample_weights(dataset, np.array([0.5, 0.5]), market, 4.0, 1.0,
                             RewardTable([[0.9, 0.1], [0.4, 0.6]]))
        assert np.allclose(w, [0.3, 0.7], atol=1e-12)

    def test_unstructured_mode_uses_normalized_rewards(self, toy):
        dataset = EntryDataset(toy.outcome_labels, toy.dataset.counts)
        w = resample_weights(dataset, np.array([0.3, 0.3, 0.3]), toy.market, 4.0, 1.0,
                             rewards=toy.rewards)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_all_zero_signal_is_an_error(self):
        dataset = EntryDataset(["x0", "x1"], [5, 5])
        rewards = RewardTable([[0.0, 0.0]])
        market = _market([[0.0]])
        with pytest.raises(MarketGameError):
            resample_weights(dataset, np.array([0.0]), market, 4.0, 1.0, rewards=rewards)


class TestTrainResampling:
    def test_uniform_weights_preserve_the_base_distribution(self):
        labels = ["x0", "x1", "x2", "x3", "x4"]
        dataset = EntryDataset(labels, [3000, 2500, 2000, 1500, 1000],
                               attributes=["u"] * 5, attribute_labels=["u"],
                               type_attribute_prefs=[[1.0]])
        rewards = RewardTable([[0.5] * 5])
        market = _market([[0.5]])
        gen, _ = train_resampling(dataset, rewards, market, TrainingConfig(seed=5))
        tv = 0.5 * float(np.abs(gen.probabilities() - dataset.empirical_distribution()).sum())
        assert tv < 0.05

    def test_targeted_type_score_increases(self, toy):
        config = TrainingConfig(seed=3)
        gen, trace = train_resampling(toy.dataset, toy.rewards, toy.market, config)
        assert trace[-1]["scores"][toy.target_type] > trace[0]["scores"][toy.target_type]

    def test_zero_epochs_leave_the_generator_unchanged(self, toy):
        config = TrainingConfig(outer_rounds=1, inner_epochs=0, seed=3)
        init = ToyGenerator.uniform(toy.outcome_labels)
        gen, trace = train_resampling(toy.dataset, toy.rewards, toy.market,
                                      config, init=init)
        assert np.array_equal(gen.probabilities(), init.probabilities())
        assert len(trace) == 2

    def test_trace_has_one_row_per_round(self, toy):
        config = TrainingConfig(outer_rounds=4, inner_epochs=5, seed=0)
        _, trace = train_resampling(toy.dataset, toy.rewards, toy.market, config)
        assert [r["round"] for r in trace] == [0, 1, 2, 3, 4]

    def test_an_outcome_the_resample_empties_keeps_a_vanishing_floor(self):
        # no type rewards x2, so the resample draws none of it, and blend = 1
        # moves the generator onto the resample: x2 would get probability 0
        dataset = EntryDataset(["x1", "x2"], [3, 1])
        rewards = RewardTable([[1.0, 0.0], [0.5, 0.0]])
        config = TrainingConfig(blend=1.0, outer_rounds=2, inner_epochs=1)
        gen, trace = train_resampling(dataset, rewards, _market([[0.2, 0.4]]), config)
        p = gen.probabilities()
        assert 0 < p[1] == pytest.approx(1e-12, rel=1e-9)
        assert all(np.isfinite(row["objective"]) for row in trace)


    @pytest.mark.parametrize("counts, total", [([0.2, 0.2], "0.4"), ([1e19, 1], "1e+19"),
                                               ([1e300, 1e300], "2e+300")])
    def test_a_counts_total_past_the_redraw_sizes_is_refused(self, counts, total):
        # it rounds to no draw at all or past numpy's int64 draw count
        dataset = EntryDataset(["x1", "x2"], counts)
        message = f"counts total must round into [1, 2**63 - 1] to resample (got {total})"
        with pytest.raises(MarketGameError, match=f"^{re.escape(message)}$"):
            train_resampling(dataset, RewardTable([[0.5, 0.5]]), _market([[0.5]]), TrainingConfig())


def test_a_dataset_refuses_counts_whose_total_is_not_finite():
    # each count is finite, but their sum overflows: the empirical distribution would be all zeros
    with pytest.raises(MarketGameError, match=r"^counts must sum to a finite total \(got inf\)$"):
        EntryDataset(["x1", "x2"], [1e308, 1e308])


@pytest.mark.parametrize("structure", [{"attribute_labels": ["u", "v"]}, {"attribute_labels": []},
                                       {"type_attribute_prefs": [[1, 0]]}],
                         ids=["attribute_labels", "empty attribute_labels", "type_attribute_prefs"])
def test_a_dataset_refuses_structure_without_attributes(structure):
    # without attributes there is no structured mode to read either one, an empty label list included
    with pytest.raises(MarketGameError, match="^attribute_labels and type_attribute_prefs need attributes$"):
        EntryDataset(["a", "b"], [1, 1], **structure)


def test_an_empty_label_list_is_not_the_default_labels():
    # only None asks for the attributes' own values; [] names no attribute at all
    with pytest.raises(MarketGameError, match="^attributes must come from attribute_labels$"):
        EntryDataset(["a", "b"], [1, 1], attributes=["u", "v"], attribute_labels=[],
                     type_attribute_prefs=[[]])
    assert EntryDataset(["a", "b"], [1, 1], attributes=["v", "u"],
                        type_attribute_prefs=[[1, 0]]).attribute_labels == ("v", "u")


class TestTrainDirectGradient:
    def test_pure_mle_monotone_and_convergent(self, toy):
        config = TrainingConfig(lam=0.0, inner_epochs=60, seed=3)
        gen, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.market, config)
        ce = [r["cross_entropy"] for r in trace]
        assert all(b <= a + 1e-9 for a, b in zip(ce, ce[1:]))
        tv = 0.5 * float(np.abs(gen.probabilities() - toy.dataset.empirical_distribution()).sum())
        assert tv < 0.01

    def test_one_small_step_decreases_the_loss(self, toy):
        config = TrainingConfig(lam=0.4, inner_epochs=1, learning_rate=1e-3, seed=3)
        _, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.market, config)
        assert trace[1]["loss"] < trace[0]["loss"]

    # (cross_entropy, objective, scores) per epoch of the backtracking run
    # below, as the loop that took each cross-entropy again per halving wrote it
    BACKTRACKING_TRACE = [
        (1.6094379124341, 0.11199909421418083, (0.36, 0.3600000000000001, 0.26)),
        (1.5971016458251504, 0.07917707861995495,
         (0.5793873238401277, 0.22424220391088107, 0.12997509953098593)),
        (1.5529397275286831, 0.099855624905642,
         (0.45133988581506235, 0.327259645870781, 0.15213303767881897)),
        (1.5457209798757883, 0.09529758457163687,
         (0.4738578532523847, 0.3086211778405562, 0.16356603076615406)),
        (1.5447053333294036, 0.09611471673492393,
         (0.46243649317639707, 0.3134833416621436, 0.16668709145398752)),
        (1.5445185119752367, 0.09528793291015737,
         (0.46631189698157083, 0.3100933044260588, 0.16865882814347208)),
        (1.5444864472633346, 0.0953456861495287,
         (0.46462746943744665, 0.3106180285015908, 0.16933707398259681)),
    ]

    def test_pure_mle_takes_each_cross_entropy_once(self, toy, monkeypatch):
        scored = []
        cross_entropy = entry_mod._cross_entropy
        monkeypatch.setattr(entry_mod, "_cross_entropy",
                            lambda q, gen: scored.append(gen.logits.tobytes())
                            or cross_entropy(q, gen))
        # a step of 20 from the uniform generator overshoots twice, so the
        # run halves its step and scores rejected candidates too
        config = TrainingConfig(lam=0.0, inner_epochs=6, learning_rate=20.0, seed=1)
        _, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.market, config,
                                         init=ToyGenerator.uniform(toy.dataset.outcome_labels))
        assert len(scored) == len(set(scored)) == len(trace) + 2
        assert [(r["cross_entropy"], r["objective"], r["scores"]) for r in trace] \
            == self.BACKTRACKING_TRACE
        assert all(r["loss"] == r["cross_entropy"] for r in trace)

    def test_competitive_pressure_shifts_mass_to_heavy_type(self, toy):
        config = TrainingConfig(lam=2.0, learning_rate=0.5, inner_epochs=40, seed=3)
        gen, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.market, config)
        p = gen.probabilities()
        # outcomes x3/x4 (indices 2, 3) carry the heavy type's rewards
        assert p[2] + p[3] > toy.dataset.empirical_distribution()[[2, 3]].sum()
        assert trace[-1]["objective"] > trace[0]["objective"]

    def test_large_lambda_matches_logit_grid_minimizer(self):
        # brute-force oracle: evaluate the full loss on a dense logit grid of a
        # 3-outcome, 2-type instance and compare against the trained solution
        labels = ["x0", "x1", "x2"]
        rewards = RewardTable([[0.9, 0.1, 0.2], [0.1, 0.8, 0.3]])
        market = _market([[0.5, 0.4]], [0.3, 0.7])
        dataset = EntryDataset(labels, [500, 300, 200])
        config = TrainingConfig(lam=6.0, learning_rate=0.5, inner_epochs=300, seed=11)
        gen, trace = train_direct_gradient(dataset, rewards, market, config)

        q_hat = dataset.empirical_distribution()

        def loss(logits):
            g = ToyGenerator(labels, logits)
            ce = float(-(q_hat @ np.log(g.probabilities())))
            return ce - config.lam * objective_f(g, rewards, market, config.beta)

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
        gen, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.market, config,
                                           estimator="reinforce")
        assert trace[-1]["objective"] > trace[0]["objective"]

    def test_negative_seed_rejected(self):
        with pytest.raises(MarketGameError, match="seed must be >= 0"):
            TrainingConfig(seed=-1)

    def test_unknown_estimator_rejected(self, toy):
        with pytest.raises(MarketGameError):
            train_direct_gradient(toy.dataset, toy.rewards, toy.market,
                                  TrainingConfig(), estimator="typo")


class TestEvaluateEntrant:
    def test_duplicate_of_incumbent_keeps_the_equilibrium_structure(self):
        # dyadic scores and a uniform 4-outcome generator make the entrant's
        # score row bit-identical to inc2's, so hardmax ties stay exact ties
        incumbents = ScoreMatrix([[0.75, 0.25, 0.5], [0.5, 0.375, 0.625]], ["inc1", "inc2"])
        market = GameSpec(incumbents, UserPopulation(["a", "b", "c"], [0.25, 0.5, 0.25]), 2)
        labels = ["x0", "x1", "x2", "x3"]
        rewards = RewardTable(np.tile(incumbents.scores[1][:, None], (1, 4)))
        dup = ToyGenerator.uniform(labels)
        report = evaluate_entrant(dup, rewards, market)
        assert np.array_equal(report.entrant_score_row, incumbents.scores[1])
        # oracle: the game with inc2's row literally stacked on top
        from modelmarket.game import platform_utilities
        oracle_spec = GameSpec(
            ScoreMatrix(np.vstack([incumbents.scores, incumbents.scores[1]])),
            market.population, 2)
        oracle_pne = set(enumerate_pne(oracle_spec))
        assert set(report.metrics.analysis.pne) == oracle_pne
        # substituting the duplicate for the original leaves utilities unchanged
        for prof in report.metrics.analysis.pne:
            swapped = tuple(1 if i == report.entrant_index else i for i in prof)
            assert swapped in oracle_pne
            assert np.array_equal(platform_utilities(report.spec, prof),
                                  platform_utilities(report.spec, swapped))

    def test_dominating_entrant_supports_homogeneous_equilibrium(self, toy):
        logits = np.log(np.array([0.01, 0.01, 0.48, 0.48, 0.02]))
        strong = ToyGenerator(toy.outcome_labels, logits)
        big_rewards = RewardTable(np.minimum(toy.rewards.rewards + 0.6, 1.0))
        report = evaluate_entrant(strong, big_rewards, toy.market.with_platforms(3))
        row = entrant_scores(strong, big_rewards)
        if np.all(row > toy.market.scores.scores.max(axis=0)):
            assert check_homogeneous_condition(report.spec, report.entrant_index).holds
            assert any(set(p) == {report.entrant_index} for p in report.metrics.analysis.pne)

    def test_dominated_entrant_is_never_adopted(self, toy):
        weak = ToyGenerator.uniform(toy.outcome_labels)
        tiny = RewardTable(toy.rewards.rewards * 0.05)
        report = evaluate_entrant(weak, tiny, toy.market)
        assert not any(report.entrant_index in p for p in report.metrics.analysis.pne)
        assert not report.adopted

    def test_dimension_mismatch_rejected(self, toy):
        gen = ToyGenerator.uniform(["a", "b"])
        bad = RewardTable([[0.5, 0.5]])
        with pytest.raises(MarketGameError):
            evaluate_entrant(gen, bad, toy.market)

    def test_timed_out_market_has_no_welfare(self, toy):
        gen = ToyGenerator.uniform(toy.outcome_labels)
        report = evaluate_entrant(gen, toy.rewards, toy.market, max_steps=1)
        assert report.outcome.kind == "timeout"
        assert report.metrics.anchor is None and report.metrics.welfare is None
        assert report.metrics.scores == {}


# Traces, final logits and REINFORCE baselines of two seeded runs per scheme on
# the entry toy, recorded from the sequential-draw implementation; any change to
# the draw order or the summation order shows up here as a changed repr.
_REINFORCE_GOLDEN = {
    ("direct", 3): {
        "trace": (
            1.5444795210968603, 0.09517511136594507, 1.3541292983649702,
            0.46499999999999997, 0.31000000000000005, 0.17,
            1.5447688942806015, 0.09805468495079525, 1.348659524379011,
            0.45627532091499307, 0.31961469351832594, 0.170445482199289,
            1.5455178227941246, 0.10077769735864091, 1.3439624280768427,
            0.448026781133459, 0.32838282545016295, 0.1711975510925939,
            1.5469776900279852, 0.10411415243247546, 1.3387493851630343,
            0.43906582387668575, 0.3386013423022118, 0.17138300121732708,
            1.5489716556765731, 0.10750407238161225, 1.3339635109133487,
            0.4301623315426458, 0.34859702430012157, 0.17170909881134444,
            1.5515255737081353, 0.11100017778006879, 1.3295252181479977,
            0.4213834964158433, 0.3585141653916975, 0.17203232778179794,
            1.5540362727964787, 0.11396213452156982, 1.3261120037533392,
            0.4143963403706965, 0.36664819834816365, 0.17191440155716206,
        ),
        "logits": (
            -1.3303432593009323, -1.5207009781861616, -1.417275902065111,
            -1.7787478381753359, -2.352342178032313,
        ),
        "baseline": (
            0.2034760883333333, 0.16028391799999997, 0.07637484366666666,
        ),
    },
    ("direct", 11): {
        "trace": (
            1.5444795210968603, 0.09517511136594507, 1.3541292983649702,
            0.46499999999999997, 0.31000000000000005, 0.17,
            1.5448104561712455, 0.09825136388320713, 1.3483077284048313,
            0.4559279674785287, 0.3202009767634902, 0.17044323035723113,
            1.5457070180846635, 0.10124196951613222, 1.3432230790523991,
            0.44747846187852375, 0.32970327678522954, 0.1708238222002712,
            1.5471672837264527, 0.10442789250142248, 1.3383114987236078,
            0.4390811751233222, 0.3393898542171847, 0.1710618812744241,
            1.5486646403326907, 0.10702919871322406, 1.3346062429062426,
            0.43192759046121615, 0.34711850810140316, 0.17153697200832368,
            1.550760319149102, 0.10999419664652256, 1.3307719258560569,
            0.42454818014960966, 0.35559804314980603, 0.1715827409836305,
            1.5526603923609639, 0.11239577661982963, 1.3278688391213045,
            0.41853783729296307, 0.36228953439872574, 0.17191839051744037,
        ),
        "logits": (
            -1.3157532804974597, -1.516233852507975, -1.4317504092860511,
            -1.786775167787256, -2.3488974456811116,
        ),
        "baseline": (
            0.20495363166666664, 0.150987405, 0.07561591233333333,
        ),
    },
    ("resampling", 3): {
        "trace": (
            0.46499999999999997, 0.31000000000000005, 0.17,
            0.09517511136594507, 0.222515625, 0.5459593749999999,
            0.22791875, 0.19895864065153826, 0.1210634765625,
            0.6484005859375, 0.24469179687500003, 0.2588768270288955,
            0.08301646728515624, 0.6833219116210938, 0.2566713623046875,
            0.2806743476963423,
        ),
        "logits": (
            -3.3536670788652385, -3.5562249106530532, -0.8067287884741747,
            -1.1016758143652894, -1.8459942256904214,
        ),
    },
    ("resampling", 11): {
        "trace": (
            0.46499999999999997, 0.31000000000000005, 0.17,
            0.09517511136594507, 0.26158125, 0.499,
            0.22844375, 0.1738720646389035, 0.133611328125,
            0.62385625, 0.25860898437499996, 0.2450297481847066,
            0.08681945800781249, 0.683081640625, 0.2507911865234375,
            0.28017629166810215,
        ),
        "logits": (
            -3.249296020952137, -3.467150966029611, -0.8147138850472353,
            -1.0878013095598638, -1.895320660630695,
        ),
    },
}


def _trace_floats(trace):
    out = []
    for row in trace:
        for value in row.values():
            if isinstance(value, tuple):
                out.extend(value)
            elif isinstance(value, float):
                out.append(value)
    return out


def _reprs(values):
    return [repr(float(x)) for x in values]


class TestReinforceGolden:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_direct_gradient_reinforce_is_byte_stable(self, toy, seed, monkeypatch):
        made = []
        zeros = RewardBaseline.zeros

        def spy(n_types, decay):
            made.append(zeros(n_types, decay))
            return made[-1]

        monkeypatch.setattr(RewardBaseline, "zeros", staticmethod(spy))
        config = TrainingConfig(lam=2.0, learning_rate=0.5, inner_epochs=6, eval_budget=300,
                                seed=seed)
        gen, trace = train_direct_gradient(toy.dataset, toy.rewards, toy.market, config,
                                           estimator="reinforce")
        golden = _REINFORCE_GOLDEN[("direct", seed)]
        assert _reprs(_trace_floats(trace)) == _reprs(golden["trace"])
        assert _reprs(gen.logits) == _reprs(golden["logits"])
        assert len(made) == 1
        assert _reprs(made[0].values) == _reprs(golden["baseline"])

    @pytest.mark.parametrize("seed", [3, 11])
    def test_resampling_is_byte_stable(self, toy, seed):
        config = TrainingConfig(outer_rounds=3, inner_epochs=4, eval_budget=300, seed=seed)
        gen, trace = train_resampling(toy.dataset, toy.rewards, toy.market, config)
        golden = _REINFORCE_GOLDEN[("resampling", seed)]
        assert _reprs(_trace_floats(trace)) == _reprs(golden["trace"])
        assert _reprs(gen.logits) == _reprs(golden["logits"])


def _epoch_case(rng, n_types, n_outcomes, floor=False):
    """A generator, a reward table and a part-warmed baseline for one epoch."""
    labels = [f"x{i}" for i in range(n_outcomes)]
    if floor:
        # all but one or two outcomes pinned at the 1e-12 floor
        p = np.full(n_outcomes, 1e-12)
        p[rng.integers(n_outcomes, size=2)] = 1.0
        gen = ToyGenerator.from_distribution(labels, p / p.sum())
    else:
        gen = ToyGenerator(labels, rng.normal(scale=2.0, size=n_outcomes))
    rewards = RewardTable(rng.uniform(size=(n_types, n_outcomes)))
    values = rng.uniform(size=n_types) * (rng.uniform(size=n_types) < 0.7)
    return gen, rewards, values, float(rng.uniform(0.0, 0.99))


def test_generator_probabilities_are_computed_once_and_read_only():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    gen = ToyGenerator(["a", "b", "c", "d"], logits)
    e = np.exp(logits - logits.max())
    assert gen.probabilities() is gen.probabilities()
    assert gen.probabilities().tobytes() == (e / e.sum()).tobytes()
    with pytest.raises(ValueError):
        gen.probabilities()[0] = 1.0


class TestBatchedReinforceEpoch:
    """One uniform block per epoch reproduces one ``rng.choice`` per type."""

    def _assert_matches_loop(self, gen, rewards, values, decay, n_samples, seed):
        batched_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        batched = RewardBaseline(values.copy(), decay)
        looped = RewardBaseline(values.copy(), decay)
        got = entry_mod._reinforce_gradients(gen, rewards, range(rewards.n_types), n_samples,
                                             batched, batched_rng)
        want = loop_reinforce_epoch(gen, rewards, n_samples, looped, loop_rng)
        assert got.tobytes() == want.tobytes()
        assert batched.values.tobytes() == looped.values.tobytes()
        assert batched_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_random_cases_match_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for case in range(400):
            n_types = int(rng.integers(1, 9))
            n_outcomes = int(rng.integers(2, 41))
            n_samples = int(rng.integers(1, 400))
            gen, rewards, values, decay = _epoch_case(rng, n_types, n_outcomes,
                                                      floor=case % 5 == 0)
            self._assert_matches_loop(gen, rewards, values, decay, n_samples, seed=case)

    def test_smallest_epoch(self):
        rng = np.random.default_rng(7)
        gen, rewards, values, decay = _epoch_case(rng, 1, 2)
        self._assert_matches_loop(gen, rewards, values, decay, 1, seed=7)

    def test_types_split_across_blocks(self):
        rng = np.random.default_rng(8)
        n_samples = 3000  # five types per block, so 13 types take three blocks
        assert 13 * n_samples > _BLOCK_ELEMENTS
        gen, rewards, values, decay = _epoch_case(rng, 13, 7)
        self._assert_matches_loop(gen, rewards, values, decay, n_samples, seed=8)

    def test_small_blocks_split_at_every_size(self, monkeypatch):
        monkeypatch.setattr(entry_mod, "_BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(9)
        for case in range(40):
            gen, rewards, values, decay = _epoch_case(rng, int(rng.integers(1, 12)),
                                                      int(rng.integers(2, 9)))
            self._assert_matches_loop(gen, rewards, values, decay,
                                      int(rng.integers(1, 100)), seed=case)

    def test_one_type_draw_larger_than_a_block(self):
        rng = np.random.default_rng(10)
        gen, rewards, values, decay = _epoch_case(rng, 3, 5)
        self._assert_matches_loop(gen, rewards, values, decay, _BLOCK_ELEMENTS + 1001, seed=10)

    def test_near_floor_probabilities(self):
        rng = np.random.default_rng(11)
        for case in range(20):
            gen, rewards, values, decay = _epoch_case(rng, 4, 30, floor=True)
            assert gen.probabilities().min() < 1e-11
            self._assert_matches_loop(gen, rewards, values, decay, 500, seed=case)

    def test_single_type_call_is_the_one_row_case(self):
        rng = np.random.default_rng(12)
        gen, rewards, values, decay = _epoch_case(rng, 3, 6)
        one = RewardBaseline(values.copy(), decay)
        rows = RewardBaseline(values.copy(), decay)
        got = grad_s_reinforce(gen, rewards, 2, 250, one, np.random.default_rng(5))
        want = entry_mod._reinforce_gradients(gen, rewards, [2], 250, rows,
                                              np.random.default_rng(5))
        assert got.tobytes() == want[0].tobytes()
        assert one.values.tobytes() == rows.values.tobytes()


def _guide_distribution(rng, family, n_outcomes):
    if family == "dirichlet1":
        p = rng.dirichlet(np.ones(n_outcomes))
    elif family == "dirichlet005":
        p = rng.dirichlet(np.full(n_outcomes, 0.05))
    else:
        # one spike over a 1e-12 floor: the CDF crowds into the first and last buckets
        p = np.full(n_outcomes, 1e-12)
        p[rng.integers(n_outcomes)] = 1.0
    p = np.maximum(p, 1e-300)  # Dirichlet(0.05) can underflow an entry to 0
    return p / p.sum()


def test_the_resampling_estimate_walks_blocks_of_one_stream():
    """Past three blocks, the estimate counts the outcomes that one
    ``rng.random(budget)`` array gives, and leaves the generator where that
    array leaves it.  The identity reward table reads the frequencies out."""
    budget = 3 * 2**14 + 5
    assert budget > 3 * _BLOCK_ELEMENTS
    gen, _, _, _ = _epoch_case(np.random.default_rng(12), 1, 9)
    blocked, whole = np.random.default_rng(13), np.random.default_rng(13)
    got = entry_mod._estimate_scores(gen, RewardTable(np.eye(9)), budget, blocked)
    draws = entry_mod._outcome_index(entry_mod._outcome_cdf(gen.probabilities()), whole.random(budget))
    assert got.tobytes() == (np.bincount(draws, minlength=9) / budget).tobytes()
    assert blocked.random() == whole.random()


class TestGuideTableSampler:
    """The uniform-to-outcome step equals ``cdf.searchsorted(u, side="right")``."""

    # every bucket edge j / g of a power-of-two table of up to 8192 buckets,
    # which covers any g between 4 |X| and 8 |X| for |X| <= 1000
    EDGES = np.arange(8192) / 8192

    @pytest.mark.parametrize("family", ["dirichlet1", "dirichlet005", "spike"])
    @pytest.mark.parametrize("n_outcomes", [2, 3, 40, 41, 1000])
    def test_equals_searchsorted_at_every_edge(self, family, n_outcomes):
        rng = np.random.default_rng([n_outcomes, len(family)])
        for _ in range(70):
            cdf = entry_mod._outcome_cdf(_guide_distribution(rng, family, n_outcomes))
            below = np.nextafter(cdf, 0.0)
            u = np.concatenate([self.EDGES, cdf, below, [0.0, np.nextafter(1.0, 0.0)],
                                rng.random(500)])
            u = u[u < 1.0]
            want = cdf.searchsorted(u, side="right")
            assert np.array_equal(entry_mod._outcome_index(cdf, u), want)

    def test_two_dimensional_blocks(self):
        rng = np.random.default_rng(5)
        for family in ("dirichlet1", "dirichlet005", "spike"):
            cdf = entry_mod._outcome_cdf(_guide_distribution(rng, family, 41))
            u = rng.random((7, 300))
            got = entry_mod._outcome_index(cdf, u)
            assert got.shape == u.shape
            assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    def test_draws_equal_rng_choice(self):
        rng = np.random.default_rng(6)
        for family in ("dirichlet1", "dirichlet005", "spike"):
            p = _guide_distribution(rng, family, 40)
            want = np.random.default_rng(9).choice(40, size=(3, 200), p=p)
            got = entry_mod._outcome_index(entry_mod._outcome_cdf(p),
                                           np.random.default_rng(9).random((3, 200)))
            assert np.array_equal(got, want)


class TestOneExponentialSum:
    """The cross-entropy reads the generator's exponential sum and equals the
    form that exponentiated the logits again, bit for bit."""

    @staticmethod
    def _logits(rng, family, n):
        if family == "equal":
            return np.full(n, float(rng.normal()) * 10.0 ** int(rng.integers(-3, 4)))
        if family == "spread":  # up to 700 apart, short of the smallest probability's underflow
            return rng.uniform(-350.0, 350.0, size=n)
        return rng.normal(size=n) * float(rng.uniform(0.01, 20.0))

    @pytest.mark.parametrize("family", ["equal", "spread", "random"])
    def test_equals_the_previous_form(self, family):
        rng = np.random.default_rng(len(family))
        for _ in range(300):
            n = int(rng.integers(2, 40))
            gen = ToyGenerator([f"x{i}" for i in range(n)], self._logits(rng, family, n))
            q_hat = rng.dirichlet(np.full(n, float(rng.uniform(0.05, 2.0))))
            got = entry_mod._cross_entropy(q_hat, gen)
            assert np.float64(got).tobytes() == np.float64(previous_cross_entropy(q_hat, gen)).tobytes()


def test_sigmoid_equals_the_masked_form_bit_for_bit():
    rng = np.random.default_rng(13)
    nan = np.float64(np.nan)
    special = np.array([0.0, -0.0, np.inf, -np.inf, nan, -nan, 5e-324, -5e-324,
                        1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 746.0, -746.0])
    for x in (special, rng.normal(size=5000), rng.normal(size=5000) * 40.0,
              rng.normal(size=5000) * 1e-9, special.reshape(4, 4), np.array(-3.5)):
        got = entry_mod._sigmoid(x)
        assert got.shape == x.shape
        assert got.tobytes() == masked_sigmoid(x).tobytes()


def test_the_params_table_lists_every_training_field():
    # TrainingConfig checks each field with config.PARAMS; a field missing
    # there would go unchecked, and a config file could not set it
    fields = set(TrainingConfig.__match_args__)
    assert {config_mod.RENAMED.get(key, key) for key in config_mod.PARAMS} == fields


class TestTrainingChecksOncePerRun:
    """The epoch loop's once-per-run checks raise what every scoring raised."""

    def _mismatched(self, toy, rewards):
        return [
            lambda: train_direct_gradient(toy.dataset, rewards, toy.market,
                                          TrainingConfig(inner_epochs=2), estimator="exact"),
            lambda: train_direct_gradient(toy.dataset, rewards, toy.market,
                                          TrainingConfig(inner_epochs=2, eval_budget=10),
                                          estimator="reinforce"),
            lambda: train_direct_gradient(toy.dataset, rewards, toy.market,
                                          TrainingConfig(inner_epochs=2, lam=0.0)),
            lambda: train_resampling(toy.dataset, rewards, toy.market,
                                     TrainingConfig(outer_rounds=1, inner_epochs=2)),
        ]

    def test_reward_table_with_other_outcomes(self, toy):
        rewards = RewardTable(np.hstack([toy.rewards.rewards, toy.rewards.rewards[:, :1]]))
        for run in self._mismatched(toy, rewards):
            with pytest.raises(MarketGameError,
                               match="^reward table and generator disagree on outcomes$"):
                run()

    def test_gradient_and_objective_refuse_other_outcomes_alike(self, toy):
        # a 3-outcome generator against a 2-outcome table, before any matmul
        gen = ToyGenerator.uniform(["x1", "x2", "x3"])
        rewards = RewardTable(toy.rewards.rewards[:, :2])
        for call in (objective_f, grad_f_exact):
            with pytest.raises(MarketGameError,
                               match="^reward table and generator disagree on outcomes$"):
                call(gen, rewards, toy.market, 4.0)

    def test_reward_table_with_other_types(self, toy):
        rewards = RewardTable(toy.rewards.rewards[:2])
        for run in self._mismatched(toy, rewards):
            with pytest.raises(MarketGameError,
                               match="^s_phi must have one entry per user type$"):
                run()


    @pytest.mark.parametrize("estimator", ["exact", "reinforce"])
    def test_a_step_that_underflows_an_outcome_is_refused(self, toy, estimator):
        config = TrainingConfig(lam=2.0, learning_rate=1e6, inner_epochs=3, eval_budget=50)
        with pytest.raises(MarketGameError, match="^logit spread too large"):
            train_direct_gradient(toy.dataset, toy.rewards, toy.market, config,
                                  estimator=estimator)

    def test_non_finite_loss_is_reported_with_the_trace_so_far(self, monkeypatch):
        # beta must be finite, so a NaN gate stands in for one that went wrong:
        # the objective of the first trained generator is NaN
        dataset = EntryDataset(["x1", "x2"], [3, 1])
        rewards = RewardTable([[0.0, 0.0], [1.0, 0.5]])
        market = _market([[0.0, 0.4]])
        config = TrainingConfig(lam=0.0, inner_epochs=3)
        monkeypatch.setattr(entry_mod, "_sigmoid", lambda x: np.full_like(x, np.nan))
        with pytest.raises(TrainingDivergedError, match="^non-finite loss at epoch 1$") as info:
            train_direct_gradient(dataset, rewards, market, config)
        assert [row["epoch"] for row in info.value.trace] == [0]

    def test_generator_logits_are_checked(self):
        with pytest.raises(MarketGameError, match="^logits must be finite$"):
            ToyGenerator(["a", "b"], [0.0, np.inf])
        with pytest.raises(MarketGameError, match="^logit spread too large"):
            ToyGenerator(["a", "b"], [0.0, -1e4])


class TestOneScoringPerGenerator:
    """Training equals the loop that scores through the public functions at every use."""

    @pytest.mark.parametrize("estimator", ["exact", "reinforce"])
    def test_random_runs_match_the_reference_loop(self, estimator):
        rng = np.random.default_rng(21)
        for case in range(12):
            n_outcomes, n_types = int(rng.integers(2, 12)), int(rng.integers(1, 6))
            _, _, rewards, market = _random_setup(rng, n_outcomes, n_types)
            dataset = EntryDataset([f"x{i}" for i in range(n_outcomes)],
                                   rng.integers(0, 50, size=n_outcomes) + (case % 3 != 0))
            config = TrainingConfig(beta=float(rng.uniform(0.5, 20.0)),
                                    lam=0.0 if case % 4 == 0 else float(rng.uniform(0.1, 3.0)),
                                    inner_epochs=int(rng.integers(1, 8)),
                                    eval_budget=int(rng.integers(1, 300)),
                                    learning_rate=float(rng.uniform(0.05, 2.0)), seed=case)
            gen, trace = train_direct_gradient(dataset, rewards, market, config,
                                               estimator=estimator)
            want_gen, want_trace = reference_train_direct_gradient(dataset, rewards, market,
                                                                   config, estimator)
            assert _reprs(_trace_floats(trace)) == _reprs(_trace_floats(want_trace))
            assert [row["epoch"] for row in trace] == [row["epoch"] for row in want_trace]
            assert gen.logits.tobytes() == want_gen.logits.tobytes()
