"""Allocation, utility, and decomposition checks against hand-worked values."""

from itertools import combinations_with_replacement
import pickle

import numpy as np
import pytest

from modelmarket import game
from modelmarket.entry import EntryDataset, RewardBaseline, RewardTable, ToyGenerator, evaluate_entrant
from modelmarket.errors import MarketGameError
from modelmarket.fixtures import builtin_instance
from modelmarket.game import (
    ChoiceRule,
    GameSpec,
    ScoreMatrix,
    UserPopulation,
    allocate,
    as_profile,
    average_scores,
    deviation_advantage,
    deviation_values,
    platform_utilities,
)

from modelmarket.preferences import PreferenceTable
from modelmarket.synthetic import GmmComponent

from helpers import brute_force_deviation_advantage, brute_force_utilities, entry_toy, random_spec


def decomposed_utility(spec, profile):
    """(T_{f_i} + delta_i) / N for every platform: the second route to U."""
    return (average_scores(spec)[list(profile)] + deviation_advantage(spec, profile)) / spec.n_platforms


@pytest.fixture
def c1():
    return builtin_instance("c1_rps").spec


@pytest.fixture
def fig2a():
    return builtin_instance("fig2_a").spec


@pytest.fixture
def c7():
    return builtin_instance("c7_welfare_gap").spec


@pytest.fixture
def c9():
    return builtin_instance("c9_softmax").spec


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(MarketGameError):
            UserPopulation(["a", "b"], [0.5, 0.6])

    def test_duplicate_type_labels_rejected(self):
        with pytest.raises(MarketGameError):
            UserPopulation(["a", "a"], [0.5, 0.5])

    def test_negative_scores_rejected(self):
        with pytest.raises(MarketGameError):
            ScoreMatrix([[0.2, -0.1]])

    def test_score_population_shape_mismatch(self):
        with pytest.raises(MarketGameError):
            GameSpec(ScoreMatrix([[0.2, 0.3]]), UserPopulation(["a"], [1.0]), 2)

    def test_profile_index_out_of_range(self, c1):
        with pytest.raises(MarketGameError):
            platform_utilities(c1, (0, 5))

    def test_profile_wrong_length(self, c1):
        with pytest.raises(MarketGameError):
            platform_utilities(c1, (0, 1, 2))

    @pytest.mark.parametrize("profile", [[1.7, 0], ["1", 0], [np.float64(1.0), 0], [None, 0]])
    def test_profile_entries_must_be_integers(self, c1, profile):
        # 1.7 and "1" must not run as the model index 1
        with pytest.raises(MarketGameError, match="model indices"):
            as_profile(c1, profile)

    def test_numpy_integer_profile_entries_accepted(self, c1):
        assert as_profile(c1, np.array([1, 0])) == (1, 0)
        assert as_profile(c1, [np.int32(2), np.uint8(0)]) == (2, 0)
        assert as_profile(c1, [True, np.int64(2)]) == (1, 2)
        assert all(type(c) is int for c in as_profile(c1, [True, np.int64(2)]))

    @pytest.mark.parametrize("profile, message", [
        ((0, 1.5), "a profile must be a list of model indices (got (0, 1.5))"),
        (5, "a profile must be a list of model indices (got 5)"),
        # the entries are read before the length is checked, and the length before the range
        ((1.5, 0, 0), "a profile must be a list of model indices (got (1.5, 0, 0))"),
        ((0, 1, 2), "profile has 3 entries for 2 platforms"),
        ((0, 9, 2), "profile has 3 entries for 2 platforms"),
        ((-1, 7), "model index -1 out of range [0, 3)"),
        ((7, -1), "model index 7 out of range [0, 3)"),
        ((0, 3), "model index 3 out of range [0, 3)"),
    ])
    def test_profile_check_messages(self, c1, profile, message):
        with pytest.raises(MarketGameError) as info:
            as_profile(c1, profile)
        assert str(info.value) == message

    def test_unpickled_spec_stays_frozen(self, c1):
        copy = pickle.loads(pickle.dumps(c1))
        assert not copy.scores.scores.flags.writeable
        assert not copy.population.weights.flags.writeable
        assert np.array_equal(copy.scores.scores, c1.scores.scores)
        assert np.array_equal(copy.population.weights, c1.population.weights)
        assert copy.scores.model_labels == c1.scores.model_labels
        assert copy.population.type_labels == c1.population.type_labels

    @pytest.mark.parametrize("n", [2.7, "2", None])
    def test_n_platforms_must_be_an_integer(self, c1, n):
        # 2.7 and "2" must not run as two platforms
        with pytest.raises(MarketGameError, match="n_platforms must be an integer"):
            c1.with_platforms(n)

    def test_numpy_integer_n_platforms_accepted(self, c1):
        spec = c1.with_platforms(np.int64(3))
        assert spec.n_platforms == 3 and type(spec.n_platforms) is int

    @pytest.mark.parametrize("m, message", [
        (1.7, "model count must be an integer (got 1.7)"),
        ("2", "model count must be an integer (got '2')"),
        (-1, "model count -1 out of range [1, 3]"),
        (0, "model count 0 out of range [1, 3]"),
        (99, "model count 99 out of range [1, 3]"),
    ])
    def test_a_model_count_outside_the_pool_is_refused(self, c1, m, message):
        # 1.7 used to end in a TypeError, -1 to drop the last model and 99 to keep all three
        with pytest.raises(MarketGameError) as info:
            c1.with_models(m)
        assert str(info.value) == message

    def test_a_model_count_reads_as_an_index_argument(self, c1):
        assert c1.with_models(True).scores.model_labels == ("g1",)
        assert c1.with_models(np.int64(2)).scores.model_labels == ("g1", "g2")
        assert np.array_equal(c1.with_models(3).scores.scores, c1.scores.scores)

    def test_softmax_needs_positive_tau(self):
        with pytest.raises(MarketGameError):
            ChoiceRule.softmax(0.0)

    def test_softmax_tau_must_keep_the_largest_score_over_tau_finite(self, c1):
        with pytest.raises(MarketGameError, match="tau 1e-320 is too small for the score scale"):
            c1.with_choice(ChoiceRule.softmax(1e-320))
        spec = c1.with_choice(ChoiceRule.softmax(1e-300))
        assert np.all(np.isfinite(allocate(spec, (0, 1))))
        assert np.all(np.isfinite(deviation_values(spec, (1,))))

    def test_platforms_times_the_largest_score_must_stay_within_the_limit(self):
        # 16 is a power of two, so 16 * largest is SCALE_LIMIT exactly
        largest = game.SCALE_LIMIT / 16
        population = UserPopulation(["a", "b"], [0.25, 0.75])
        spec = GameSpec(ScoreMatrix([[largest, 0.5 * largest], [0.25 * largest, largest]]), population, 16)
        profile = (0,) * 8 + (1,) * 8
        for value in (*platform_utilities(spec, profile), *deviation_advantage(spec, profile),
                      *deviation_values(spec, profile[1:])):
            assert np.isfinite(value)
        with pytest.raises(MarketGameError, match=(
                r"^17 platforms times the largest score 5\.6177910464447366e\+306 "
                r"exceeds 8\.988465674311579e\+307$")):
            spec.with_platforms(17)
        with pytest.raises(MarketGameError, match="^16 platforms times the largest score"):
            GameSpec(ScoreMatrix([[np.nextafter(largest, np.inf)]]), UserPopulation(["a"], [1.0]), 16)
        # an N past the largest float was an OverflowError in the product
        with pytest.raises(MarketGameError, match=r"^10{400} platforms times the largest score"):
            spec.with_platforms(10 ** 400)


class TestHardmaxAllocation:
    def test_counterexample_type_a_goes_to_model_1(self, c1):
        # theta_A scores 0.2 vs 0.1, so platform 1 takes the whole type
        p = allocate(c1, (0, 1))
        assert p[0, 0] == 1.0 and p[1, 0] == 0.0
        assert not p.flags.writeable

    def test_single_platform_takes_everything(self, rng=np.random.default_rng(1)):
        spec = random_spec(rng, min_platforms=1, max_platforms=1)
        p = allocate(spec, [0])
        assert np.array_equal(p, np.ones((1, spec.population.n_types)))

    def test_full_tie_splits_three_ways(self, c1):
        spec = c1.with_platforms(3)
        p = allocate(spec, (1, 1, 1))
        assert np.allclose(p, 1 / 3)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            spec = random_spec(rng, min_platforms=2)
            prof = rng.integers(0, spec.n_models, spec.n_platforms)
            p = allocate(spec, prof)
            assert np.allclose(p.sum(axis=0), 1.0, atol=1e-9)
            assert np.all((p >= 0) & (p <= 1))

    def test_rescaling_leaves_allocation_unchanged(self):
        rng = np.random.default_rng(3)
        for c in (0.5, 2.0, 10.0):
            spec = random_spec(rng, min_platforms=2)
            scaled = GameSpec(ScoreMatrix(spec.scores.scores * c), spec.population,
                              spec.n_platforms, spec.choice)
            prof = rng.integers(0, spec.n_models, spec.n_platforms)
            assert np.array_equal(allocate(spec, prof), allocate(scaled, prof))


class TestSoftmaxAllocation:
    def test_equal_scores_split_evenly(self):
        spec = GameSpec(ScoreMatrix([[0.4, 0.7]]), UserPopulation(["a", "b"], [0.5, 0.5]),
                        2, ChoiceRule.softmax(0.3))
        p = allocate(spec, (0, 0))
        assert np.allclose(p, 0.5)

    def test_small_tau_matches_hardmax_on_tie_free_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spec = random_spec(rng, min_platforms=2)
            prof = tuple(rng.choice(spec.n_models, size=spec.n_platforms, replace=False)) \
                if spec.n_models >= spec.n_platforms else None
            if prof is None:
                continue
            hard = allocate(spec, prof)
            soft = allocate(spec.with_choice(ChoiceRule.softmax(1e-6)), prof)
            assert np.allclose(hard, soft, atol=1e-6)

    def test_large_tau_is_uniform(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng, min_platforms=3, max_platforms=3)
        prof = rng.integers(0, spec.n_models, 3)
        p = allocate(spec.with_choice(ChoiceRule.softmax(1e6)), prof)
        assert np.allclose(p, 1 / 3, atol=1e-6)

    def test_homogeneous_softmax_utilities_halve_the_average_score(self, c9):
        u = platform_utilities(c9, (0, 0))
        assert np.allclose(u, 0.39175, atol=1e-9)

    def test_no_overflow_at_tiny_tau(self, c9):
        p = allocate(c9.with_choice(ChoiceRule.softmax(0.001)), (0, 2))
        assert np.all(np.isfinite(p))


class TestUtilities:
    def test_counterexample_payoffs_to_three_decimals(self, c1):
        u = platform_utilities(c1, (0, 1))
        assert abs(u[0] - 0.1) < 5e-4 and abs(u[1] - 0.0667) < 5e-4

    def test_differentiated_payoff_pair(self, fig2a):
        assert np.allclose(platform_utilities(fig2a, (0, 1)), [0.45, 0.40], atol=1e-9)

    def test_homogeneous_profile_splits_average_score(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            spec = random_spec(rng, min_platforms=2)
            m = int(rng.integers(spec.n_models))
            u = platform_utilities(spec, [m] * spec.n_platforms)
            t = average_scores(spec)[m]
            assert np.allclose(u, t / spec.n_platforms, atol=1e-12)

    def test_matches_per_type_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_spec(rng, min_platforms=2)
            prof = tuple(rng.integers(0, spec.n_models, spec.n_platforms))
            assert np.allclose(platform_utilities(spec, prof),
                               brute_force_utilities(spec, prof), atol=1e-12)


class TestAverageScores:
    def test_differentiated_instance(self, fig2a):
        assert np.allclose(average_scores(fig2a), [0.625, 0.825], atol=1e-9)

    def test_uniform_scores(self):
        spec = GameSpec(ScoreMatrix(np.full((2, 3), 0.42)), UserPopulation.uniform(3), 2)
        assert np.allclose(average_scores(spec), 0.42, atol=1e-12)

    def test_three_model_instance(self, c7):
        assert np.allclose(average_scores(c7), [0.534, 0.7079, 0.6223], atol=1e-9)


class TestDeviationAdvantage:
    def test_differentiated_instance_values(self, fig2a):
        assert np.allclose(deviation_advantage(fig2a, (0, 1)), [0.275, -0.025], rtol=0, atol=1e-9)

    def test_worked_three_model_value(self, c7):
        assert abs(deviation_advantage(c7, (0, 1))[0] - (-0.0372)) < 1e-9

    def test_homogeneous_profile_is_zero(self):
        rng = np.random.default_rng(8)
        spec = random_spec(rng, min_platforms=3, max_platforms=3)
        m = int(rng.integers(spec.n_models))
        assert np.array_equal(deviation_advantage(spec, [m, m, m]), np.zeros(3))

    @pytest.mark.parametrize("choice", [ChoiceRule.hardmax(), ChoiceRule.softmax(0.05)])
    def test_matches_per_type_loop(self, choice):
        rng = np.random.default_rng(13)
        for _ in range(100):
            spec = random_spec(rng, min_platforms=2, choice=choice)
            scores = np.array(spec.scores.scores)
            scores[-1] = scores[0]  # exact ties whenever both models are chosen
            spec = GameSpec(ScoreMatrix(scores), spec.population, spec.n_platforms, choice)
            prof = tuple(int(x) for x in rng.integers(0, spec.n_models, spec.n_platforms))
            assert np.allclose(deviation_advantage(spec, prof),
                               brute_force_deviation_advantage(spec, prof), rtol=0, atol=1e-12)

    def test_two_player_identity(self):
        # delta_ij + delta_ji equals the weighted absolute score gap
        rng = np.random.default_rng(9)
        for _ in range(50):
            spec = random_spec(rng, min_platforms=2, max_platforms=2)
            if spec.n_models < 2:
                continue
            i, j = rng.choice(spec.n_models, size=2, replace=False)
            d_ij, d_ji = deviation_advantage(spec, (int(i), int(j)))
            gap = float(np.abs(spec.scores.scores[i] - spec.scores.scores[j])
                        @ spec.population.weights)
            assert abs(d_ij + d_ji - gap) < 1e-12


class TestSoftDeviationAdvantage:
    def test_homogeneous_profile_is_zero(self, c9):
        assert np.all(np.abs(deviation_advantage(c9, (1, 1))) < 1e-15)

    def test_reproduces_reference_payoff(self, c9):
        t = average_scores(c9)
        delta = deviation_advantage(c9, (0, 1))[0]
        u = (t[0] + delta) / 2
        assert abs(u - 0.47634) < 5e-5

    def test_identity_with_utilities(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            spec = random_spec(rng, min_platforms=2, choice=ChoiceRule.softmax(0.2))
            prof = tuple(rng.integers(0, spec.n_models, spec.n_platforms))
            u = platform_utilities(spec, prof)
            lhs = spec.n_platforms * u - average_scores(spec)[list(prof)]
            assert np.all(np.abs(lhs - deviation_advantage(spec, prof)) < 1e-12)


class TestDecomposedUtility:
    def test_counterexample_value(self, c1):
        assert abs(decomposed_utility(c1, (1, 0))[0] - 0.2 / 3) < 1e-12

    def test_homogeneous_is_average_over_platforms(self, fig2a):
        assert np.allclose(decomposed_utility(fig2a, (1, 1)), 0.825 / 2, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("choice", [ChoiceRule.hardmax(), ChoiceRule.softmax(0.15)])
    def test_matches_direct_utilities(self, choice):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            spec = random_spec(rng, min_platforms=2, choice=choice)
            prof = tuple(rng.integers(0, spec.n_models, spec.n_platforms))
            direct = platform_utilities(spec, prof)
            worst = max(worst, float(np.abs(decomposed_utility(spec, prof) - direct).max()))
        assert worst < 1e-12

    def test_rescaling_scales_utilities(self):
        rng = np.random.default_rng(12)
        spec = random_spec(rng, min_platforms=2)
        prof = tuple(rng.integers(0, spec.n_models, spec.n_platforms))
        for c in (0.5, 2.0, 10.0):
            scaled = GameSpec(ScoreMatrix(spec.scores.scores * c), spec.population,
                              spec.n_platforms, spec.choice)
            assert np.allclose(platform_utilities(scaled, prof),
                               c * platform_utilities(spec, prof), atol=1e-12)
            assert np.allclose(average_scores(scaled), c * average_scores(spec), atol=1e-12)


class TestDeviationBlock:
    @pytest.mark.parametrize("choice", [ChoiceRule.hardmax(), ChoiceRule.softmax(1e-4),
                                        ChoiceRule.softmax(0.05), ChoiceRule.softmax(1e3)])
    def test_each_row_is_bit_equal_to_deviation_values(self, choice):
        rng = np.random.default_rng(17)
        for index in range(60):
            spec = random_spec(rng, max_models=8, max_platforms=5, max_types=40, choice=choice)
            if index % 2:  # exact ties on a coarse score grid
                scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=spec.scores.scores.shape)
                spec = GameSpec(ScoreMatrix(scores), spec.population, spec.n_platforms, choice)
            stacks = rng.integers(0, spec.n_models, size=(int(rng.integers(2, 9)), spec.n_platforms - 1))
            block = game._deviation_block(spec, stacks)
            assert block.shape == (len(stacks), spec.n_models), index
            for row, others in zip(block, stacks):
                assert row.tobytes() == deviation_values(spec, others).tobytes(), index

    @pytest.mark.parametrize("choice", [ChoiceRule.hardmax(), ChoiceRule.softmax(1e-4),
                                        ChoiceRule.softmax(0.05), ChoiceRule.softmax(1e3)])
    def test_stacked_shares_and_advantages_are_bit_equal_per_profile(self, choice):
        rng = np.random.default_rng(23)
        for index in range(60):
            spec = random_spec(rng, max_models=8, max_platforms=10, max_types=40, choice=choice)
            if index % 2:  # exact ties on a coarse score grid
                scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=spec.scores.scores.shape)
                spec = GameSpec(ScoreMatrix(scores), spec.population, spec.n_platforms, choice)
            profiles = rng.integers(0, spec.n_models, size=(int(rng.integers(2, 9)), spec.n_platforms))
            chosen = spec.scores.scores[profiles]
            weights = spec.population.weights
            shares = game._shares(choice, chosen)
            delta = game._deviation_advantage(choice, chosen, weights)
            assert delta.shape == profiles.shape, index
            for b, prof in enumerate(profiles):
                assert shares[b].tobytes() == allocate(spec, prof).tobytes(), index
                assert delta[b].tobytes() == deviation_advantage(spec, prof).tobytes(), index


class TestMultisetBlocks:
    @pytest.mark.parametrize("row_elements", [1, 7, 10 ** 6])
    def test_the_blocks_walk_every_multiset_in_lexicographic_order(self, row_elements):
        # enumerate_pne's table rows and social_optimum's canonical first
        # maximiser follow this order
        rows = max(1, game._BLOCK_ELEMENTS // row_elements)
        for m in range(9):
            for size in range(6):
                blocks = list(game._multiset_blocks(m, size, row_elements))
                assert all(b.dtype == np.intp and b.shape[1:] == (size,) for b in blocks), (m, size)
                assert max((len(b) for b in blocks), default=0) <= rows, (m, size)
                walked = [tuple(row) for b in blocks for row in b.tolist()]
                assert walked == list(combinations_with_replacement(range(m), size)), (m, size)


@pytest.mark.parametrize("make", [
    lambda: UserPopulation(["a"], [1.0]),
    lambda: ScoreMatrix([[0.5]]),
    lambda: ToyGenerator.uniform(["x1", "x2"]),
    lambda: RewardTable([[0.5, 0.5]]),
    lambda: EntryDataset(["x1", "x2"], [1, 1]),
    lambda: GmmComponent(1.0, [0.0], [[1.0]]),
    lambda: PreferenceTable(["c1"], ["a"], [[1.0]]),
    lambda: RewardBaseline.zeros(2, 0.9),
], ids=["UserPopulation", "ScoreMatrix", "ToyGenerator", "RewardTable", "EntryDataset", "GmmComponent",
        "PreferenceTable", "RewardBaseline"])
def test_a_record_that_holds_arrays_compares_by_identity(make):
    record, twin = make(), make()
    assert record == record and record != twin
    assert hash(record) == hash(record)


def test_records_that_hold_array_records_compare_without_raising():
    first, second = builtin_instance("fig2_a"), builtin_instance("fig2_a")
    assert first.spec == first.spec and first.spec != second.spec
    assert hash(first.spec) == hash(first.spec)
    assert first != second and hash(first) == hash(first)
    toy = entry_toy()
    entrant = ToyGenerator.uniform(toy.outcome_labels)
    report = evaluate_entrant(entrant, toy.rewards, toy.market)
    assert report == report and report != evaluate_entrant(entrant, toy.rewards, toy.market)
    assert hash(report) == hash(report) and hash(report.metrics) == hash(report.metrics)
