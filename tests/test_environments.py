"""Preference-derived scores, RBF/GMM generators, and the fixture registry."""

import hashlib
import json
import math
import re
import sys

import numpy as np
import pytest

from modelmarket import fixtures as fixtures_mod
from modelmarket.config import FIXTURE_RECORD, walk
from modelmarket.equilibrium import DEFAULT_PROFILE_BUDGET
from modelmarket.errors import MarketGameError
from modelmarket.fixtures import builtin_instance, fixture_names, verify_fixture
from modelmarket.game import GameSpec, ScoreMatrix, UserPopulation
from modelmarket.preferences import PreferenceTable, scores_from_preferences
from modelmarket import synthetic
from modelmarket.synthetic import (
    GmmComponent,
    GmmPopulationSpec,
    RbfKernel,
    RbfModelSpec,
    gmm_population,
    _bounded_assign,
    _distances_to,
    rbf_scores,
    seeded_kmeans,
)

from helpers import reference_seeded_kmeans

# sha256 over each fixture spec's score and weight bytes, labels, N and choice
_SPEC_DIGESTS = {
    "c1_rps": "2fd808be7e85a04c58fcd61153ea683c44447504b9a7cf6b44bb63c0f067ece6",
    "fig2_a": "3df747d9d823462b5cbcc1d25a925ff4187c49d3ea099a58f6a6f9c364d5226b",
    "fig2_b": "86e0334a597ec642c857fb8b55d968ef6d0b38f201ebf97b166d847d6c3e0967",
    "fig3_b": "f9b4748eea798c7547aa09f0ba3e87a5fcc947ba8a9f146d49f62de98d3e6c9d",
    "c7_welfare_gap": "a913677663b0b0fee9a98aafdc2e2953634f678d142023b7587e08a52abad05b",
    "c8_players_2": "efdaf6d4d5f91408405885aefe08bd354f0e1ed98abaaae03c033837e5ebd852",
    "c8_players_3": "42fb733d9c48143e54df6c7f09829317bbbf43c32926de5687be1b3ab9d24918",
    "c9_softmax": "eabda32d0817ef71dc61b149936bec94cc9715023f63a536714671b7610a3326",
    "llm_pool1": "92446a569c5adb66a343263c0cd74d196ff490f9574735b2b41a0bfc87ca7181",
    "llm_pool2": "fae6d8d1263cbb75c65179bc9384883c3b1fd753c8869823f992f7f8b3e21c45",
    "llm_pool3": "254fc350eb99ec25b730a39eb948d0785954c1bfd9a4dd9572fcb0147fe3e8df",
    "simu_appendix_d": "692becb60d4aeb382e655fbc2fa59a7e60bae96e93207a821879142bd996fdd7",
}


class TestScoresFromPreferences:
    @pytest.fixture
    def llm_prefs(self):
        return PreferenceTable(
            criteria=["heval", "multilang", "overall", "math", "ifeval"],
            type_labels=["A", "E"],
            weights=[[0.6, 0.0, 0.2, 0.0, 0.2], [0.0, 0.0, 0.0, 1.0, 0.0]],
        )

    @pytest.fixture
    def m3_row(self):
        return [[0.8320, 0.6059, 0.3989, 0.4955, 0.7265]]

    def test_single_criterion_type(self, llm_prefs, m3_row):
        scores = scores_from_preferences(m3_row, llm_prefs)
        assert scores.scores[0, 1] == pytest.approx(0.4955, abs=1e-12)

    def test_weighted_mix(self, llm_prefs, m3_row):
        scores = scores_from_preferences(m3_row, llm_prefs)
        assert scores.scores[0, 0] == pytest.approx(0.72428, abs=1e-12)

    def test_all_zero_preferences_give_zero_scores(self):
        prefs = PreferenceTable(["c1", "c2"], ["z"], [[0.0, 0.0]])
        scores = scores_from_preferences([[0.4, 0.9], [0.1, 0.2]], prefs)
        assert np.all(scores.scores == 0.0)

    def test_linearity_in_preferences(self):
        rng = np.random.default_rng(40)
        perf = rng.uniform(size=(3, 4))
        a, b = rng.uniform(size=2)
        t1, t2 = rng.uniform(size=(2, 4))
        combo = PreferenceTable(list("wxyz"), ["t"], [a * t1 + b * t2])
        p1 = PreferenceTable(list("wxyz"), ["t"], [t1])
        p2 = PreferenceTable(list("wxyz"), ["t"], [t2])
        lhs = scores_from_preferences(perf, combo).scores
        rhs = (a * scores_from_preferences(perf, p1).scores
               + b * scores_from_preferences(perf, p2).scores)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        prefs = PreferenceTable(["c1", "c2"], ["t"], [[0.5, 0.5]])
        with pytest.raises(MarketGameError):
            scores_from_preferences([[0.4, 0.8, 0.1]], prefs)


class TestRbfScores:
    def test_at_kernel_center(self):
        model = RbfModelSpec(0.1, [RbfKernel((0.0, 0.0), 0.5, 0.3)])
        scores = rbf_scores([model], [(0.0, 0.0)])
        assert scores.scores[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_far_from_all_kernels(self):
        model = RbfModelSpec(0.07, [RbfKernel((0.0, 0.0), 0.5, 0.3)])
        scores = rbf_scores([model], [(100.0, 100.0)])
        assert scores.scores[0, 0] == pytest.approx(0.07, abs=1e-12)

    def test_clamp_applies_after_summation(self):
        # bias 0.05 + amplitude 1.30 at the center clamps to 1.0
        model = RbfModelSpec(0.05, [RbfKernel((0.0, 0.0), 1.30, 0.35)])
        scores = rbf_scores([model], [(0.0, 0.0)])
        assert scores.scores[0, 0] == 1.0

    def test_output_always_within_unit_interval(self):
        rng = np.random.default_rng(41)
        models = [
            RbfModelSpec(rng.uniform(-0.5, 0.5), [
                RbfKernel(tuple(rng.uniform(-2, 2, 2)), rng.uniform(-1, 2), rng.uniform(0.1, 1))
                for _ in range(rng.integers(1, 4))
            ])
            for _ in range(4)
        ]
        pts = rng.uniform(-3, 3, size=(20, 2))
        s = rbf_scores(models, pts).scores
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_positive_width_required(self):
        with pytest.raises(Exception):
            RbfKernel((0.0,), 1.0, 0.0)

    @pytest.mark.parametrize("center, width, message", [
        ((1e308, 0.0), 1.0, "squared distance / (2 * width**2) must be finite"),  # overflow in square
        ((1e154, 0.0), 0.3, "squared distance / (2 * width**2) must be finite"),  # overflow in divide
        ((0.0, 0.0), 1e-160, "squared distance / (2 * width**2) must be finite"),
        ((0.0, 0.0), 1e-200, "2 * width**2 must be a positive finite float (got 0.0"),
        ((0.0, 0.0), 1e200, "2 * width**2 must be a positive finite float (got inf"),
        ((0.0, 0.0), 10 ** 200, "2 * width**2 must be a positive finite float (got inf"),
    ], ids=["far-center", "mid-center", "small-width", "tiny-width", "huge-width", "huge-int-width"])
    def test_kernel_at_float_edges_is_refused(self, center, width, message):
        # numpy warnings are errors here, so the refusal must come before any
        models = [RbfModelSpec(0.0, [RbfKernel((0.5, 0.5), 1.0, 0.3)]),
                  RbfModelSpec(0.0, [RbfKernel((0.5, 0.5), 1.0, 0.3), RbfKernel(center, 1.0, width)])]
        with pytest.raises(MarketGameError, match="^" + re.escape(f"models[1].kernels[1]: {message}")):
            rbf_scores(models, [(0.0, 0.0), (1.0, 2.0)])

    @pytest.mark.parametrize("bias, amplitudes", [
        (1e308, [1.7e308]), (-1e308, [-1.7e308]), (0.0, [1e308, 1e308]), (1e308, [1.0, -1.7e308]),
    ], ids=["past-max", "past-min", "two-kernels", "opposite-signs"])
    def test_bias_and_amplitudes_past_the_largest_float_are_refused(self, bias, amplitudes):
        # bias + amplitude overflowed with a warning, and the clamp took the inf
        # to 1; numpy warnings are errors here, so the refusal must come first
        models = [RbfModelSpec(0.0, [RbfKernel((0.5, 0.5), 1.0, 0.3)]),
                  RbfModelSpec(bias, [RbfKernel((0.0, 0.0), a, 1.0) for a in amplitudes])]
        with pytest.raises(MarketGameError,
                           match="^" + re.escape("models[1]: |bias| + the sum of its kernels' |amplitude| "
                                                 "must be finite (bias ")):
            rbf_scores(models, [(0.0, 0.0), (1.0, 2.0)])

    def test_bias_and_amplitudes_up_to_the_largest_float_are_scored(self):
        model = RbfModelSpec(1e308, [RbfKernel((0.0, 0.0), 7e307, 1.0), RbfKernel((0.0, 0.0), -1e300, 1.0)])
        assert rbf_scores([model], [(0.0, 0.0), (1.0, 2.0)]).scores.tolist() == [[1.0, 1.0]]

    def test_scores_keep_the_bits_of_the_direct_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            models = [RbfModelSpec(rng.uniform(-0.5, 0.5), [
                RbfKernel(tuple(rng.uniform(-3, 3, dim)), rng.uniform(-1, 2),
                          int(rng.integers(1, 4)) if rng.random() < 0.3 else rng.uniform(1e-3, 5))
                for _ in range(int(rng.integers(1, 4)))]) for _ in range(3)]
            pts = rng.uniform(-3, 3, size=(int(rng.integers(1, 30)), dim))
            want = []
            for model in models:
                value = np.full(len(pts), model.bias)
                for k in model.kernels:
                    d2 = ((pts - np.asarray(k.center)) ** 2).sum(axis=1)
                    value = value + k.amplitude * np.exp(-d2 / (2.0 * k.width ** 2))
                want.append(np.clip(value, 0.0, 1.0))
            assert rbf_scores(models, pts).scores.tobytes() == np.vstack(want).tobytes()


class TestGmmPopulation:
    def test_single_component_single_type(self):
        spec = GmmPopulationSpec([GmmComponent(1.0, (0.0,), [[1.0]])], k_types=1, seed=3)
        population, anchors = gmm_population(spec)
        assert population.weights[0] == 1.0
        assert anchors.shape == (1, 1)

    def test_well_separated_components_recover_mixture_weights(self):
        cov = [[0.05, 0.0], [0.0, 0.05]]
        spec = GmmPopulationSpec(
            [GmmComponent(0.6, (0.0, 0.0), cov), GmmComponent(0.4, (10.0, 0.0), cov)],
            k_types=2, seed=11,
        )
        population, anchors = gmm_population(spec)
        weights = sorted(population.weights, reverse=True)
        assert abs(weights[0] - 0.6) < 0.02 and abs(weights[1] - 0.4) < 0.02

    def test_shift_moves_anchors_exactly(self):
        cov = [[0.25, 0.0], [0.0, 0.25]]
        base = GmmPopulationSpec(
            [GmmComponent(0.6, (0.0, 0.0), cov), GmmComponent(0.4, (3.0, 0.0), cov)],
            k_types=5, seed=9,
        )
        shifted = GmmPopulationSpec(base.components, k_types=5, dx=0.7, seed=9)
        pop_a, anchors_a = gmm_population(base)
        pop_b, anchors_b = gmm_population(shifted)
        assert np.array_equal(pop_a.weights, pop_b.weights)
        assert np.array_equal(anchors_a + np.array([0.7, 0.0]), anchors_b)

    def test_bitwise_reproducible_for_fixed_seed(self):
        cov = [[0.25, 0.0], [0.0, 0.25]]
        spec = GmmPopulationSpec([GmmComponent(1.0, (0.0, 0.0), cov)], k_types=4, seed=13)
        pop_a, anchors_a = gmm_population(spec)
        pop_b, anchors_b = gmm_population(spec)
        assert np.array_equal(pop_a.weights, pop_b.weights)
        assert np.array_equal(anchors_a, anchors_b)

    def test_degenerate_covariance_rejected(self):
        with pytest.raises(MarketGameError):
            GmmComponent(1.0, (0.0, 0.0), [[1.0, 1.0], [1.0, 1.0]])

    def test_component_weights_must_sum_to_one(self):
        with pytest.raises(MarketGameError):
            GmmPopulationSpec([GmmComponent(0.5, (0.0,), [[1.0]])], k_types=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(MarketGameError, match="seed must be >= 0"):
            GmmPopulationSpec([GmmComponent(1.0, (0.0,), [[1.0]])], k_types=1, seed=-1)

    @pytest.mark.parametrize("dx", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, dx):
        with pytest.raises(MarketGameError, match=r"^dx must be finite \(got -?(nan|inf)\)"):
            GmmPopulationSpec([GmmComponent(1.0, (0.0,), [[1.0]])], k_types=2, dx=dx, sample_size=50)

    def test_sample_too_large_for_kmeans_rejected(self):
        # finite draws near 1e308, whose squared distances overflow
        spec = GmmPopulationSpec([GmmComponent(1.0, (1e308, 0.0), [[1e308, 0.0], [0.0, 1.0]])],
                                 k_types=3, sample_size=50)
        with pytest.raises(MarketGameError,
                           match=r"^k-means points must be finite and at most 4\.74038e\+152 "):
            gmm_population(spec)

    @pytest.mark.parametrize("field, value", [
        ("k_types", 2.7), ("k_types", "3"), ("k_types", True), ("k_types", np.float64(2.0)),
        ("seed", True), ("seed", 1.0), ("seed", None),
        ("sample_size", 50.9), ("sample_size", False), ("sample_size", "50"),
    ])
    def test_non_integer_counts_and_seed_rejected(self, field, value):
        kwargs = {"k_types": 2, "seed": 0, "sample_size": 50, field: value}
        with pytest.raises(MarketGameError, match=f"^{field} must be an integer"):
            GmmPopulationSpec([GmmComponent(1.0, (0.0,), [[1.0]])], **kwargs)

    def test_numpy_integers_accepted(self):
        spec = GmmPopulationSpec([GmmComponent(1.0, (0.0,), [[1.0]])], k_types=np.int64(2),
                                 seed=np.uint32(5), sample_size=np.int32(50))
        assert (spec.k_types, spec.seed, spec.sample_size) == (2, 5, 50)
        assert all(type(v) is int for v in (spec.k_types, spec.seed, spec.sample_size))


def _kmeans_cloud(case: int) -> tuple[np.ndarray, int]:
    """Points and cluster count of one differential k-means case.

    The case number cycles the dimension through (1, 2, 3, 7, 8), the cloud
    through plain, rounded to a 0.1-scale grid (exact distance ties) and half
    duplicated, and k through 1, n and two draws from [1, min(n, 12)].
    """
    rng = np.random.default_rng(case)
    d = (1, 2, 3, 7, 8)[case % 5]
    n = int(rng.integers(2, 41))
    scale = 10.0 ** rng.uniform(-4, 4)
    points = (rng.standard_normal((n, d)) + rng.uniform(-5, 5, size=d)) * scale
    form = case // 5 % 3
    if form == 1:
        points = np.round(points / scale, 1) * scale
    elif form == 2:
        points[n // 2:] = points[:n - n // 2]
    k = {0: 1, 1: n}.get(case // 15 % 4, int(rng.integers(1, min(n, 12) + 1)))
    return points, k


class TestSeededKmeans:
    def test_bit_identical_to_masked_lloyd(self):
        reseeded = 0
        for case in range(420):
            points, k = _kmeans_cloud(case)
            rng, want_rng = np.random.default_rng(case), np.random.default_rng(case)
            centers, labels = seeded_kmeans(points, k, rng)
            want_c, want_l = reference_seeded_kmeans(points, k, want_rng)
            assert centers.tobytes() == want_c.tobytes(), case
            assert labels.dtype == want_l.dtype and labels.tobytes() == want_l.tobytes(), case
            assert rng.random() == want_rng.random(), case
            # fewer distinct points than clusters: the seeding repeats a point,
            # so the first iteration leaves a cluster empty
            reseeded += len(np.unique(points, axis=0)) < k
        assert reseeded >= 40

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16])
    def test_distances_match_numpy_sum_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        points = rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-4, 4, size=d)
        centers = rng.standard_normal((6, d))
        want = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        columns = np.ascontiguousarray(points.T)
        got = np.stack([_distances_to(points, columns, c, np.empty(40), np.empty(40))
                        for c in centers], axis=1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, k, d, form, at_bound", [
        *[(800, 8, d, form, d % 2 == 0) for d in range(1, 11) for form in ("plain", "grid", "halved")],
        (10_000, 100, 1, "plain", False),
        (10_000, 100, 2, "plain", False),
        (10_000, 100, 2, "halved", True),
        # the bounded pass at every d it runs at
        *[(10_000, 100, d, form, d % 2 == 0) for d in range(1, 8) for form in ("plain", "grid", "halved")
          if (d, form) not in ((1, "plain"), (2, "plain"), (2, "halved"))],
    ])
    def test_bit_identical_at_benchmark_sizes(self, n, k, d, form, at_bound):
        # the sweep-pool (800 points, K=8) and dynamics-large (10,000, K=100)
        # instance sizes; "grid" rounds to a 0.1 grid (exact distance ties),
        # "halved" repeats the first half of the points
        rng = np.random.default_rng([n, d, len(form)])
        points = rng.standard_normal((n, d)) + rng.uniform(-3, 3, size=(4, d))[rng.integers(4, size=n)]
        if form == "grid":
            points = np.round(points, 1)
        elif form == "halved":
            points[n // 2:] = points[:n - n // 2]
        if at_bound:
            bound = math.sqrt(sys.float_info.max / (8 * n * d))
            points = np.clip(points * (bound / np.abs(points).max()), -bound, bound)
            top = np.unravel_index(np.abs(points).argmax(), points.shape)
            points[top] = math.copysign(bound, points[top])  # where the scaling rounded below it
            assert np.abs(points).max() == bound
        seed = n + d
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centers, labels = seeded_kmeans(points, k, got_rng)
        want_c, want_l = reference_seeded_kmeans(points, k, want_rng)
        assert centers.tobytes() == want_c.tobytes()
        assert labels.tobytes() == want_l.tobytes()
        assert got_rng.random() == want_rng.random()

    def test_the_bounded_pass_is_bit_identical_on_every_cloud(self, monkeypatch):
        # the same clouds with the bounded pass at every k, k = 1 and k = n included
        monkeypatch.setattr(synthetic, "_DENSE_K", 0)
        for case in range(420):
            points, k = _kmeans_cloud(case)
            rng, want_rng = np.random.default_rng(case), np.random.default_rng(case)
            centers, labels = seeded_kmeans(points, k, rng)
            want_c, want_l = reference_seeded_kmeans(points, k, want_rng)
            assert centers.tobytes() == want_c.tobytes(), case
            assert labels.tobytes() == want_l.tobytes(), case
            assert rng.random() == want_rng.random(), case

    @pytest.mark.parametrize("route", ["shipped", "bounded"])
    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("cloud", ["tiny", "subnormal", "mixed", "coinciding", "k=1", "k=n", "k>n", "sizes"])
    def test_bit_identical_on_edge_clouds(self, monkeypatch, cloud, d, route):
        # "tiny" and "subnormal": every squared distance is subnormal or 0, so most
        # distances tie and the lowest-numbered center must win; "mixed": each
        # dimension at its own scale, some squares underflowing; "coinciding": 12
        # distinct points for 24 centers, and "k>n" 10 points for 30, so re-seeded
        # centers coincide; "sizes": the sweep-pool instance size (800 points, K=8)
        if route == "bounded":
            monkeypatch.setattr(synthetic, "_DENSE_K", 0)
        rng = np.random.default_rng([d, len(cloud)])
        n, k = {"k=1": (60, 1), "k=n": (40, 40), "k>n": (10, 30), "sizes": (800, 8)}.get(cloud, (300, 24))
        points = rng.standard_normal((n, d)) + rng.uniform(-3, 3, size=(4, d))[rng.integers(4, size=n)]
        if cloud == "tiny":
            points *= 1e-160
        elif cloud == "subnormal":
            points = np.round(points, 1) * 1e-162
        elif cloud == "mixed":
            points *= 10.0 ** rng.uniform(-170, 140, size=d)
        elif cloud == "coinciding":
            points = points[rng.integers(12, size=n)]
        seed = 7 * d + len(cloud)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centers, labels = seeded_kmeans(points, k, got_rng)
        want_c, want_l = reference_seeded_kmeans(points, k, want_rng)
        assert centers.tobytes() == want_c.tobytes()
        assert labels.tobytes() == want_l.tobytes()
        assert got_rng.random() == want_rng.random()
        if cloud == "coinciding":
            assert len(np.unique(centers, axis=0)) < k

    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-162])
    def test_the_bounded_pass_matches_the_dense_pass_near_every_bisector(self, d, scale):
        # 12 far-apart pairs of near centers, and 6 centers that coincide with
        # others.  Points lie within a few ulps of the midpoint of a pair and
        # start at its higher-numbered center: where rounding ties the two
        # distances, a bound without its slack keeps that center, and the
        # dense pass takes the lower-numbered one
        rng = np.random.default_rng([d, int(-math.log10(scale))])
        n = 4000
        base = rng.standard_normal((12, d)) * 100.0
        centers = np.concatenate([base, base + rng.standard_normal((12, d)) * 10.0 ** rng.uniform(-2, 2, (12, 1))])
        centers = np.concatenate([centers, centers[rng.integers(24, size=6)]]) * scale
        pair = rng.integers(12, size=n)
        near, far = centers[pair], centers[pair + 12]
        t = 0.5 + rng.integers(-8, 9, size=(n, 1)) * 2.0 ** -54
        points = near + (far - near) * t
        points += rng.integers(-2, 3, size=(n, d)) * np.spacing(points)
        previous = np.where(rng.random(n) < 0.8, pair + 12, rng.integers(30, size=n))
        assignments, nearest = previous.astype(np.int64), np.empty(n)
        _bounded_assign(np.ascontiguousarray(points.T), centers, assignments, nearest, np.empty(n), np.empty(n))
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        want = dists.argmin(axis=1)
        assert assignments.tobytes() == want.tobytes()
        assert nearest.tobytes() == dists[np.arange(n), want].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "above"])
    def test_points_outside_the_bound_rejected(self, bad):
        n, d = 30, 3
        bound = math.sqrt(sys.float_info.max / (8 * n * d))
        points = np.random.default_rng(0).standard_normal((n, d))
        points[7, 1] = math.nextafter(bound, math.inf) if bad == "above" else bad
        with pytest.raises(MarketGameError,
                           match=re.escape(f"k-means points must be finite and at most {bound:.6g} "
                                           "in absolute value for 30 points in 3 dimensions (got ")):
            seeded_kmeans(points, 4, np.random.default_rng(0))
        points[7, 1] = -bound
        seeded_kmeans(points, 4, np.random.default_rng(0))

    def test_more_clusters_than_points_still_runs(self):
        points = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 1.0]])
        got = seeded_kmeans(points, 5, np.random.default_rng(2))
        want = reference_seeded_kmeans(points, 5, np.random.default_rng(2))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("points, k, match", [
        (np.zeros((4, 2)), 0, r"k must be >= 1 \(got 0\)"),
        (np.zeros((0, 2)), 2, r"shape \(0, 2\)"),
        (np.arange(5.0), 2, r"shape \(5,\)"),
    ], ids=["k=0", "no-points", "1-d-points"])
    def test_bad_input_rejected(self, points, k, match):
        with pytest.raises(MarketGameError, match=match):
            seeded_kmeans(points, k, np.random.default_rng(0))


class TestFixtureRegistry:
    def test_all_names_registered(self):
        assert fixture_names() == [
            "c1_rps", "fig2_a", "fig2_b", "fig3_b", "c7_welfare_gap",
            "c8_players_2", "c8_players_3", "c9_softmax",
            "llm_pool1", "llm_pool2", "llm_pool3", "simu_appendix_d",
        ]

    def test_unknown_name_rejected(self):
        with pytest.raises(MarketGameError, match="unknown fixture"):
            builtin_instance("nope")

    @pytest.mark.parametrize("n", [2.0, "2"])
    def test_record_n_platforms_must_be_an_integer(self, tmp_path, monkeypatch, n):
        record = json.loads((fixtures_mod.DATA_DIR / "fig2_a.json").read_text())
        record["explicit"]["n_platforms"] = n
        (tmp_path / "fig2_a.json").write_text(json.dumps(record))
        monkeypatch.setattr(fixtures_mod, "DATA_DIR", tmp_path)
        with pytest.raises(MarketGameError, match=r"^fig2_a\.explicit\.n_platforms must be an integer"):
            builtin_instance("fig2_a")

    def test_counterexample_scores(self):
        spec = builtin_instance("c1_rps").spec
        assert spec.n_models == 3 and spec.population.n_types == 3
        assert np.array_equal(spec.scores.scores[:, 0], [0.2, 0.1, 0.0])
        assert np.allclose(spec.population.weights, 1 / 3)

    def test_six_model_instance_weights(self):
        spec = builtin_instance("c8_players_3").spec
        assert spec.n_models == 6
        assert np.array_equal(spec.population.weights,
                              [0.18, 0.17, 0.16, 0.16, 0.17, 0.16])

    def test_softmax_fixture_parameters(self):
        spec = builtin_instance("c9_softmax").spec
        assert spec.choice.kind == "softmax" and spec.choice.tau == 0.1
        assert np.array_equal(spec.scores.scores[:, 0], [0.734, 0.148, 0.934])

    @pytest.mark.parametrize("name", [
        "c1_rps", "fig2_a", "fig2_b", "fig3_b", "c7_welfare_gap",
        "c8_players_2", "c8_players_3", "c9_softmax",
        "llm_pool1", "llm_pool2", "llm_pool3", "simu_appendix_d",
    ])
    def test_expectation_record_rederives(self, name):
        checks = verify_fixture(name)
        failed = [c for c in checks if not c.passed]
        assert not failed, failed

    def test_verify_all_is_green(self):
        assert all(c.passed for name in fixture_names() for c in verify_fixture(name))

    def test_a_refused_pne_list_is_a_failed_check(self):
        # 4^10 profiles: past the PNE budget of every report, within enumerate_pne's own
        rng = np.random.default_rng(5)
        spec = GameSpec(ScoreMatrix(rng.uniform(size=(4, 3))), UserPopulation.uniform(3), 10)
        assert 10**6 < 4**10 <= DEFAULT_PROFILE_BUDGET
        fixture = fixtures_mod.Fixture("big", "", spec, {"pne": [[0] * 10]})
        (check,) = verify_fixture(fixture)
        assert (check.name, check.passed) == ("pne_set", False)
        assert check.actual == "enumeration needs 1048576 profiles but the budget is 1000000"

    def test_a_refused_optimum_is_a_failed_check(self):
        spec = GameSpec(ScoreMatrix(np.linspace(0.1, 0.9, 50)[:, None]), UserPopulation.uniform(1), 10)
        fixture = fixtures_mod.Fixture("wide", "", spec, {"social_optimum": [0.9, 1e-9],
                                                          "social_optimum_profile": [49] * 10})
        (check,) = verify_fixture(fixture)
        assert (check.name, check.passed, check.expected) == ("social_optimum", False, 0.9)
        assert check.actual.startswith("social optimum needs 62828356305 multisets")

    @pytest.mark.parametrize("key, record, name", [
        # fig2_a's true first entries, with the second value cut off
        pytest.param("payoffs", [[[0, 1], [0.45], 1e-9]], "payoff(0, 1)", id="payoffs"),
        pytest.param("average_scores", [[0.625], 1e-9], "average_scores", id="average_scores"),
    ])
    def test_a_shortened_expected_list_is_a_failed_check(self, key, record, name):
        fixture = builtin_instance("fig2_a")
        fixture = fixtures_mod.Fixture(fixture.name, "", fixture.spec, {key: record})
        (check,) = verify_fixture(fixture)
        assert (check.name, check.passed, len(check.actual)) == (name, False, 2)

    def test_welfare_averages_are_checked_without_an_interval(self):
        fixture = builtin_instance("c8_players_3")
        dynamics = {k: v for k, v in fixture.expected["dynamics"].items() if k != "welfare_interval"}
        dynamics["welfare_multiset_average"] = [0.5, 1e-9]
        fixture = fixtures_mod.Fixture(fixture.name, "", fixture.spec, {"dynamics": dynamics})
        checks = {c.name: c for c in verify_fixture(fixture)}
        assert "cycle_welfare_interval" not in checks
        assert checks["welfare_state_average"].passed
        assert not checks["welfare_multiset_average"].passed

    def test_expectation_records_are_serialized_json(self):
        for name in fixture_names():
            path = fixtures_mod.DATA_DIR / f"{name}.json"
            assert path.exists()
            record = json.loads(path.read_text())
            assert "expected" in record
            walk(record, FIXTURE_RECORD, name)

    def test_specs_match_the_pinned_digests(self):
        """Each fixture's GameSpec, float for float: ``verify-fixtures`` compares
        within 1e-9 and cannot see a changed last bit.  The derived records
        (``llm_pool*``, ``simu_appendix_d``) go through numpy's matmul and exp,
        so their digests hold for IEEE-754 doubles as numpy computes them here."""
        shipped = sorted(path.stem for path in fixtures_mod.DATA_DIR.glob("*.json"))
        assert shipped == sorted(fixture_names())  # an unregistered record is never verified
        for name in fixture_names():
            spec = builtin_instance(name).spec
            digest = hashlib.sha256()
            for part in (spec.scores.scores.astype("<f8").tobytes(),
                         spec.population.weights.astype("<f8").tobytes(),
                         "\x1f".join(spec.scores.model_labels).encode(),
                         "\x1f".join(spec.population.type_labels).encode(),
                         repr((spec.n_platforms, spec.choice.kind, spec.choice.tau)).encode()):
                digest.update(len(part).to_bytes(8, "little"))
                digest.update(part)
            assert digest.hexdigest() == _SPEC_DIGESTS[name], name

    def test_enumeration_matches_per_profile_verification_on_every_fixture(self):
        import itertools
        from modelmarket.equilibrium import enumerate_pne, verify_pne
        for name in fixture_names():
            spec = builtin_instance(name).spec
            found = set(enumerate_pne(spec))
            brute = {
                prof
                for prof in itertools.product(range(spec.n_models), repeat=spec.n_platforms)
                if verify_pne(spec, prof).is_pne
            }
            assert found == brute, name
