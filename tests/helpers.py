"""Shared test utilities: random instances, brute-force oracles, the entry toy."""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math

import numpy as np

from modelmarket.entry import EntryDataset, RewardTable
from modelmarket.equilibrium import (
    DEFAULT_PROFILE_BUDGET,
    IMPROVEMENT_EPS,
    Deviation,
    PneCheck,
)
from modelmarket.errors import BudgetExceededError
from modelmarket.metrics import SocialOptimum
from modelmarket.game import (
    ChoiceRule,
    GameSpec,
    ScoreMatrix,
    UserPopulation,
    as_profile,
    platform_utilities,
)


def random_spec(rng: np.random.Generator, max_models: int = 6, max_platforms: int = 4,
                max_types: int = 6, min_platforms: int = 1,
                choice: ChoiceRule | None = None) -> GameSpec:
    """A random instance with scores in [0, 1] and Dirichlet type weights."""
    m = int(rng.integers(1, max_models + 1))
    n = int(rng.integers(min_platforms, max_platforms + 1))
    k = int(rng.integers(1, max_types + 1))
    scores = rng.uniform(0.0, 1.0, size=(m, k))
    weights = rng.dirichlet(np.ones(k))
    population = UserPopulation([f"t{i}" for i in range(k)], weights)
    return GameSpec(ScoreMatrix(scores), population, n, choice or ChoiceRule.hardmax())


def brute_force_utilities(spec: GameSpec, profile) -> np.ndarray:
    """Per-platform utility via an explicit per-type loop (hardmax only)."""
    s = spec.scores.scores
    w = spec.population.weights
    out = np.zeros(spec.n_platforms)
    for k in range(spec.population.n_types):
        col = [s[g, k] for g in profile]
        top = max(col)
        winners = [i for i, v in enumerate(col) if v == top]
        for i in winners:
            out[i] += w[k] * col[i] / len(winners)
    return out


def brute_force_deviation_advantage(spec: GameSpec, profile) -> np.ndarray:
    """Per-platform delta via an explicit per-type loop, either choice rule.

    Per type, a platform with share p of the users and score S earns
    (N * p - 1) * S: ((N - A) / A) * S among A tied hardmax winners, -S
    otherwise.
    """
    s = spec.scores.scores
    w = spec.population.weights
    n = spec.n_platforms
    out = np.zeros(n)
    for k in range(spec.population.n_types):
        col = [float(s[g, k]) for g in profile]
        top = max(col)
        if spec.choice.kind == "hardmax":
            shares = [1.0 / col.count(top) if v == top else 0.0 for v in col]
        else:
            e = [math.exp((v - top) / spec.choice.tau) for v in col]
            shares = [x / sum(e) for x in e]
        for i in range(n):
            out[i] += w[k] * (n * shares[i] - 1.0) * col[i]
    return out


def brute_force_coverage(spec: GameSpec, profile) -> float:
    s = spec.scores.scores
    w = spec.population.weights
    return float(sum(w[k] * max(s[g, k] for g in profile)
                     for k in range(spec.population.n_types)))


def brute_force_social_optimum(spec: GameSpec) -> float:
    """Max coverage over all ordered profiles (independent of the multiset trick)."""
    best = -np.inf
    for prof in itertools.product(range(spec.n_models), repeat=spec.n_platforms):
        best = max(best, brute_force_coverage(spec, prof))
    return float(best)


# ---------------------------------------------------------------------------
# profile-by-profile reference solvers: every profile and every deviation is
# evaluated with full per-profile utilities, independently of
# ``game.deviation_values`` and of the multiset reduction
# ---------------------------------------------------------------------------

_CHUNK = 1 << 15


def _decode_profiles(m: int, n: int, start: int, stop: int) -> np.ndarray:
    """Lexicographic profile block: index -> digit vector, leftmost most significant."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.shape[0], n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        out[:, pos] = idx % m
        idx = idx // m
    return out


def _batch_utilities(spec: GameSpec, profs: np.ndarray) -> np.ndarray:
    """Utilities for a (B, N) block of profiles, returned as (B, N)."""
    s = spec.scores.scores
    w = spec.population.weights
    chosen = s[profs]  # (B, N, K)
    if spec.choice.kind == "hardmax":
        top = chosen.max(axis=1, keepdims=True)
        winners = chosen == top
        p = winners / winners.sum(axis=1, keepdims=True)
    else:
        z = chosen / spec.choice.tau
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
    return (p * chosen) @ w


def reference_enumerate_pne(
    spec: GameSpec, budget: int = DEFAULT_PROFILE_BUDGET
) -> list[tuple[int, ...]]:
    """All pure Nash equilibrium profiles of the instance, in lexicographic order."""
    m, n = spec.n_models, spec.n_platforms
    total = m ** n
    if total > budget:
        raise BudgetExceededError(
            f"enumeration needs {total} profiles but the budget is {budget}",
            required=total,
            budget=budget,
        )
    found: list[tuple[int, ...]] = []
    for start in range(0, total, _CHUNK):
        profs = _decode_profiles(m, n, start, min(start + _CHUNK, total))
        base = _batch_utilities(spec, profs)
        stable = np.ones(profs.shape[0], dtype=bool)
        for i in range(n):
            for g in range(m):
                dev = profs.copy()
                dev[:, i] = g
                gain = _batch_utilities(spec, dev)[:, i] - base[:, i]
                np.logical_and(stable, gain <= IMPROVEMENT_EPS, out=stable)
            if not stable.any():
                break
        found.extend(tuple(int(c) for c in row) for row in profs[stable])
    return found


def reference_social_optimum(spec: GameSpec, budget: int = 10_000_000) -> SocialOptimum:
    """Highest coverage over all model multisets of size N, one multiset at a time.

    Coverage depends only on the multiset of chosen models, so the search
    space is C(M + N - 1, N) rather than M^N.
    """
    m, n = spec.n_models, spec.n_platforms
    count = math.comb(m + n - 1, n)
    if count > budget:
        raise BudgetExceededError(
            f"social optimum needs {count} multisets but the budget is {budget}",
            required=count,
            budget=budget,
        )
    s = spec.scores.scores
    w = spec.population.weights
    best_value = -np.inf
    best_profile: tuple[int, ...] | None = None
    for combo in itertools.combinations_with_replacement(range(m), n):
        value = float(s[list(combo)].max(axis=0) @ w)
        if value > best_value:
            best_value = value
            best_profile = combo
    assert best_profile is not None
    return SocialOptimum(best_value, best_profile)


def reference_verify_pne(spec: GameSpec, profile) -> PneCheck:
    """PNE check with one full utility evaluation per unilateral deviation."""
    prof = as_profile(spec, profile)
    base = platform_utilities(spec, prof)
    for i in range(spec.n_platforms):
        for g in range(spec.n_models):
            if g == prof[i]:
                continue
            dev = prof[:i] + (g,) + prof[i + 1:]
            gain = float(platform_utilities(spec, dev)[i] - base[i])
            if gain > IMPROVEMENT_EPS:
                return PneCheck(False, Deviation(i, g, gain))
    return PneCheck(True)


def reference_best_response(spec: GameSpec, profile, platform: int) -> int:
    """Best response with one full utility evaluation per candidate model."""
    prof = as_profile(spec, profile)
    values = np.empty(spec.n_models)
    for g in range(spec.n_models):
        dev = prof[:platform] + (g,) + prof[platform + 1:]
        values[g] = platform_utilities(spec, dev)[platform]
    best = float(values.max())
    if values[prof[platform]] >= best - IMPROVEMENT_EPS:
        return prof[platform]
    return int(np.argmax(values >= best - IMPROVEMENT_EPS))


def reference_seeded_kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
                            iterations: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iterations with distance-weighted seeding, fixed iteration count.

    Returns (centers, assignments).  Deterministic given the generator state.
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0:
            centers[j] = points[int(rng.integers(n))]
        else:
            centers[j] = points[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignments = dists.argmin(axis=1)
        for j in range(k):
            mask = assignments == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its center
                farthest = int(dists[np.arange(n), assignments].argmax())
                centers[j] = points[farthest]
    return centers, assignments


@dataclass(frozen=True)
class EntryToy:
    """A small market where the heaviest user type is under-served by incumbents."""

    outcome_labels: tuple[str, ...]
    rewards: RewardTable
    market: GameSpec  # the incumbents' two-platform game
    dataset: EntryDataset
    target_type: int  # the under-served heavy type


def entry_toy() -> EntryToy:
    labels = ("x1", "x2", "x3", "x4", "x5")
    rewards = RewardTable([
        [0.90, 0.70, 0.00, 0.00, 0.20],
        [0.00, 0.00, 0.90, 0.80, 0.10],
        [0.10, 0.00, 0.10, 0.20, 0.90],
    ])
    population = UserPopulation(["a", "b", "c"], [0.2, 0.5, 0.3])
    incumbents = ScoreMatrix([[0.80, 0.30, 0.50], [0.60, 0.35, 0.75]], ["inc1", "inc2"])
    dataset = EntryDataset(
        labels,
        [3000, 2500, 2000, 1500, 1000],
        attributes=["art", "art", "math", "math", "misc"],
        attribute_labels=["art", "math", "misc"],
        type_attribute_prefs=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    )
    return EntryToy(labels, rewards, GameSpec(incumbents, population, 2), dataset, target_type=1)
