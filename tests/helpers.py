"""Shared test utilities: random instances, brute-force oracles, the entry toy."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
import itertools
import math
from typing import NamedTuple

import numpy as np

from modelmarket.entry import (
    EntryDataset,
    RewardBaseline,
    RewardTable,
    ToyGenerator,
    TrainingConfig,
    adoption_gate,
    entrant_scores,
    grad_f_exact,
    objective_f,
)
from modelmarket import entry as entry_mod
from modelmarket import equilibrium as equilibrium_mod
from modelmarket import fixtures as fixtures_mod
from modelmarket import game
from modelmarket import metrics as metrics_mod
from modelmarket import preferences as preferences_mod
from modelmarket import synthetic as synthetic_mod
from modelmarket.equilibrium import (
    DEFAULT_PROFILE_BUDGET,
    IMPROVEMENT_EPS,
    CentralizationResult,
    ConditionReport,
    ConditionRow,
    Deviation,
    DynamicsOutcome,
    DynamicsStep,
    PneCheck,
    best_response,
    check_differentiated_condition,
    check_homogeneous_condition,
    pair_delta,
)
from modelmarket.errors import BudgetExceededError, MarketGameError
from modelmarket.metrics import MarketShares, SocialOptimum
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
    if best - values[prof[platform]] <= IMPROVEMENT_EPS:
        return prof[platform]
    for g in range(spec.n_models):
        if best - values[g] <= IMPROVEMENT_EPS:
            return g
    raise AssertionError("the maximizer's shortfall is 0")


def reference_run_dynamics(spec: GameSpec, start, max_steps: int = 1000) -> DynamicsOutcome:
    """Round-robin dynamics ended by two rules, as the previous release ran
    them: an equilibrium once a full pass of the platforms changes nothing (a
    counter of silent turns), a cycle when the state before a turn repeats.
    So a repeat that the last allowed turn reaches across a change reads as a
    timeout."""
    start_prof = as_profile(spec, start)
    profile, mover, silent = start_prof, 0, 0
    trajectory: list[DynamicsStep] = []
    seen: dict = {}
    utilities = None
    for step in range(max_steps):
        if (profile, mover) in seen:
            segment = trajectory[seen[profile, mover]:]
            profiles = [segment[0].profile_before] + [s.profile_after for s in segment if s.changed]
            if len(profiles) > 1 and profiles[-1] == profiles[0]:
                profiles.pop()
            return DynamicsOutcome("cycle", tuple(trajectory), start_prof, tuple(profiles))
        seen[profile, mover] = len(trajectory)
        chosen = best_response(spec, profile, mover)
        changed = chosen != profile[mover]
        after = profile[:mover] + (chosen,) + profile[mover + 1:]
        if changed or utilities is None:
            utilities = tuple(platform_utilities(spec, after).tolist())
        trajectory.append(DynamicsStep(step, mover, profile, chosen, changed, after, utilities))
        profile = after
        silent = 0 if changed else silent + 1
        if silent >= spec.n_platforms:
            return DynamicsOutcome("equilibrium", tuple(trajectory), start_prof, equilibrium_profile=profile)
        mover = (mover + 1) % spec.n_platforms
    return DynamicsOutcome("timeout", tuple(trajectory), start_prof)


# ---------------------------------------------------------------------------
# loop forms of the equilibrium checks: one kernel call per platform, per
# deviation profile or per model pair
# ---------------------------------------------------------------------------

def reference_verify_pne_by_platform(spec: GameSpec, profile) -> PneCheck:
    """PNE check with one ``deviation_values`` call per platform."""
    prof = as_profile(spec, profile)
    for i in range(spec.n_platforms):
        values = game.deviation_values(spec, prof[:i] + prof[i + 1:])
        gains = values - values[prof[i]]
        better = np.flatnonzero(gains > IMPROVEMENT_EPS)
        if better.size:
            g = int(better[0])
            return PneCheck(False, Deviation(i, g, float(gains[g])))
    return PneCheck(True)


def _hardmax_only(spec: GameSpec, what: str) -> None:
    if spec.choice.kind != "hardmax":
        raise MarketGameError(f"{what} is defined for hardmax instances")


def reference_check_differentiated_condition(spec: GameSpec, profile) -> ConditionReport:
    """Differentiated margin rows with one ``deviation_advantage`` call per deviation."""
    _hardmax_only(spec, "the differentiated-equilibrium condition")
    prof = as_profile(spec, profile)
    if spec.n_platforms < 2:
        raise MarketGameError("the differentiated condition needs at least two platforms")
    if len(set(prof)) != spec.n_platforms:
        raise MarketGameError("profile must use distinct models on every platform")
    t = game.average_scores(spec)
    d_cur = game.deviation_advantage(spec, prof)
    rows = []
    holds = True
    for i in range(spec.n_platforms):
        for g in range(spec.n_models):
            if g == prof[i]:
                continue
            dev = prof[:i] + (g,) + prof[i + 1:]
            d_alt = game.deviation_advantage(spec, dev)[i]
            lhs = float(t[prof[i]] - t[g])
            rhs = float(d_alt - d_cur[i])
            rows.append(ConditionRow(i, prof[i], g, lhs, rhs))
            if rhs - lhs > IMPROVEMENT_EPS:
                holds = False
    return ConditionReport(holds, tuple(rows))


def reference_check_homogeneous_condition(spec: GameSpec, model: int) -> ConditionReport:
    """Homogeneous margin rows with one ``deviation_advantage`` call per deviation."""
    _hardmax_only(spec, "the homogeneous-equilibrium condition")
    if not 0 <= model < spec.n_models:
        raise MarketGameError(f"model index {model} out of range")
    prof = tuple([model] * spec.n_platforms)
    t = game.average_scores(spec)
    rows = []
    holds = True
    for g in range(spec.n_models):
        if g == model:
            continue
        dev = (g,) + prof[1:]
        d_alt = game.deviation_advantage(spec, dev)[0]
        lhs = float(t[model] - t[g])
        rhs = float(d_alt)  # the homogeneous profile's own deviation advantage is 0
        rows.append(ConditionRow(0, model, g, lhs, rhs))
        if rhs - lhs > IMPROVEMENT_EPS:
            holds = False
    return ConditionReport(holds, tuple(rows))


class TwoPlayerConditions(NamedTuple):
    differentiated: bool
    homogeneous_i: bool
    homogeneous_j: bool


def pair_conditions(spec: GameSpec, i: int, j: int) -> tuple[bool, bool, bool]:
    """The two-platform game's verdicts on models i, j: the differentiated
    condition on (i, j) and the homogeneous condition on each of i and j."""
    return (check_differentiated_condition(spec, (i, j)).holds,
            check_homogeneous_condition(spec, i).holds,
            check_homogeneous_condition(spec, j).holds)


def reference_two_player_conditions(spec: GameSpec, i: int, j: int) -> TwoPlayerConditions:
    """Two-platform tests with one ``pair_delta`` call per model pair, and a
    separate formula for M = 2; its refusals are those of ``pair_conditions``."""
    _hardmax_only(spec, "the differentiated-equilibrium condition")
    if spec.n_platforms != 2:
        raise MarketGameError("the two-player conditions require exactly 2 platforms")
    for k in (i, j):
        if not 0 <= k < spec.n_models:
            raise MarketGameError(f"model index {k} out of range [0, {spec.n_models})")
    if i == j:
        raise MarketGameError("profile must use distinct models on every platform")
    t = game.average_scores(spec)
    d_ij = pair_delta(spec, i, j)
    d_ji = pair_delta(spec, j, i)
    eps = IMPROVEMENT_EPS
    # each test: no shortfall exceeds the threshold
    if spec.n_models == 2:
        differentiated = -d_ij - (t[i] - t[j]) <= eps and (t[i] - t[j]) - d_ji <= eps
        homogeneous_i = d_ji - (t[i] - t[j]) <= eps
        homogeneous_j = d_ij - (t[j] - t[i]) <= eps
    else:
        others_j = max(t[k] + pair_delta(spec, k, j) for k in range(spec.n_models) if k != j)
        others_i = max(t[k] + pair_delta(spec, k, i) for k in range(spec.n_models) if k != i)
        differentiated = (
            max(t[j], others_j) - (t[i] + d_ij) <= eps
            and max(t[i], others_i) - (t[j] + d_ji) <= eps
        )
        homogeneous_i = all(
            pair_delta(spec, k, i) - (t[i] - t[k]) <= eps
            for k in range(spec.n_models)
            if k != i
        )
        homogeneous_j = all(
            pair_delta(spec, k, j) - (t[j] - t[k]) <= eps
            for k in range(spec.n_models)
            if k != j
        )
    return TwoPlayerConditions(bool(differentiated), bool(homogeneous_i), bool(homogeneous_j))


@dataclass(frozen=True)
class CentralizationInputs:
    """Every input the centralization formulas read, the dominant model and pi* too."""

    dominant_type: int
    dominant_model: int
    rho: float
    gamma_cap: float
    pi_star: float


def reference_centralization_check(spec: GameSpec,
                                   params: CentralizationInputs) -> CentralizationResult:
    """Centralization test whose premises are checked rival by rival, type by type."""
    _hardmax_only(spec, "the centralization check")
    s = spec.scores.scores
    k_star = params.dominant_type
    m = params.dominant_model
    if not 0 <= k_star < spec.scores.n_types:
        raise MarketGameError(f"dominant type index {k_star} out of range")
    if not 0 <= m < spec.n_models:
        raise MarketGameError(f"dominant model index {m} out of range")
    w_star = float(spec.population.weights[k_star])
    if abs(w_star - params.pi_star) > 1e-9:
        raise MarketGameError(
            f"pi_star {params.pi_star} does not match the dominant type's weight {w_star}"
        )
    for j in range(spec.n_models):
        if j == m:
            continue
        margin = float(s[m, k_star] - s[j, k_star])
        if params.rho - margin > IMPROVEMENT_EPS:
            raise MarketGameError(
                f"dominant-type margin violated: model {j} is within "
                f"{margin:.6g} < rho={params.rho:.6g} of the dominant model"
            )
        for k in range(spec.scores.n_types):
            if k == k_star:
                continue
            gap = abs(float(s[j, k] - s[m, k]))
            if gap - params.gamma_cap > IMPROVEMENT_EPS:
                raise MarketGameError(
                    f"off-dominant variation violated: |S_{j},{k} - S_{m},{k}| "
                    f"= {gap:.6g} > gamma_cap={params.gamma_cap:.6g}"
                )
    threshold = 1.0 - params.rho / (params.rho + 2.0 * params.gamma_cap) if params.gamma_cap > 0 else 0.0
    satisfied = params.pi_star >= threshold
    confirmed = reference_verify_pne_by_platform(spec, [m] * spec.n_platforms).is_pne
    return CentralizationResult(threshold, bool(satisfied), confirmed)


def reference_seeded_kmeans(points: np.ndarray, k: int,
                            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """20 plain Lloyd iterations with distance-weighted seeding.

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
    for _ in range(20):
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


def grad_s_exact(gen: ToyGenerator, rewards: RewardTable, type_index: int) -> np.ndarray:
    """Exact logit-gradient of one type's score, the paper's per-type formula
    p * (r - S): the oracle the score-function estimates are checked against."""
    p = gen.probabilities()
    r = rewards.rewards[type_index]
    s = float(r @ p)
    return p * (r - s)


def loop_grad_s_reinforce(gen: ToyGenerator, rewards: RewardTable, type_index: int,
                          n_samples: int, baseline: RewardBaseline,
                          rng: np.random.Generator) -> np.ndarray:
    """One type's score-function estimate from its own ``rng.choice`` draws:
    the sequential form the batched REINFORCE epoch must reproduce bit for bit."""
    p = gen.probabilities()
    draws = rng.choice(gen.n_outcomes, size=n_samples, p=p)
    r = rewards.rewards[type_index][draws]
    b = float(baseline.values[type_index])
    adv = r - b
    grad = np.bincount(draws, weights=adv, minlength=gen.n_outcomes) / n_samples
    grad -= adv.mean() * p
    baseline.values[type_index] = (baseline.decay * baseline.values[type_index]
                                   + (1.0 - baseline.decay) * float(r.mean()))
    return grad


def loop_reinforce_epoch(gen: ToyGenerator, rewards: RewardTable, n_samples: int,
                         baseline: RewardBaseline, rng: np.random.Generator) -> np.ndarray:
    """Every type's REINFORCE gradient, one ``rng.choice`` call per type in index order."""
    return np.array([loop_grad_s_reinforce(gen, rewards, k, n_samples, baseline, rng)
                     for k in range(rewards.n_types)])


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function by boolean masks, one stable formula per sign:
    the form the entry module's branch-free sigmoid must reproduce bit for bit."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def previous_cross_entropy(q_hat: np.ndarray, gen: ToyGenerator) -> float:
    """``entry._cross_entropy`` as it was before the generator kept its
    exponential sum: the log-normaliser exponentiates the logits again."""
    logp = gen.logits - gen.logits.max()
    logp = logp - np.log(np.exp(logp).sum())
    return float(-(q_hat @ logp))


def reference_train_direct_gradient(dataset: EntryDataset, rewards: RewardTable,
                                    market: GameSpec, config: TrainingConfig,
                                    estimator: str) -> tuple[ToyGenerator, list[dict]]:
    """Direct-gradient training that scores the generator through the public
    functions at every use and draws REINFORCE outcomes with one ``rng.choice``
    call per type: the loop the one-scoring-per-generator epoch must
    reproduce bit for bit (default initial generator)."""
    rng = np.random.default_rng(config.seed)
    q_hat = dataset.empirical_distribution()
    floored = np.maximum(q_hat, 1e-12)
    gen = ToyGenerator.from_distribution(dataset.outcome_labels, floored / floored.sum())
    baseline = RewardBaseline.zeros(market.population.n_types, config.baseline_decay)
    beta, eta = config.beta, config.learning_rate

    def row(epoch):
        ell = previous_cross_entropy(q_hat, gen)
        f = objective_f(gen, rewards, market, beta)
        return {"epoch": epoch, "cross_entropy": ell, "objective": f,
                "loss": ell - config.lam * f,
                "scores": tuple(float(x) for x in entrant_scores(gen, rewards))}

    trace = [row(0)]
    for epoch in range(1, config.inner_epochs + 1):
        p = gen.probabilities()
        grad_f = np.zeros(gen.n_outcomes)
        if config.lam > 0 and estimator == "exact":
            grad_f = grad_f_exact(gen, rewards, market, beta)
        elif config.lam > 0:
            s = entrant_scores(gen, rewards)
            sigma = adoption_gate(s, market, beta)
            coeff = market.population.weights * (sigma + beta * sigma * (1.0 - sigma) * s)
            grads = loop_reinforce_epoch(gen, rewards, config.eval_budget, baseline, rng)
            grad_f = (coeff[:, None] * grads).sum(axis=0)
        step = (p - q_hat) - config.lam * grad_f
        candidate = ToyGenerator(dataset.outcome_labels, gen.logits - eta * step)
        while config.lam == 0 and \
                previous_cross_entropy(q_hat, candidate) > previous_cross_entropy(q_hat, gen) + 1e-9:
            eta *= 0.5
            candidate = ToyGenerator(dataset.outcome_labels, gen.logits - eta * step)
        gen = candidate
        trace.append(row(epoch))
    return gen, trace


# ---------------------------------------------------------------------------
# the per-step dynamics path as the previous release wrote it: a nested
# np.where hardmax kernel, shares divided per entry, and a utility evaluation
# on every turn.  The faster path must reproduce each of these bit for bit.
# ---------------------------------------------------------------------------

def previous_deviation_block(spec: GameSpec, rivals: np.ndarray) -> np.ndarray:
    """Hardmax utility of every model against each rival stack, (..., N-1, K) -> (..., M)."""
    s = spec.scores.scores
    top = rivals.max(axis=-2, keepdims=True, initial=-np.inf)
    ties = (rivals == top).sum(axis=-2, keepdims=True)
    share = np.where(s > top, 1.0, np.where(s == top, 1.0 / (ties + 1), 0.0))
    return (share * s) @ spec.population.weights


def previous_hardmax_shares(chosen: np.ndarray) -> np.ndarray:
    winners = chosen == chosen.max(axis=-2, keepdims=True)
    return winners / winners.sum(axis=-2, keepdims=True)


def previous_utilities(spec: GameSpec, profile) -> tuple[float, ...]:
    chosen = spec.scores.scores[list(as_profile(spec, profile))]
    return tuple(float(u) for u in (previous_hardmax_shares(chosen) * chosen) @ spec.population.weights)


def previous_best_response(spec: GameSpec, profile, platform: int) -> int:
    prof = as_profile(spec, profile)
    values = previous_deviation_block(spec, spec.scores.scores[list(prof[:platform] + prof[platform + 1:])])
    best = values.max()
    if not best - values[prof[platform]] > IMPROVEMENT_EPS:
        return prof[platform]
    return int(np.argmin(best - values > IMPROVEMENT_EPS))


def previous_verify_pne(spec: GameSpec, profile) -> PneCheck:
    prof = np.array(as_profile(spec, profile))
    n = spec.n_platforms
    rivals = np.tile(prof, (n, 1))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    values = previous_deviation_block(spec, spec.scores.scores[rivals])
    gains = values - values[np.arange(n), prof][:, None]
    better = np.argwhere(gains > IMPROVEMENT_EPS)
    if not better.size:
        return PneCheck(True)
    i, g = better[0].tolist()
    return PneCheck(False, Deviation(i, g, float(gains[i, g])))


def previous_run_dynamics(spec: GameSpec, start, max_steps: int = 1000) -> DynamicsOutcome:
    """Round-robin hardmax dynamics that evaluate the utilities of every turn's profile."""
    start_prof = as_profile(spec, start)
    n = spec.n_platforms
    profile, pos, silent = start_prof, 0, 0
    trajectory: list[DynamicsStep] = []
    seen: dict = {}
    for step in range(max_steps):
        if (profile, pos) in seen:
            segment = trajectory[seen[profile, pos]:]
            profiles = [segment[0].profile_before] + [s.profile_after for s in segment if s.changed]
            if len(profiles) > 1 and profiles[-1] == profiles[0]:
                profiles.pop()
            return DynamicsOutcome("cycle", tuple(trajectory), start_prof, tuple(profiles))
        seen[profile, pos] = len(trajectory)
        chosen = previous_best_response(spec, profile, pos)
        after = profile[:pos] + (chosen,) + profile[pos + 1:]
        changed = chosen != profile[pos]
        trajectory.append(DynamicsStep(step, pos, profile, chosen, changed, after,
                                       previous_utilities(spec, after)))
        profile = after
        silent = 0 if changed else silent + 1
        if silent >= n:
            return DynamicsOutcome("equilibrium", tuple(trajectory), start_prof,
                                   equilibrium_profile=profile)
        pos = (pos + 1) % n
    return DynamicsOutcome("timeout", tuple(trajectory), start_prof)


def previous_coverage_value(spec: GameSpec, profile) -> float:
    prof = list(as_profile(spec, profile))
    return float(spec.scores.scores[prof].max(axis=0) @ spec.population.weights)


def previous_market_shares(spec: GameSpec, profile) -> MarketShares:
    prof = as_profile(spec, profile)
    mu = previous_hardmax_shares(spec.scores.scores[list(prof)]) @ spec.population.weights
    return MarketShares(tuple(float(x) for x in mu), float(mu @ mu), len(set(prof)))


# ---------------------------------------------------------------------------
# dataclass twins of the records
# ---------------------------------------------------------------------------

def _twin(record: type, fields, eq: bool = True) -> type:
    """The frozen dataclass a record would be: the record's name, ``fields`` (a name, a
    (name, default) pair or a (name, dataclasses.field) pair), ``eq``, and the record's own
    ``__init__`` or ``__post_init__``, which store fields with ``object.__setattr__``
    and so run on the dataclass alike."""
    namespace = {name: vars(record)[name] for name in ("__init__", "__post_init__") if name in vars(record)}
    specs = [(f, object) if isinstance(f, str)
             else (f[0], object, f[1] if isinstance(f[1], dataclasses.Field) else dataclasses.field(default=f[1]))
             for f in fields]
    return dataclasses.make_dataclass(record.__name__, specs, namespace=namespace, eq=eq, frozen=True)


# every record of the package, with its reference dataclass
RECORD_TWINS = {twin.__name__: twin for twin in [
    _twin(game.UserPopulation, ["type_labels", "weights"], eq=False),
    _twin(game.ScoreMatrix, ["scores", "model_labels"], eq=False),
    _twin(ChoiceRule, ["kind", ("tau", None)]),
    _twin(GameSpec, ["scores", "population", "n_platforms",
                     ("choice", dataclasses.field(default_factory=ChoiceRule.hardmax))]),
    _twin(Deviation, ["platform", "model", "gain"]),
    _twin(PneCheck, ["is_pne", ("witness", None)]),
    _twin(DynamicsStep, ["index", "mover", "profile_before", "chosen", "changed", "profile_after", "utilities"]),
    _twin(DynamicsOutcome, ["kind", "trajectory", "start", ("cycle_profiles", ()), ("equilibrium_profile", None)]),
    _twin(ConditionRow, ["platform", "current_model", "alt_model", "lhs", "rhs"]),
    _twin(ConditionReport, ["holds", "rows"]),
    _twin(equilibrium_mod.CentralizationParams, ["dominant_type", "rho", "gamma_cap"]),
    _twin(CentralizationResult, ["threshold", "satisfied", "pne_confirmed"]),
    _twin(MarketShares, ["shares", "hhi", "support"]),
    _twin(SocialOptimum, ["value", "profile"]),
    _twin(metrics_mod.GameAnalysis, ["pne", "pne_note", "optimum", "optimum_note"]),
    _twin(metrics_mod.WelfareFigures, ["value", "state_average", "multiset_average", "kind"]),
    _twin(metrics_mod.ProfileScore, ["coverage", "shares", "hhi", "support", "utilities"]),
    _twin(metrics_mod.MetricsRecord, ["scores", "anchor", "welfare", "analysis", "weight_total"], eq=False),
    _twin(metrics_mod.EntryCheck, ["is_equilibrium", "welfare_delta", "support_delta", "extended_profile"]),
    _twin(ToyGenerator, ["outcome_labels", "logits"], eq=False),
    _twin(RewardTable, ["rewards"], eq=False),
    _twin(TrainingConfig, [("beta", 4.0), ("gamma", 1.0), ("lam", 0.4), ("outer_rounds", 5),
                           ("inner_epochs", 50), ("eval_budget", 2000), ("learning_rate", 0.05),
                           ("baseline_decay", 0.9), ("blend", 0.5), ("seed", 0)]),
    _twin(EntryDataset, ["outcome_labels", "counts", ("attributes", None), ("attribute_labels", ()),
                         ("type_attribute_prefs", None)], eq=False),
    _twin(RewardBaseline, ["values", "decay"], eq=False),
    _twin(entry_mod.EntrantReport, ["spec", "entrant_index", "entrant_score_row", "outcome", "metrics",
                                    "adopted"], eq=False),
    _twin(synthetic_mod.RbfKernel, ["center", "amplitude", "width"]),
    _twin(synthetic_mod.RbfModelSpec, ["bias", "kernels"]),
    _twin(synthetic_mod.GmmComponent, ["weight", "mean", "covariance"], eq=False),
    _twin(synthetic_mod.GmmPopulationSpec, ["components", "k_types", ("dx", 0.0), ("seed", 0),
                                            ("sample_size", 10_000)]),
    _twin(fixtures_mod.Fixture, ["name", "description", "spec", "expected", ("notes", "")], eq=False),
    _twin(fixtures_mod.Check, ["fixture", "name", "passed", "expected", "actual", ("tol", None)]),
    _twin(preferences_mod.PreferenceTable, ["criteria", "type_labels", "weights"], eq=False),
]}
