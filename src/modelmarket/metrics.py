"""Coverage, welfare, social optimum, and market concentration metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import BudgetExceededError, InvalidInstanceError
from . import game
from .equilibrium import DynamicsOutcome, IMPROVEMENT_EPS, verify_pne
from .game import ChoiceRule, GameSpec, as_profile

__all__ = [
    "MarketShares",
    "MetricsRecord",
    "SocialOptimum",
    "WelfareFigures",
    "BoundCheck",
    "EntryCheck",
    "coverage_value",
    "market_shares",
    "social_optimum",
    "user_welfare",
    "welfare_figures",
    "welfare_bound_check",
    "platform_entry_check",
    "outcome_metrics",
]

_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class MarketShares:
    shares: tuple[float, ...]
    hhi: float
    support: int


@dataclass(frozen=True)
class MetricsRecord:
    """Coverage, welfare, optimum, and concentration figures for one outcome.

    For cycle outcomes, ``coverage``, ``shares``, ``hhi``, and ``support``
    describe the first profile of the repeating segment, while ``welfare``
    is the cycle average; for equilibria all fields describe the equilibrium
    profile.
    """

    coverage: float
    welfare: float
    social_optimum: float
    hhi: float
    support: int
    shares: tuple[float, ...]

    def __post_init__(self):
        total = sum(self.shares)
        if abs(total - 1.0) > game.WEIGHT_TOL:
            raise InvalidInstanceError("market shares must sum to 1")
        if abs(self.hhi - sum(m * m for m in self.shares)) > 1e-12:
            raise InvalidInstanceError("hhi must equal the sum of squared shares")
        if self.welfare > self.social_optimum + IMPROVEMENT_EPS:
            raise InvalidInstanceError("welfare cannot exceed the social optimum")


@dataclass(frozen=True)
class SocialOptimum:
    value: float
    profile: tuple[int, ...]  # canonical sorted maximizer


@dataclass(frozen=True)
class WelfareFigures:
    """Cycle welfare under both averaging conventions.

    ``state_average`` averages coverage over the L profiles of the repeating
    segment; ``multiset_average`` averages one coverage value per distinct
    model multiset seen in the cycle.  For equilibria the two coincide with
    the equilibrium coverage.  ``value`` is the primary figure
    (state average).
    """

    value: float
    state_average: float
    multiset_average: float
    kind: str


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    slack: float


@dataclass(frozen=True)
class EntryCheck:
    is_equilibrium: bool
    welfare_delta: float
    support_delta: int
    extended_profile: tuple[int, ...]


def coverage_value(spec: GameSpec, profile) -> float:
    """Population-weighted best available score under the profile.

    Cross-checked against the (1/N) * sum(T + delta) closed form on every
    call, with the hardmax deltas; the two routes agreeing is a structural
    invariant.
    """
    prof = list(as_profile(spec, profile))
    chosen = spec.scores.scores[prof]
    weights = spec.population.weights
    value = float(chosen.max(axis=0) @ weights)
    delta = game._deviation_advantage(ChoiceRule.hardmax(), chosen, weights)
    decomposed = float((game.average_scores(spec)[prof] + delta).sum()) / spec.n_platforms
    if abs(value - decomposed) > _IDENTITY_TOL:
        raise AssertionError(
            f"coverage decomposition mismatch: {value!r} vs {decomposed!r}"
        )
    return value


def market_shares(spec: GameSpec, profile) -> MarketShares:
    """Per-platform user mass, its concentration (HHI), and distinct-model count."""
    prof = as_profile(spec, profile)
    alloc = game.allocate(spec, prof).p
    mu = alloc @ spec.population.weights
    return MarketShares(
        shares=tuple(float(x) for x in mu),
        hhi=float(mu @ mu),
        support=len(set(prof)),
    )


def social_optimum(spec: GameSpec, budget: int = 10_000_000) -> SocialOptimum:
    """Highest coverage over all model multisets of size N.

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
    for combo in combinations_with_replacement(range(m), n):
        value = float(s[list(combo)].max(axis=0) @ w)
        if value > best_value:
            best_value = value
            best_profile = combo
    assert best_profile is not None
    return SocialOptimum(best_value, best_profile)


def welfare_figures(spec: GameSpec, outcome: DynamicsOutcome) -> WelfareFigures:
    """User welfare of a dynamics outcome under both cycle conventions."""
    if outcome.kind == "equilibrium":
        v = coverage_value(spec, outcome.equilibrium_profile)
        return WelfareFigures(v, v, v, "equilibrium")
    if outcome.kind == "cycle":
        values = [coverage_value(spec, p) for p in outcome.cycle_profiles]
        state_avg = float(np.mean(values))
        by_multiset: dict[tuple[int, ...], float] = {}
        for p, v in zip(outcome.cycle_profiles, values):
            by_multiset[tuple(sorted(p))] = v
        multiset_avg = float(np.mean(list(by_multiset.values())))
        return WelfareFigures(state_avg, state_avg, multiset_avg, "cycle")
    raise InvalidInstanceError(f"welfare is undefined for outcome kind {outcome.kind!r}")


def user_welfare(spec: GameSpec, outcome: DynamicsOutcome) -> float:
    """Coverage at equilibrium, or average coverage over the repeating cycle."""
    return welfare_figures(spec, outcome).value


def welfare_bound_check(spec: GameSpec, outcome: DynamicsOutcome, budget: int = 10_000_000) -> BoundCheck:
    """Slack of the welfare-below-optimum bound for this outcome."""
    w = user_welfare(spec, outcome)
    opt = social_optimum(spec, budget=budget).value
    slack = opt - w
    return BoundCheck(ok=slack >= -IMPROVEMENT_EPS, slack=float(slack))


def platform_entry_check(spec: GameSpec, base_equilibrium, entrant_model: int) -> EntryCheck:
    """Effect of one additional platform joining with ``entrant_model``.

    The base profile must already be a PNE of the N-platform game.  The
    extended profile is an equilibrium of the (N+1)-platform game exactly
    when (i) the entrant's model is a best response to the incumbents and
    (ii) no incumbent gains by deviating against the extended profile.  In
    that case welfare and distinct-model support cannot drop, which is
    asserted.
    """
    prof = as_profile(spec, base_equilibrium)
    if not 0 <= int(entrant_model) < spec.n_models:
        raise InvalidInstanceError(f"entrant model index {entrant_model} out of range")
    if not verify_pne(spec, prof).is_pne:
        raise InvalidInstanceError("base profile is not a pure Nash equilibrium")
    extended_spec = spec.with_platforms(spec.n_platforms + 1)
    extended = prof + (int(entrant_model),)
    is_eq = verify_pne(extended_spec, extended).is_pne
    welfare_delta = coverage_value(extended_spec, extended) - coverage_value(spec, prof)
    support_delta = len(set(extended)) - len(set(prof))
    if is_eq:
        assert welfare_delta >= -IMPROVEMENT_EPS, "entry lowered welfare at an equilibrium"
        assert support_delta >= 0, "entry lowered support"
    return EntryCheck(is_eq, float(welfare_delta), int(support_delta), extended)


def outcome_metrics(spec: GameSpec, outcome: DynamicsOutcome) -> MetricsRecord:
    """Metrics of a dynamics outcome (see MetricsRecord for cycle semantics)."""
    figures = welfare_figures(spec, outcome)
    anchor = (
        outcome.equilibrium_profile
        if outcome.kind == "equilibrium"
        else outcome.cycle_profiles[0]
    )
    shares = market_shares(spec, anchor)
    return MetricsRecord(
        coverage=coverage_value(spec, anchor),
        welfare=figures.value,
        social_optimum=social_optimum(spec).value,
        hhi=shares.hhi,
        support=shares.support,
        shares=shares.shares,
    )
