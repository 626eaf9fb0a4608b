"""Coverage, welfare, social optimum, and market concentration metrics."""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import BudgetExceededError, MarketGameError
from . import game
from .equilibrium import DynamicsOutcome, _exceeds, _within_budget, enumerate_pne, verify_pne
from .game import ChoiceRule, GameSpec, Record, as_profile

__all__ = [
    "GameAnalysis",
    "MarketShares",
    "MetricsRecord",
    "ProfileScore",
    "SocialOptimum",
    "WelfareFigures",
    "EntryCheck",
    "coverage_value",
    "market_shares",
    "social_optimum",
    "welfare_figures",
    "platform_entry_check",
    "outcome_metrics",
    "analyze",
]

_IDENTITY_TOL = 1e-12
_HARDMAX = ChoiceRule.hardmax()  # the rule of coverage's cross-check, whatever the instance's

PNE_BUDGET = 1_000_000  # profiles, for the PNE list of analyze
OPTIMUM_BUDGET = 10_000_000  # multisets, for the social optimum


class MarketShares(Record):
    shares: tuple[float, ...]
    hhi: float
    support: int


class SocialOptimum(Record):
    value: float
    profile: tuple[int, ...]  # canonical sorted maximizer


class GameAnalysis(Record):
    """A game's PNE list and social optimum; each None, with a note, when its budget refuses."""

    pne: tuple[tuple[int, ...], ...] | None
    pne_note: str | None
    optimum: SocialOptimum | None
    optimum_note: str | None


class WelfareFigures(Record):
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


class ProfileScore(Record):
    """Coverage V(A), user mass per platform, HHI, distinct models and utilities of a profile."""

    coverage: float
    shares: tuple[float, ...]
    hhi: float
    support: int
    utilities: tuple[float, ...]


class MetricsRecord(Record, eq=False):
    """Every figure of one dynamics outcome, each distinct profile scored once.

    ``anchor`` is the equilibrium profile, or the first profile of a cycle's
    repeating segment; ``scores`` holds the ProfileScore of the anchor, of
    each cycle profile and of each extra profile the caller asked for.
    ``welfare`` averages coverage over the whole cycle (the anchor's figures
    describe one state of it).  Both are None for a timeout.  ``analysis``
    answers for the game itself.  ``weight_total`` is the population's
    weight sum, which the shares of each profile split.
    """

    scores: dict[tuple[int, ...], ProfileScore]
    anchor: tuple[int, ...] | None
    welfare: WelfareFigures | None
    analysis: GameAnalysis
    weight_total: float

    def __post_init__(self):
        for score in self.scores.values():
            if not abs(sum(score.shares) - self.weight_total) <= game.WEIGHT_TOL:
                raise MarketGameError("market shares must sum to the population's weight total")
            if not abs(score.hhi - sum(m * m for m in score.shares)) <= _IDENTITY_TOL:
                raise MarketGameError("hhi must equal the sum of squared shares")
        optimum = self.analysis.optimum
        if self.welfare and optimum and _exceeds(self.welfare.value - optimum.value):
            raise MarketGameError("welfare cannot exceed the social optimum")


class EntryCheck(Record):
    is_equilibrium: bool
    welfare_delta: float
    support_delta: int
    extended_profile: tuple[int, ...]


def _coverage(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Coverage of each (N, K) score stack of a (..., N, K) array.  (..., 1, K) @ w is
    one dot per stack, bit-equal to one stack's 1-D dot; a (B, K) @ w gemv is not."""
    return (stack.max(axis=-2, keepdims=True) @ weights)[..., 0]


def coverage_value(spec: GameSpec, profile) -> float:
    """Population-weighted best available score under the profile.

    Cross-checked against the (1/N) * sum(T + delta) closed form on every
    call, with the hardmax deltas, within a tolerance relative to the value's
    size; the two routes agreeing is a structural invariant.
    """
    prof = as_profile(spec, profile)
    chosen = game._chosen_scores(spec, prof)
    weights = spec.population.weights
    value = float(_coverage(chosen, weights))
    delta = game._deviation_advantage(_HARDMAX, chosen, weights)
    decomposed = float((game.average_scores(spec).take(prof) + delta).sum()) / spec.n_platforms
    if not abs(value - decomposed) <= _IDENTITY_TOL * max(1.0, abs(value)):
        raise MarketGameError(f"coverage decomposition mismatch: {value!r} vs {decomposed!r}")
    return value


def market_shares(spec: GameSpec, profile) -> MarketShares:
    """Per-platform user mass, its concentration (HHI), and distinct-model count."""
    prof = as_profile(spec, profile)
    mu = game._shares(spec.choice, game._chosen_scores(spec, prof)) @ spec.population.weights
    return MarketShares(tuple(mu.tolist()), float(mu @ mu), len(set(prof)))


def social_optimum(spec: GameSpec, budget: int = OPTIMUM_BUDGET) -> SocialOptimum:
    """Highest coverage over all model multisets of size N.

    Coverage depends only on the multiset of chosen models, so the search
    space is C(M + N - 1, N) rather than M^N.  The multisets are scored a
    block at a time, and the first maximiser in enumeration order is kept.
    """
    m, n = spec.n_models, spec.n_platforms
    _within_budget(math.comb(m + n - 1, n), budget, "social optimum", "multisets")
    s = spec.scores.scores
    best_value = -np.inf
    best_profile: tuple[int, ...] = ()
    for block in game._multiset_blocks(m, n, n * s.shape[1]):
        values = _coverage(s[block], spec.population.weights)
        # the first maximiser in the block, and a later block only by strict >
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value = float(values[i])
            best_profile = tuple(int(g) for g in block[i])
    return SocialOptimum(best_value, best_profile)


def _welfare(outcome: DynamicsOutcome, coverage: Callable[[tuple[int, ...]], float]) -> WelfareFigures:
    """Welfare of an outcome from the coverage of its profiles."""
    if outcome.kind == "equilibrium":
        v = coverage(outcome.equilibrium_profile)
        return WelfareFigures(v, v, v, "equilibrium")
    if outcome.kind == "cycle":
        values = [coverage(p) for p in outcome.cycle_profiles]
        state_avg = float(np.mean(values))
        by_multiset: dict[tuple[int, ...], float] = {}
        for p, v in zip(outcome.cycle_profiles, values):
            by_multiset[tuple(sorted(p))] = v
        multiset_avg = float(np.mean(list(by_multiset.values())))
        return WelfareFigures(state_avg, state_avg, multiset_avg, "cycle")
    raise MarketGameError(f"welfare is undefined for outcome kind {outcome.kind!r}")


def welfare_figures(spec: GameSpec, outcome: DynamicsOutcome) -> WelfareFigures:
    """User welfare of a dynamics outcome under both cycle conventions."""
    return _welfare(outcome, lambda p: coverage_value(spec, p))


def platform_entry_check(spec: GameSpec, base_equilibrium, entrant_model: int) -> EntryCheck:
    """Effect of one additional platform joining with ``entrant_model``.

    The base profile must already be a PNE of the N-platform game.  The
    extended profile is an equilibrium of the (N+1)-platform game exactly
    when (i) the entrant's model is a best response to the incumbents and
    (ii) no incumbent gains by deviating against the extended profile.  In
    that case welfare and distinct-model support cannot drop, which is
    checked.
    """
    prof = as_profile(spec, base_equilibrium)
    entrant = game._index(entrant_model, spec.n_models, "entrant model index")
    if not verify_pne(spec, prof).is_pne:
        raise MarketGameError("base profile is not a pure Nash equilibrium")
    extended_spec = spec.with_platforms(spec.n_platforms + 1)
    extended = prof + (entrant,)
    is_eq = verify_pne(extended_spec, extended).is_pne
    welfare_delta = coverage_value(extended_spec, extended) - coverage_value(spec, prof)
    support_delta = len(set(extended)) - len(set(prof))
    if is_eq and _exceeds(-welfare_delta):
        raise MarketGameError("entry lowered welfare at an equilibrium")
    if is_eq and not support_delta >= 0:
        raise MarketGameError("entry lowered support")
    return EntryCheck(is_eq, float(welfare_delta), int(support_delta), extended)


def analyze(spec: GameSpec) -> GameAnalysis:
    """The PNE list and the optimum within their budgets; a refusal gives None and its message."""
    answers = []
    for solve, budget in ((enumerate_pne, PNE_BUDGET), (social_optimum, OPTIMUM_BUDGET)):
        try:
            answers.append((solve(spec, budget=budget), None))
        except BudgetExceededError as exc:
            answers.append((None, str(exc)))
    (pne, pne_note), (optimum, optimum_note) = answers
    return GameAnalysis(None if pne is None else tuple(pne), pne_note, optimum, optimum_note)


def outcome_metrics(spec: GameSpec, outcome: DynamicsOutcome, analysis: GameAnalysis,
                    profiles: Iterable = ()) -> MetricsRecord:
    """The figures of a dynamics outcome (see MetricsRecord).

    The anchor, each of ``profiles``, which must be trajectory profiles, and
    each cycle profile are scored once with ``coverage_value`` and
    ``market_shares`` and keep the utilities the trajectory recorded.  An
    equilibrium missing from a PNE list raises, under either choice rule
    (see equilibrium).
    """
    anchor = outcome.cycle_profiles[0] if outcome.kind == "cycle" else outcome.equilibrium_profile
    if outcome.kind == "equilibrium" and analysis.pne is not None and anchor not in analysis.pne:
        raise MarketGameError("a dynamics equilibrium is missing from the PNE list")
    utilities = {step.profile_after: step.utilities for step in outcome.trajectory}
    scores: dict[tuple[int, ...], ProfileScore] = {}
    for profile in ([] if anchor is None else [anchor]) + list(profiles) + list(outcome.cycle_profiles):
        if profile not in scores:
            shares = market_shares(spec, profile)
            scores[profile] = ProfileScore(coverage_value(spec, profile), shares.shares, shares.hhi,
                                           shares.support, utilities[profile])
    welfare = None if anchor is None else _welfare(outcome, lambda p: scores[p].coverage)
    return MetricsRecord(scores, anchor, welfare, analysis, float(spec.population.weights.sum()))
