"""Pure Nash equilibrium search, best-response dynamics, and closed-form checks.

The improvement threshold ``IMPROVEMENT_EPS`` absorbs float noise under one rule,
``_exceeds``: a gain or a shortfall counts only when it exceeds the threshold.  Every
threshold decision here and in ``metrics`` goes through it.  Every deviation value comes
from ``game._deviation_block``, which sorts the rivals, and becomes a decision in one place,
``_best_responses``: a model is a best response when its shortfall from the best value does
not exceed the threshold.  So a profile passes ``verify_pne`` exactly when every platform's
model is a best response, and then ``enumerate_pne`` lists it.  Dynamics end at their first
repeated (profile, next-mover) state, the one after the last allowed turn included: at an
equilibrium when the turns since that state changed nothing, else in a cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import BUDGET, CENTRALIZATION, DYNAMICS, check
from .errors import (
    BudgetExceededError,
    InvalidInstanceError,
    InvalidParameterError,
    InvalidProfileError,
)
from . import game
from .game import GameSpec, as_profile

__all__ = [
    "IMPROVEMENT_EPS",
    "Deviation",
    "PneCheck",
    "DynamicsStep",
    "DynamicsOutcome",
    "ConditionRow",
    "ConditionReport",
    "TwoPlayerConditions",
    "CentralizationParams",
    "CentralizationResult",
    "verify_pne",
    "enumerate_pne",
    "best_response",
    "run_dynamics",
    "check_differentiated_condition",
    "check_homogeneous_condition",
    "two_player_conditions",
    "centralization_check",
    "pair_delta",
]

IMPROVEMENT_EPS = 1e-12
DEFAULT_PROFILE_BUDGET = 10_000_000


def _exceeds(difference):  # a gain or shortfall, or an array of them
    return difference > IMPROVEMENT_EPS


def _within_budget(required: int, budget, task: str, unit: str) -> None:
    """Refuse a ``budget`` that is not a count, or one below the ``required`` count of ``unit``."""
    check(budget, BUDGET, "budget", InvalidParameterError)
    if required > budget:
        raise BudgetExceededError(f"{task} needs {required} {unit} but the budget is {budget}",
                                  required=required, budget=budget)


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deviation:
    """A profitable unilateral deviation witnessing that a profile is not a PNE."""

    platform: int
    model: int
    gain: float


@dataclass(frozen=True)
class PneCheck:
    is_pne: bool
    witness: Deviation | None = None

    def __bool__(self) -> bool:
        return self.is_pne


@dataclass(frozen=True)
class DynamicsStep:
    """One mover turn: the state acted on, the action, and the resulting state."""

    index: int
    mover: int
    profile_before: tuple[int, ...]
    chosen: int
    changed: bool
    profile_after: tuple[int, ...]
    utilities: tuple[float, ...]  # utilities of profile_after


@dataclass(frozen=True)
class DynamicsOutcome:
    """Result of sequential best-response dynamics.

    ``kind`` is ``equilibrium``, ``cycle``, or ``timeout``.  A run ends at its
    first repeated (profile, next-mover) state, even the one after its last
    allowed turn: as an equilibrium when the turns since that state changed
    nothing, as a cycle otherwise; it times out only when the state after
    ``max_steps`` turns is new.  ``cycle_profiles`` holds a cycle's repeating
    segment: L profiles, each followed by exactly one strategy change, with
    the (L+1)-th state equal to the first (same profile and same next mover).
    """

    kind: str
    trajectory: tuple[DynamicsStep, ...]
    start: tuple[int, ...]
    cycle_profiles: tuple[tuple[int, ...], ...] = ()
    equilibrium_profile: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ConditionRow:
    platform: int
    current_model: int
    alt_model: int
    lhs: float
    rhs: float


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    rows: tuple[ConditionRow, ...]


@dataclass(frozen=True)
class TwoPlayerConditions:
    differentiated: bool
    homogeneous_i: bool
    homogeneous_j: bool


@dataclass(frozen=True)
class CentralizationParams:
    """Inputs for the dominant-type homogeneity threshold check."""

    dominant_type: int
    dominant_model: int
    rho: float
    gamma_cap: float
    pi_star: float

    def __post_init__(self):
        for name, field in CENTRALIZATION.items():
            check(getattr(self, name), field, name, InvalidParameterError)


@dataclass(frozen=True)
class CentralizationResult:
    threshold: float
    satisfied: bool
    pne_confirmed: bool


# ---------------------------------------------------------------------------
# equilibrium verification and enumeration
# ---------------------------------------------------------------------------

def verify_pne(spec: GameSpec, profile) -> PneCheck:
    """Check that no platform can gain more than the threshold by switching model.

    Platforms are checked in index order, each by the one (M, K) kernel call
    that ``best_response`` makes, up to the first whose model is not a best
    response; the witness names that platform and its lowest-index profitable
    model, which need not be a best response.
    """
    prof = as_profile(spec, profile)
    for i, f in enumerate(prof):
        values, best = _best_responses(spec, prof[:i] + prof[i + 1:])
        if not best[f]:
            gains = values - values[f]
            g = int(_exceeds(gains).argmax())
            return PneCheck(False, Deviation(i, g, float(gains[g])))
    return PneCheck(True)


def _best_responses(spec: GameSpec, rivals):
    """The deviation values against ``rivals``, as ``game._deviation_block`` takes them,
    and the boolean row of best responses: the models whose shortfall from the
    best value does not exceed the threshold."""
    values = game._deviation_block(spec, rivals)
    return values, ~_exceeds(values.max(axis=-1, keepdims=True) - values)


def enumerate_pne(spec: GameSpec, budget: int = DEFAULT_PROFILE_BUDGET) -> list[tuple[int, ...]]:
    """All pure Nash equilibrium profiles of the instance, in lexicographic order.

    Platforms are interchangeable, which holds bit for bit because the
    deviation kernel sorts the rivals, so a profile is an equilibrium exactly
    when its model multiset is.  The best responses to every multiset R of
    N-1 rival models are tabulated, a block of rival multisets per kernel call.
    Each pair (R, g), g a best response to R, is a row of the sorted multiset
    R + (g,).  A multiset has one row per distinct model h that answers the
    multiset without h, so it is stable exactly when its rows number its
    distinct models; each stable one is expanded to its distinct orderings.
    ``budget`` bounds the M^N profiles, which is also how many entries the
    result can hold when scores tie.
    """
    m, n = spec.n_models, spec.n_platforms
    _within_budget(m ** n, budget, "enumeration", "profiles")
    count = math.comb(m + n - 2, n - 1)
    rivals = np.empty((count, n - 1), dtype=np.min_scalar_type(m - 1))
    best = np.empty((count, m), dtype=bool)  # best[r, g]: g is a best response to rivals[r]
    start = 0
    for block in game._multiset_blocks(m, n - 1, spec.scores.scores.size):
        rivals[start:start + len(block)] = block
        best[start:start + len(block)] = _best_responses(spec, block)[1]
        start += len(block)
    r, g = np.nonzero(best)
    del best  # the largest array, now read out into r and g
    pairs = np.sort(np.column_stack((rivals[r], g.astype(rivals.dtype))), axis=1)
    pairs = pairs[np.lexsort(pairs.T[::-1])]
    # each multiset's rows run from one bound to the next
    bounds = np.concatenate(([0], np.flatnonzero(np.any(pairs[1:] != pairs[:-1], axis=1)) + 1, [len(pairs)]))
    multisets = pairs[bounds[:-1]]
    stable = bounds[1:] - bounds[:-1] == 1 + (multisets[:, 1:] != multisets[:, :-1]).sum(axis=1)
    return sorted(p for multiset in multisets[stable].tolist() for p in _orderings(tuple(multiset)))


def _orderings(multiset: tuple[int, ...]):
    """Distinct orderings of a sorted multiset, in lexicographic order."""
    if not multiset:
        yield ()
        return
    for k, g in enumerate(multiset):
        if k == 0 or multiset[k - 1] != g:
            for rest in _orderings(multiset[:k] + multiset[k + 1:]):
                yield (g,) + rest


# ---------------------------------------------------------------------------
# best-response dynamics
# ---------------------------------------------------------------------------

def best_response(spec: GameSpec, profile, platform: int) -> int:
    """The platform's utility-maximizing model against the others' fixed choices.

    Keeps the current model when it is a best response (``_best_responses``),
    and otherwise returns the lowest-index best response.
    """
    prof = as_profile(spec, profile)
    platform = game._index(platform, spec.n_platforms, "platform index", InvalidProfileError)
    # the rivals come from a checked profile, so deviation_values' check is skipped
    best = _best_responses(spec, prof[:platform] + prof[platform + 1:])[1]
    if best[prof[platform]]:
        return prof[platform]
    return int(best.argmax())  # the first True


def run_dynamics(spec: GameSpec, start, *, max_steps: int = 1000) -> DynamicsOutcome:
    """Sequential best-response dynamics, ended by the first repeated state.

    Platforms move round-robin from platform 0 (0, 1, ..., N-1, 0, ...), each
    playing ``best_response``, so a turn keeps the mover's model when it is a
    best response.  Such a silent turn advances the mover, and its step reuses
    the previous step's utilities, those of the same profile.  The run ends
    at the first turn after which a (profile, next-mover) state repeats, the
    last allowed turn included: as ``equilibrium`` when the turns since its
    first visit, a full pass of the platforms, changed nothing, and as
    ``cycle`` otherwise.  It is ``timeout`` only when the state after
    ``max_steps`` turns is new.
    """
    check(max_steps, DYNAMICS["max_steps"], "max_steps", InvalidParameterError)
    start_prof = as_profile(spec, start)
    profile, mover = start_prof, 0
    trajectory: list[DynamicsStep] = []
    seen = {(profile, mover): 0}  # each state's index in the trajectory
    utilities: tuple[float, ...] | None = None

    for step in range(max_steps):
        chosen = best_response(spec, profile, mover)
        changed = chosen != profile[mover]
        after = profile[:mover] + (chosen,) + profile[mover + 1:]
        if changed or utilities is None:
            utilities = tuple(game.platform_utilities(spec, after).tolist())
        trajectory.append(
            DynamicsStep(
                index=step,
                mover=mover,
                profile_before=profile,
                chosen=chosen,
                changed=changed,
                profile_after=after,
                utilities=utilities,
            )
        )
        profile, mover = after, (mover + 1) % spec.n_platforms
        first = seen.setdefault((profile, mover), len(trajectory))
        if first < len(trajectory):
            changes = [s.profile_after for s in trajectory[first:] if s.changed]
            if not changes:
                return DynamicsOutcome("equilibrium", tuple(trajectory), start_prof,
                                       equilibrium_profile=profile)
            # the segment starts at the repeated profile, to which its last change returns
            return DynamicsOutcome("cycle", tuple(trajectory), start_prof, (profile,) + tuple(changes[:-1]))

    return DynamicsOutcome(kind="timeout", trajectory=tuple(trajectory), start=start_prof)


# ---------------------------------------------------------------------------
# closed-form equilibrium conditions
# ---------------------------------------------------------------------------

def _hardmax_only(spec: GameSpec, what: str) -> None:
    if spec.choice.kind != "hardmax":
        raise InvalidInstanceError(f"{what} is defined for hardmax instances")


def _condition_report(spec: GameSpec, prof: tuple[int, ...], movers: np.ndarray,
                      base: np.ndarray) -> ConditionReport:
    """Rows T_{f_i} - T_g >= delta_i(f with i->g) - base[i] for each platform i
    of ``movers`` and each model g other than f_i, the deviations' advantages
    from one kernel call per block of deviation profiles, as many as keep
    each (B, N, K) intermediate within ``game._BLOCK_ELEMENTS`` floats."""
    cur = np.array(prof)
    r, alt = np.nonzero(np.arange(spec.n_models) != cur[movers, None])
    mover = movers[r]
    d_alt = np.empty(len(r))
    size = max(1, game._BLOCK_ELEMENTS // (len(cur) * spec.scores.n_types))
    for lo in range(0, len(r), size):
        i, g = mover[lo:lo + size], alt[lo:lo + size]
        deviations = np.where(np.arange(len(cur)) == i[:, None], g[:, None], cur)
        d_alt[lo:lo + size] = game._deviation_advantage(spec.choice, spec.scores.scores[deviations],
                                                        spec.population.weights)[np.arange(len(i)), i]
    t = game.average_scores(spec)
    lhs, rhs = t[cur[mover]] - t[alt], d_alt - base[mover]
    rows = tuple(ConditionRow(int(i), prof[i], int(g), float(a), float(b))
                 for i, g, a, b in zip(mover, alt, lhs, rhs))
    return ConditionReport(not np.any(_exceeds(rhs - lhs)), rows)


def check_differentiated_condition(spec: GameSpec, profile) -> ConditionReport:
    """Margin test for a fully differentiated profile being a PNE.

    For every platform i and alternative model g, the profile's average-score
    edge must cover the deviation-advantage swing:
    T_{f_i} - T_g >= delta_g(f with i->g) - delta_{f_i}(f).
    """
    _hardmax_only(spec, "the differentiated-equilibrium condition")
    prof = as_profile(spec, profile)
    if spec.n_platforms < 2:
        raise InvalidInstanceError("the differentiated condition needs at least two platforms")
    if len(set(prof)) != spec.n_platforms:
        raise InvalidInstanceError("profile must use distinct models on every platform")
    if spec.n_models < spec.n_platforms:
        raise InvalidInstanceError("needs at least as many models as platforms")
    return _condition_report(spec, prof, np.arange(spec.n_platforms),
                             game.deviation_advantage(spec, prof))


def check_homogeneous_condition(spec: GameSpec, model: int) -> ConditionReport:
    """Margin test for the all-platforms-on-one-model profile being a PNE.

    The rows are platform 0's deviations; the homogeneous profile's own
    deviation advantage is 0, so each row's rhs is the deviator's delta.
    """
    _hardmax_only(spec, "the homogeneous-equilibrium condition")
    model = game._index(model, spec.n_models, "model index", InvalidInstanceError)
    return _condition_report(spec, (model,) * spec.n_platforms, np.zeros(1, dtype=int), np.zeros(1))


def pair_delta(spec: GameSpec, i: int, j: int) -> float:
    """Two-platform deviation advantage of model i against model j."""
    chosen = spec.scores.scores[[game._index(g, spec.n_models, "model index", InvalidInstanceError)
                                 for g in (i, j)]]
    return float(game._deviation_advantage(game.ChoiceRule.hardmax(), chosen,
                                           spec.population.weights)[0])


def two_player_conditions(spec: GameSpec, i: int, j: int) -> TwoPlayerConditions:
    """Closed-form equilibrium tests for the two-platform game on models i, j:
    the differentiated condition on (i, j) and the homogeneous condition on
    each of i and j, as the N-platform checks state them at N = 2."""
    _hardmax_only(spec, "the two-player condition")
    if spec.n_platforms != 2:
        raise InvalidInstanceError("two_player_conditions requires exactly 2 platforms")
    i, j = (game._index(g, spec.n_models, "model index", InvalidInstanceError) for g in (i, j))
    if i == j:
        raise InvalidInstanceError("models i and j must differ")
    return TwoPlayerConditions(check_differentiated_condition(spec, (i, j)).holds,
                               check_homogeneous_condition(spec, i).holds,
                               check_homogeneous_condition(spec, j).holds)


def centralization_check(spec: GameSpec, params: CentralizationParams) -> CentralizationResult:
    """Dominant-type threshold test for homogeneity on the dominant model.

    Validates the premises first: the dominant model must beat every rival by
    at least rho on the dominant type, and rival scores must stay within
    gamma_cap of the dominant model's on every other type.  The threshold
    1 - rho / (rho + 2 * gamma_cap) is compared against pi_star, and the
    homogeneous profile is independently verified as a PNE.
    """
    _hardmax_only(spec, "the centralization check")
    s = spec.scores.scores
    k_star = game._index(params.dominant_type, spec.scores.n_types, "dominant type index",
                         InvalidInstanceError)
    m = game._index(params.dominant_model, spec.n_models, "dominant model index", InvalidInstanceError)
    w_star = float(spec.population.weights[k_star])
    if not abs(w_star - params.pi_star) <= game.WEIGHT_TOL:
        raise InvalidInstanceError(
            f"pi_star {params.pi_star} does not match the dominant type's weight {w_star}"
        )
    margin = s[m, k_star] - s[:, k_star]
    gap = np.abs(s - s[m])
    low_margin = _exceeds(params.rho - margin) & (np.arange(spec.n_models) != m)
    wide_gap = _exceeds(gap - params.gamma_cap) & (np.arange(spec.scores.n_types) != k_star)
    violated = low_margin | wide_gap.any(axis=1)
    if violated.any():
        # the first rival with a violation, its margin before its gaps
        j = int(violated.argmax())
        if low_margin[j]:
            raise InvalidInstanceError(
                f"dominant-type margin violated: model {j} is within "
                f"{float(margin[j]):.6g} < rho={params.rho:.6g} of the dominant model"
            )
        k = int(wide_gap[j].argmax())
        raise InvalidInstanceError(
            f"off-dominant variation violated: |S_{j},{k} - S_{m},{k}| "
            f"= {float(gap[j, k]):.6g} > gamma_cap={params.gamma_cap:.6g}"
        )
    threshold = 1.0 - params.rho / (params.rho + 2.0 * params.gamma_cap) if params.gamma_cap > 0 else 0.0
    satisfied = params.pi_star >= threshold
    confirmed = verify_pne(spec, [m] * spec.n_platforms).is_pne
    return CentralizationResult(threshold, bool(satisfied), confirmed)
