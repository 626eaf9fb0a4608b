"""Core domain types and per-profile computations for the platform selection game.

A game instance is a score matrix (one expected-quality row per model, one
column per user type), a weighted finite user population, a platform count N,
and a user choice rule (hardmax or softmax).  Given a strategy profile -- the
vector of model indices chosen by the N platforms -- this module computes user
allocations, platform utilities, per-model average scores, the deviation
advantage terms that decompose utility as U_i = (T + delta) / N, and the
utility of every model for one platform against fixed rivals.

Everything here is a pure function of immutable inputs.  Score arrays are
frozen on construction, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInstanceError, InvalidParameterError, InvalidProfileError

__all__ = [
    "WEIGHT_TOL",
    "UserPopulation",
    "ScoreMatrix",
    "ChoiceRule",
    "GameSpec",
    "StrategyProfile",
    "AllocationMatrix",
    "allocate_hardmax",
    "allocate_softmax",
    "allocate",
    "platform_utilities",
    "deviation_values",
    "average_scores",
    "deviation_advantage",
    "deviation_advantage_soft",
    "decomposed_utility",
]

WEIGHT_TOL = 1e-9


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class UserPopulation:
    """A finite set of user types with a probability weight per type."""

    type_labels: tuple[str, ...]
    weights: np.ndarray

    def __init__(self, type_labels: Iterable[str], weights: Iterable[float]):
        labels = tuple(str(t) for t in type_labels)
        w = _frozen_array(weights)
        if len(labels) == 0:
            raise InvalidInstanceError("population needs at least one user type")
        if len(labels) != len(set(labels)):
            raise InvalidInstanceError("user type labels must be unique")
        if w.ndim != 1 or w.shape[0] != len(labels):
            raise InvalidInstanceError("weights must be a vector matching type_labels")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidInstanceError("weights must be finite and non-negative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise InvalidInstanceError(f"weights must sum to 1 (got {float(w.sum())!r})")
        object.__setattr__(self, "type_labels", labels)
        object.__setattr__(self, "weights", w)

    def __reduce__(self):
        # rebuild through __init__ so the unpickled weights are frozen again
        return UserPopulation, (self.type_labels, self.weights)

    @property
    def n_types(self) -> int:
        return len(self.type_labels)

    @staticmethod
    def uniform(k: int, prefix: str = "t") -> "UserPopulation":
        return UserPopulation([f"{prefix}{i + 1}" for i in range(k)], np.full(k, 1.0 / k))


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-model, per-type expected quality scores (M rows, K columns).

    Scores are accepted in any non-negative range; they are inputs, never
    recomputed, so exact equality between stored entries is meaningful and is
    what hardmax tie detection uses.
    """

    scores: np.ndarray
    model_labels: tuple[str, ...]

    def __init__(self, scores, model_labels: Iterable[str] | None = None):
        s = _frozen_array(scores)
        if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
            raise InvalidInstanceError("scores must be a non-empty M x K matrix")
        if not np.all(np.isfinite(s)) or np.any(s < 0):
            raise InvalidInstanceError("scores must be finite and non-negative")
        if model_labels is None:
            labels = tuple(f"g{j + 1}" for j in range(s.shape[0]))
        else:
            labels = tuple(str(m) for m in model_labels)
        if len(labels) != s.shape[0]:
            raise InvalidInstanceError("model_labels must match the number of score rows")
        if len(labels) != len(set(labels)):
            raise InvalidInstanceError("model labels must be unique")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "model_labels", labels)

    def __reduce__(self):
        # rebuild through __init__ so the unpickled scores are frozen again
        return ScoreMatrix, (self.scores, self.model_labels)

    @property
    def n_models(self) -> int:
        return self.scores.shape[0]

    @property
    def n_types(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class ChoiceRule:
    """User choice rule: deterministic hardmax or temperature-tau softmax."""

    kind: str
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("hardmax", "softmax"):
            raise InvalidParameterError(f"unknown choice rule {self.kind!r}")
        if self.kind == "softmax":
            if self.tau is None or not np.isfinite(self.tau) or self.tau <= 0:
                raise InvalidParameterError("softmax requires tau > 0")

    @staticmethod
    def hardmax() -> "ChoiceRule":
        return ChoiceRule("hardmax")

    @staticmethod
    def softmax(tau: float) -> "ChoiceRule":
        return ChoiceRule("softmax", float(tau))


@dataclass(frozen=True)
class GameSpec:
    """A fully specified game instance: scores, population, N platforms, choice rule."""

    scores: ScoreMatrix
    population: UserPopulation
    n_platforms: int
    choice: ChoiceRule = field(default_factory=ChoiceRule.hardmax)

    def __post_init__(self):
        if self.scores.n_types != self.population.n_types:
            raise InvalidInstanceError(
                f"score matrix has {self.scores.n_types} type columns but the "
                f"population has {self.population.n_types} types"
            )
        if int(self.n_platforms) < 1:
            raise InvalidInstanceError("n_platforms must be at least 1")
        object.__setattr__(self, "n_platforms", int(self.n_platforms))

    @property
    def n_models(self) -> int:
        return self.scores.n_models

    def with_choice(self, choice: ChoiceRule) -> "GameSpec":
        return GameSpec(self.scores, self.population, self.n_platforms, choice)

    def with_platforms(self, n: int) -> "GameSpec":
        return GameSpec(self.scores, self.population, n, self.choice)

    def with_models(self, m: int) -> "GameSpec":
        """Restrict the pool to the first m models (pool-size sweeps)."""
        sub = ScoreMatrix(self.scores.scores[:m], self.scores.model_labels[:m])
        return GameSpec(sub, self.population, self.n_platforms, self.choice)

    def profile_labels(self, profile: Sequence[int]) -> tuple[str, ...]:
        """Render a 0-based profile with the instance's model labels."""
        return tuple(self.scores.model_labels[i] for i in as_profile(self, profile))


@dataclass(frozen=True)
class StrategyProfile:
    """The vector of model indices chosen by the N platforms (0-based)."""

    choices: tuple[int, ...]

    def __init__(self, choices: Iterable[int]):
        object.__setattr__(self, "choices", tuple(int(c) for c in choices))

    def __len__(self) -> int:
        return len(self.choices)

    def __iter__(self):
        return iter(self.choices)


def as_profile(spec: GameSpec, profile) -> tuple[int, ...]:
    """Normalize a profile-like input to a validated tuple of model indices."""
    return _model_indices(spec, profile, spec.n_platforms)


def _model_indices(spec: GameSpec, profile, n: int) -> tuple[int, ...]:
    choices = tuple(int(c) for c in (profile.choices if isinstance(profile, StrategyProfile) else profile))
    if len(choices) != n:
        raise InvalidProfileError(f"profile has {len(choices)} entries for {n} platforms")
    for c in choices:
        if not 0 <= c < spec.n_models:
            raise InvalidProfileError(f"model index {c} out of range [0, {spec.n_models})")
    return choices


@dataclass(frozen=True)
class AllocationMatrix:
    """Per-platform, per-type user shares (N rows, K columns; columns sum to 1)."""

    p: np.ndarray

    def __init__(self, p):
        arr = _frozen_array(p)
        if arr.ndim != 2:
            raise InvalidInstanceError("allocation must be an N x K matrix")
        if np.any(arr < -WEIGHT_TOL) or np.any(arr > 1 + WEIGHT_TOL):
            raise InvalidInstanceError("allocation entries must lie in [0, 1]")
        col = arr.sum(axis=0)
        if np.any(np.abs(col - 1.0) > WEIGHT_TOL):
            raise InvalidInstanceError("allocation columns must sum to 1")
        object.__setattr__(self, "p", arr)


def _chosen_scores(spec: GameSpec, profile: tuple[int, ...]) -> np.ndarray:
    return spec.scores.scores[list(profile)]


def allocate_hardmax(spec: GameSpec, profile) -> AllocationMatrix:
    """Winner-take-type allocation; per-type ties split evenly.

    Tie detection uses exact equality of the stored score values.
    """
    prof = as_profile(spec, profile)
    chosen = _chosen_scores(spec, prof)
    top = chosen.max(axis=0)
    winners = chosen == top
    return AllocationMatrix(winners / winners.sum(axis=0))


def allocate_softmax(spec: GameSpec, profile, tau: float | None = None) -> AllocationMatrix:
    """Share of each type proportional to exp(score / tau), stabilized per type."""
    if tau is None:
        if spec.choice.kind != "softmax":
            raise InvalidParameterError("allocate_softmax needs a softmax choice rule or an explicit tau")
        tau = spec.choice.tau
    if tau is None or tau <= 0:
        raise InvalidParameterError("tau must be > 0")
    prof = as_profile(spec, profile)
    chosen = _chosen_scores(spec, prof)
    z = chosen / tau
    z = z - z.max(axis=0)
    e = np.exp(z)
    return AllocationMatrix(e / e.sum(axis=0))


def allocate(spec: GameSpec, profile) -> AllocationMatrix:
    """Allocation under the instance's own choice rule."""
    if spec.choice.kind == "hardmax":
        return allocate_hardmax(spec, profile)
    return allocate_softmax(spec, profile)


def platform_utilities(spec: GameSpec, profile) -> np.ndarray:
    """U_i = sum_theta pi_theta * p_i(theta) * S_{f_i}(theta) for each platform."""
    prof = as_profile(spec, profile)
    chosen = _chosen_scores(spec, prof)
    p = allocate(spec, prof).p
    return (p * chosen) @ spec.population.weights


def deviation_values(spec: GameSpec, others) -> np.ndarray:
    """Utility of every model (shape (M,)) for one platform facing the N-1 rivals ``others``.

    Entry g equals ``platform_utilities(spec, (g,) + others)[0]`` up to float
    rounding.  The rivals enter only through one summary per user type: under
    hardmax their best score and how many of them tie on it (a model beating
    it takes the type, a tying one an equal share); under softmax the sum of
    their exponentials, shifted per model by max(S_g, rivals' max) / tau so
    that no share underflows to 0/0 at small tau.
    """
    s = spec.scores.scores
    rivals = s[list(_model_indices(spec, others, spec.n_platforms - 1))]
    if spec.choice.kind == "hardmax":
        top = rivals.max(axis=0, initial=-np.inf)
        ties = (rivals == top).sum(axis=0)
        share = np.where(s > top, 1.0, np.where(s == top, 1.0 / (ties + 1), 0.0))
    else:
        z = s / spec.choice.tau
        rival_z = rivals / spec.choice.tau
        rival_max = rival_z.max(axis=0, initial=-np.inf)
        shift = np.maximum(z, rival_max)
        own = np.exp(z - shift)
        rest = np.exp(rival_z - rival_max).sum(axis=0) * np.exp(rival_max - shift)
        share = own / (own + rest)
    return (share * s) @ spec.population.weights


def average_scores(spec: GameSpec) -> np.ndarray:
    """Population-weighted mean score of every model in the pool."""
    return spec.scores.scores @ spec.population.weights


def deviation_advantage(spec: GameSpec, profile, platform: int) -> float:
    """Tie-aware competitive term for one platform under hardmax semantics.

    Per type, the platform's model earns ((N - A) / A) * S when it is among
    the A tied per-type maximizers and -S otherwise; the result is the
    population-weighted sum.
    """
    prof = as_profile(spec, profile)
    _check_platform(spec, platform)
    chosen = _chosen_scores(spec, prof)
    top = chosen.max(axis=0)
    ties = (chosen == top).sum(axis=0)
    s_i = chosen[platform]
    n = spec.n_platforms
    z = np.where(s_i == top, (n - ties) / ties * s_i, -s_i)
    return float(z @ spec.population.weights)


def deviation_advantage_soft(spec: GameSpec, profile, platform: int, tau: float | None = None) -> float:
    """Softmax analogue of the deviation advantage, with stabilized exponentials."""
    if tau is None:
        if spec.choice.kind != "softmax":
            raise InvalidParameterError("deviation_advantage_soft needs a softmax rule or an explicit tau")
        tau = spec.choice.tau
    if tau is None or tau <= 0:
        raise InvalidParameterError("tau must be > 0")
    prof = as_profile(spec, profile)
    _check_platform(spec, platform)
    chosen = _chosen_scores(spec, prof)
    z = chosen / tau
    z = z - z.max(axis=0)
    e = np.exp(z)
    total = e.sum(axis=0)
    n = spec.n_platforms
    coeff = ((n - 1) * e[platform] - (total - e[platform])) / total
    return float((coeff * chosen[platform]) @ spec.population.weights)


def decomposed_utility(spec: GameSpec, profile, platform: int) -> float:
    """(T_{f_i} + delta_{f_i}) / N with the delta matching the choice rule.

    Identical to ``platform_utilities(spec, profile)[platform]``; kept as a
    separate route so the identity can be cross-checked.
    """
    prof = as_profile(spec, profile)
    _check_platform(spec, platform)
    t = float(average_scores(spec)[prof[platform]])
    if spec.choice.kind == "hardmax":
        d = deviation_advantage(spec, prof, platform)
    else:
        d = deviation_advantage_soft(spec, prof, platform)
    return (t + d) / spec.n_platforms


def _check_platform(spec: GameSpec, platform: int) -> None:
    if not 0 <= platform < spec.n_platforms:
        raise InvalidProfileError(f"platform index {platform} out of range [0, {spec.n_platforms})")
