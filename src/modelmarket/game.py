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
from itertools import combinations_with_replacement, islice
import math
import operator
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import CHOICE, GMM, N_PLATFORMS, check
from .errors import InvalidInstanceError, InvalidParameterError, InvalidProfileError

__all__ = [
    "WEIGHT_TOL",
    "SCALE_LIMIT",
    "UserPopulation",
    "ScoreMatrix",
    "ChoiceRule",
    "GameSpec",
    "allocate",
    "platform_utilities",
    "deviation_values",
    "average_scores",
    "deviation_advantage",
]

WEIGHT_TOL = 1e-9
# Bound on N times the largest score.  Utilities, deviation terms and their
# sums over N platforms stay below N * max score (times a weight total within
# WEIGHT_TOL of 1), so half the largest float leaves none of them overflowing.
SCALE_LIMIT = sys.float_info.max / 2
# Floats per array in one block (128 KiB), so memory stays bounded at any M, N and K.
# The multiset kernels, margin reports and resampling estimate walk blocks; a best
# response and ``verify_pne`` hold one (M, K) stack.  ``_reinforce_gradients`` keeps a
# type's draws in one row past a block: splitting numpy's pairwise row sums moves bits.
_BLOCK_ELEMENTS = 1 << 14


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _labels(labels, name: str, count: int = 0, prefix: str = "t") -> tuple[str, ...]:
    """``labels`` as a tuple of distinct strings, or an InvalidInstanceError naming
    them ``name``; None gives the defaults ``prefix`` 1, 2, ..., ``count``."""
    if labels is None:
        return tuple(f"{prefix}{i + 1}" for i in range(count))
    labels = tuple(map(str, labels))
    if len(set(labels)) != len(labels):
        raise InvalidInstanceError(f"{name} must be unique")
    return labels


def _outcome_cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``rng.choice`` inverts: running sums of ``p``, the last exactly 1."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True, eq=False)
class UserPopulation:
    """A finite set of user types with a probability weight per type; labels
    None are ``t1``, ``t2``, ..."""

    type_labels: tuple[str, ...]
    weights: np.ndarray

    def __init__(self, type_labels: Iterable[str] | None, weights: Iterable[float]):
        w = _frozen_array(weights)
        labels = _labels(type_labels, "user type labels", w.size)
        if w.ndim != 1 or w.shape[0] != len(labels):
            raise InvalidInstanceError("weights must be a vector matching type_labels")
        if len(labels) == 0:
            raise InvalidInstanceError("population needs at least one user type")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidInstanceError("weights must be finite and non-negative")
        if not abs(float(w.sum()) - 1.0) <= WEIGHT_TOL:
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
    def uniform(k: int) -> "UserPopulation":
        check(k, GMM["k_types"], "k", InvalidInstanceError)
        return UserPopulation(None, np.full(k, 1.0 / k))


@dataclass(frozen=True, eq=False)
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
        labels = _labels(model_labels, "model labels", s.shape[0], "g")
        if len(labels) != s.shape[0]:
            raise InvalidInstanceError("model_labels must match the number of score rows")
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
    """User choice rule: deterministic hardmax or temperature-tau softmax; only softmax has a tau."""

    kind: str
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("hardmax", "softmax"):
            raise InvalidParameterError(f"unknown choice rule {self.kind!r}")
        if self.kind == "softmax":  # a float, so that outputs echo a tau of 1 as 1.0
            object.__setattr__(self, "tau", float(check(self.tau, CHOICE["tau"], "tau",
                                                        InvalidParameterError)))
        elif self.tau is not None:
            raise InvalidParameterError(f"a hardmax choice rule takes no tau (got {self.tau!r})")

    @staticmethod
    def hardmax() -> "ChoiceRule":
        return ChoiceRule("hardmax")

    @staticmethod
    def softmax(tau: float) -> "ChoiceRule":
        return ChoiceRule("softmax", tau)


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
        n = operator.index(check(self.n_platforms, N_PLATFORMS, "n_platforms", InvalidInstanceError))
        # in Python floats, whose arithmetic overflows to inf without a numpy
        # warning; an int n above SCALE_LIMIT would not convert to a float
        largest = float(self.scores.scores.max())
        if not (n <= SCALE_LIMIT and n * largest <= SCALE_LIMIT):
            raise InvalidInstanceError(
                f"{n} platforms times the largest score {largest!r} exceeds {SCALE_LIMIT!r}")
        if self.choice.kind == "softmax" and not math.isfinite(largest / self.choice.tau):
            raise InvalidParameterError(f"softmax tau {self.choice.tau!r} is too small for the score scale")
        object.__setattr__(self, "n_platforms", n)

    @property
    def n_models(self) -> int:
        return self.scores.n_models

    def with_choice(self, choice: ChoiceRule) -> "GameSpec":
        return GameSpec(self.scores, self.population, self.n_platforms, choice)

    def with_platforms(self, n: int) -> "GameSpec":
        return GameSpec(self.scores, self.population, n, self.choice)

    def with_models(self, m: int) -> "GameSpec":
        """The first m models only (pool-size sweeps), m read as an index argument is."""
        try:
            m = operator.index(m)
        except TypeError:
            raise InvalidInstanceError(f"model count must be an integer (got {m!r})") from None
        if not 1 <= m <= self.n_models:
            raise InvalidInstanceError(f"model count {m} out of range [1, {self.n_models}]")
        sub = ScoreMatrix(self.scores.scores[:m], self.scores.model_labels[:m])
        return GameSpec(sub, self.population, self.n_platforms, self.choice)

    def profile_labels(self, profile: Sequence[int]) -> tuple[str, ...]:
        """Render a 0-based profile with the instance's model labels."""
        return tuple(self.scores.model_labels[i] for i in as_profile(self, profile))


def as_profile(spec: GameSpec, profile) -> tuple[int, ...]:
    """Normalize a profile-like input to a validated tuple of model indices."""
    return _model_indices(spec, profile, spec.n_platforms)


def _index(value, n: int, name: str, error: type) -> int:
    """``value`` as an index in [0, n), read as a profile entry is, or an ``error`` naming it."""
    try:
        i = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer (got {value!r})") from None
    if not 0 <= i < n:
        raise error(f"{name} {i} out of range [0, {n})")
    return i


def _model_indices(spec: GameSpec, profile, n: int) -> tuple[int, ...]:
    try:
        choices = tuple(map(operator.index, profile))
    except TypeError:
        raise InvalidProfileError(
            f"a profile must be a list of model indices (got {profile!r})"
        ) from None
    if len(choices) != n:
        raise InvalidProfileError(f"profile has {len(choices)} entries for {n} platforms")
    m = spec.n_models
    for c in choices:
        if not 0 <= c < m:
            raise InvalidProfileError(f"model index {c} out of range [0, {m})")
    return choices


def _chosen_scores(spec: GameSpec, profile: tuple[int, ...]) -> np.ndarray:
    return spec.scores.scores.take(profile, axis=0)


def _shares(choice: ChoiceRule, chosen: np.ndarray) -> np.ndarray:
    """Raw user shares of the chosen score rows under ``choice``, platforms on axis -2:
    a stack of profiles (..., N, K) is scored as each (N, K) profile alone, bit for bit."""
    if choice.kind == "hardmax":
        winners = chosen == chosen.max(axis=-2, keepdims=True)
        return winners / winners.sum(axis=-2, keepdims=True)
    z = chosen / choice.tau
    e = np.exp(z - z.max(axis=-2, keepdims=True))
    return e / e.sum(axis=-2, keepdims=True)


def _deviation_advantage(choice: ChoiceRule, chosen: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per type a platform with share p and score S earns (N * p - 1) * S; (..., N, K) -> (..., N)."""
    return ((chosen.shape[-2] * _shares(choice, chosen) - 1.0) * chosen) @ weights


def allocate(spec: GameSpec, profile) -> np.ndarray:
    """Per-platform, per-type user shares under the instance's choice rule, a
    read-only (N, K) array whose columns sum to 1.

    Hardmax gives each type to the platforms with its top score and splits
    exact ties (equality of the stored score values) evenly; softmax shares
    each type in proportion to exp(score / tau), stabilized per type.
    """
    return _frozen_array(_shares(spec.choice, _chosen_scores(spec, as_profile(spec, profile))))


def platform_utilities(spec: GameSpec, profile) -> np.ndarray:
    """U_i = sum_theta pi_theta * p_i(theta) * S_{f_i}(theta) for each platform."""
    chosen = _chosen_scores(spec, as_profile(spec, profile))
    return (_shares(spec.choice, chosen) * chosen) @ spec.population.weights


def deviation_values(spec: GameSpec, others) -> np.ndarray:
    """Utility of every model (shape (M,)) for one platform facing the N-1 rivals ``others``.

    Entry g equals ``platform_utilities(spec, (g,) + others)[0]`` up to float
    rounding, with the same bits in any order of ``others``.  The rivals enter
    only through one summary per user type: under hardmax their best score and
    how many of them tie on it (a model beating it takes the type, a tying one
    an equal share); under softmax the sum of their exponentials, shifted per
    model by max(S_g, rivals' max) / tau so that no share underflows to 0/0 at
    small tau.
    """
    return _deviation_block(spec, _model_indices(spec, others, spec.n_platforms - 1))


def _deviation_block(spec: GameSpec, rivals) -> np.ndarray:
    """``deviation_values`` against each of B rival multisets: (B, N-1) model indices -> (B, M).

    A tuple of N-1 indices gives shape (M,), which is ``deviation_values``.
    This is the one place that orders rivals: they are sorted before their
    score rows are gathered, so the softmax sum over them runs in one order
    and every value is a function of the rival multiset.  Row b of a block is
    bit-equal to the one-stack call on ``rivals[b]``: the final (B, M, K) @ w
    runs one gemv per stack, as the (M, K) @ w of one stack does.
    """
    s = spec.scores.scores
    # a tuple of rivals sorts faster as a list than as an array
    order = np.sort(rivals, axis=-1) if isinstance(rivals, np.ndarray) else sorted(rivals)
    chosen = s.take(order, axis=0)
    if spec.choice.kind == "hardmax":
        top = chosen.max(axis=-2, keepdims=True, initial=-np.inf)
        ties = (chosen == top).sum(axis=-2, keepdims=True, dtype=float)
        # 1 / (ties + 1) for a tying model, else 1.0 or 0.0 from the bool
        share = np.where(s == top, 1.0 / (ties + 1.0), s > top)
    else:
        z = s / spec.choice.tau
        rival_z = chosen / spec.choice.tau
        rival_max = rival_z.max(axis=-2, keepdims=True, initial=-np.inf)
        shift = np.maximum(z, rival_max)
        own = np.exp(z - shift)
        rest = np.exp(rival_z - rival_max).sum(axis=-2, keepdims=True) * np.exp(rival_max - shift)
        share = own / (own + rest)
    # in place: one (M, K) array fewer, so back-to-back calls reuse freed pages
    return np.multiply(share, s, out=share) @ spec.population.weights


def _multiset_blocks(m: int, size: int, row_elements: int) -> Iterator[np.ndarray]:
    """Every multiset of ``size`` models out of ``m``, as (B, size) index arrays.

    The multisets come as ``combinations_with_replacement(range(m), size)``
    gives them: each a nondecreasing tuple, in lexicographic order, so the
    concatenated blocks run through them in that order.  ``enumerate_pne``'s
    table rows and ``social_optimum``'s first maximiser, its canonical
    profile, follow this order.  B is chosen so that a block's per-row
    intermediates of ``row_elements`` floats hold at most ``_BLOCK_ELEMENTS``
    in all, whatever M, N and K are.
    """
    it = combinations_with_replacement(range(m), size)
    rows = max(1, _BLOCK_ELEMENTS // row_elements)
    while batch := list(islice(it, rows)):
        yield np.array(batch, dtype=np.intp)


def average_scores(spec: GameSpec) -> np.ndarray:
    """Population-weighted mean score of every model in the pool."""
    return spec.scores.scores @ spec.population.weights


def deviation_advantage(spec: GameSpec, profile) -> np.ndarray:
    """Competitive term of every platform (shape (N,)): U_i = (T_{f_i} + delta_i) / N.

    With p_i(theta) the platform's share of type theta under the instance's
    choice rule, delta_i = sum_theta pi_theta * (N * p_i(theta) - 1) * S_{f_i}(theta):
    under hardmax ((N - A) / A) * S for each of A tied maximizers and -S for
    any other platform.
    """
    chosen = _chosen_scores(spec, as_profile(spec, profile))
    return _deviation_advantage(spec.choice, chosen, spec.population.weights)
