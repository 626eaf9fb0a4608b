"""Best-response entry training for a new model provider.

The entrant is a finite-outcome generator parameterized by logits, so every
expectation is exactly computable: its per-type score is the reward table
averaged under the outcome distribution, the adoption-weighted objective and
its gradient have closed forms, and the sampling-based scheme's Monte Carlo
estimates can be verified against ground truth.

The market an entrant enters is a ``GameSpec`` whose score matrix holds the
incumbents.

Two training schemes are provided.  ``train_resampling`` rebiases the
training data toward strategically valuable user types and refits the
generator to the resampled data (the loss is untouched).
``train_direct_gradient`` descends on cross-entropy-to-data minus a
competitiveness bonus, with the bonus gradient computed exactly or with a
score-function estimator.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidInstanceError,
    InvalidParameterError,
    MarketGameError,
    TrainingDivergedError,
)
from .equilibrium import DynamicsOutcome, enumerate_pne, run_dynamics
from .game import GameSpec, ScoreMatrix, _frozen_array
from .metrics import MetricsRecord, outcome_metrics

__all__ = [
    "ToyGenerator",
    "RewardTable",
    "TrainingConfig",
    "EntryDataset",
    "RewardBaseline",
    "EntrantReport",
    "adoption_gate",
    "entrant_scores",
    "objective_f",
    "grad_s_exact",
    "grad_f_exact",
    "grad_s_reinforce",
    "resample_weights",
    "train_resampling",
    "train_direct_gradient",
    "evaluate_entrant",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class ToyGenerator:
    """Finite-outcome distribution with logit parameters (all outcomes possible)."""

    outcome_labels: tuple[str, ...]
    logits: np.ndarray

    def __init__(self, outcome_labels: Iterable[str], logits):
        labels = tuple(str(x) for x in outcome_labels)
        phi = _frozen_array(logits)
        if phi.ndim != 1 or phi.shape[0] != len(labels):
            raise InvalidInstanceError("logits must be one value per outcome")
        if not np.all(np.isfinite(phi)):
            raise InvalidInstanceError("logits must be finite")
        if len(labels) < 2:
            raise InvalidInstanceError("a generator needs at least two outcomes")
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "logits", phi)
        if np.any(self.probabilities() <= 0.0):
            raise InvalidInstanceError("logit spread too large: an outcome probability underflowed to 0")

    @property
    def n_outcomes(self) -> int:
        return len(self.outcome_labels)

    def probabilities(self) -> np.ndarray:
        z = self.logits - self.logits.max()
        e = np.exp(z)
        return e / e.sum()

    @staticmethod
    def uniform(outcome_labels: Iterable[str]) -> "ToyGenerator":
        labels = tuple(outcome_labels)
        return ToyGenerator(labels, np.zeros(len(labels)))

    @staticmethod
    def from_distribution(outcome_labels: Iterable[str], probabilities) -> "ToyGenerator":
        p = np.asarray(probabilities, dtype=float)
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-9:
            raise InvalidInstanceError("distribution must be strictly positive and sum to 1")
        return ToyGenerator(outcome_labels, np.log(p))


@dataclass(frozen=True)
class RewardTable:
    """Per-type, per-outcome rewards in [0, 1]."""

    rewards: np.ndarray  # K x |X|

    def __init__(self, rewards):
        r = _frozen_array(rewards)
        if r.ndim != 2:
            raise InvalidInstanceError("rewards must be a K x |X| matrix")
        if np.any(r < 0) or np.any(r > 1) or not np.all(np.isfinite(r)):
            raise InvalidInstanceError("rewards must lie in [0, 1]")
        object.__setattr__(self, "rewards", r)

    @property
    def n_types(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.rewards.shape[1]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters shared by both entry-training schemes."""

    beta: float = 4.0
    gamma: float = 1.0
    lam: float = 0.4
    outer_rounds: int = 5
    inner_epochs: int = 50
    eval_budget: int = 2000
    learning_rate: float = 0.05
    baseline_decay: float = 0.9
    blend: float = 0.5
    seed: int = 0

    def __post_init__(self):
        # a bool is an int to Python, but never a count or a weight here
        for name in ("outer_rounds", "inner_epochs", "eval_budget", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParameterError(f"{name} must be an integer (got {value!r})")
        for name, value in (("beta", self.beta), ("gamma", self.gamma), ("lambda", self.lam),
                            ("learning_rate", self.learning_rate),
                            ("baseline_decay", self.baseline_decay), ("blend", self.blend)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidParameterError(f"{name} must be a number (got {value!r})")
        if not self.beta > 0:
            raise InvalidParameterError("beta must be > 0")
        if self.gamma < 0:
            raise InvalidParameterError("gamma must be >= 0")
        if self.lam < 0:
            raise InvalidParameterError("lambda must be >= 0")
        if self.outer_rounds < 1:
            raise InvalidParameterError("outer_rounds must be >= 1")
        if self.inner_epochs < 0:
            raise InvalidParameterError("inner_epochs must be >= 0")
        if self.eval_budget < 1:
            raise InvalidParameterError("eval_budget must be >= 1")
        if not self.learning_rate > 0:
            raise InvalidParameterError("learning_rate must be > 0")
        if not 0 <= self.baseline_decay < 1:
            raise InvalidParameterError("baseline_decay must lie in [0, 1)")
        if not 0 < self.blend <= 1:
            raise InvalidParameterError("blend must lie in (0, 1]")


@dataclass(frozen=True)
class EntryDataset:
    """Training items, one bucket per outcome, with optional attribute structure.

    ``counts`` are the empirical item counts per outcome.  When ``attributes``
    labels each outcome with one of the attribute values and
    ``type_attribute_prefs`` gives each user type a distribution over those
    values, the structured resampling mode is available.
    """

    outcome_labels: tuple[str, ...]
    counts: np.ndarray
    attributes: tuple[str, ...] | None = None
    attribute_labels: tuple[str, ...] = ()
    type_attribute_prefs: np.ndarray | None = None  # K x |U|, rows sum to 1

    def __init__(self, outcome_labels, counts, attributes=None, attribute_labels=(),
                 type_attribute_prefs=None):
        labels = tuple(str(x) for x in outcome_labels)
        c = _frozen_array(counts)
        if c.ndim != 1 or c.shape[0] != len(labels):
            raise InvalidInstanceError("counts must be one value per outcome")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise InvalidInstanceError("counts must be finite and non-negative")
        if float(c.sum()) <= 0:
            raise InvalidInstanceError("dataset must contain at least one item")
        attrs = None
        attr_labels = tuple(str(u) for u in attribute_labels)
        prefs = None
        if attributes is not None:
            attrs = tuple(str(u) for u in attributes)
            if len(attrs) != len(labels):
                raise InvalidInstanceError("attributes must label every outcome")
            if not attr_labels:
                attr_labels = tuple(dict.fromkeys(attrs))
            if not set(attrs) <= set(attr_labels):
                raise InvalidInstanceError("attributes must come from attribute_labels")
            if type_attribute_prefs is None:
                raise InvalidInstanceError("structured datasets need type_attribute_prefs")
            prefs = _frozen_array(type_attribute_prefs)
            if prefs.ndim != 2 or prefs.shape[1] != len(attr_labels):
                raise InvalidInstanceError("type_attribute_prefs must be K x |attributes|")
            if np.any(prefs < 0) or np.any(np.abs(prefs.sum(axis=1) - 1.0) > 1e-9):
                raise InvalidInstanceError("each type's attribute preferences must sum to 1")
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "attribute_labels", attr_labels)
        object.__setattr__(self, "type_attribute_prefs", prefs)

    @property
    def structured(self) -> bool:
        return self.attributes is not None

    def empirical_distribution(self) -> np.ndarray:
        return self.counts / self.counts.sum()


@dataclass
class RewardBaseline:
    """Per-type moving-average reward baseline for the score-function estimator."""

    values: np.ndarray
    decay: float

    @staticmethod
    def zeros(n_types: int, decay: float) -> "RewardBaseline":
        return RewardBaseline(np.zeros(n_types), float(decay))

    def update(self, type_index: int, mean_reward: float) -> None:
        self.values[type_index] = self.decay * self.values[type_index] + (1.0 - self.decay) * mean_reward


# ---------------------------------------------------------------------------
# objective and gradients
# ---------------------------------------------------------------------------

def entrant_scores(gen: ToyGenerator, rewards: RewardTable) -> np.ndarray:
    """Exact per-type expected reward of the generator."""
    if rewards.n_outcomes != gen.n_outcomes:
        raise InvalidInstanceError("reward table and generator disagree on outcomes")
    return rewards.rewards @ gen.probabilities()


def adoption_gate(s_phi: np.ndarray, market: GameSpec, beta: float) -> np.ndarray:
    """Sigmoid gate on the entrant's margin over the market's best incumbent, per type."""
    if not beta > 0:
        raise InvalidParameterError("beta must be > 0")
    s = np.asarray(s_phi, dtype=float)
    if s.shape != (market.population.n_types,):
        raise InvalidInstanceError("s_phi must have one entry per user type")
    return _sigmoid(beta * (s - market.scores.scores.max(axis=0)))


def objective_f(gen: ToyGenerator, rewards: RewardTable, market: GameSpec, beta: float) -> float:
    """Adoption-weighted quality: sum over types of pi * gate * score."""
    s = entrant_scores(gen, rewards)
    sigma = adoption_gate(s, market, beta)
    return float(market.population.weights @ (sigma * s))


def grad_s_exact(gen: ToyGenerator, rewards: RewardTable, type_index: int) -> np.ndarray:
    """Exact logit-gradient of one type's score: p * (r - S)."""
    p = gen.probabilities()
    r = rewards.rewards[type_index]
    s = float(r @ p)
    return p * (r - s)


def _gate_coefficients(s: np.ndarray, market: GameSpec, beta: float) -> np.ndarray:
    """Each type's weight pi * (sigma + beta * sigma * (1 - sigma) * S) on dS/dphi
    in the objective's gradient: the chain rule through the gate."""
    sigma = adoption_gate(s, market, beta)
    return market.population.weights * (sigma + beta * sigma * (1.0 - sigma) * s)


def grad_f_exact(gen: ToyGenerator, rewards: RewardTable, market: GameSpec,
                 beta: float) -> np.ndarray:
    """Exact logit-gradient of the adoption-weighted objective."""
    p = gen.probabilities()
    s = rewards.rewards @ p
    coeff = _gate_coefficients(s, market, beta)
    # sum_theta coeff * p * (r_theta - S_theta), vectorized over outcomes
    weighted = coeff @ (rewards.rewards - s[:, None])
    return p * weighted


def grad_s_reinforce(gen: ToyGenerator, rewards: RewardTable, type_index: int,
                     n_samples: int, baseline: RewardBaseline,
                     rng: np.random.Generator) -> np.ndarray:
    """Score-function estimate of one type's score gradient from seeded draws.

    Uses the baseline value from before this call (so the estimator stays
    unbiased) and then folds the batch's mean reward into the moving average.
    """
    if n_samples < 1:
        raise InvalidParameterError("n_samples must be >= 1")
    p = gen.probabilities()
    draws = rng.choice(gen.n_outcomes, size=n_samples, p=p)
    r = rewards.rewards[type_index][draws]
    b = float(baseline.values[type_index])
    adv = r - b
    grad = np.bincount(draws, weights=adv, minlength=gen.n_outcomes) / n_samples
    grad -= adv.mean() * p
    baseline.update(type_index, float(r.mean()))
    return grad


# ---------------------------------------------------------------------------
# resampling scheme
# ---------------------------------------------------------------------------

def resample_weights(dataset: EntryDataset, s_phi: np.ndarray, market: GameSpec,
                     beta: float, gamma: float,
                     rewards: RewardTable | None = None) -> np.ndarray:
    """Per-item sampling probabilities that bias training toward valuable types.

    Type weights are alpha = pi * gate**gamma * best_incumbent_score.  In the
    structured mode each attribute value u gets mass proportional to
    sum_theta alpha_theta * q_theta(u), split within u by the items' counts.
    In the unstructured mode items are weighted by the types' sum-normalized
    rewards instead.  The result sums to 1 over items with non-zero counts.
    """
    if gamma < 0:
        raise InvalidParameterError("gamma must be >= 0")
    population = market.population
    sigma = adoption_gate(np.asarray(s_phi, dtype=float), market, beta)
    alpha = population.weights * np.power(sigma, gamma) * market.scores.scores.max(axis=0)
    counts = dataset.counts
    present = counts > 0

    if dataset.structured:
        prefs = dataset.type_attribute_prefs
        if prefs.shape[0] != population.n_types:
            raise InvalidInstanceError("type_attribute_prefs rows must match the population")
        attr_mass = alpha @ prefs  # over attribute values
        attr_index = np.array([dataset.attribute_labels.index(u) for u in dataset.attributes])
        attr_counts = np.bincount(attr_index, weights=counts, minlength=len(dataset.attribute_labels))
        w = np.zeros(len(counts))
        nonempty = attr_counts[attr_index] > 0
        w[nonempty] = (
            attr_mass[attr_index[nonempty]] * counts[nonempty] / attr_counts[attr_index[nonempty]]
        )
    else:
        if rewards is None:
            raise InvalidInstanceError("unstructured resampling needs a reward table")
        if rewards.n_outcomes != len(counts) or rewards.n_types != population.n_types:
            raise InvalidInstanceError("reward table does not match the dataset and population")
        totals = rewards.rewards.sum(axis=1, keepdims=True)
        v = np.divide(rewards.rewards, totals, out=np.zeros_like(rewards.rewards), where=totals > 0)
        w = alpha @ v
        w = np.where(present, w, 0.0)

    total = float(w.sum())
    if total <= 0:
        raise MarketGameError("resampling weights are all zero: no trainable signal")
    return w / total


def _estimate_scores(gen: ToyGenerator, rewards: RewardTable, budget: int,
                     rng: np.random.Generator) -> np.ndarray:
    draws = rng.choice(gen.n_outcomes, size=budget, p=gen.probabilities())
    freq = np.bincount(draws, minlength=gen.n_outcomes) / budget
    return rewards.rewards @ freq


def _initial_generator(dataset: EntryDataset, init: ToyGenerator | None) -> ToyGenerator:
    if init is not None:
        if init.n_outcomes != len(dataset.outcome_labels):
            raise InvalidInstanceError("initial generator does not match the dataset outcomes")
        return init
    base = dataset.empirical_distribution()
    # zero-count outcomes get a vanishing floor so all logits stay finite
    floored = np.maximum(base, 1e-12)
    return ToyGenerator.from_distribution(dataset.outcome_labels, floored / floored.sum())


def train_resampling(dataset: EntryDataset, rewards: RewardTable, market: GameSpec,
                     config: TrainingConfig,
                     init: ToyGenerator | None = None) -> tuple[ToyGenerator, list[dict]]:
    """Outer resampling rounds around an inner maximum-likelihood refit.

    Each round estimates the entrant's per-type scores from ``eval_budget``
    seeded draws, computes resampling weights, redraws the dataset, and runs
    ``inner_epochs`` blended-frequency updates toward the resampled empirical
    distribution.  The trace records exact scores and objective per round.
    The surrogate gate reads only the market's population and best-incumbent
    row, not its platform count or choice rule.
    """
    rng = np.random.default_rng(config.seed)
    gen = _initial_generator(dataset, init)
    total = int(round(float(dataset.counts.sum())))

    def trace_row(round_index: int) -> dict:
        s = entrant_scores(gen, rewards)
        return {
            "round": round_index,
            "scores": tuple(float(x) for x in s),
            "objective": objective_f(gen, rewards, market, config.beta),
        }

    trace = [trace_row(0)]
    for t in range(1, config.outer_rounds + 1):
        s_hat = _estimate_scores(gen, rewards, config.eval_budget, rng)
        weights = resample_weights(
            dataset, s_hat, market, config.beta, config.gamma, rewards=rewards
        )
        resampled = rng.multinomial(total, weights)
        target = resampled / total
        p = gen.probabilities()
        for _ in range(config.inner_epochs):
            p = (1.0 - config.blend) * p + config.blend * target
        if np.any(p <= 0):
            # blend=1 with a zero-count resample would kill an outcome; keep
            # the all-outcomes-possible invariant with a vanishing floor
            p = np.maximum(p, 1e-12)
            p = p / p.sum()
        gen = ToyGenerator(dataset.outcome_labels, np.log(p))
        trace.append(trace_row(t))
    return gen, trace


# ---------------------------------------------------------------------------
# direct-gradient scheme
# ---------------------------------------------------------------------------

def _cross_entropy(q_hat: np.ndarray, gen: ToyGenerator) -> float:
    logp = gen.logits - gen.logits.max()
    logp = logp - np.log(np.exp(logp).sum())
    return float(-(q_hat @ logp))


def train_direct_gradient(dataset: EntryDataset, rewards: RewardTable, market: GameSpec,
                          config: TrainingConfig,
                          estimator: str = "exact",
                          init: ToyGenerator | None = None) -> tuple[ToyGenerator, list[dict]]:
    """Gradient descent on cross-entropy-to-data minus lambda times the objective.

    With ``lam == 0`` the run is plain maximum likelihood and the step size
    is halved whenever an epoch would increase the cross-entropy by more than
    1e-9, so the loss trace is monotone.  Gradients of the objective come
    from the exact formula or, with ``estimator="reinforce"``, from the
    baselined score-function estimator on seeded draws.  The surrogate gate
    reads only the market's population and best-incumbent row, not its
    platform count or choice rule.
    """
    if estimator not in ("exact", "reinforce"):
        raise InvalidParameterError(f"unknown estimator {estimator!r}")
    if config.inner_epochs < 1:
        raise InvalidParameterError("direct-gradient training needs inner_epochs >= 1")
    rng = np.random.default_rng(config.seed)
    gen = _initial_generator(dataset, init)
    q_hat = dataset.empirical_distribution()
    n_types = market.population.n_types
    baseline = RewardBaseline.zeros(n_types, config.baseline_decay)
    eta = config.learning_rate

    def trace_row(epoch: int) -> dict:
        ell = _cross_entropy(q_hat, gen)
        f = objective_f(gen, rewards, market, config.beta)
        return {"epoch": epoch, "cross_entropy": ell, "objective": f,
                "loss": ell - config.lam * f,
                "scores": tuple(float(x) for x in entrant_scores(gen, rewards))}

    trace = [trace_row(0)]
    for epoch in range(1, config.inner_epochs + 1):
        p = gen.probabilities()
        grad_ell = p - q_hat
        if config.lam > 0:
            if estimator == "exact":
                grad_f = grad_f_exact(gen, rewards, market, config.beta)
            else:
                coeff = _gate_coefficients(entrant_scores(gen, rewards), market, config.beta)
                grad_f = np.zeros(gen.n_outcomes)
                for k in range(n_types):
                    grad_f += coeff[k] * grad_s_reinforce(
                        gen, rewards, k, config.eval_budget, baseline, rng
                    )
        else:
            grad_f = np.zeros(gen.n_outcomes)
        step = grad_ell - config.lam * grad_f

        while True:
            candidate = ToyGenerator(dataset.outcome_labels, gen.logits - eta * step)
            if config.lam == 0:
                before = _cross_entropy(q_hat, gen)
                after = _cross_entropy(q_hat, candidate)
                if after > before + 1e-9:
                    eta *= 0.5
                    if eta < 1e-18:
                        raise TrainingDivergedError("step size collapsed during backtracking", trace)
                    continue
            break

        gen = candidate
        row = trace_row(epoch)
        if not all(np.isfinite(v) for v in (row["cross_entropy"], row["objective"], row["loss"])):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", trace)
        trace.append(row)
    return gen, trace


# ---------------------------------------------------------------------------
# post-training market evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntrantReport:
    spec: GameSpec
    entrant_index: int
    entrant_score_row: tuple[float, ...]
    pne: tuple[tuple[int, ...], ...]
    outcome: DynamicsOutcome
    metrics: MetricsRecord
    adopted: bool


def evaluate_entrant(entrant: ToyGenerator, rewards: RewardTable, market: GameSpec,
                     entrant_label: str = "entrant",
                     start: Sequence[int] | None = None,
                     max_steps: int = 1000) -> EntrantReport:
    """Append the entrant's exact score row to the market and re-analyze the game.

    The post-entry game keeps the market's population, platform count and
    choice rule.  The entrant counts as adopted when its model index appears
    in some pure equilibrium or, failing convergence, in the detected cycle's
    profiles.
    """
    if rewards.n_types != market.population.n_types:
        raise InvalidInstanceError("rewards and the market's population disagree on user types")
    row = entrant_scores(entrant, rewards)
    incumbents = market.scores
    stacked = ScoreMatrix(
        np.vstack([incumbents.scores, np.clip(row, 0.0, None)]),
        model_labels=list(incumbents.model_labels) + [entrant_label],
    )
    spec = GameSpec(stacked, market.population, market.n_platforms, market.choice)
    entrant_index = incumbents.n_models
    pne = tuple(enumerate_pne(spec))
    outcome = run_dynamics(spec, tuple(start) if start is not None else (0,) * spec.n_platforms,
                           max_steps=max_steps)
    adopted = any(entrant_index in p for p in pne)
    if outcome.kind == "cycle":
        adopted = adopted or any(entrant_index in p for p in outcome.cycle_profiles)
    return EntrantReport(
        spec=spec,
        entrant_index=entrant_index,
        entrant_score_row=tuple(float(x) for x in row),
        pne=pne,
        outcome=outcome,
        metrics=outcome_metrics(spec, outcome),
        adopted=adopted,
    )
