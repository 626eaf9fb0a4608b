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

from typing import Iterable, Sequence

import numpy as np

from .config import PARAMS, RENAMED, check
from .errors import MarketGameError, TrainingDivergedError
from .equilibrium import DynamicsOutcome, run_dynamics
from .game import (_BLOCK_ELEMENTS, WEIGHT_TOL, GameSpec, Record, ScoreMatrix, _frozen_array, _index,
                   _labels, _outcome_cdf)
from .metrics import MetricsRecord, analyze, outcome_metrics

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
    "grad_f_exact",
    "grad_s_reinforce",
    "resample_weights",
    "train_resampling",
    "train_direct_gradient",
    "evaluate_entrant",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; minimum(x, -x) is -|x| that keeps a NaN's sign
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class ToyGenerator(Record, eq=False):
    """Finite-outcome distribution with logit parameters (all outcomes possible)
    over distinct outcome labels."""

    outcome_labels: tuple[str, ...]
    logits: np.ndarray

    def __init__(self, outcome_labels: Iterable[str], logits):
        labels = _labels(outcome_labels, "outcome labels")
        phi = _frozen_array(logits)
        if phi.ndim != 1 or phi.shape[0] != len(labels):
            raise MarketGameError("logits must be one value per outcome")
        if not np.all(np.isfinite(phi)):
            raise MarketGameError("logits must be finite")
        if len(labels) < 2:
            raise MarketGameError("a generator needs at least two outcomes")
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "logits", phi)
        e = np.exp(phi - phi.max())
        exp_sum = e.sum()
        p = _frozen_array(e / exp_sum)
        if not np.all(p > 0.0):
            raise MarketGameError("logit spread too large: an outcome probability underflowed to 0")
        # not fields: functions of the logits, computed once (_cross_entropy reads the sum)
        object.__setattr__(self, "_probabilities", p)
        object.__setattr__(self, "_exp_sum", exp_sum)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcome_labels)

    def probabilities(self) -> np.ndarray:
        """The outcome distribution (a read-only array)."""
        return self._probabilities

    @staticmethod
    def uniform(outcome_labels: Iterable[str]) -> "ToyGenerator":
        labels = tuple(outcome_labels)
        return ToyGenerator(labels, np.zeros(len(labels)))

    @staticmethod
    def from_distribution(outcome_labels: Iterable[str], probabilities) -> "ToyGenerator":
        p = np.asarray(probabilities, dtype=float)
        if not (np.all(p > 0) and abs(p.sum() - 1.0) <= WEIGHT_TOL):
            raise MarketGameError("distribution must be strictly positive and sum to 1")
        return ToyGenerator(outcome_labels, np.log(p))


class RewardTable(Record, eq=False):
    """Per-type, per-outcome rewards in [0, 1]."""

    rewards: np.ndarray  # K x |X|

    def __init__(self, rewards):
        r = _frozen_array(rewards)
        if r.ndim != 2:
            raise MarketGameError("rewards must be a K x |X| matrix")
        if np.any(r < 0) or np.any(r > 1) or not np.all(np.isfinite(r)):
            raise MarketGameError("rewards must lie in [0, 1]")
        object.__setattr__(self, "rewards", r)

    @property
    def n_types(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.rewards.shape[1]


class TrainingConfig(Record):
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
        for key, field in PARAMS.items():  # training.params, each under its config key
            check(getattr(self, RENAMED.get(key, key)), field, key)


class EntryDataset(Record, eq=False):
    """Training items, one bucket per outcome, with optional attribute structure.

    Outcome labels and attribute labels are each distinct strings.
    ``counts`` are the empirical item counts per outcome.  When ``attributes``
    labels each outcome with one of the attribute values and
    ``type_attribute_prefs`` gives each user type a distribution over those
    values, the structured resampling mode is available; neither of the two,
    not even an empty label list, is taken without ``attributes``.
    """

    outcome_labels: tuple[str, ...]
    counts: np.ndarray
    attributes: tuple[str, ...] | None = None
    attribute_labels: tuple[str, ...] = ()
    type_attribute_prefs: np.ndarray | None = None  # K x |U|, rows sum to 1

    def __init__(self, outcome_labels, counts, attributes=None, attribute_labels=None,
                 type_attribute_prefs=None):
        labels = _labels(outcome_labels, "outcome labels")
        c = _frozen_array(counts)
        if c.ndim != 1 or c.shape[0] != len(labels):
            raise MarketGameError("counts must be one value per outcome")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise MarketGameError("counts must be finite and non-negative")
        with np.errstate(over="ignore"):  # a total past the largest float is refused below
            total = float(c.sum())
        if not total > 0:
            raise MarketGameError("dataset must contain at least one item")
        if not np.isfinite(total):
            raise MarketGameError(f"counts must sum to a finite total (got {total!r})")
        attrs = None
        attr_labels = _labels(attribute_labels, "attribute labels")
        prefs = None
        if attributes is None and (attribute_labels is not None or type_attribute_prefs is not None):
            raise MarketGameError("attribute_labels and type_attribute_prefs need attributes")
        if attributes is not None:
            attrs = tuple(str(u) for u in attributes)
            if len(attrs) != len(labels):
                raise MarketGameError("attributes must label every outcome")
            if attribute_labels is None:
                attr_labels = tuple(dict.fromkeys(attrs))
            if not set(attrs) <= set(attr_labels):
                raise MarketGameError("attributes must come from attribute_labels")
            if type_attribute_prefs is None:
                raise MarketGameError("structured datasets need type_attribute_prefs")
            prefs = _frozen_array(type_attribute_prefs)
            if prefs.ndim != 2 or prefs.shape[1] != len(attr_labels):
                raise MarketGameError("type_attribute_prefs must be K x |attributes|")
            if not (np.all(prefs >= 0) and np.all(np.abs(prefs.sum(axis=1) - 1.0) <= WEIGHT_TOL)):
                raise MarketGameError("each type's attribute preferences must sum to 1")
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


class RewardBaseline(Record, eq=False):
    """Per-type moving-average reward baseline for the score-function estimator."""

    values: np.ndarray
    decay: float

    @staticmethod
    def zeros(n_types: int, decay: float) -> "RewardBaseline":
        return RewardBaseline(np.zeros(n_types), float(decay))

    def update(self, type_index, mean_reward) -> None:
        """Fold mean rewards into the averages: one type and a float, or an
        array of distinct types and one mean each."""
        self.values[type_index] = self.decay * self.values[type_index] + (1.0 - self.decay) * mean_reward


# ---------------------------------------------------------------------------
# objective and gradients
# ---------------------------------------------------------------------------

def entrant_scores(gen: ToyGenerator, rewards: RewardTable) -> np.ndarray:
    """Exact per-type expected reward of the generator."""
    if rewards.n_outcomes != gen.n_outcomes:
        raise MarketGameError("reward table and generator disagree on outcomes")
    return rewards.rewards @ gen.probabilities()


def adoption_gate(s_phi: np.ndarray, market: GameSpec, beta: float) -> np.ndarray:
    """Sigmoid gate on the entrant's margin over the market's best incumbent, per type."""
    check(beta, PARAMS["beta"], "beta")
    s = np.asarray(s_phi, dtype=float)
    if s.shape != (market.population.n_types,):
        raise MarketGameError("s_phi must have one entry per user type")
    return _sigmoid(beta * (s - market.scores.scores.max(axis=0)))


def objective_f(gen: ToyGenerator, rewards: RewardTable, market: GameSpec, beta: float) -> float:
    """Adoption-weighted quality: sum over types of pi * gate * score."""
    s = entrant_scores(gen, rewards)
    sigma = adoption_gate(s, market, beta)
    return float(market.population.weights @ (sigma * s))


def _gate_coefficients(s: np.ndarray, sigma: np.ndarray, weights: np.ndarray,
                       beta: float) -> np.ndarray:
    """Each type's weight pi * (sigma + beta * sigma * (1 - sigma) * S) on dS/dphi
    in the objective's gradient: the chain rule through the gate."""
    return weights * (sigma + beta * sigma * (1.0 - sigma) * s)


def _exact_gradient(p: np.ndarray, rewards: RewardTable, s: np.ndarray,
                    coeff: np.ndarray) -> np.ndarray:
    # sum_theta coeff * p * (r_theta - S_theta), vectorized over outcomes
    return p * (coeff @ (rewards.rewards - s[:, None]))


def grad_f_exact(gen: ToyGenerator, rewards: RewardTable, market: GameSpec,
                 beta: float) -> np.ndarray:
    """Exact logit-gradient of the adoption-weighted objective."""
    p = gen.probabilities()
    s = entrant_scores(gen, rewards)
    sigma = adoption_gate(s, market, beta)
    coeff = _gate_coefficients(s, sigma, market.population.weights, beta)
    return _exact_gradient(p, rewards, s, coeff)


def _outcome_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for uniforms ``u`` in [0, 1), by a
    guide table (Chen & Asau 1974): ``guide[j]`` is the answer at ``j / g``, so
    a draw in bucket ``j = floor(u * g)`` (exact for a power of two ``g``) has
    its answer in ``[guide[j], guide[j + 1]]``.  One comparison settles a
    bracket of width at most one; draws in wider brackets are searched.  For
    ``u = rng.random(shape)`` and ``cdf = _outcome_cdf(p)`` the result is bit
    for bit ``rng.choice(len(p), size=shape, p=p)`` from the same stream, and a
    ``(rows, n)`` block equals ``rows`` such calls of size ``n`` in turn."""
    g = 1 << (4 * len(cdf) - 1).bit_length()  # the power of two >= 4 |X|
    guide = cdf.searchsorted(np.arange(g + 1) / g, side="right")
    j = (u * g).astype(np.intp)
    index = guide[j]
    # u < 1 = cdf[-1], so guide[j] is a valid index
    index += cdf[index] <= u
    wide = np.diff(guide) > 1
    if wide.any():
        slow = wide[j]
        index[slow] = cdf.searchsorted(u[slow], side="right")
    return index


def _reinforce_gradients(gen: ToyGenerator, rewards: RewardTable, types: Sequence[int],
                         n_samples: int, baseline: RewardBaseline,
                         rng: np.random.Generator) -> np.ndarray:
    """Score-function estimates of the score gradients of distinct ``types``,
    one row per type, from ``n_samples`` seeded draws each.

    The draws are the uniforms of ``rng.random((len(types), n_samples))``,
    row by row in list order: the stream of one ``rng.choice`` call per type
    in turn.  They are taken in blocks of whole types, each of at most
    ``_BLOCK_ELEMENTS`` draws unless one type needs more.  Each type's
    estimate uses its baseline value from before the call (so the estimator
    stays unbiased); the call then folds each type's mean reward into its
    moving average.
    """
    check(n_samples, PARAMS["eval_budget"], "n_samples")
    types = np.asarray(types, dtype=np.intp)
    p = gen.probabilities()
    n_outcomes = gen.n_outcomes
    cdf = _outcome_cdf(p)
    grads = np.empty((len(types), n_outcomes))
    per_block = max(1, _BLOCK_ELEMENTS // n_samples)
    for lo in range(0, len(types), per_block):
        block = types[lo:lo + per_block]
        rows = len(block)
        draws = _outcome_index(cdf, rng.random((rows, n_samples)))
        cells = draws + (np.arange(rows) * n_outcomes)[:, None]
        r = rewards.rewards[block].take(cells)
        adv = r - baseline.values[block][:, None]
        # one bincount over (row, outcome) cells sums each row's advantages
        # in draw order, as a per-type bincount does
        grad = np.bincount(cells.ravel(), weights=adv.ravel(), minlength=rows * n_outcomes)
        grad = grad.reshape(rows, n_outcomes) / n_samples
        # sum / n is what np.mean computes
        grad -= (adv.sum(axis=1) / n_samples)[:, None] * p
        grads[lo:lo + rows] = grad
        baseline.update(block, r.sum(axis=1) / n_samples)
    return grads


def grad_s_reinforce(gen: ToyGenerator, rewards: RewardTable, type_index: int,
                     n_samples: int, baseline: RewardBaseline,
                     rng: np.random.Generator) -> np.ndarray:
    """Score-function estimate of one type's score gradient from seeded draws.

    Uses the baseline value from before this call (so the estimator stays
    unbiased) and then folds the batch's mean reward into the moving average.
    """
    type_index = _index(type_index, rewards.n_types, "type index")
    return _reinforce_gradients(gen, rewards, [type_index], n_samples, baseline, rng)[0]


# ---------------------------------------------------------------------------
# resampling scheme
# ---------------------------------------------------------------------------

def resample_weights(dataset: EntryDataset, s_phi: np.ndarray, market: GameSpec,
                     beta: float, gamma: float, rewards: RewardTable) -> np.ndarray:
    """Per-item sampling probabilities that bias training toward valuable types.

    Type weights are alpha = pi * gate**gamma * best_incumbent_score.  In the
    structured mode each attribute value u gets mass proportional to
    sum_theta alpha_theta * q_theta(u), split within u by the items' counts.
    In the unstructured mode items are weighted by the types' sum-normalized
    rewards instead.  The result sums to 1 over items with non-zero counts.
    """
    check(gamma, PARAMS["gamma"], "gamma")
    population = market.population
    sigma = adoption_gate(np.asarray(s_phi, dtype=float), market, beta)
    alpha = population.weights * np.power(sigma, gamma) * market.scores.scores.max(axis=0)
    counts = dataset.counts
    present = counts > 0

    if dataset.structured:
        prefs = dataset.type_attribute_prefs
        if prefs.shape[0] != population.n_types:
            raise MarketGameError("type_attribute_prefs rows must match the population")
        attr_mass = alpha @ prefs  # over attribute values
        attr_index = np.array([dataset.attribute_labels.index(u) for u in dataset.attributes])
        attr_counts = np.bincount(attr_index, weights=counts, minlength=len(dataset.attribute_labels))
        w = np.zeros(len(counts))
        nonempty = attr_counts[attr_index] > 0
        w[nonempty] = (
            attr_mass[attr_index[nonempty]] * counts[nonempty] / attr_counts[attr_index[nonempty]]
        )
    else:
        if rewards.n_outcomes != len(counts) or rewards.n_types != population.n_types:
            raise MarketGameError("reward table does not match the dataset and population")
        totals = rewards.rewards.sum(axis=1, keepdims=True)
        v = np.divide(rewards.rewards, totals, out=np.zeros_like(rewards.rewards), where=totals > 0)
        w = alpha @ v
        w = np.where(present, w, 0.0)

    total = float(w.sum())
    if not total > 0:
        raise MarketGameError("resampling weights are all zero: no trainable signal")
    return w / total


def _estimate_scores(gen: ToyGenerator, rewards: RewardTable, budget: int,
                     rng: np.random.Generator) -> np.ndarray:
    cdf = _outcome_cdf(gen.probabilities())
    # integer counts over one continuous stream, so the blocks move no bit
    counts = sum(np.bincount(_outcome_index(cdf, rng.random(min(_BLOCK_ELEMENTS, budget - lo))),
                             minlength=gen.n_outcomes) for lo in range(0, budget, _BLOCK_ELEMENTS))
    return rewards.rewards @ (counts / budget)


def _initial_generator(dataset: EntryDataset, init: ToyGenerator | None) -> ToyGenerator:
    if init is not None:
        if init.n_outcomes != len(dataset.outcome_labels):
            raise MarketGameError("initial generator does not match the dataset outcomes")
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
    total = float(dataset.counts.sum())
    if not 1 <= (draws := round(total)) < 2 ** 63:  # numpy takes a redraw's size as an int64
        raise MarketGameError(f"counts total must round into [1, 2**63 - 1] to resample (got {total!r})")
    rng = np.random.default_rng(config.seed)
    gen = _initial_generator(dataset, init)

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
        weights = resample_weights(dataset, s_hat, market, config.beta, config.gamma, rewards=rewards)
        resampled = rng.multinomial(draws, weights)
        target = resampled / draws
        p = gen.probabilities().copy()
        pull = config.blend * target
        for _ in range(config.inner_epochs):
            p *= 1.0 - config.blend
            p += pull
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
    logp = gen.logits - gen.logits.max() - np.log(gen._exp_sum)
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
        raise MarketGameError(f"unknown estimator {estimator!r}")
    if config.inner_epochs < 1:
        raise MarketGameError("direct-gradient training needs inner_epochs >= 1")
    rng = np.random.default_rng(config.seed)
    gen = _initial_generator(dataset, init)
    q_hat = dataset.empirical_distribution()
    n_types = market.population.n_types
    weights = market.population.weights
    best = market.scores.scores.max(axis=0)
    baseline = RewardBaseline.zeros(n_types, config.baseline_decay)
    eta = config.learning_rate
    # each generator is scored once, for its trace row and the next gradient;
    # these calls make the outcome, beta and type-count checks once per run
    s = entrant_scores(gen, rewards)
    sigma = adoption_gate(s, market, config.beta)
    ell = _cross_entropy(q_hat, gen)

    def trace_row(epoch: int) -> dict:
        f = float(weights @ (sigma * s))  # objective_f
        return {"epoch": epoch, "cross_entropy": ell, "objective": f,
                "loss": ell - config.lam * f, "scores": tuple(s.tolist())}

    trace = [trace_row(0)]
    for epoch in range(1, config.inner_epochs + 1):
        p = gen.probabilities()
        grad_ell = p - q_hat
        if config.lam > 0:
            coeff = _gate_coefficients(s, sigma, weights, config.beta)
            if estimator == "exact":
                grad_f = _exact_gradient(p, rewards, s, coeff)
            else:
                grads = _reinforce_gradients(gen, rewards, range(n_types), config.eval_budget,
                                             baseline, rng)
                # adds the weighted rows in type order, as a running sum would
                grad_f = (coeff[:, None] * grads).sum(axis=0)
        else:
            grad_f = np.zeros(gen.n_outcomes)
        step = grad_ell - config.lam * grad_f

        # each candidate's cross-entropy is taken once: it is the backtracking
        # test with lam == 0 and the accepted one's trace row
        while True:
            candidate = ToyGenerator(dataset.outcome_labels, gen.logits - eta * step)
            candidate_ell = _cross_entropy(q_hat, candidate)
            if config.lam == 0 and candidate_ell > ell + 1e-9:
                eta *= 0.5
                if eta < 1e-18:
                    raise TrainingDivergedError("step size collapsed during backtracking", trace)
                continue
            break

        gen, ell = candidate, candidate_ell
        s = rewards.rewards @ gen.probabilities()
        sigma = _sigmoid(config.beta * (s - best))
        row = trace_row(epoch)
        if not all(np.isfinite(v) for v in (row["cross_entropy"], row["objective"], row["loss"])):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}", trace)
        trace.append(row)
    return gen, trace


# ---------------------------------------------------------------------------
# post-training market evaluation
# ---------------------------------------------------------------------------

class EntrantReport(Record, eq=False):
    spec: GameSpec
    entrant_index: int
    entrant_score_row: tuple[float, ...]
    outcome: DynamicsOutcome
    metrics: MetricsRecord
    adopted: bool


def evaluate_entrant(entrant: ToyGenerator, rewards: RewardTable, market: GameSpec,
                     entrant_label: str = "entrant",
                     max_steps: int = 1000) -> EntrantReport:
    """Append the entrant's exact score row to the market and re-analyze the game.

    The post-entry game keeps the market's population, platform count and
    choice rule, and its dynamics start with every platform on model 0.
    The entrant counts as adopted when its model index appears
    in some pure equilibrium or, failing convergence, in the detected cycle's
    profiles.  When the PNE list is over its budget, adoption is read off the
    dynamics outcome alone: its equilibrium profile or its cycle.
    """
    if rewards.n_types != market.population.n_types:
        raise MarketGameError("rewards and the market's population disagree on user types")
    row = entrant_scores(entrant, rewards)
    incumbents = market.scores
    stacked = ScoreMatrix(
        np.vstack([incumbents.scores, np.clip(row, 0.0, None)]),
        model_labels=list(incumbents.model_labels) + [entrant_label],
    )
    spec = GameSpec(stacked, market.population, market.n_platforms, market.choice)
    entrant_index = incumbents.n_models
    analysis = analyze(spec)
    outcome = run_dynamics(spec, (0,) * spec.n_platforms, max_steps=max_steps)
    profiles = (analysis.pne or ()) + outcome.cycle_profiles
    if analysis.pne is None and outcome.kind == "equilibrium":
        profiles = (outcome.equilibrium_profile,)
    return EntrantReport(
        spec=spec,
        entrant_index=entrant_index,
        entrant_score_row=tuple(float(x) for x in row),
        outcome=outcome,
        metrics=outcome_metrics(spec, outcome, analysis),
        adopted=any(entrant_index in p for p in profiles),
    )
