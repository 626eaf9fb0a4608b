"""Synthetic game instances: RBF-mixture score functions over discretized
Gaussian-mixture user populations.

Score functions collapse model quality and user reward into a single bumpy
surface over the type space: bias plus a sum of Gaussian kernels, truncated
to [0, 1].  User populations come from sampling a GMM, clustering the draws
into K anchors with a seeded k-means, and weighting each anchor by its share
of the draws.

Population shifts are applied after discretization: shifting every component
mean by a constant vector shifts the sampled cloud, the anchors, and nothing
else, so common-random-number comparisons across shift values are exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import COMPONENT, GMM, KERNEL, RBF_GMM, check
from .errors import InvalidInstanceError, InvalidParameterError
from .game import WEIGHT_TOL, ScoreMatrix, UserPopulation, _frozen_array, _outcome_cdf

__all__ = [
    "RbfKernel",
    "RbfModelSpec",
    "GmmComponent",
    "GmmPopulationSpec",
    "rbf_scores",
    "gmm_population",
    "seeded_kmeans",
]

DEFAULT_SAMPLE_SIZE = GMM["sample_size"].default
KMEANS_ITERATIONS = 20


@dataclass(frozen=True)
class RbfKernel:
    center: tuple[float, ...]
    amplitude: float
    width: float

    def __post_init__(self):
        try:  # any sequence of numbers, checked as a list
            center = list(self.center)
        except TypeError:
            center = self.center
        check(center, KERNEL["center"], "kernel center", InvalidParameterError)
        for name in ("amplitude", "width"):
            check(getattr(self, name), KERNEL[name], f"kernel {name}", InvalidParameterError)


@dataclass(frozen=True)
class RbfModelSpec:
    """Bias plus Gaussian kernels; evaluations are truncated to [0, 1]."""

    bias: float
    kernels: tuple[RbfKernel, ...]

    def __init__(self, bias: float, kernels: Iterable[RbfKernel]):
        ks = tuple(kernels)
        if not ks:
            raise InvalidInstanceError("an RBF model needs at least one kernel")
        dims = {len(k.center) for k in ks}
        if len(dims) != 1:
            raise InvalidInstanceError("all kernel centers must share one dimension")
        check(bias, RBF_GMM["models"].table["bias"], "model bias", InvalidParameterError)
        object.__setattr__(self, "bias", float(bias))
        object.__setattr__(self, "kernels", ks)

    @property
    def dim(self) -> int:
        return len(self.kernels[0].center)


@dataclass(frozen=True, eq=False)
class GmmComponent:
    weight: float
    mean: tuple[float, ...]
    covariance: np.ndarray

    def __init__(self, weight: float, mean: Sequence[float], covariance):
        cov = np.asarray(covariance, dtype=float)
        mean_t = tuple(float(x) for x in mean)
        check(weight, COMPONENT["weight"], "component weight", InvalidParameterError)
        if not (np.all(np.isfinite(mean_t)) and np.all(np.isfinite(cov))):
            raise InvalidInstanceError("component mean and covariance must be finite")
        if cov.shape != (len(mean_t), len(mean_t)):
            raise InvalidInstanceError("covariance shape must match the mean dimension")
        if not np.allclose(cov, cov.T):
            raise InvalidInstanceError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidInstanceError("covariance must be positive-definite") from exc
        object.__setattr__(self, "weight", float(weight))
        object.__setattr__(self, "mean", mean_t)
        object.__setattr__(self, "covariance", _frozen_array(cov))


@dataclass(frozen=True)
class GmmPopulationSpec:
    """A GMM to sample, the number K of discrete types, an x-shift, and a seed."""

    components: tuple[GmmComponent, ...]
    k_types: int
    dx: float = 0.0
    seed: int = 0
    sample_size: int = DEFAULT_SAMPLE_SIZE

    def __init__(self, components: Iterable[GmmComponent], k_types: int, dx: float = 0.0,
                 seed: int = 0, sample_size: int = DEFAULT_SAMPLE_SIZE):
        comps = tuple(components)
        if not comps:
            raise InvalidInstanceError("a GMM needs at least one component")
        total = sum(c.weight for c in comps)
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise InvalidInstanceError(f"component weights must sum to 1 (got {total!r})")
        dims = {len(c.mean) for c in comps}
        if len(dims) != 1:
            raise InvalidInstanceError("all component means must share one dimension")
        for name, value in zip(("k_types", "dx", "seed", "sample_size"), (k_types, dx, seed, sample_size)):
            check(value, GMM[name], name, InvalidParameterError)
        if sample_size < k_types:
            raise InvalidParameterError("sample_size must be at least k_types")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "k_types", int(k_types))
        object.__setattr__(self, "dx", float(dx))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "sample_size", int(sample_size))

    @property
    def dim(self) -> int:
        return len(self.components[0].mean)


def rbf_scores(models: Sequence[RbfModelSpec], types: Sequence[Sequence[float]]) -> ScoreMatrix:
    """Evaluate every RBF model at every type point, clamping to [0, 1], with
    the default model labels.

    The clamp applies once, after the bias and all kernels are summed.
    Inputs that would overflow raise ``InvalidParameterError`` naming the
    model: one whose |bias| plus its kernels' |amplitude|s passes the largest
    float, and a kernel (named too) whose 2 * width**2 is not a positive
    finite float or whose squared distance over it is not finite at some point.
    """
    pts = np.asarray(types, dtype=float)
    if pts.ndim != 2:
        raise InvalidInstanceError("types must be a K x d array of coordinates")
    rows = []
    for i, spec in enumerate(models):
        if spec.dim != pts.shape[1]:
            raise InvalidInstanceError("model and type dimensions differ")
        if not math.isfinite(sum((abs(k.amplitude) for k in spec.kernels), abs(spec.bias))):
            raise InvalidParameterError(f"models[{i}]: |bias| + the sum of its kernels' |amplitude| "
                                        f"must be finite (bias {spec.bias!r})")
        value = np.full(pts.shape[0], spec.bias)
        for j, k in enumerate(spec.kernels):
            name = f"models[{i}].kernels[{j}]"
            try:
                spread = 2.0 * k.width ** 2
            except OverflowError:  # a Python float's square past the largest float
                spread = math.inf
            if not 0 < spread < math.inf:
                raise InvalidParameterError(f"{name}: 2 * width**2 must be a positive finite float "
                                            f"(got {spread!r} for width {k.width!r})")
            with np.errstate(over="ignore"):
                exponent = ((pts - np.asarray(k.center)) ** 2).sum(axis=1) / spread
            if not np.isfinite(exponent).all():
                raise InvalidParameterError(f"{name}: squared distance / (2 * width**2) must be "
                                            f"finite at every type point (width {k.width!r})")
            value = value + k.amplitude * np.exp(-exponent)
        rows.append(np.clip(value, 0.0, 1.0))
    return ScoreMatrix(np.vstack(rows))


def _distances_to(points: np.ndarray, columns: np.ndarray, center: np.ndarray,
                  out: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Fill ``out`` (n,) with the squared distance of every point to ``center``,
    and return it.

    Equal bit for bit to ``((points - center) ** 2).sum(axis=1)``, and so to
    that center's column of the (n, k) distance matrix: numpy sums fewer than
    8 terms as one running sum, so for d < 8 the per-dimension squares of
    ``columns`` (``points.T``, contiguous) are added into ``out`` one at a
    time, through ``squares`` (also n).  From 8 terms on numpy's sum is
    pairwise, and that form is used as it is.
    """
    if points.shape[1] >= 8:
        return np.sum(np.square(points - center), axis=1, out=out)
    np.square(np.subtract(columns[0], center[0], out=out), out=out)
    for d in range(1, points.shape[1]):
        np.square(np.subtract(columns[d], center[d], out=squares), out=squares)
        out += squares
    return out


def seeded_kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``KMEANS_ITERATIONS`` plain Lloyd iterations with distance-weighted seeding.

    Returns (centers, assignments); the assignments are those of the last
    iteration, made before its center update.  Deterministic given the
    generator state, and exact in this sense:

    * each seed after the first is ``rng.choice(n, p=d2 / total)``'s own
      inverse-CDF draw (a cumulative sum, divided by its last entry, searched
      at ``rng.random()``), so it and the generator's next draw are as that
      call leaves them;
    * a squared distance is numpy's ``sum`` of the per-dimension squares: a
      running sum in dimension order for d < 8, pairwise from d = 8 on;
    * a point goes to its nearest center, the first one on a tie, as
      ``argmin`` over the (n, k) distance matrix would place it;
    * a center is the sum of its cluster's points divided by the cluster
      size, the sum being the one ``points[mask].mean(axis=0)`` reduces:
      a sum in point-index order for d >= 2, and numpy's pairwise sum of the
      cluster's slice for d = 1;
    * every cluster left empty by an iteration is re-seeded at the one point
      farthest from its assigned center.

    Points must be finite and no larger in absolute value than
    sqrt(float max / (8 n d)), so that no squared distance, seeding total or
    cluster sum overflows; others raise ``InvalidParameterError``.

    No (n, k) array is formed: one iteration takes each center's distances
    as an n-vector, keeps a running minimum over the centers, and sums the
    clusters with one weighted ``bincount`` per dimension, O(n*k*d) in all.
    ``gmm_population`` on its default 10,000-point sample in two dimensions
    takes about 0.02 s at K=8 and 0.11 s at K=100 on one core of a 2-vCPU
    x86-64 VM, nearly all of it here.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise InvalidParameterError(
            f"points must be a non-empty n x d array with d >= 1 (got shape {points.shape})")
    check(k, GMM["k_types"], "k", InvalidParameterError)
    n, dim = points.shape
    # every center lies in the points' box, so a squared distance is at most
    # 4 d bound^2 and the seeding total n times that: half the largest float
    bound = math.sqrt(sys.float_info.max / (8 * n * dim))
    largest = float(np.abs(points).max())
    if not largest <= bound:
        raise InvalidParameterError(
            f"k-means points must be finite and at most {bound:.6g} in absolute value "
            f"for {n} points in {dim} dimensions (got {largest!r})")
    columns = np.ascontiguousarray(points.T)
    nearest, dists, squares = np.empty(n), np.empty(n), np.empty(n)
    centers = np.empty((k, dim))
    centers[0] = points[int(rng.integers(n))]
    _distances_to(points, columns, centers[0], nearest, squares)
    for j in range(1, k):
        total = float(nearest.sum())
        if total <= 0:
            centers[j] = points[int(rng.integers(n))]
        else:
            # rng.choice(n, p=nearest / total)'s own draw, without its per-call checks
            centers[j] = points[int(_outcome_cdf(nearest / total).searchsorted(rng.random(), side="right"))]
        np.minimum(nearest, _distances_to(points, columns, centers[j], dists, squares), out=nearest)
    assignments = np.zeros(n, dtype=np.int64)
    closer = np.empty(n, dtype=bool)
    for _ in range(KMEANS_ITERATIONS):
        _distances_to(points, columns, centers[0], nearest, squares)
        assignments.fill(0)
        for j in range(1, k):
            # a strict < keeps the first of equal distances, as argmin does
            np.less(_distances_to(points, columns, centers[j], dists, squares), nearest, out=closer)
            np.minimum(nearest, dists, out=nearest)
            assignments[closer] = j
        counts = np.bincount(assignments, minlength=k)
        filled = counts > 0
        if dim == 1:
            # each cluster's points as one contiguous run, in point-index order; the
            # narrowest label type makes the stable sort a radix sort when k <= 65,536
            labels = assignments.astype(np.min_scalar_type(k - 1))
            grouped = columns[0][np.argsort(labels, kind="stable")]
            ends = np.cumsum(counts)[filled].tolist()
            sums = np.array([np.add.reduce(grouped[end - count:end])
                             for end, count in zip(ends, counts[filled].tolist())])
            centers[filled, 0] = sums / counts[filled]
        else:
            for d, column in enumerate(columns):
                sums = np.bincount(assignments, weights=column, minlength=k)
                centers[filled, d] = sums[filled] / counts[filled]
        if not filled.all():
            # re-seed every empty cluster at the point farthest from its center
            centers[~filled] = points[int(nearest.argmax())]
    return centers, assignments


def gmm_population(spec: GmmPopulationSpec) -> tuple[UserPopulation, np.ndarray]:
    """Discretize a GMM into K weighted types; returns (population, anchors).

    Anchors are k-means centers of a seeded sample, sorted lexicographically
    by coordinates so labels are stable; weights are the fraction of draws
    assigned to each anchor.  The configured shift is added to the anchor
    coordinates after clustering (see the module docstring).
    """
    rng = np.random.default_rng(spec.seed)
    weights = np.array([c.weight for c in spec.components])
    choices = rng.choice(len(spec.components), size=spec.sample_size, p=weights)
    noise = rng.standard_normal((spec.sample_size, spec.dim))
    points = np.empty((spec.sample_size, spec.dim))
    for q, comp in enumerate(spec.components):
        mask = choices == q
        chol = np.linalg.cholesky(comp.covariance)
        points[mask] = np.asarray(comp.mean) + noise[mask] @ chol.T

    centers, assignments = seeded_kmeans(points, spec.k_types, rng)
    order = np.lexsort(centers.T[::-1])  # sort by first coordinate, then the rest
    centers = centers[order]
    relabel = np.empty(spec.k_types, dtype=np.int64)
    relabel[order] = np.arange(spec.k_types)
    assignments = relabel[assignments]

    counts = np.bincount(assignments, minlength=spec.k_types).astype(float)
    population = UserPopulation(None, counts / counts.sum())
    shift = np.zeros(spec.dim)
    shift[0] = spec.dx
    return population, centers + shift
