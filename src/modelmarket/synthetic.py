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
from typing import Sequence

import numpy as np

from .config import COMPONENT, GMM, KERNEL, RBF_GMM, check
from .errors import MarketGameError
from .game import (_BLOCK_ELEMENTS, WEIGHT_TOL, Record, ScoreMatrix, UserPopulation, _frozen_array,
                   _outcome_cdf, _set_field)

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


class RbfKernel(Record):
    center: tuple[float, ...]
    amplitude: float
    width: float

    def __post_init__(self):
        try:  # any sequence of numbers, checked as a list
            center = list(self.center)
        except TypeError:
            center = self.center
        check(center, KERNEL["center"], "kernel center")
        for name in ("amplitude", "width"):
            check(getattr(self, name), KERNEL[name], f"kernel {name}")


class RbfModelSpec(Record):
    """Bias plus Gaussian kernels; evaluations are truncated to [0, 1]."""

    bias: float
    kernels: tuple[RbfKernel, ...]

    def __post_init__(self):
        ks = tuple(self.kernels)
        if not ks:
            raise MarketGameError("an RBF model needs at least one kernel")
        dims = {len(k.center) for k in ks}
        if len(dims) != 1:
            raise MarketGameError("all kernel centers must share one dimension")
        check(self.bias, RBF_GMM["models"].table["bias"], "model bias")
        _set_field(self, "bias", float(self.bias))
        _set_field(self, "kernels", ks)

    @property
    def dim(self) -> int:
        return len(self.kernels[0].center)


class GmmComponent(Record, eq=False):
    weight: float
    mean: tuple[float, ...]
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        mean = tuple(float(x) for x in self.mean)
        check(self.weight, COMPONENT["weight"], "component weight")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise MarketGameError("component mean and covariance must be finite")
        if cov.shape != (len(mean), len(mean)):
            raise MarketGameError("covariance shape must match the mean dimension")
        if not np.allclose(cov, cov.T):
            raise MarketGameError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise MarketGameError("covariance must be positive-definite") from exc
        _set_field(self, "weight", float(self.weight))
        _set_field(self, "mean", mean)
        _set_field(self, "covariance", _frozen_array(cov))


class GmmPopulationSpec(Record):
    """A GMM to sample, the number K of discrete types, an x-shift, and a seed."""

    components: tuple[GmmComponent, ...]
    k_types: int
    dx: float = 0.0
    seed: int = 0
    sample_size: int = DEFAULT_SAMPLE_SIZE

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise MarketGameError("a GMM needs at least one component")
        total = sum(c.weight for c in comps)
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise MarketGameError(f"component weights must sum to 1 (got {total!r})")
        dims = {len(c.mean) for c in comps}
        if len(dims) != 1:
            raise MarketGameError("all component means must share one dimension")
        for name in ("k_types", "dx", "seed", "sample_size"):
            check(getattr(self, name), GMM[name], name)
        if self.sample_size < self.k_types:
            raise MarketGameError("sample_size must be at least k_types")
        _set_field(self, "components", comps)
        _set_field(self, "k_types", int(self.k_types))
        _set_field(self, "dx", float(self.dx))
        _set_field(self, "seed", int(self.seed))
        _set_field(self, "sample_size", int(self.sample_size))

    @property
    def dim(self) -> int:
        return len(self.components[0].mean)


def rbf_scores(models: Sequence[RbfModelSpec], types: Sequence[Sequence[float]]) -> ScoreMatrix:
    """Evaluate every RBF model at every type point, clamping to [0, 1], with
    the default model labels.

    The clamp applies once, after the bias and all kernels are summed.
    Inputs that would overflow raise ``MarketGameError`` naming the
    model: one whose |bias| plus its kernels' |amplitude|s passes the largest
    float, and a kernel (named too) whose 2 * width**2 is not a positive
    finite float or whose squared distance over it is not finite at some point.
    """
    if not models:
        raise MarketGameError("an RBF score matrix needs at least one model")
    pts = np.asarray(types, dtype=float)
    if pts.ndim != 2:
        raise MarketGameError("types must be a K x d array of coordinates")
    rows = []
    for i, spec in enumerate(models):
        if spec.dim != pts.shape[1]:
            raise MarketGameError("model and type dimensions differ")
        if not math.isfinite(sum((abs(k.amplitude) for k in spec.kernels), abs(spec.bias))):
            raise MarketGameError(f"models[{i}]: |bias| + the sum of its kernels' |amplitude| "
                                  f"must be finite (bias {spec.bias!r})")
        value = np.full(pts.shape[0], spec.bias)
        for j, k in enumerate(spec.kernels):
            name = f"models[{i}].kernels[{j}]"
            try:
                spread = 2.0 * k.width ** 2
            except OverflowError:  # a Python float's square past the largest float
                spread = math.inf
            if not 0 < spread < math.inf:
                raise MarketGameError(f"{name}: 2 * width**2 must be a positive finite float "
                                      f"(got {spread!r} for width {k.width!r})")
            with np.errstate(over="ignore"):
                exponent = ((pts - np.asarray(k.center)) ** 2).sum(axis=1) / spread
            if not np.isfinite(exponent).all():
                raise MarketGameError(f"{name}: squared distance / (2 * width**2) must be "
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


# Elkan's bound (Elkan, ICML 2003), with slack.  Let D be a point's computed
# squared distance to its own center and G the computed squared distance from
# that center to another.  When G >= _GAP_FLOOR and D < G * _SETTLE_FACTOR, the
# other center is strictly farther from the point in the computed distances, not
# only in the exact ones: for d < 8 a computed squared distance is within a
# relative 1e-15 of the exact one, plus an absolute 1e-322 where its squares
# underflow, and the relative slack of 1e-9 and a G of at least the smallest
# normal float leave room for both.
_SETTLE_FACTOR = 0.25 / (1 + 1e-9)
_GAP_FLOOR = sys.float_info.min
# Up to this many centers a dense pass costs less than finding the points it may skip.
_DENSE_K = 16
# Entries of one block of (point, candidate center) pairs, or of center-to-center rows.
_PAIRS = _BLOCK_ELEMENTS // 4


def _cross_distances(rows: np.ndarray, ccols: np.ndarray) -> np.ndarray:
    """The (r, k) squared distances from the points ``rows`` (d, r) to the
    centers ``ccols`` (d, k), formed as ``_distances_to`` forms them."""
    out = np.square(rows[0, :, None] - ccols[0])
    for d in range(1, len(ccols)):
        out += np.square(rows[d, :, None] - ccols[d])
    return out


def _keep_nearer(dists: np.ndarray, nearest: np.ndarray, assignments: np.ndarray,
                 closer: np.ndarray, j: int) -> None:
    """Move to center ``j`` every point whose distance ``dists`` to it is below
    ``nearest``; a strict < keeps the first of equal distances, as argmin does."""
    np.less(dists, nearest, out=closer)
    np.minimum(nearest, dists, out=nearest)
    np.putmask(assignments, closer, j)


def _bounded_assign(columns: np.ndarray, centers: np.ndarray, assignments: np.ndarray,
                    nearest: np.ndarray, squares: np.ndarray, spare: np.ndarray) -> None:
    """The dense assignment pass for d < 8, in place, scoring only the points
    Elkan's bound leaves open.

    On entry ``assignments`` holds each point's previous center.  On exit it
    holds its nearest center, the lowest-numbered one on a tie, and
    ``nearest`` the squared distance to it, bit for bit as the dense pass
    leaves both.  ``squares`` and ``spare`` (n) are scratch.
    """
    k, dim = centers.shape
    ccols = np.ascontiguousarray(centers.T)
    np.take(ccols[0], assignments, out=spare, mode="clip")
    np.square(np.subtract(columns[0], spare, out=nearest), out=nearest)
    for d in range(1, dim):
        np.take(ccols[d], assignments, out=spare, mode="clip")
        np.square(np.subtract(columns[d], spare, out=squares), out=squares)
        nearest += squares
    # a point keeps its center when every other center is farther by the bound
    rows = max(1, _PAIRS // k)
    gaps = np.empty(k)
    for lo in range(0, k, rows):
        g = _cross_distances(ccols[:, lo:lo + rows], ccols)
        g.flat[lo::k + 1] = np.inf  # each row's own center
        g.min(axis=1, out=gaps[lo:lo + rows])
    limits = np.where(gaps >= _GAP_FLOOR, gaps * _SETTLE_FACTOR, 0.0)
    open_ = np.flatnonzero(nearest >= np.take(limits, assignments, out=spare, mode="clip"))
    # the open points, grouped by center; each center's candidates are those the
    # bound does not rule out for its farthest open point
    labels = assignments[open_].astype(np.min_scalar_type(k - 1))
    order = np.argsort(labels, kind="stable")  # a radix sort of the narrow labels
    open_, labels = open_[order], labels[order]
    first = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=k))))
    filled = np.flatnonzero(first[1:] > first[:-1])
    reach = np.full(k, -1.0)
    reach[filled] = np.maximum.reduceat(nearest[open_], first[filled])
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        if first[lo] == first[hi]:
            continue
        g = _cross_distances(ccols[:, lo:hi], ccols)
        near = (g * _SETTLE_FACTOR <= reach[lo:hi, None]) | (g < _GAP_FLOOR)
        counts = near.sum(axis=1)
        cand = np.flatnonzero(near) % k  # each row's candidates, in center order
        offset = np.cumsum(counts) - counts
        pts = open_[first[lo]:first[hi]]
        rank = labels[first[lo]:first[hi]].astype(np.intp) - lo
        ends = np.cumsum(counts[rank])  # each point's pairs end here
        s = 0
        while s < len(pts):
            # the points s..e-1 whose pairs fit in one block (at least one point)
            base = int(ends[s - 1]) if s else 0
            e = max(s + 1, int(np.searchsorted(ends, base + _PAIRS, side="right")))
            seg, c = pts[s:e], counts[rank[s:e]]
            starts = ends[s:e] - c - base
            pc = cand[np.arange(int(ends[e - 1]) - base) - np.repeat(starts - offset[rank[s:e]], c)]
            dist = np.square(np.repeat(columns[0][seg], c) - ccols[0][pc])
            for d in range(1, dim):
                dist += np.square(np.repeat(columns[d][seg], c) - ccols[d][pc])
            # each point's first pair at its minimum names its lowest-numbered nearest center
            mins = np.minimum.reduceat(dist, starts)
            hits = np.flatnonzero(dist == np.repeat(mins, c))
            assignments[seg] = pc[hits[np.searchsorted(hits, starts)]]
            nearest[seg] = mins
            s = e


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
    cluster sum overflows; others raise ``MarketGameError``.

    Work whose answer is known is skipped, with the same results.  The
    seeding's running minimum over the seeds is the first iteration's
    assignment.  From the second iteration on, for d < 8 and k > 16, each
    point's squared distance D to its previous center comes first, and the
    point keeps that center when D < G / (4 (1 + 1e-9)), G being the squared
    distance from the center to its nearest other center and at least the
    smallest normal float: every other center is then farther (Elkan's
    lemma), in the computed distances too, since the slack and the floor
    exceed their rounding (see ``_SETTLE_FACTOR``).  Any other point is
    scored only against the centers the same test leaves open for the
    farthest such point of its cluster.  Up to k = 16, and from d = 8 on,
    every point is scored against every center.

    No (n, k) array is formed: a dense pass keeps one n-vector of distances
    per center and a running minimum, and the bounded pass n-vectors and
    blocks of ``_PAIRS`` point-center pairs or center-to-center distances.
    ``gmm_population`` in two dimensions takes a median 1.7 ms at n = 800,
    k = 8 and 29 ms at n = 10,000, k = 100 on one core of a 2-vCPU
    x86-64 VM, nearly all of it here.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise MarketGameError(
            f"points must be a non-empty n x d array with d >= 1 (got shape {points.shape})")
    check(k, GMM["k_types"], "k")
    n, dim = points.shape
    # every center lies in the points' box, so a squared distance is at most
    # 4 d bound^2 and the seeding total n times that: half the largest float
    bound = math.sqrt(sys.float_info.max / (8 * n * dim))
    largest = float(np.abs(points).max())
    if not largest <= bound:
        raise MarketGameError(
            f"k-means points must be finite and at most {bound:.6g} in absolute value "
            f"for {n} points in {dim} dimensions (got {largest!r})")
    columns = np.ascontiguousarray(points.T)
    nearest, dists, squares = np.empty(n), np.empty(n), np.empty(n)
    assignments = np.zeros(n, dtype=np.int64)
    closer = np.empty(n, dtype=bool)
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
        _keep_nearer(_distances_to(points, columns, centers[j], dists, squares), nearest, assignments, closer, j)
    for iteration in range(KMEANS_ITERATIONS):
        # the first iteration's assignment is the seeding's running minimum
        if iteration and dim < 8 and k > _DENSE_K:
            _bounded_assign(columns, centers, assignments, nearest, squares, dists)
        elif iteration:
            _distances_to(points, columns, centers[0], nearest, squares)
            assignments.fill(0)
            for j in range(1, k):
                _keep_nearer(_distances_to(points, columns, centers[j], dists, squares),
                             nearest, assignments, closer, j)
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
    # each draw's noise becomes its point in place (the masks are disjoint), and
    # the draws' components are dropped, so the k-means holds one sample array
    points = rng.standard_normal((spec.sample_size, spec.dim))
    for q, comp in enumerate(spec.components):
        mask = choices == q
        chol = np.linalg.cholesky(comp.covariance)
        points[mask] = np.asarray(comp.mean) + points[mask] @ chol.T
    del choices, mask

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
