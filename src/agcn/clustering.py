"""K-means on embeddings plus matched-accuracy and NMI metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError, DimensionError

__all__ = ["ClusterResult", "kmeans", "label_mapping", "accuracy", "nmi",
           "evaluate"]


def _sq_norms(points):
    """Squared Euclidean norm of every row."""
    return np.einsum("ij,ij->i", points, points)


def _sq_dist_to(points, sq_norms, center):
    """Squared distances from every point to one center, as a GEMV."""
    d2 = sq_norms - 2.0 * (points @ center) + center @ center
    return np.maximum(d2, 0.0, out=d2)


def _kmeans_pp_init(points, n_clusters, rng, sq_norms):
    """k-means++ seeding: each new center is drawn with probability
    proportional to squared distance from the nearest chosen center."""
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dist_to(points, sq_norms, centers[0])
    for c in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            centers[c] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=d2 / total)
        centers[c] = points[idx]
        d2 = np.minimum(d2, _sq_dist_to(points, sq_norms, centers[c]))
    return centers


def _assign(points, centers, sq_norms):
    """Nearest-center labels and squared distances for R sets of C centers.

    ``centers`` is (R, C, d). The distances ``||x||^2 - 2 x.c + ||c||^2``
    of every point to every center come from one (R*C, d) @ (d, n) GEMM
    and are read as if clamped at 0: each point takes the first of a set's
    C centers whose clamped distance is the minimum, as ``argmin`` does.
    Returns the (R, n) labels and the (R, n) clamped distances to them."""
    n_sets, n_clusters, dim = centers.shape
    flat = centers.reshape(-1, dim)
    d2 = (-2.0 * flat) @ points.T
    d2 += sq_norms
    d2 += _sq_norms(flat)[:, None]
    d2 = d2.reshape(n_sets, n_clusters, -1)
    mins = np.maximum(d2.min(axis=1), 0.0)
    # a distance clamps to the clamped minimum iff it is <= it; going down
    # from the last center leaves the first such one
    labels = np.zeros(mins.shape, dtype=np.intp)
    for c in range(n_clusters - 1, -1, -1):
        np.putmask(labels, d2[:, c] <= mins, c)
    return labels, mins


def _lloyd(points, centers, tol, max_iter, sq_norms):
    """Lloyd iterations for R restarts in lockstep, with farthest-point
    repair for empty clusters; ``centers`` (R, C, d) moves in place.

    Each step assigns every live restart with one ``_assign`` call and
    moves all their centers with one one-hot product. A restart leaves
    once its inertia drops by <= ``tol``, or once its labels equal its
    previous step's: its centers are then already the means of those
    labels, so one more step would return the same labels and inertia.

    Returns (labels (R, n), inertias (R,), trace), where trace holds every
    restart's inertia after each step."""
    n_restarts, n_clusters, dim = centers.shape
    n = points.shape[0]
    labels = np.full((n_restarts, n), -1, dtype=np.intp)
    inertia = np.full(n_restarts, np.inf)
    live = np.arange(n_restarts)
    cols = np.arange(n)
    trace = []
    for _ in range(max_iter):
        step, mins = _assign(points, centers[live], sq_norms)
        offsets = n_clusters * np.arange(len(live))[:, None]
        sizes = np.bincount((step + offsets).ravel(),
                            minlength=len(live) * n_clusters)
        sizes = sizes.reshape(len(live), n_clusters)
        # repair empty clusters with the point farthest from its center
        for j, c in zip(*np.nonzero(sizes == 0)):
            # n >= n_clusters, so while c is empty some cluster holds two
            far = int(np.where(sizes[j, step[j]] > 1, mins[j], -np.inf).argmax())
            sizes[j, step[j, far]] -= 1
            sizes[j, c] += 1
            step[j, far] = c
            mins[j, far] = 0.0      # the point becomes c's center
        step_inertia = mins.sum(axis=1)
        onehot = np.zeros((len(live) * n_clusters, n))
        onehot[step + offsets, cols] = 1.0
        sizes = sizes.ravel()
        filled = sizes > 0
        moved = centers[live].reshape(-1, dim)
        moved[filled] = (onehot @ points)[filled] / sizes[filled, None]
        centers[live] = moved.reshape(-1, n_clusters, dim)
        done = ((inertia[live] - step_inertia <= tol)
                | (step == labels[live]).all(axis=1))
        labels[live] = step
        inertia[live] = step_inertia
        trace.append(inertia.copy())
        live = live[~done]
        if not len(live):
            break
    return labels, inertia, trace


# Lloyd stops at an inertia drop <= LLOYD_TOL or after LLOYD_MAX_ITER steps
LLOYD_TOL = 1e-6
LLOYD_MAX_ITER = 300


def kmeans(points: np.ndarray, n_clusters: int, seed: int,
           restarts: int = 10) -> np.ndarray:
    """Best-of-restarts k-means labels (k-means++ init, Lloyd refinement)."""
    return _kmeans_with_inertia(points, n_clusters, seed, restarts)[0]


def _kmeans_with_inertia(points, n_clusters, seed, restarts):
    """(labels, inertia) of the lowest-inertia restart, the first on ties.

    All k-means++ inits are drawn before Lloyd runs; Lloyd draws nothing,
    so each restart sees the random stream it would see alone."""
    if restarts < 1:
        raise ConfigError(f"restarts={restarts} must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed={seed} must be >= 0")
    points = np.asarray(points, dtype=np.float64)
    if not 1 <= n_clusters <= points.shape[0]:
        raise ConfigError(f"n_clusters={n_clusters} must lie in [1, "
                          f"{points.shape[0]}], the number of points")
    sq_norms = _sq_norms(points)
    rng = np.random.default_rng(seed)
    centers = np.stack([_kmeans_pp_init(points, n_clusters, rng, sq_norms)
                        for _ in range(restarts)])
    labels, inertia, _ = _lloyd(points, centers, LLOYD_TOL, LLOYD_MAX_ITER,
                                sq_norms)
    best = int(inertia.argmin())
    return labels[best].copy(), float(inertia[best])


def _as_labels(pred, truth):
    """Both label vectors as int64 arrays, checked to be the same length."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise DimensionError(f"label lengths differ: {pred.shape} vs {truth.shape}")
    return pred, truth


def label_mapping(pred, truth) -> np.ndarray:
    """Best bijection from predicted to true labels (Hungarian on the
    confusion matrix); returns an array over the predicted label space."""
    pred, truth = _as_labels(pred, truth)
    size = int(max(pred.max(), truth.max())) + 1
    confusion = np.zeros((size, size), dtype=np.int64)
    np.add.at(confusion, (pred, truth), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    mapping = np.arange(size)
    mapping[rows] = cols
    return mapping


def accuracy(pred, truth) -> float:
    """Fraction matched under the best bijection between label sets."""
    pred, truth = _as_labels(pred, truth)
    return float(np.mean(label_mapping(pred, truth)[pred] == truth))


def nmi(pred, truth) -> float:
    """Mutual information over the arithmetic mean of entropies (natural log).

    Zero total entropy (e.g. a single cluster on either side) gives 0.
    """
    pred, truth = _as_labels(pred, truth)
    n = len(pred)
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    row = table.sum(axis=1)
    col = table.sum(axis=0)

    def _entropy(counts):
        c = counts[counts > 0].astype(np.float64)
        return float(((c / n) * np.log(n / c)).sum())

    nz = table > 0
    cells = table[nz].astype(np.float64)
    outer = (row[:, None] * col[None, :])[nz].astype(np.float64)
    mi = float(((cells / n) * np.log(n * cells / outer)).sum())
    mean_h = 0.5 * (_entropy(row) + _entropy(col))
    if mean_h == 0.0:
        return 0.0
    return min(max(mi / mean_h, 0.0), 1.0)


@dataclass(frozen=True)
class ClusterResult:
    """Clustering of one embedding matrix across several k-means seeds."""

    labels: np.ndarray
    acc: float
    nmi: float
    chosen_seed: int
    seed_records: tuple         # (seed, inertia, acc, nmi) per seed

    def to_dict(self) -> dict:
        return {
            "acc": self.acc,
            "nmi": self.nmi,
            "chosen_seed": self.chosen_seed,
            "seed_records": [
                {"seed": s, "inertia": i, "acc": a, "nmi": m}
                for s, i, a, m in self.seed_records
            ],
        }


def evaluate(h: np.ndarray, n_clusters: int, truth, seeds,
             restarts: int = 10) -> ClusterResult:
    """Run k-means per seed and report the best-by-inertia result.

    Selection is by inertia, not by accuracy, so ground truth never leaks
    into model selection.
    """
    truth = np.asarray(truth, dtype=np.int64)
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("evaluate needs at least one k-means seed")
    records = []
    best = None
    for seed in seeds:
        labels, inertia = _kmeans_with_inertia(h, n_clusters, seed, restarts)
        a = accuracy(labels, truth)
        m = nmi(labels, truth)
        records.append((int(seed), float(inertia), a, m))
        if best is None or inertia < best[1]:
            best = (labels, inertia, a, m, int(seed))
    labels, _, a, m, chosen = best
    return ClusterResult(labels=labels, acc=a, nmi=m, chosen_seed=chosen,
                         seed_records=tuple(records))
