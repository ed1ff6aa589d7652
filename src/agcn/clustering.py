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


def _kmeans_pp_init(points, n_clusters, rng, sq_norms=None):
    """k-means++ seeding: each new center is drawn with probability
    proportional to squared distance from the nearest chosen center."""
    if sq_norms is None:
        sq_norms = _sq_norms(points)
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


def _assign(points, centers, sq_norms=None):
    """Nearest-center labels and the (n, C) squared distances
    ``||x||^2 - 2 x.c + ||c||^2`` from one GEMM, clamped at 0."""
    if sq_norms is None:
        sq_norms = _sq_norms(points)
    # -2 is folded into a contiguous (d, C) right operand: with C small,
    # OpenBLAS multiplies it ~2.5x faster than the transposed view (one
    # thread on a Xeon core, n=1400, d=100, C=7)
    d2 = points @ np.ascontiguousarray(-2.0 * centers.T)
    d2 += sq_norms[:, None]
    d2 += _sq_norms(centers)
    np.maximum(d2, 0.0, out=d2)
    return d2.argmin(axis=1), d2


def _lloyd(points, centers, tol, max_iter, sq_norms=None):
    """Lloyd iterations with farthest-point repair for empty clusters.

    Returns (labels, inertia, inertia_trace)."""
    if sq_norms is None:
        sq_norms = _sq_norms(points)
    n, n_clusters = points.shape[0], centers.shape[0]
    rows = np.arange(n)
    prev_inertia = np.inf
    trace = []
    labels = None
    for _ in range(max_iter):
        labels, d2 = _assign(points, centers, sq_norms)
        sizes = np.bincount(labels, minlength=n_clusters)
        # repair empty clusters with the point farthest from its center
        for c in np.flatnonzero(sizes == 0):
            movable = sizes[labels] > 1
            if not movable.any():
                movable = np.ones(n, dtype=bool)
            far = int(np.where(movable, d2[rows, labels], -np.inf).argmax())
            sizes[labels[far]] -= 1
            sizes[c] += 1
            labels[far] = c
            centers[c] = points[far]
            d2[:, c] = ((points - centers[c]) ** 2).sum(axis=1)
        inertia = float(d2[rows, labels].sum())
        trace.append(inertia)
        onehot = np.zeros((n_clusters, n))
        onehot[labels, rows] = 1.0
        filled = sizes > 0
        centers[filled] = (onehot @ points)[filled] / sizes[filled, None]
        if prev_inertia - inertia <= tol:
            break
        prev_inertia = inertia
    return labels, trace[-1], trace


def kmeans(points: np.ndarray, n_clusters: int, seed: int,
           restarts: int = 10, tol: float = 1e-6, max_iter: int = 300) -> np.ndarray:
    """Best-of-restarts k-means labels (k-means++ init, Lloyd refinement)."""
    return _kmeans_with_inertia(points, n_clusters, seed, restarts, tol, max_iter)[0]


def _kmeans_with_inertia(points, n_clusters, seed, restarts, tol=1e-6, max_iter=300):
    """(labels, inertia) of the lowest-inertia restart."""
    if restarts < 1:
        raise ConfigError(f"restarts={restarts} must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    if not 1 <= n_clusters <= points.shape[0]:
        raise ConfigError(f"n_clusters={n_clusters} must lie in [1, "
                          f"{points.shape[0]}], the number of points")
    sq_norms = _sq_norms(points)
    rng = np.random.default_rng(seed)
    best = (None, np.inf)
    for _ in range(restarts):
        centers = _kmeans_pp_init(points, n_clusters, rng, sq_norms)
        labels, inertia, _ = _lloyd(points, centers, tol, max_iter, sq_norms)
        if inertia < best[1]:
            best = (labels, inertia)
    return best


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
