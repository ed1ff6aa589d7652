"""K-means on embeddings plus matched-accuracy and NMI metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import ConfigError, DimensionError, _check_type
from .graph import _node_ids

__all__ = ["ClusterResult", "kmeans", "label_mapping", "accuracy", "nmi",
           "evaluate"]


def _sq_norms(points):
    """Squared Euclidean norm of every row."""
    return np.einsum("ij,ij->i", points, points)


def _sq_dists(points, sq_norms, centers):
    """Squared distances ``||x||^2 - 2 x.c + ||c||^2`` from each of the
    (M, d) ``centers`` to every point: (M, n), from one GEMM, not clamped."""
    d2 = (-2.0 * centers) @ points.T
    d2 += sq_norms
    d2 += _sq_norms(centers)[:, None]
    return d2


def _kmeans_pp_init(points, n_clusters, seeds, restarts, sq_norms):
    """k-means++ inits of every restart of every seed, seed-major, as one
    (len(seeds) * restarts, C, d) array: each new center is drawn with
    probability proportional to squared distance from the nearest chosen
    center, for all restarts at once.

    Each seed's stream is read up front in the order one restart at a time
    reads it: per restart ``integers(n)`` for the first center, then C-1
    uniforms, one per later center. A uniform u picks the first point at
    which the cumulative share of the distance mass exceeds u, as
    ``Generator.choice(n, p=d2 / total)`` does with its one ``random()``;
    if every point lies on a chosen center (total 0), u picks point
    ``floor(u n)``."""
    n = points.shape[0]
    first, uniforms = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            first.append(rng.integers(n))
            uniforms.append(rng.random(n_clusters - 1))
    picks = np.empty((len(first), n_clusters), dtype=np.intp)
    picks[:, 0] = first
    d2 = np.full((len(first), n), np.inf)
    for c, u in enumerate(np.array(uniforms).T, start=1):
        new = _sq_dists(points, sq_norms, points[picks[:, c - 1]])
        np.minimum(d2, np.maximum(new, 0.0, out=new), out=d2)
        total = d2.sum(axis=1)
        live = total > 0
        cdf = np.cumsum(d2[live] / total[live, None], axis=1)
        cdf /= cdf[:, -1:]
        picks[:, c] = np.minimum((u * n).astype(np.intp), n - 1)
        picks[live, c] = (cdf <= u[live, None]).sum(axis=1)
    return points[picks]


def _assign(points, centers, sq_norms):
    """Nearest-center labels and squared distances for R sets of C centers.

    ``centers`` is (R, C, d). The distances ``||x||^2 - 2 x.c + ||c||^2``
    of every point to every center come from one (R*C, d) @ (d, n) GEMM
    and are read as if clamped at 0: each point takes the first of a set's
    C centers whose clamped distance is the minimum, as ``argmin`` does.
    Returns the (R, n) labels and the (R, n) clamped distances to them."""
    n_sets, n_clusters, dim = centers.shape
    d2 = _sq_dists(points, sq_norms, centers.reshape(-1, dim))
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
        # the repair above leaves no cluster empty
        means = (onehot @ points) / sizes.reshape(-1, 1)
        del onehot      # freed before the next step's distances, not after
        centers[live] = means.reshape(-1, n_clusters, dim)
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

# Seeds are clustered in groups of consecutive seeds whose (group * restarts
# * C, n) float64 distance and one-hot arrays each fit this many bytes;
# evaluate's tracemalloc peak stays under twice it. K-means for 10 seeds x
# 10 restarts, median of 9, one BLAS thread on a 2-vCPU Xeon VM, by seeds
# per group: 188, 173, 156 and 152 ms for groups of 1, 2, 5 and 10 on
# trained n=1400, C=7 embeddings; 152, 124, 107 and 110 ms for 1, 2, 6 and
# 10 at n=1500, C=5; 917, 860, 826 and 926 ms for 1, 2, 5 and 10 on
# n=5600, C=7 blobs.
KMEANS_GROUP_BYTES = 8 << 20


def kmeans(points: np.ndarray, n_clusters: int, seed: int,
           restarts: int = 10) -> np.ndarray:
    """Best-of-restarts k-means labels (k-means++ init, Lloyd refinement),
    numbered by first appearance: node 0's cluster is 0."""
    return _kmeans_with_inertia(points, n_clusters, [seed], restarts)[0]


def _canonical(labels):
    """``labels`` renumbered by first appearance: 0, then each new one."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _kmeans_with_inertia(points, n_clusters, seeds, restarts):
    """Per seed, the labels of its lowest-inertia restart (the first on
    ties), numbered by first appearance, as a (len(seeds), n) array. The
    benchmark's tracer wraps this function by its name.

    Each seed draws from its own stream, and Lloyd draws nothing, so every
    restart sees the stream it would see alone. Groups of consecutive seeds
    are seeded and refined together, one ``_lloyd`` per group."""
    seeds = list(seeds)
    for name, value in (("restarts", restarts), ("n_clusters", n_clusters),
                        *(("seed", seed) for seed in seeds)):
        _check_type(name, value)
    if restarts < 1:
        raise ConfigError(f"restarts={restarts} must be >= 1")
    if min(seeds) < 0:
        raise ConfigError(f"seed={min(seeds)} must be >= 0")
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= n_clusters <= n:
        raise ConfigError(f"n_clusters={n_clusters} must lie in [1, "
                          f"{n}], the number of points")
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        raise ConfigError(f"point row {int(bad.argmax())} holds NaN or "
                          "infinity; k-means needs finite points")
    sq_norms = _sq_norms(points)
    group = max(1, KMEANS_GROUP_BYTES // (8 * restarts * n_clusters * n))
    labels = []
    for g0 in range(0, len(seeds), group):
        centers = _kmeans_pp_init(points, n_clusters, seeds[g0:g0 + group],
                                  restarts, sq_norms)
        runs, run_inertia, _ = _lloyd(points, centers, LLOYD_TOL,
                                      LLOYD_MAX_ITER, sq_norms)
        best = run_inertia.reshape(-1, restarts).argmin(axis=1)
        runs = runs.reshape(-1, restarts, n)[np.arange(len(best)), best]
        labels.extend(_canonical(lab) for lab in runs)
    return np.array(labels)


def _inertia(points, labels):
    """Summed squared distance from each point to its cluster's mean, with
    the means from one (C, n) one-hot product whatever the partition."""
    onehot = np.zeros((labels.max() + 1, len(labels)))
    onehot[labels, np.arange(len(labels))] = 1.0
    diff = points - ((onehot @ points) / onehot.sum(axis=1)[:, None])[labels]
    return float((diff * diff).sum())


def _label_vector(side, labels):
    """``labels`` as an int64 array, checked to hold whole numbers >= 0
    before the cast, so none is truncated; ``side`` names it in errors."""
    labels, bad, whole = _node_ids(labels, math.inf)
    if bad is None:
        return labels
    raise ConfigError(f"{side} label {bad} is negative; labels must be >= 0"
                      if whole else f"{side} label {bad} is not a whole number")


def _as_labels(pred, truth):
    """Both label vectors as :func:`_label_vector` arrays, checked to be
    the same length."""
    pred, truth = _label_vector("pred", pred), _label_vector("truth", truth)
    if pred.shape != truth.shape:
        raise DimensionError(f"label lengths differ: {pred.shape} vs {truth.shape}")
    return pred, truth


def _contingency(pred, truth):
    """The sorted distinct labels of each side and the (C_pred, C_truth)
    count of nodes holding each pair of them: a table bounded by the
    cluster counts, whatever the label values."""
    pred_values, pi = np.unique(pred, return_inverse=True)
    true_values, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((len(pred_values), len(true_values)), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return pred_values, true_values, table


def label_mapping(pred, truth) -> np.ndarray:
    """Best bijection from predicted to true labels (a maximum-weight full
    matching on the contingency table), as an array indexed by predicted
    label value; a predicted label left unmatched maps to -1, which is no
    true label. Under tied optima any one of them is returned."""
    pred, truth = _as_labels(pred, truth)
    pred_values, true_values, table = _contingency(pred, truth)
    # one more than each count: every cell is an edge, so a full matching
    # exists, and every full matching gains the same min(C_pred, C_truth)
    rows, cols = min_weight_full_bipartite_matching(
        sparse.csr_array(table + 1), maximize=True)
    mapping = np.full(int(pred.max()) + 1, -1, dtype=np.int64)
    mapping[pred_values[rows]] = true_values[cols]
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
    _, _, table = _contingency(pred, truth)
    row = table.sum(axis=1)
    col = table.sum(axis=0)

    # every sum runs over sorted terms, so that the result depends on the
    # two partitions alone, not on how either side numbers its clusters
    def _entropy(counts):
        c = np.sort(counts[counts > 0]).astype(np.float64)
        return float(((c / n) * np.log(n / c)).sum())

    nz = table > 0
    cells = table[nz].astype(np.float64)
    outer = (row[:, None] * col[None, :])[nz].astype(np.float64)
    mi = float(np.sort((cells / n) * np.log(n * cells / outer)).sum())
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

    One ``_kmeans_with_inertia`` call clusters every seed: all restarts of
    a group of seeds are seeded and refined in lockstep. Selection is by
    inertia, the first seed on ties, not by accuracy, so ground truth never
    leaks into model selection. Lloyd's inertias move in the last bits with
    how many restarts share a GEMM, so each distinct partition is scored
    once from its labels alone, and seeds that reach it tie exactly.
    """
    truth = _label_vector("truth", truth)
    points = np.asarray(h, dtype=np.float64)
    if truth.shape != points.shape[:1]:
        raise DimensionError(f"label lengths differ: {points.shape[:1]} "
                             f"vs {truth.shape}")
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("evaluate needs at least one k-means seed")
    labels = _kmeans_with_inertia(points, n_clusters, seeds, restarts)
    scores = {}
    for lab in labels:
        if lab.tobytes() not in scores:
            scores[lab.tobytes()] = (_inertia(points, lab),
                                     accuracy(lab, truth), nmi(lab, truth))
    records = tuple((int(seed), *scores[lab.tobytes()])
                    for seed, lab in zip(seeds, labels))
    best = int(np.argmin([inertia for _, inertia, _, _ in records]))
    chosen, _, a, m = records[best]
    return ClusterResult(labels=labels[best].copy(), acc=a, nmi=m,
                         chosen_seed=chosen, seed_records=records)
