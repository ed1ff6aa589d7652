"""Diagnostics: grouping probe, same-label shortest paths, higher-order
distance ratios, feature masking."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import _label_vector, kmeans, label_mapping
from .errors import ConfigError, _check_type
from .graph import Graph, normalized_adjacency
from .model import _row_blocks

__all__ = [
    "GroupingProbeResult",
    "RRatioEntry",
    "RRatioReport",
    "grouping_probe",
    "shortest_path_histogram",
    "r_ratio",
    "mask_features",
]


@dataclass(frozen=True)
class GroupingProbeResult:
    """Hop-filtered features, their clustering, and per-node error flags."""

    filtered: np.ndarray     # (n, d) k-step smoothed features
    pred: np.ndarray         # k-means labels on the filtered features
    errors: np.ndarray       # bool, wrong under the best label bijection
    coords: np.ndarray       # (n, 2) PCA coordinates for plotting


def grouping_probe(g: Graph, k: int, seed: int = 0,
                   restarts: int = 10) -> GroupingProbeResult:
    """Smooth features with k self-loop-normalized adjacency multiplications,
    cluster them, and flag the nodes the clustering gets wrong."""
    _check_type("k", k)
    if k < 1:
        raise ConfigError(f"filter order k must be >= 1, got {k}")
    if g.labels is None:
        raise ConfigError("grouping_probe requires node labels")
    ahat = normalized_adjacency(g, with_self_loops=True)
    filtered = g.features
    for _ in range(k):
        filtered = ahat @ filtered
    pred = kmeans(filtered, g.n_clusters, seed=seed, restarts=restarts)
    mapping = label_mapping(pred, g.labels)
    errors = mapping[pred] != g.labels
    coords = _pca_2d(filtered)
    return GroupingProbeResult(filtered=filtered, pred=pred, errors=errors,
                               coords=coords)


def _pca_2d(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2] if vt.shape[0] >= 2 else np.vstack([vt, np.zeros((2 - vt.shape[0], vt.shape[1]))])
    # fix the sign convention so coordinates are reproducible
    for row in range(2):
        j = int(np.argmax(np.abs(comps[row])))
        if comps[row, j] < 0:
            comps[row] = -comps[row]
    return centered @ comps.T


def shortest_path_histogram(g: Graph) -> dict:
    """Tally shortest-path distance for every unordered same-label node pair.

    Unreachable pairs land in the ``math.inf`` bucket. Keys are ints (plus
    possibly ``math.inf``), inserted in ascending order. Distances are
    computed for one of the dense kernel's row blocks of a cluster's members
    at a time, and counted as they come.
    """
    # imported here: csgraph, with the scipy.sparse.linalg it loads, adds
    # ~11 MB to a process, and no train or evaluate path needs it
    from scipy.sparse.csgraph import shortest_path

    if g.labels is None:
        raise ConfigError("shortest_path_histogram requires node labels")
    n = g.n_nodes
    counts = np.zeros(n, dtype=np.int64)    # a finite distance is < n
    unreachable = 0
    for lab in np.unique(g.labels):
        members = np.flatnonzero(g.labels == lab)
        ranks = np.arange(len(members))
        for r in _row_blocks(n):
            # the last member has no pair of higher rank
            if r.start >= len(members) - 1:
                break
            dist = shortest_path(g.adj, method="D", unweighted=True,
                                 directed=False, indices=members[r])
            # each pair once, from its member of lower rank
            dist = dist[:, members][ranks > ranks[r, None]]
            finite = np.isfinite(dist)
            counts += np.bincount(dist[finite].astype(np.int64), minlength=n)
            unreachable += int(dist.size - finite.sum())
    hist = {int(k): int(counts[k]) for k in np.flatnonzero(counts)}
    if unreachable:
        hist[math.inf] = unreachable
    return hist


@dataclass(frozen=True)
class RRatioEntry:
    cluster: int
    k: int
    pair_mean: float | None
    literal: float | None
    notice: str | None = None

    def to_dict(self) -> dict:
        return {"cluster": self.cluster, "k": self.k,
                "pair_mean": self.pair_mean, "literal": self.literal,
                "notice": self.notice}


@dataclass(frozen=True)
class RRatioReport:
    """Relative higher-order row-distance ratios of misclustered nodes.

    ``pair_mean`` normalizes both numerator and denominator by their pair
    counts (the headline mode); ``literal`` divides the pair sums by the
    misclustered-set size and the node count instead.
    """

    k_range: tuple
    mode: str
    entries: tuple
    misclustered: dict       # true cluster -> node index list

    def to_dict(self) -> dict:
        return {
            "k_range": list(self.k_range),
            "mode": self.mode,
            "entries": [e.to_dict() for e in self.entries],
            "misclustered": {str(t): list(map(int, v))
                             for t, v in sorted(self.misclustered.items())},
        }


def _pair_dist_sums(power, groups):
    """Sums of the row distances |p_i - p_j| of the 0/1 matrix ``power``
    over all pairs i < j and over the pairs inside each of ``groups``
    (arrays of node ids). The distances are formed inside the Gram matrix,
    |p_i - p_j|^2 = |p_i|^2 + |p_j|^2 - 2 p_i . p_j, one row block at a
    time; they are symmetric with a zero diagonal, so each sum is half the
    total of its rows, which adds up over the blocks."""
    sq = (power * power).sum(axis=1)
    power_t = power.T.tocsr()
    all_sum, sub_sums = 0.0, np.zeros(len(groups))
    for r in _row_blocks(power.shape[0]):
        dist = (power[r] @ power_t).toarray()
        dist *= -2.0
        dist += sq[r, None]
        dist += sq[None, :]
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        all_sum += float(dist.sum())
        for i, members in enumerate(groups):
            rows = members[(members >= r.start) & (members < r.stop)]
            sub_sums[i] += dist[np.ix_(rows - r.start, members)].sum()
    return all_sum / 2, (sub_sums / 2).tolist()


def r_ratio(g: Graph, pred, truth, k_range) -> RRatioReport:
    """Compare higher-order structural distances of misclustered nodes to the
    population, per true cluster and per adjacency power k."""
    pred, truth = _label_vector("pred", pred), _label_vector("truth", truth)
    if pred.shape != (g.n_nodes,) or truth.shape != (g.n_nodes,):
        raise ConfigError("pred/truth lengths must match the node count")
    k_range = tuple(k_range)
    for k in k_range:
        _check_type("k_range entry", k)
    if not k_range or min(k_range) < 1:
        raise ConfigError("k_range must contain orders >= 1")

    mapping = label_mapping(pred, truth)
    wrong = mapping[pred] != truth
    clusters = np.unique(truth)
    misclustered = {int(t): np.flatnonzero(wrong & (truth == t)) for t in clusters}
    groups = list(misclustered.values())

    n = g.n_nodes
    all_pairs = n * (n - 1) // 2
    entries = []
    power = g.adj
    for k in range(1, max(k_range) + 1):
        if k > 1:
            power = (power @ g.adj).tocsr()
            power.data[:] = 1.0
        if k not in k_range:
            continue
        all_sum, sub_sums = _pair_dist_sums(power, groups)
        for t, members, sub_sum in zip(clusters, groups, sub_sums):
            if len(members) < 2:
                entries.append(RRatioEntry(
                    cluster=int(t), k=k, pair_mean=None, literal=None,
                    notice="fewer than two misclustered nodes"))
                continue
            sub_pairs = len(members) * (len(members) - 1) // 2
            if all_sum == 0.0 or sub_sum == 0.0:
                entries.append(RRatioEntry(
                    cluster=int(t), k=k, pair_mean=None, literal=None,
                    notice="degenerate zero pair distances"))
                continue
            pair_mean = (sub_sum / sub_pairs) / (all_sum / all_pairs)
            literal = (sub_sum / len(members)) / (all_sum / n)
            entries.append(RRatioEntry(cluster=int(t), k=k,
                                       pair_mean=pair_mean, literal=literal))
    return RRatioReport(k_range=k_range, mode="pair-mean",
                        entries=tuple(entries),
                        misclustered={t: v.tolist() for t, v in misclustered.items()})


def _n_masked(fraction: float, n_nodes: int) -> int:
    """How many of ``n_nodes`` rows :func:`mask_features` zeroes."""
    return int(round(fraction * n_nodes))


def mask_features(g: Graph, fraction: float, seed: int) -> Graph:
    """Zero the feature rows of round(fraction * N) seeded random nodes.

    The adjacency and labels are carried over untouched.
    """
    _check_type("fraction", fraction, float)
    if not 0.0 <= fraction < 1.0:
        raise ConfigError(f"fraction must lie in [0, 1), got {fraction}")
    _check_type("seed", seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    n_masked = _n_masked(fraction, g.n_nodes)
    feats = g.features.copy()
    if n_masked:
        rng = np.random.default_rng(seed)
        rows = rng.choice(g.n_nodes, size=n_masked, replace=False)
        feats[rows] = 0.0
    return replace(g, features=feats)
