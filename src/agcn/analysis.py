"""Diagnostics: grouping probe, higher-order distance ratios, feature masking."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .clustering import kmeans, label_mapping
from .errors import ConfigError
from .graph import Graph, normalized_adjacency

__all__ = [
    "GroupingProbeResult",
    "RRatioEntry",
    "RRatioReport",
    "grouping_probe",
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


def _pair_dist_stats(dist, members):
    """(sum, count) of pairwise distances among ``members`` (i < j). The
    distances are symmetric with a zero diagonal, so the sum is half the
    block's total."""
    m = len(members)
    return float(dist[np.ix_(members, members)].sum()) / 2, m * (m - 1) // 2


def r_ratio(g: Graph, pred, truth, k_range) -> RRatioReport:
    """Compare higher-order structural distances of misclustered nodes to the
    population, per true cluster and per adjacency power k."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if len(pred) != g.n_nodes or len(truth) != g.n_nodes:
        raise ConfigError("pred/truth lengths must match the node count")
    k_range = tuple(k_range)
    if not k_range or min(k_range) < 1:
        raise ConfigError("k_range must contain orders >= 1")

    mapping = label_mapping(pred, truth)
    wrong = mapping[pred] != truth
    clusters = np.unique(truth)
    misclustered = {int(t): np.flatnonzero(wrong & (truth == t)) for t in clusters}

    n = g.n_nodes
    entries = []
    power = g.adj
    for k in range(1, max(k_range) + 1):
        if k > 1:
            power = (power @ g.adj).tocsr()
            power.data[:] = 1.0
        if k not in k_range:
            continue
        # row distances of the 0/1 power, formed inside its Gram matrix:
        # |p_i - p_j|^2 = |p_i|^2 + |p_j|^2 - 2 p_i . p_j
        dist = (power @ power.T).toarray()
        sq = dist.diagonal().copy()
        dist *= -2.0
        dist += sq[:, None]
        dist += sq[None, :]
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        all_sum, all_pairs = float(dist.sum()) / 2, n * (n - 1) // 2
        for t in clusters:
            members = misclustered[int(t)]
            if len(members) < 2:
                entries.append(RRatioEntry(
                    cluster=int(t), k=k, pair_mean=None, literal=None,
                    notice="fewer than two misclustered nodes"))
                continue
            sub_sum, sub_pairs = _pair_dist_stats(dist, members)
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


def mask_features(g: Graph, fraction: float, seed: int) -> Graph:
    """Zero the feature rows of round(fraction * N) seeded random nodes.

    The adjacency and labels are carried over untouched.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigError(f"fraction must lie in [0, 1), got {fraction}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    n_masked = int(round(fraction * g.n_nodes))
    feats = g.features.copy()
    if n_masked:
        rng = np.random.default_rng(seed)
        rows = rng.choice(g.n_nodes, size=n_masked, replace=False)
        feats[rows] = 0.0
    return replace(g, features=feats)
