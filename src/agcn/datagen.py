"""Synthetic graph generators and dataset file writers."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .graph import Graph, _atomic_open, build_graph

__all__ = ["SBMSpec", "TreeMatchSpec", "gen_sbm", "gen_tree_match", "write_graph_files"]


@dataclass(frozen=True)
class SBMSpec:
    """Stochastic block model with per-block Gaussian feature means.

    Block b gets mean ``mean_scale * e_b`` in a ``feature_dim``-dimensional
    space (default: one dimension per block); all nodes share the same
    isotropic noise scale.
    """

    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    feature_dim: int | None = None
    mean_scale: float = 1.0
    noise_scale: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not self.block_sizes or any(s <= 0 for s in self.block_sizes):
            raise ConfigError("block sizes must be positive")
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")
        if self.feature_dim is not None and self.feature_dim < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for name, s in (("mean_scale", self.mean_scale),
                        ("noise_scale", self.noise_scale)):
            if not np.isfinite(s):
                raise ConfigError(f"{name} must be finite, got {s}")


@dataclass(frozen=True)
class TreeMatchSpec:
    """Complete binary tree of depth r used for long-range reachability checks."""

    depth: int
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("tree depth must be >= 1")


def gen_sbm(spec: SBMSpec) -> Graph:
    """Sample an undirected SBM graph with block labels and Gaussian features."""
    rng = np.random.default_rng(spec.seed)
    sizes = np.asarray(spec.block_sizes, dtype=np.int64)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(len(sizes)), sizes)

    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], spec.p_in, spec.p_out)
    keep = rng.random(len(iu)) < prob
    edges = np.column_stack([iu[keep], ju[keep]])

    dim = spec.feature_dim if spec.feature_dim is not None else len(sizes)
    means = np.zeros((len(sizes), dim))
    for b in range(len(sizes)):
        means[b, b % dim] = spec.mean_scale
    feats = means[labels] + spec.noise_scale * rng.standard_normal((n, dim))

    return build_graph(edges, feats, labels)


def gen_tree_match(spec: TreeMatchSpec) -> Graph:
    """Complete binary tree whose leaves carry one-hot "neighbor count" codes.

    Encoding (fixed by this generator, seeded): the 2^r leaves receive a
    random permutation of the counts 1..2^r; the root receives the count of
    the leaf it must match; internal nodes receive count 0. Features are the
    one-hot of the count (dimension 2^r + 1) and labels equal the count, so
    solving the task requires information to travel depth-r paths.
    """
    r = spec.depth
    rng = np.random.default_rng(spec.seed)
    n = 2 ** (r + 1) - 1
    n_leaves = 2 ** r
    first_leaf = n_leaves - 1  # heap order: children of v are 2v+1, 2v+2

    parents = np.arange(1, n, dtype=np.int64)
    edges = np.column_stack([(parents - 1) // 2, parents])

    counts = np.zeros(n, dtype=np.int64)
    counts[first_leaf:] = rng.permutation(n_leaves) + 1
    target_leaf = int(rng.integers(first_leaf, n))
    counts[0] = counts[target_leaf]

    feats = np.zeros((n, n_leaves + 1))
    feats[np.arange(n), counts] = 1.0

    return build_graph(edges, feats, counts)


def write_graph_files(g: Graph, out_dir, prefix: str = "graph") -> dict:
    """Write a graph in the loader's file formats; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edge_path = out / f"{prefix}.edges"
    feat_path = out / f"{prefix}.features.csv"
    paths = {"edges": edge_path, "features": feat_path}

    rows, cols = g.adj.nonzero()
    keep = rows < cols
    with _atomic_open(edge_path) as fh:
        for u, v in zip(rows[keep], cols[keep]):
            fh.write(f"{u} {v}\n")
    with _atomic_open(feat_path) as fh:
        for row in g.features:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    if g.labels is not None:
        label_path = out / f"{prefix}.labels"
        with _atomic_open(label_path) as fh:
            for lab in g.labels:
                fh.write(f"{lab}\n")
        paths["labels"] = label_path
    return paths
