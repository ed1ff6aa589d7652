"""Synthetic graph generators and dataset file writers."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, _check_fields
from .graph import Graph, _atomic_open, build_graph

__all__ = ["SBMSpec", "gen_sbm", "write_graph_files"]

# node pairs gen_sbm draws at once: it takes the upper triangle in blocks of
# whole rows at ~33 bytes a pair, so a draw peaks near 40 MB at any node count
SBM_PAIR_BUDGET = 1 << 20


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
        _check_fields(self)
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def gen_sbm(spec: SBMSpec) -> Graph:
    """Sample an undirected SBM graph with block labels and Gaussian features."""
    rng = np.random.default_rng(spec.seed)
    sizes = np.asarray(spec.block_sizes, dtype=np.int64)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(len(sizes)), sizes)

    # pairs (i, j > i) in the row-major order of one draw over all of them
    step = max(1, SBM_PAIR_BUDGET // n)
    edges = []
    for lo in range(0, n, step):
        iu, ju = np.triu_indices(min(step, n - lo), k=lo + 1, m=n)
        iu += lo
        prob = np.where(labels[iu] == labels[ju], spec.p_in, spec.p_out)
        keep = rng.random(len(iu)) < prob
        edges.append(np.column_stack([iu[keep], ju[keep]]))

    dim = spec.feature_dim if spec.feature_dim is not None else len(sizes)
    means = np.zeros((len(sizes), dim))
    for b in range(len(sizes)):
        means[b, b % dim] = spec.mean_scale
    feats = means[labels] + spec.noise_scale * rng.standard_normal((n, dim))

    return build_graph(np.concatenate(edges), feats, labels)


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
