"""Shared test helpers: tiny graph builders and independent oracles."""

import dataclasses

import numpy as np
from hypothesis import settings

from agcn.errors import ConfigError
from agcn.graph import KHopMask, build_graph
from agcn.model import _model_backward
from agcn.training import _objective

# every property draws the same examples on every run, with no time limit
settings.register_profile("agcn", deadline=None, derandomize=True)
settings.load_profile("agcn")


def random_graph(n, p, seed, d=3, labels=None):
    """Erdos-Renyi graph with standard-normal features."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    feats = rng.standard_normal((n, d))
    return build_graph(edges, feats, labels)


def gen_sbm_oracle(spec):
    """``gen_sbm`` from every node pair at once: the pair arrays, one
    probability and one uniform draw per pair."""
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


def path_graph(n, d=2, labels=None, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return build_graph(edges, rng.standard_normal((n, d)), labels)


def neighbors(mask, i):
    """The sorted list of node ``i`` in ``mask``, itself included."""
    return mask.indices[mask.indptr[i]:mask.indptr[i + 1]]


def complete_mask(n):
    """Mask in which every node reaches every node, self included."""
    return KHopMask(indptr=np.arange(0, n * n + 1, n),
                    indices=np.tile(np.arange(n), n))


def homophily_ratio(g) -> float:
    """Mean over non-isolated nodes of the same-label share of 1-hop neighbors."""
    if g.labels is None:
        raise ConfigError("homophily_ratio requires node labels")
    adj = g.adj.tocoo()
    deg = np.bincount(adj.row, minlength=g.n_nodes)
    same = np.bincount(adj.row, weights=g.labels[adj.row] == g.labels[adj.col],
                       minlength=g.n_nodes)
    if not deg.any():
        raise ConfigError("graph has no edges; homophily undefined")
    return float(np.mean(same[deg > 0] / deg[deg > 0]))


def bfs_distances(adj_dense, source, cutoff=None):
    """Plain BFS over a dense adjacency; -1 marks unreachable."""
    n = adj_dense.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        if cutoff is not None and level >= cutoff:
            break
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj_dense[u] > 0):
                if dist[v] < 0:
                    dist[v] = level + 1
                    nxt.append(v)
        frontier = nxt
        level += 1
    return dist


def cosine_sim(u, v) -> float:
    """Cosine similarity with a small additive guard; zero vectors give 0."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))


def pair_sims_oracle(a, b, rows, cols):
    """Dot products ``a[rows[e]] . b[cols[e]]`` from one gather of every
    entry e."""
    return np.einsum("ij,ij->i", a[rows], b[cols])


def dense_normalized(adj_dense, self_loops):
    a = adj_dense.astype(float).copy()
    if self_loops:
        a = a + np.eye(a.shape[0])
    deg = a.sum(axis=1)
    inv = np.zeros_like(deg)
    inv[deg > 0] = deg[deg > 0] ** -0.5
    return np.diag(inv) @ a @ np.diag(inv)


def assign_oracle(points, centers):
    """Nearest-center labels and squared distances from the (n, C, d)
    broadcast of every point-center difference."""
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def reanchor(batch, u):
    """``batch`` with its per-entry similarities recomputed from the unit
    rows ``u``: the same frozen pairs, scored at perturbed embeddings
    (finite differences)."""
    return dataclasses.replace(batch, entry_sims=batch.mask.entry_dots(u, u))


def grads_from_tape(params, tapes, h_last, u, norms, cfg, weights, batch):
    """``(grads, l_pos, l_neg, l_total)`` of one forward pass, given its
    embeddings' unit rows and norms and frozen pairs: the objective, then
    the model's backward pass, as one training epoch runs them."""
    l_pos, l_neg, l_total, d_emb = _objective(u, norms, batch, weights, cfg)
    return _model_backward(params, tapes, h_last, d_emb), l_pos, l_neg, l_total
