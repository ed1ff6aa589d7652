"""Shared test helpers: tiny graph builders and independent oracles."""

import numpy as np

from agcn.graph import build_graph


def random_graph(n, p, seed, d=3, labels=None):
    """Erdos-Renyi graph with standard-normal features."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    feats = rng.standard_normal((n, d))
    return build_graph(edges, feats, labels)


def path_graph(n, d=2, labels=None, seed=0):
    rng = np.random.default_rng(seed)
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return build_graph(edges, rng.standard_normal((n, d)), labels)


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
