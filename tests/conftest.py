"""Shared test helpers: tiny graph builders and independent oracles."""

import dataclasses
import math

import numpy as np
from hypothesis import settings
from scipy import sparse
from scipy.sparse.csgraph import shortest_path

from agcn import clustering
from agcn.errors import ConfigError
from agcn.graph import KHopMask, build_graph, khop_mask, khop_weights
from agcn.model import _forward_tape, _model_backward, init_params
from agcn.training import (_decode_pairs, _loss_pos_impl, _objective,
                           _node_chunks, _pair_batch, _rank, _unit_rows,
                           _unit_rows_backward, adam_step, init_adam_state)

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


def binary_tree(depth, d=2, seed=0):
    """Complete binary tree of ``depth`` in heap order: node v's children
    are 2v+1 and 2v+2, and the 2^depth leaves are the last nodes."""
    n = 2 ** (depth + 1) - 1
    edges = [[(v - 1) // 2, v] for v in range(1, n)]
    feats = np.random.default_rng(seed).standard_normal((n, d))
    return build_graph(edges, feats)


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


def shortest_path_histogram_oracle(g):
    """``shortest_path_histogram`` from one |members| x n distance block per
    cluster and one ``np.unique`` over every pair's distance."""
    dists = [np.empty(0)]
    for lab in np.unique(g.labels):
        members = np.flatnonzero(g.labels == lab)
        if len(members) < 2:
            continue
        dist = shortest_path(g.adj, method="D", unweighted=True,
                             directed=False, indices=members)
        iu, ju = np.triu_indices(len(members), k=1)
        dists.append(dist[:, members][iu, ju])
    keys, counts = np.unique(np.concatenate(dists), return_counts=True)
    return {(math.inf if math.isinf(k) else int(k)): int(c)
            for k, c in zip(keys, counts)}


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


def lloyd_oracle(points, centers, tol, max_iter):
    """One restart's Lloyd iterations with farthest-point repair for empty
    clusters; ``centers`` moves in place. Stops only at an inertia drop
    <= ``tol`` or after ``max_iter`` steps.

    Each step assigns with ``_assign`` on this one center set, whose
    arithmetic ``test_clustering`` checks against ``assign_oracle``, and
    reads the distances of the whole (n, C) table from it. Returns
    (labels, inertia, inertia_trace)."""
    n, n_clusters = points.shape[0], centers.shape[0]
    sq_norms = clustering._sq_norms(points)
    rows = np.arange(n)
    prev_inertia = np.inf
    trace = []
    labels = None
    for _ in range(max_iter):
        labels = clustering._assign(points, centers[None], sq_norms)[0][0]
        d2 = clustering._assign(points, centers[:, None], sq_norms)[1].T
        sizes = np.bincount(labels, minlength=n_clusters)
        for c in np.flatnonzero(sizes == 0):
            far = int(np.where(sizes[labels] > 1, d2[rows, labels],
                               -np.inf).argmax())
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


def kmeans_pp_oracle(points, n_clusters, rng, sq_norms):
    """One k-means++ init, one center at a time: each distance a GEMV, each
    draw a ``Generator.choice`` over the squared distances. A step at which
    every point lies on a chosen center (total 0) takes point floor(u n) of
    a uniform u."""
    n = points.shape[0]

    def sq_dist_to(center):
        d2 = sq_norms - 2.0 * (points @ center) + center @ center
        return np.maximum(d2, 0.0, out=d2)

    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = sq_dist_to(centers[0])
    for c in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            centers[c] = points[min(int(rng.random() * n), n - 1)]
            continue
        centers[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, sq_dist_to(centers[c]))
    return centers


def canonical_oracle(labels):
    """``labels`` renumbered in order of first appearance."""
    first = {}
    return np.array([first.setdefault(lab, len(first)) for lab in labels])


def oracle_restarts(points, n_clusters, seeds, restarts):
    """Per seed, the (labels, inertia) of every restart, one at a time: each
    ``kmeans_pp_oracle`` init is drawn just before its ``lloyd_oracle``
    run."""
    points = np.asarray(points, dtype=np.float64)
    sq_norms = clustering._sq_norms(points)
    per_seed = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        runs = []
        for _ in range(restarts):
            centers = kmeans_pp_oracle(points, n_clusters, rng, sq_norms)
            labels, inertia, _ = lloyd_oracle(points, centers,
                                              clustering.LLOYD_TOL,
                                              clustering.LLOYD_MAX_ITER)
            runs.append((labels, inertia))
        per_seed.append(runs)
    return per_seed


def kmeans_oracle(points, n_clusters, seeds, restarts):
    """``_kmeans_with_inertia`` one seed and one restart at a time: a
    restart replaces its seed's best only at a strictly lower inertia, and
    the best labels are renumbered by first appearance."""
    labels = []
    for runs in oracle_restarts(points, n_clusters, seeds, restarts):
        best = (None, np.inf)
        for run_labels, inertia in runs:
            if inertia < best[1]:
                best = (run_labels, inertia)
        labels.append(canonical_oracle(best[0]))
    return np.array(labels)


def loss_pos_oracle(u, weights):
    """The weighted-positive value and its gradient with respect to the unit
    rows ``u`` from one dense n x n array: exp(u u^T), turned into G, the
    gradient with respect to the similarities, in place."""
    n = u.shape[0]
    expo = u @ u.T
    np.exp(expo, out=expo)
    np.fill_diagonal(expo, 0.0)
    den = expo.sum(axis=1)

    coo = sparse.coo_array(weights)
    e_at = expo[coo.row, coo.col]
    num = np.bincount(coo.row, weights=coo.data * e_at, minlength=n)
    contrib = num > 0
    n_contrib = int(contrib.sum())
    value = float(np.mean(np.log(den[contrib]) - np.log(num[contrib])))

    expo /= (n_contrib * den)[:, None]
    expo[~contrib] = 0.0
    expo[coo.row, coo.col] -= coo.data * e_at / (n_contrib * num[coo.row])
    return value, expo @ u + expo.T @ u


def pair_batch(u, mask, cap, rng):
    """The pairs of every node ranked at the unit rows ``u``, as one chunk:
    what ``train`` draws in one epoch, in its order."""
    nodes = np.concatenate([np.empty(0, dtype=np.int64),
                            *_node_chunks(mask, cap)])
    return _pair_batch(_rank(u, mask), nodes, cap, rng)


def hinge_oracle(u, mask, cap, rng, gamma):
    """The hinge value and its gradient with respect to ``u`` from one
    batch of every sampled pair of the graph, built at once: ranks from one
    ``np.lexsort``, nodes by index, each over-cap node drawing by one
    ``rng.choice``. Each mask entry's exp terms and each node's hinge
    values are summed in pair order, then the node sums over the nodes."""
    sims = mask.entry_dots(u, u)
    src = mask.src_ids
    order = np.lexsort((np.where(src == mask.indices, -np.inf, -sims), src))
    sizes = mask.list_sizes() - 1
    totals = sizes * (sizes - 1) // 2
    nodes = np.flatnonzero(sizes >= 2)
    codes = [np.arange(total) if total <= cap
             else rng.choice(total, cap, replace=False)
             for total in totals[nodes]]
    owner = np.repeat(nodes, [len(c) for c in codes]).astype(np.int64)
    a, b = _decode_pairs(np.concatenate([np.empty(0, dtype=np.int64), *codes]),
                         sizes[owner])
    base = mask.indptr[owner] + 1
    plus_e, minus_e = order[base + a], order[base + b]
    n_contrib = len(nodes)
    if n_contrib == 0:
        return 0.0, np.zeros_like(u)

    s_plus, s_minus = sims[plus_e], sims[minus_e]
    hinge = np.exp(s_minus) - np.exp(s_plus) + gamma * (b - a)
    active = hinge > 0
    g_entry = np.bincount(minus_e[active], weights=np.exp(s_minus[active]),
                          minlength=len(sims))
    g_entry -= np.bincount(plus_e[active], weights=np.exp(s_plus[active]),
                           minlength=len(sims))
    g = mask.pattern(g_entry / n_contrib)
    per_node = np.bincount(owner[active], weights=hinge[active],
                           minlength=len(u))
    return float(per_node.sum() / n_contrib), (g + g.T) @ u


def train_oracle(g, cfg):
    """``train`` with every epoch's hinge from :func:`hinge_oracle`:
    ``(params, history)``. With d_out > d_v the losses see the embedding
    in the orthonormal columns q of the reduced QR of ``final_proj.T``,
    and their gradient goes back through ``q.T``."""
    mask = khop_mask(g, cfg.k)
    weights = khop_weights(g, cfg.k) if cfg.lam != 0 else None
    params = init_params(cfg.dims_for(g.feature_dim), cfg.seed)
    state = init_adam_state(params)
    history = []
    for epoch in range(cfg.epochs):
        emb, h_last, tapes = _forward_tape(g.features, mask, params,
                                           mode=cfg.mode)
        span = cfg.d_out > cfg.d_v
        if span:
            q = np.linalg.qr(params.final_proj.T)[0]
            emb = emb @ q
        u, norms = _unit_rows(emb)
        l_neg, d_u = 0.0, np.zeros_like(u)
        if cfg.use_neg:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, epoch)))
            l_neg, d_u = hinge_oracle(u, mask, cfg.pair_cap, rng, cfg.gamma)
        l_pos, l_total = math.nan, l_neg
        if cfg.lam != 0:
            l_pos, d_pos = _loss_pos_impl(u, weights)
            d_u += cfg.lam * d_pos
            l_total = l_neg + cfg.lam * l_pos
        d_emb = _unit_rows_backward(u, norms, d_u)
        grads = _model_backward(params, tapes, h_last,
                                d_emb @ q.T if span else d_emb)
        history.append((l_pos, l_neg, l_total))
        params, state = adam_step(params, grads, state, cfg.lr)
    return params, np.array(history)


def reanchor(batch, u):
    """``batch`` with its per-entry similarities recomputed from the unit
    rows ``u``: the same frozen pairs, scored at perturbed embeddings
    (finite differences)."""
    return dataclasses.replace(batch, entry_sims=batch.mask.entry_dots(u, u))


def grads_from_tape(params, tapes, h_last, u, norms, cfg, weights, batch):
    """``(grads, l_pos, l_neg, l_total)`` of one forward pass, given its
    embeddings' unit rows and norms and frozen pairs, one chunk: the
    objective, then the model's backward pass, as one training epoch runs
    them."""
    l_pos, l_neg, l_total, d_emb = _objective(u, norms, [batch], weights, cfg)
    return _model_backward(params, tapes, h_last, d_emb), l_pos, l_neg, l_total
