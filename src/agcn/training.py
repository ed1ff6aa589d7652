"""Contrastive losses, exact gradients, Adam optimization and the training loop.

Two loss terms drive the embeddings: a weighted-positive term that pulls
k-hop-reachable nodes together (weights are the k-th normalized-adjacency
power), and a rank-margin hinge over sampled neighbor pairs whose margin
grows with the similarity-rank gap. Neighbor rankings and sampled pairs are
recomputed every epoch from the current embeddings and treated as constants
by the gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, DegenerateLossError, NumericError
from .graph import Graph, KHopMask, khop_mask, khop_weights
from .model import Dims, ModelParams, _forward_tape, _model_backward, init_params

__all__ = [
    "TrainingConfig",
    "AdamState",
    "DEFAULT_K_GRID",
    "DEFAULT_LAMBDA_GRID",
    "loss_pos",
    "loss_neg",
    "total_loss",
    "backward",
    "adam_step",
    "init_adam_state",
    "train",
    "history_to_csv",
]

EPS = 1e-12

DEFAULT_K_GRID = tuple(range(1, 11))
DEFAULT_LAMBDA_GRID = tuple(10.0 ** e for e in range(-4, 11))


@dataclass
class TrainingConfig:
    """Hyperparameters and seeds; defaults follow the standard setting."""

    k: int = 2
    lam: float = 1e-2
    gamma: float = 1e-4
    epochs: int = 200
    layers: int = 2
    heads: int = 4
    d_q: int = 64
    d_v: int = 64
    d_out: int = 100
    lr: float = 1e-3
    pair_cap: int = 256
    seed: int = 0
    restarts: int = 10
    residual: str = "input"
    mode: str = "structure"
    use_neg: bool = True
    max_neighbors: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if self.gamma <= 0:
            raise ConfigError("gamma must be > 0")
        for name in ("epochs", "layers", "heads", "d_q", "d_v", "d_out",
                     "pair_cap", "restarts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if self.mode not in ("structure", "vanilla"):
            raise ConfigError("mode must be 'structure' or 'vanilla'")
        if self.residual not in ("input", "hidden"):
            raise ConfigError("residual must be 'input' or 'hidden'")

    def dims_for(self, feature_dim: int) -> Dims:
        # layer output width equals the value width; the final projection
        # then maps to d_out
        return Dims(d=feature_dim, d_model=self.d_v, d_q=self.d_q,
                    d_v=self.d_v, heads=self.heads, layers=self.layers,
                    d_out=self.d_out, residual=self.residual)


def _row_norms(h):
    return np.sqrt(np.einsum("ij,ij->i", h, h))


def _pair_sims(h, norms, rows, cols):
    return np.einsum("ij,ij->i", h[rows], h[cols]) / (norms[rows] * norms[cols] + EPS)


# ---------------------------------------------------------------------------
# positive-pair loss
# ---------------------------------------------------------------------------

def _loss_pos_impl(h, weights, need_grad):
    n = h.shape[0]
    if n < 2:
        raise ConfigError("positive loss needs at least two nodes")
    norms = _row_norms(h)
    denom = norms[:, None] * norms[None, :]
    denom += EPS
    sims = h @ h.T
    sims /= denom
    expo = np.exp(sims)
    np.fill_diagonal(expo, 0.0)
    den = expo.sum(axis=1)

    coo = sparse.coo_array(weights)
    e_at = expo[coo.row, coo.col]
    num = np.bincount(coo.row, weights=coo.data * e_at, minlength=n)
    contrib = num > 0
    n_contrib = int(contrib.sum())
    if n_contrib == 0:
        raise DegenerateLossError("every node has an all-zero positive-weight row")
    value = float(np.mean(np.log(den[contrib]) - np.log(num[contrib])))
    if not need_grad:
        return value, None

    # turn expo into the similarity gradient in place, then into B = G / D
    expo /= den[:, None]
    expo[~contrib] = 0.0
    expo[coo.row, coo.col] -= coo.data * e_at / num[coo.row]
    zero = norms == 0
    if zero.any():
        expo[zero, :] = 0.0
        expo[:, zero] = 0.0
    denom *= n_contrib
    expo /= denom
    m = expo + expo.T
    sims *= m                            # rank-one correction term (M .* S)
    r = sims @ norms
    safe = np.where(norms > 0, norms, 1.0)
    d_h = m @ h - (r / safe)[:, None] * h
    return value, d_h


def loss_pos(h: np.ndarray, weights) -> float:
    """Mean over contributing nodes of the weighted-positive contrast term."""
    value, _ = _loss_pos_impl(np.asarray(h, dtype=np.float64), weights, False)
    return value


# ---------------------------------------------------------------------------
# neighbor ranking and pair sampling
# ---------------------------------------------------------------------------

def _pair_codes(n: int, cap: int, rng):
    """Rank-position pairs (a, b), a < b: all of them, or a seeded uniform
    sample without replacement when there are more than ``cap``."""
    total = n * (n - 1) // 2
    if total <= cap:
        return np.triu_indices(n, k=1)
    codes = _sample_distinct(rng, total, cap)
    block_ends = np.cumsum(np.arange(n - 1, 0, -1))
    a = np.searchsorted(block_ends, codes, side="right")
    prev = np.where(a > 0, block_ends[a - 1], 0)
    return a, a + 1 + (codes - prev)


def _sample_distinct(rng, total: int, k: int) -> np.ndarray:
    """k distinct integers from [0, total), uniform, in draw order."""
    out = np.empty(0, dtype=np.int64)
    while len(out) < k:
        draw = rng.integers(0, total, size=2 * (k - len(out)) + 16, dtype=np.int64)
        uniq, first = np.unique(draw, return_index=True)
        new = uniq[np.argsort(first)]
        if len(out):
            new = new[~np.isin(new, out)]
        out = np.concatenate([out, new])
    return out[:k]


@dataclass
class _PairBatch:
    """Flat sampled pairs for the whole graph, frozen for one epoch.

    Pairs reference positions in the non-self mask-edge arrays, so pair
    similarities are single gathers from the per-edge similarity vector.
    """

    e_src: np.ndarray       # edge endpoints (node, neighbor), self excluded
    e_dst: np.ndarray
    plus_e: np.ndarray      # per pair: edge position of the better-ranked side
    minus_e: np.ndarray
    gap: np.ndarray         # rank difference, always >= 1
    n_contrib: int
    edge_sims: np.ndarray | None = None   # sims at construction time only


def _pair_batch(h, mask: KHopMask, cap: int, rng) -> _PairBatch:
    """Oriented (better-ranked, worse-ranked) neighbor pairs of every node.

    Each node's non-self neighbors are ranked by descending cosine
    similarity, ties going to the lower index. A node contributes all its
    pairs when they fit under ``cap``, otherwise ``cap`` distinct pairs
    drawn from ``rng``.
    """
    n = h.shape[0]
    src = mask.src_ids()
    dst = mask.indices
    keep = src != dst
    e_src, e_dst = src[keep], dst[keep]
    norms = _row_norms(h)
    sims = _pair_sims(h, norms, e_src, e_dst)
    order = np.lexsort((e_dst, -sims, e_src))
    sizes = np.bincount(e_src, minlength=n)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])

    plus, minus, gap = [], [], []
    # nodes whose full pair set fits under the cap, grouped by list size so
    # each group is one broadcast gather; all-pair enumeration is identical
    # for every node of the same size
    small = np.flatnonzero((sizes >= 2) & (sizes * (sizes - 1) // 2 <= cap))
    for sz in np.unique(sizes[small]):
        group = small[sizes[small] == sz]
        a, b = _pair_codes(int(sz), cap, rng)
        base = starts[group][:, None]
        plus.append(order[base + a[None, :]].ravel())
        minus.append(order[base + b[None, :]].ravel())
        gap.append(np.broadcast_to(b - a, (len(group), len(a))).ravel())
    # oversized nodes draw their own seeded sample, in index order
    for i in np.flatnonzero(sizes * (sizes - 1) // 2 > cap):
        seg = order[starts[i]:starts[i + 1]]   # edge positions by rank
        a, b = _pair_codes(len(seg), cap, rng)
        plus.append(seg[a])
        minus.append(seg[b])
        gap.append(b - a)
    if not plus:
        empty = np.empty(0, dtype=np.int64)
        return _PairBatch(e_src, e_dst, empty, empty, empty, 0, sims)
    return _PairBatch(
        e_src=e_src, e_dst=e_dst,
        plus_e=np.concatenate(plus), minus_e=np.concatenate(minus),
        gap=np.concatenate(gap).astype(np.int64),
        n_contrib=int((sizes >= 2).sum()),
        edge_sims=sims,
    )


# ---------------------------------------------------------------------------
# rank-margin negative loss
# ---------------------------------------------------------------------------

def _batch_sims(h, norms, batch: _PairBatch, cached=False):
    if cached and batch.edge_sims is not None:
        edge_sims = batch.edge_sims
    else:
        edge_sims = _pair_sims(h, norms, batch.e_src, batch.e_dst)
    return edge_sims, edge_sims[batch.plus_e], edge_sims[batch.minus_e]


def _loss_neg_impl(h, batch: _PairBatch, gamma: float, need_grad, cached=False):
    """``cached=True`` is only valid when ``h`` is the matrix the batch was
    built from; it skips recomputing the per-edge similarities."""
    if batch.n_contrib == 0:
        return 0.0, (np.zeros_like(h) if need_grad else None)
    norms = _row_norms(h)
    edge_sims, s_plus, s_minus = _batch_sims(h, norms, batch, cached=cached)
    hinge = np.exp(s_minus) - np.exp(s_plus) + gamma * batch.gap
    active = hinge > 0
    value = float(hinge[active].sum() / batch.n_contrib)
    if not need_grad:
        return value, None

    # accumulate hinge gradients per mask edge, then one cosine backward
    n_edges = len(edge_sims)
    g_edge = np.bincount(batch.minus_e[active],
                         weights=np.exp(s_minus[active]),
                         minlength=n_edges).astype(np.float64)
    g_edge -= np.bincount(batch.plus_e[active],
                          weights=np.exp(s_plus[active]), minlength=n_edges)
    g_edge /= batch.n_contrib
    nz = g_edge != 0
    d_h = _cosine_backward_pairs(h, norms, batch.e_src[nz], batch.e_dst[nz],
                                 edge_sims[nz], g_edge[nz])
    return value, d_h


def _cosine_backward_pairs(h, norms, rows, cols, svals, gvals):
    """Gradient of sum_e g_e * sim(h_rows[e], h_cols[e]) with respect to h."""
    n = h.shape[0]
    d = norms[rows] * norms[cols] + EPS
    b = gvals / d
    bad = (norms[rows] == 0) | (norms[cols] == 0)
    if bad.any():
        b = np.where(bad, 0.0, b)
    m = sparse.coo_array((b, (rows, cols)), shape=(n, n))
    m = (m + m.T).tocsr()
    r = (np.bincount(rows, weights=b * svals * norms[cols], minlength=n)
         + np.bincount(cols, weights=b * svals * norms[rows], minlength=n))
    safe = np.where(norms > 0, norms, 1.0)
    return m @ h - (r / safe)[:, None] * h


def loss_neg(h: np.ndarray, mask: KHopMask, cfg: TrainingConfig) -> float:
    """Rank-margin hinge over sampled neighbor pairs, averaged over nodes
    with at least two non-self neighbors."""
    h = np.asarray(h, dtype=np.float64)
    batch = _pair_batch(h, mask, cfg.pair_cap, np.random.default_rng(cfg.seed))
    value, _ = _loss_neg_impl(h, batch, cfg.gamma, False, cached=True)
    return value


def total_loss(h: np.ndarray, weights, mask: KHopMask, cfg: TrainingConfig) -> float:
    """Negative term plus lambda times the positive term (identity at lambda=0)."""
    l_neg = loss_neg(h, mask, cfg) if cfg.use_neg else 0.0
    if cfg.lam == 0:
        return l_neg
    return l_neg + cfg.lam * loss_pos(h, weights)


# ---------------------------------------------------------------------------
# gradients through the model
# ---------------------------------------------------------------------------

def _grads_from_tape(params, tapes, h_last, emb, attn_mask, cfg, weights, batch):
    """Losses and parameter gradients for one forward pass and frozen pairs."""
    d_emb = np.zeros_like(emb)
    l_neg = 0.0
    if cfg.use_neg:
        l_neg, d_neg = _loss_neg_impl(emb, batch, cfg.gamma, True, cached=True)
        d_emb += d_neg
    l_pos = math.nan
    if cfg.lam != 0:
        l_pos, d_pos = _loss_pos_impl(emb, weights, True)
        d_emb += cfg.lam * d_pos
    l_total = l_neg if cfg.lam == 0 else l_neg + cfg.lam * l_pos
    grads = _model_backward(params, tapes, h_last, attn_mask, d_emb)
    for name, tensor in grads.tensors():
        if not np.all(np.isfinite(tensor)):
            raise NumericError(f"non-finite gradient in {name}")
    return grads, l_pos, l_neg, l_total


def backward(g: Graph, mask: KHopMask, params: ModelParams,
             cfg: TrainingConfig, weights=None) -> ModelParams:
    """Exact gradients of the total loss with respect to every parameter.

    Rankings and sampled pairs are derived from the current embeddings and
    held constant. Returns a parameter-shaped gradient container.
    """
    if weights is None and cfg.lam != 0:
        weights = khop_weights(g, cfg.k)
    attn_mask = mask
    if cfg.max_neighbors is not None:
        attn_mask = mask.subsample(cfg.max_neighbors, cfg.seed)
    emb, h_last, tapes = _forward_tape(g.features, attn_mask, params,
                                       mode=cfg.mode)
    batch = _pair_batch(emb, mask, cfg.pair_cap, np.random.default_rng(cfg.seed))
    grads, *_ = _grads_from_tape(params, tapes, h_last, emb, attn_mask, cfg,
                                 weights, batch)
    return grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    t: int
    m: tuple
    v: tuple


def init_adam_state(params: ModelParams) -> AdamState:
    zeros = tuple(np.zeros_like(a) for _, a in params.tensors())
    return AdamState(t=0, m=zeros, v=zeros)


def _adam_update(tensors, grads, state: AdamState, lr: float):
    t = state.t + 1
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    new_t, new_m, new_v = [], [], []
    for p, g, m, v in zip(tensors, grads, state.m, state.v):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        step = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        new_t.append(p - step)
        new_m.append(m)
        new_v.append(v)
    return new_t, AdamState(t=t, m=tuple(new_m), v=tuple(new_v))


def adam_step(params: ModelParams, grads: ModelParams,
              state: AdamState, lr: float):
    """One bias-corrected Adam update; returns new params and state."""
    tensors = [a for _, a in params.tensors()]
    gtensors = [a for _, a in grads.tensors()]
    updated, new_state = _adam_update(tensors, gtensors, state, lr)
    return _params_from_tensors(params, updated), new_state


def _params_from_tensors(template: ModelParams, tensors) -> ModelParams:
    it = iter(tensors)
    layers = tuple(
        type(lp)(next(it), next(it), next(it), next(it), next(it), heads=lp.heads)
        for lp in template.layers
    )
    return ModelParams(dims=template.dims, layers=layers, final_proj=next(it))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def train(g: Graph, cfg: TrainingConfig):
    """Full-batch training; returns final parameters and the loss history.

    History is an (epochs, 3) array with columns (l_pos, l_neg, l_total);
    l_pos is NaN when lambda is zero (the term is skipped entirely).
    Deterministic for fixed (graph, config, seed).
    """
    loss_mask = khop_mask(g, cfg.k)
    attn_mask = loss_mask
    if cfg.max_neighbors is not None:
        attn_mask = loss_mask.subsample(cfg.max_neighbors, cfg.seed)
    weights = khop_weights(g, cfg.k) if cfg.lam != 0 else None
    params = init_params(cfg.dims_for(g.feature_dim), cfg.seed)
    state = init_adam_state(params)
    history = np.empty((cfg.epochs, 3))
    for epoch in range(cfg.epochs):
        emb, h_last, tapes = _forward_tape(g.features, attn_mask, params,
                                           mode=cfg.mode)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, epoch)))
        batch = _pair_batch(emb, loss_mask, cfg.pair_cap, rng)
        try:
            grads, l_pos, l_neg, l_total = _grads_from_tape(
                params, tapes, h_last, emb, attn_mask, cfg, weights, batch)
        except (NumericError, DegenerateLossError) as exc:
            raise type(exc)(f"epoch {epoch}: {exc}") from exc
        history[epoch] = (l_pos, l_neg, l_total)
        params, state = adam_step(params, grads, state, cfg.lr)
    return params, history


def history_to_csv(history: np.ndarray, path):
    """Write the per-epoch loss table."""
    with open(path, "w") as fh:
        fh.write("epoch,l_pos,l_neg,l_total\n")
        for i, (lp, ln, lt) in enumerate(history):
            fh.write(f"{i},{float(lp)!r},{float(ln)!r},{float(lt)!r}\n")
