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
from .graph import Graph, KHopMask, _atomic_open, khop_mask, khop_weights
from .model import Dims, ModelParams, _forward_tape, _model_backward, init_params

__all__ = [
    "TrainingConfig",
    "AdamState",
    "DEFAULT_K_GRID",
    "DEFAULT_LAMBDA_GRID",
    "adam_step",
    "init_adam_state",
    "train",
    "history_to_csv",
]

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
        # chained comparisons reject NaN as well as infinity
        if not 0 <= self.lam < math.inf:
            raise ConfigError("lambda must be finite and >= 0")
        if not 0 < self.gamma < math.inf:
            raise ConfigError("gamma must be finite and > 0")
        for name in ("epochs", "layers", "heads", "d_q", "d_v", "d_out",
                     "pair_cap", "restarts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be finite and > 0")
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

    def attention_mask(self, loss_mask: KHopMask) -> KHopMask:
        """The mask attention gathers over: ``loss_mask`` itself, or its
        seeded subsample when ``max_neighbors`` caps the lists. The losses
        always use the full ``loss_mask``."""
        if self.max_neighbors is None:
            return loss_mask
        return loss_mask.subsample(self.max_neighbors, self.seed)


# ---------------------------------------------------------------------------
# cosine similarity: dot products of unit rows
# ---------------------------------------------------------------------------

def _unit_rows(h):
    """Rows of ``h`` scaled to unit length, and the row norms; zero rows stay
    zero, so their cosine with anything is 0."""
    norms = np.sqrt(np.einsum("ij,ij->i", h, h))
    u = np.divide(h, norms[:, None], out=np.zeros_like(h),
                  where=norms[:, None] > 0)
    return u, norms


# edges per gather block in _pair_sims: two (chunk, d) row blocks stay in
# cache, where one gather of every edge would not
SIMS_CHUNK = 2048


def _pair_sims(u, rows, cols):
    dots = np.empty(len(rows))
    for s in range(0, len(rows), SIMS_CHUNK):
        r, c = rows[s:s + SIMS_CHUNK], cols[s:s + SIMS_CHUNK]
        np.einsum("ij,ij->i", u[r], u[c], out=dots[s:s + SIMS_CHUNK])
    return dots


def _cosine_backward(u, norms, m):
    """Gradient with respect to h of sum_ij G_ij * (u_i . u_j), given the
    dense or sparse ``m = G + G^T``: back through u = h / |h|. Zero rows
    get 0."""
    mu = m @ u
    mu -= np.einsum("ij,ij->i", mu, u)[:, None] * u
    return np.divide(mu, norms[:, None], out=np.zeros_like(mu),
                     where=norms[:, None] > 0)


# ---------------------------------------------------------------------------
# positive-pair loss
# ---------------------------------------------------------------------------

def _loss_pos_impl(h, weights, need_grad):
    n = h.shape[0]
    if n < 2:
        raise ConfigError("positive loss needs at least two nodes")
    u, norms = _unit_rows(h)
    expo = u @ u.T
    np.exp(expo, out=expo)
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

    # turn expo into G, the gradient with respect to the similarities
    expo /= (n_contrib * den)[:, None]
    expo[~contrib] = 0.0
    expo[coo.row, coo.col] -= coo.data * e_at / (n_contrib * num[coo.row])
    return value, _cosine_backward(u, norms, expo + expo.T)


# ---------------------------------------------------------------------------
# neighbor ranking and pair sampling
# ---------------------------------------------------------------------------

def _sample_rows(rng, totals, cap: int) -> np.ndarray:
    """Row r: ``cap`` distinct codes drawn uniformly without replacement
    from [0, totals[r]), in draw order.

    Each row keeps the first ``cap`` distinct codes of its own i.i.d.
    uniform sequence. All rows share one draw of 2*cap+16 codes each; a row
    left short, possible only when its total is close to ``cap``, doubles
    its sequence until it has enough.
    """
    out = np.empty((len(totals), cap), dtype=np.int64)
    if not len(totals):
        return out
    rows = np.arange(len(totals))
    draws = rng.integers(0, totals[:, None], size=(len(totals), 2 * cap + 16))
    while True:
        # one sort of code*width + column puts each code's first column in
        # front of its repeats
        width = draws.shape[1]
        key = np.sort(draws * width + np.arange(width), axis=1)
        code = key // width
        first = np.ones(key.shape, dtype=bool)
        first[:, 1:] = code[:, 1:] != code[:, :-1]
        cols = np.sort(np.where(first, key - code * width, width), axis=1)
        cols = cols[:, :cap]
        done = cols[:, -1] < width
        out[rows[done]] = np.take_along_axis(draws[done], cols[done], axis=1)
        rows, draws = rows[~done], draws[~done]
        if not len(rows):
            return out
        more = rng.integers(0, totals[rows, None], size=draws.shape)
        draws = np.hstack([draws, more])


def _decode_pairs(codes, sizes):
    """Rank positions (a, b), a < b, of pair ``codes`` in lists of ``sizes``.

    Codes number a list's pairs row by row: (0, 1), (0, 2), ..., (1, 2), ...
    Counted from the end, that is the triangular order of the reflected
    pair (m-1-b, m-1-a), which has the closed form used here."""
    rev = sizes * (sizes - 1) // 2 - 1 - codes
    j = np.floor((1.0 + np.sqrt(1.0 + 8.0 * rev)) / 2.0).astype(np.int64)
    j -= j * (j - 1) // 2 > rev                 # float rounding, either way
    j += j * (j + 1) // 2 <= rev
    i = rev - j * (j - 1) // 2
    return sizes - 1 - j, sizes - 1 - i


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
    edge_sims: np.ndarray   # per-edge sims of the embeddings it was built from


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
    sims = _pair_sims(_unit_rows(h)[0], e_src, e_dst)
    # mask lists are sorted ascending, so the stable sort breaks ties in
    # similarity by neighbor index
    order = np.lexsort((-sims, e_src))
    sizes = np.bincount(e_src, minlength=n)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])

    totals = sizes * (sizes - 1) // 2
    # nodes whose pairs fit under the cap take all of them, grouped by list
    # size; the nodes over it then take ``cap`` sampled pairs each, in index
    # order. This order is the summation order of the hinge and its gradient
    small = np.flatnonzero((sizes >= 2) & (totals <= cap))
    small = small[np.argsort(sizes[small], kind="stable")]
    big = np.flatnonzero(totals > cap)
    counts = totals[small]
    firsts = np.cumsum(counts) - counts
    codes = np.concatenate([
        np.arange(counts.sum()) - np.repeat(firsts, counts),
        _sample_rows(rng, totals[big], cap).ravel()])
    owner = np.concatenate([np.repeat(small, counts), np.repeat(big, cap)])
    a, b = _decode_pairs(codes, sizes[owner])
    base = starts[owner]
    return _PairBatch(
        e_src=e_src, e_dst=e_dst,
        plus_e=order[base + a], minus_e=order[base + b], gap=b - a,
        n_contrib=int((sizes >= 2).sum()),
        edge_sims=sims,
    )


# ---------------------------------------------------------------------------
# rank-margin negative loss
# ---------------------------------------------------------------------------

def _loss_neg_impl(h, batch: _PairBatch, gamma: float, need_grad):
    """Hinge value (and gradient) at ``h``, reading the pair similarities
    from ``batch.edge_sims``, which must have been computed from ``h``."""
    if batch.n_contrib == 0:
        return 0.0, (np.zeros_like(h) if need_grad else None)
    edge_sims = batch.edge_sims
    s_plus, s_minus = edge_sims[batch.plus_e], edge_sims[batch.minus_e]
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
    n = h.shape[0]
    g = sparse.coo_array((g_edge[nz], (batch.e_src[nz], batch.e_dst[nz])),
                         shape=(n, n))
    return value, _cosine_backward(*_unit_rows(h), (g + g.T).tocsr())


# ---------------------------------------------------------------------------
# the training objective
# ---------------------------------------------------------------------------

def _objective(emb, batch: _PairBatch, weights, cfg: TrainingConfig, need_grad):
    """The loss that training minimizes, at ``emb`` with frozen pairs.

    Returns ``(l_pos, l_neg, l_total, d_emb)``. ``use_neg=False`` drops the
    hinge (``l_neg`` is 0); ``lam == 0`` skips the positive term entirely
    (``l_pos`` is NaN and ``l_total`` is exactly ``l_neg``); otherwise
    ``l_total = l_neg + lam * l_pos``. ``d_emb`` is None unless
    ``need_grad``.
    """
    d_emb = np.zeros_like(emb) if need_grad else None
    l_neg = 0.0
    if cfg.use_neg:
        l_neg, d_neg = _loss_neg_impl(emb, batch, cfg.gamma, need_grad)
        if need_grad:
            d_emb += d_neg
    if cfg.lam == 0:
        return math.nan, l_neg, l_neg, d_emb
    l_pos, d_pos = _loss_pos_impl(emb, weights, need_grad)
    if need_grad:
        d_emb += cfg.lam * d_pos
    return l_pos, l_neg, l_neg + cfg.lam * l_pos, d_emb


def _grads_from_tape(params, tapes, h_last, emb, cfg, weights, batch):
    """Losses and parameter gradients for one forward pass and frozen pairs."""
    l_pos, l_neg, l_total, d_emb = _objective(emb, batch, weights, cfg, True)
    grads = _model_backward(params, tapes, h_last, d_emb)
    for name, tensor in grads.tensors():
        if not np.all(np.isfinite(tensor)):
            raise NumericError(f"non-finite gradient in {name}")
    return grads, l_pos, l_neg, l_total


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


def adam_step(params: ModelParams, grads: ModelParams,
              state: AdamState, lr: float):
    """One bias-corrected Adam update; returns new params and state."""
    t = state.t + 1
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    new_p, new_m, new_v = [], [], []
    for (_, p), (_, g), m, v in zip(params.tensors(), grads.tensors(),
                                    state.m, state.v):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        new_p.append(p - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    return (ModelParams.from_tensors(params.dims, new_p),
            AdamState(t=t, m=tuple(new_m), v=tuple(new_v)))


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
    attn_mask = cfg.attention_mask(loss_mask)
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
                params, tapes, h_last, emb, cfg, weights, batch)
        except (NumericError, DegenerateLossError) as exc:
            raise type(exc)(f"epoch {epoch}: {exc}") from exc
        history[epoch] = (l_pos, l_neg, l_total)
        params, state = adam_step(params, grads, state, cfg.lr)
    return params, history


def history_to_csv(history: np.ndarray, path):
    """Write the per-epoch loss table."""
    with _atomic_open(path) as fh:
        fh.write("epoch,l_pos,l_neg,l_total\n")
        for i, (lp, ln, lt) in enumerate(history):
            fh.write(f"{i},{float(lp)!r},{float(ln)!r},{float(lt)!r}\n")
