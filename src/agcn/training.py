"""Contrastive losses, exact gradients, Adam optimization and the training loop.

Two loss terms drive the embeddings: a weighted-positive term that pulls
k-hop-reachable nodes together (weights are the k-th normalized-adjacency
power), and a rank-margin hinge over sampled neighbor pairs whose margin
grows with the similarity-rank gap. Neighbor rankings and sampled pairs are
recomputed every epoch from the current embeddings and treated as constants
by the gradients.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, _check_fields
from .graph import Graph, KHopMask, _atomic_open, khop_mask, khop_weights
from .model import (Dims, ModelParams, _forward_tape, _model_backward,
                    _row_blocks, init_params)

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


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters and seeds; defaults follow the standard setting."""

    k: int = 2
    lam: float = 0.1
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
    mode: str = "structure"
    use_neg: bool = True

    def __post_init__(self):
        _check_fields(self)
        for name, low in (("k", 1), ("epochs", 1), ("pair_cap", 1),
                          ("restarts", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        # chained comparisons reject NaN as well as infinity
        if not 0 <= self.lam < math.inf:
            raise ConfigError("lambda must be finite and >= 0")
        if not 0 < self.gamma < math.inf:
            raise ConfigError("gamma must be finite and > 0")
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be finite and > 0")
        if self.mode not in ("structure", "vanilla"):
            raise ConfigError("mode must be 'structure' or 'vanilla'")
        # the layer widths and heads follow the rules of Dims
        self.dims_for(1)

    def dims_for(self, feature_dim: int) -> Dims:
        return Dims(d=feature_dim, d_q=self.d_q, d_v=self.d_v,
                    heads=self.heads, layers=self.layers, d_out=self.d_out)


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


def _unit_rows_backward(u, norms, d_u):
    """Gradient with respect to h, given the gradient ``d_u`` with respect to
    u = h / |h|: (d_u - (d_u . u) u) / |h| row by row, 0 for zero rows."""
    d_h = d_u - np.einsum("ij,ij->i", d_u, u)[:, None] * u
    return np.divide(d_h, norms[:, None], out=np.zeros_like(d_h),
                     where=norms[:, None] > 0)


# ---------------------------------------------------------------------------
# positive-pair loss
# ---------------------------------------------------------------------------

def _loss_pos_impl(u, weights):
    """Weighted-positive value and its gradient with respect to the unit
    rows ``u``; the CSR ``weights`` have an entry, as :func:`train` checks.

    One pass over row blocks of E = exp(u u^T) with a zero diagonal. A
    block holds whole rows, so it alone yields their denominators, their
    numerators at the block's weight entries and, formed in place, their
    rows of n_contrib * G, G being the gradient with respect to the
    similarities. Memory is one block, never n x n."""
    n = u.shape[0]
    total, n_contrib = 0.0, 0
    d_u = np.zeros_like(u)
    # blocks of fewer rows made the d=100 products up to 20% slower (n=1400
    # to 5600, one BLAS thread on a 2-vCPU Xeon VM)
    for r in _row_blocks(n, min_rows=128):
        block = u[r] @ u.T
        np.exp(block, out=block)
        block.reshape(-1)[r.start::n + 1] = 0.0     # entries (i, i)
        den = block.sum(axis=1)
        ptr = weights.indptr[r.start:r.stop + 1]
        rows = np.repeat(np.arange(len(den)), np.diff(ptr))
        cols = weights.indices[ptr[0]:ptr[-1]]
        w_e = weights.data[ptr[0]:ptr[-1]] * block[rows, cols]
        num = np.bincount(rows, weights=w_e, minlength=len(den))
        contrib = num > 0
        n_contrib += int(contrib.sum())
        total += float(np.sum(np.log(den[contrib]) - np.log(num[contrib])))
        block *= (contrib / den)[:, None]
        block[rows, cols] -= w_e / num[rows]
        # d/du of sum_ij G_ij (u_i . u_j); BLAS reads the transpose in place
        d_u[r] += block @ u
        d_u += block.T @ u[r]
        del block       # freed before the next block is formed, not after
    d_u /= n_contrib
    return total / n_contrib, d_u


# ---------------------------------------------------------------------------
# neighbor ranking and pair sampling
# ---------------------------------------------------------------------------

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


def _sort_within_lists(key, indptr):
    """``np.lexsort((key, src))`` for the row ids ``src`` of the CSR lists
    ``indptr``: the entries of each list by ascending ``key``, equal keys in
    storage order, for keys that are not NaN.

    Lists are sorted as the rows of padded arrays, one per power-of-two
    length class, with ``+inf`` padding, which a stable sort puts after
    every real entry. A list of m >= 1 entries is padded to less than 2m."""
    # 2**width_exp is the least power of two >= the list size (2 if empty)
    width_exp = np.frexp(np.diff(indptr) - 1)[1]
    order = np.empty(len(key), dtype=np.int64)
    for e in np.unique(width_exp):
        rows = np.flatnonzero(width_exp == e)
        slots = indptr[rows, None] + np.arange(1 << e)
        real = slots < indptr[rows + 1, None]
        entries = slots[real]
        padded = np.full(slots.shape, np.inf)
        padded[real] = key[entries]
        ranked = np.argsort(padded, axis=1, kind="stable")
        order[entries] = (indptr[rows, None] + ranked)[real]
    return order


# pairs per chunk of whole nodes that are drawn, decoded and scored
# together. Over 2**12 to 2**16 the fastest epoch moved by under 3% and
# training's tracemalloc peak not at all: 30.8 MiB at the default setting
# at n=1400 and 115.6 MiB at n=5600, against 44.0 and 169.7 MiB with all
# pairs in one chunk (one BLAS thread on a 2-vCPU Xeon VM)
PAIR_CHUNK = 2 ** 14


def _node_chunks(mask: KHopMask, cap: int) -> list:
    """The nodes that have a pair, by index, cut into chunks. A node takes
    all its pairs when they fit under ``cap``, otherwise ``cap`` sampled
    ones. A chunk holds the nodes whose first pair falls in one run of
    ``PAIR_CHUNK`` pairs: at least one node, and fewer than
    ``PAIR_CHUNK + cap`` pairs. A graph with no pair has no chunk."""
    sizes = mask.list_sizes() - 1       # every list holds its node
    nodes = np.flatnonzero(sizes >= 2)
    counts = np.minimum(sizes[nodes] * (sizes[nodes] - 1) // 2, cap)
    runs = (np.cumsum(counts) - counts) // PAIR_CHUNK
    return (np.split(nodes, np.flatnonzero(np.diff(runs)) + 1) if len(nodes)
            else [])


@dataclass
class _PairBatch:
    """One epoch's neighbor ranking and, once :func:`_pair_batch` has drawn
    them, some nodes' sampled pairs. A pair is two entries of the loss mask,
    neither its node's own, so its similarities are gathers from
    ``entry_sims``."""

    mask: KHopMask
    entry_sims: np.ndarray  # per-entry sims of the unit rows it was built from
    order: np.ndarray       # each list's entries by rank, its node first
    n_contrib: int          # of the whole graph: the hinge's divisor
    plus_e: np.ndarray | None = None    # per pair: mask entry of the
    minus_e: np.ndarray | None = None   # better-ranked side, the worse one
    gap: np.ndarray | None = None       # rank difference, always >= 1


def _rank(u, mask: KHopMask) -> _PairBatch:
    """One epoch's ranking, with no pairs yet: each node's non-self
    neighbors by descending cosine similarity, the dot product of their
    unit rows ``u``, ties going to the lower index."""
    sims = mask.entry_dots(u, u)
    # every list holds its node, which ranks first, so the non-self ranks
    # start one slot after indptr; mask lists are sorted ascending, so the
    # stable sort breaks ties in similarity by neighbor index
    order = _sort_within_lists(
        np.where(mask.src_ids == mask.indices, -np.inf, -sims), mask.indptr)
    return _PairBatch(mask=mask, entry_sims=sims, order=order,
                      n_contrib=int((mask.list_sizes() - 1 >= 2).sum()))


def _pair_batch(ranking: _PairBatch, nodes, cap: int, rng) -> _PairBatch:
    """``ranking`` with the oriented (better-ranked, worse-ranked) pairs of
    ``nodes``, node by node in the given order. A node takes all its pairs
    when they fit under ``cap``, row by row, otherwise ``cap`` distinct
    pairs drawn uniformly by one ``rng.choice``, the over-cap nodes drawing
    in the order given; ``rng`` is not read when no node is over the cap."""
    sizes = ranking.mask.list_sizes()[nodes] - 1
    totals = sizes * (sizes - 1) // 2
    counts = np.minimum(totals, cap)
    firsts = np.cumsum(counts) - counts
    codes = np.arange(counts.sum()) - np.repeat(firsts, counts)
    for i in np.flatnonzero(totals > cap):
        codes[firsts[i]:firsts[i] + cap] = rng.choice(totals[i], cap,
                                                      replace=False)
    owner = np.repeat(nodes, counts)
    a, b = _decode_pairs(codes, np.repeat(sizes, counts))
    base = ranking.mask.indptr[owner] + 1
    return dataclasses.replace(ranking, plus_e=ranking.order[base + a],
                               minus_e=ranking.order[base + b], gap=b - a)


# ---------------------------------------------------------------------------
# rank-margin negative loss
# ---------------------------------------------------------------------------

def _loss_neg_impl(batch: _PairBatch, gamma: float, exp_sums, node_sums):
    """Adds up the active hinges of one chunk's pairs: the exp of their
    similarities into ``exp_sums`` per mask entry, the worse-ranked side in
    row 0 and the better-ranked side in row 1, and their values into
    ``node_sums`` per node."""
    sims = batch.entry_sims
    e_plus, e_minus = np.exp(sims[batch.plus_e]), np.exp(sims[batch.minus_e])
    hinge = e_minus - e_plus + gamma * batch.gap
    active = hinge > 0
    minus_e = batch.minus_e[active]
    np.add.at(exp_sums[0], minus_e, e_minus[active])
    np.add.at(exp_sums[1], batch.plus_e[active], e_plus[active])
    np.add.at(node_sums, batch.mask.src_ids[minus_e], hinge[active])


def _loss_neg(u, batches, gamma: float):
    """Hinge value and its gradient with respect to the unit rows ``u``
    over one epoch's pair chunks ``batches``, whose similarities must have
    been computed from ``u``.

    Each sum runs over one node's own pairs, in their order, and a node's
    pairs are all in one chunk: a mask entry's exp terms, one row of
    ``exp_sums`` per side, and a node's hinge values in ``node_sums``.
    Neither the order of the nodes nor the chunk cuts change a bit."""
    exp_sums, node_sums, n_contrib = None, np.zeros(len(u)), 0
    for batch in batches:
        if exp_sums is None:
            exp_sums = np.zeros((2, len(batch.entry_sims)))
        _loss_neg_impl(batch, gamma, exp_sums, node_sums)
        n_contrib = batch.n_contrib
    if n_contrib == 0:
        return 0.0, np.zeros_like(u)
    value = float(node_sums.sum() / n_contrib)
    # G, the gradient with respect to the similarities, lives on the mask
    # entries; d/du of sum_ij G_ij (u_i . u_j) as in attention's backward
    g = batch.mask.pattern((exp_sums[0] - exp_sums[1]) / n_contrib)
    return value, (g + g.T) @ u


# ---------------------------------------------------------------------------
# the training objective
# ---------------------------------------------------------------------------

def _objective(u, norms, batches, weights, cfg: TrainingConfig):
    """The loss that training minimizes, at the embeddings with unit rows
    ``u`` and row norms ``norms`` (:func:`_unit_rows`), with frozen pairs
    in the chunks ``batches``, an iterable of :class:`_PairBatch`.

    Returns ``(l_pos, l_neg, l_total, d_emb)``. ``use_neg=False`` drops the
    hinge (``l_neg`` is 0, ``batches`` is not read); ``lam == 0`` skips the
    positive term entirely (``l_pos`` is NaN and ``l_total`` is exactly
    ``l_neg``); otherwise ``l_total = l_neg + lam * l_pos``. The gradients
    add up at ``u`` and go back through the normalization once.
    """
    l_neg, d_u = (_loss_neg(u, batches, cfg.gamma) if cfg.use_neg
                  else (0.0, np.zeros_like(u)))
    l_pos, l_total = math.nan, l_neg
    if cfg.lam != 0:
        l_pos, d_pos = _loss_pos_impl(u, weights)
        d_u += cfg.lam * d_pos
        l_total = l_neg + cfg.lam * l_pos
    return l_pos, l_neg, l_total, _unit_rows_backward(u, norms, d_u)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    t: int
    m: np.ndarray       # the moment estimates, laid out as ModelParams.flat
    v: np.ndarray


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(t=0, m=np.zeros_like(params.flat),
                     v=np.zeros_like(params.flat))


def adam_step(params: ModelParams, grads: ModelParams,
              state: AdamState, lr: float):
    """One bias-corrected Adam update of the whole buffer; new params and state."""
    t = state.t + 1
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    g = grads.flat
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (g * g)
    flat = params.flat - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return ModelParams(params.dims, flat), AdamState(t=t, m=m, v=v)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def train(g: Graph, cfg: TrainingConfig):
    """Full-batch training; returns final parameters and the loss history.

    History is an (epochs, 3) array with columns (l_pos, l_neg, l_total);
    l_pos is NaN when lambda is zero (the term is skipped entirely).
    Deterministic for fixed (graph, config, seed). lambda > 0 on a graph
    with no k-hop positive weight is a :class:`ConfigError` before epoch 0;
    a :class:`NumericError` names its epoch.

    With d_out > d_v the embedding ``h @ final_proj`` has rank <= d_v, so
    each epoch the losses see it as ``emb @ q``, its coordinates in the
    orthonormal columns ``q`` of the reduced QR of ``final_proj.T``. That
    keeps every cosine, so the losses are the same up to rounding, and
    their gradient in those coordinates goes back to the embedding through
    ``q.T``.
    """
    mask = khop_mask(g, cfg.k)
    weights = khop_weights(g, cfg.k) if cfg.lam != 0 else None
    if weights is not None and weights.nnz == 0:
        raise ConfigError(f"lambda > 0 needs positive weights, but no walk of "
                          f"exactly k={cfg.k} hops joins two distinct nodes")
    chunks = _node_chunks(mask, cfg.pair_cap) if cfg.use_neg else []
    params = init_params(cfg.dims_for(g.feature_dim), cfg.seed)
    state = init_adam_state(params)
    history = np.empty((cfg.epochs, 3))
    for epoch in range(cfg.epochs):
        try:
            emb, h_last, tapes = _forward_tape(g.features, mask, params,
                                               mode=cfg.mode)
            q = (np.linalg.qr(params.final_proj.T)[0] if cfg.d_out > cfg.d_v
                 else None)
            u, norms = _unit_rows(emb if q is None else emb @ q)
            # each epoch's pairs have a generator of their own, so skipping
            # them when the hinge is off changes no other draw
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, epoch)))
            # each chunk is drawn when the hinge asks for it, so no array
            # of every pair of the epoch is ever formed
            ranking = _rank(u, mask) if cfg.use_neg else None
            batches = (_pair_batch(ranking, nodes, cfg.pair_cap, rng)
                       for nodes in chunks)
            l_pos, l_neg, l_total, d_emb = _objective(u, norms, batches,
                                                      weights, cfg)
            if q is not None:
                d_emb = d_emb @ q.T
            # the backward pass, where training peaks, reads none of these
            del emb, u, norms, ranking, batches
            grads = _model_backward(params, tapes, h_last, d_emb)
            for name, tensor in grads.tensors():
                if not np.all(np.isfinite(tensor)):
                    raise NumericError(f"non-finite gradient in {name}")
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc
        history[epoch] = (l_pos, l_neg, l_total)
        params, state = adam_step(params, grads, state, cfg.lr)
        # the next epoch's forward pass and pairs need none of these
        del h_last, tapes, d_emb, grads
    return params, history


def history_to_csv(history: np.ndarray, path):
    """Write the per-epoch loss table."""
    with _atomic_open(path) as fh:
        fh.write("epoch,l_pos,l_neg,l_total\n")
        for i, (lp, ln, lt) in enumerate(history):
            fh.write(f"{i},{float(lp)!r},{float(ln)!r},{float(lt)!r}\n")
