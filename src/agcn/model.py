"""Hop-masked multi-head attention model.

Each layer projects keys and values once for all nodes and caches them;
per-node attention then gathers only the rows allowed by the k-hop mask,
so the number of score evaluations per layer and head is exactly the total
mask size. The mask computes the per-entry row dot products of the scores
and of their gradient (``KHopMask.entry_dots``), gathering a cache-sized
chunk of entries at a time once for all heads. Vanilla mode swaps that masked kernel for a
dense softmax over all node pairs, computed in row blocks whose backward
pass recomputes the scores, so no n x n matrix is ever kept. A block is
shifted by its row maxima only when the Cauchy-Schwarz bound of its scores
exceeds ``EXP_SAFE``; the row sums, the backward's ``- lse`` and its row
terms enter the GEMMs as one more column, so a block costs its GEMMs, one
exp and one multiply. The residual
path maps the original node features into every layer's output. A final
linear projection produces the embedding matrix, in the coordinates of its
span.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, NumericError, _check_fields
from .graph import Graph, KHopMask, _atomic_open

__all__ = [
    "Dims",
    "LayerParams",
    "ModelParams",
    "EvalCounter",
    "init_params",
    "forward",
    "save_params",
]

_MAGIC = b"AGCNPAR1"


@dataclass(frozen=True)
class Dims:
    """Model dimension record.

    d: input feature width; d_q/d_v: total query/key and value widths (split
    across heads), d_v also being every layer's output width; d_out:
    embedding width.
    """

    d: int
    d_q: int
    d_v: int
    heads: int
    layers: int
    d_out: int

    def __post_init__(self):
        _check_fields(self)
        for name in ("d", "d_q", "d_v", "heads", "layers", "d_out"):
            if getattr(self, name) < 1:
                raise ConfigError(f"dims.{name} must be >= 1")
        if self.d_q % self.heads:
            raise ConfigError(f"d_q={self.d_q} not divisible by heads={self.heads}")
        if self.d_v % self.heads:
            raise ConfigError(f"d_v={self.d_v} not divisible by heads={self.heads}")


@dataclass(frozen=True)
class LayerParams:
    """One attention layer: per-head blocks stored contiguously by columns;
    the head count is ``Dims.heads``."""

    wq: np.ndarray      # (d_in, d_q)
    wk: np.ndarray      # (d_in, d_q)
    wv: np.ndarray      # (d_in, d_v)
    wo: np.ndarray      # (d_v, d_v)
    wres: np.ndarray    # (d, d_v)


@dataclass(frozen=True)
class ModelParams:
    """Every tensor of a model as a view into one float64 buffer ``flat``,
    laid out by :func:`_tensor_specs`; ``layers`` (a :class:`LayerParams`
    of views per layer) and ``final_proj`` are built with the views, once."""

    dims: Dims
    flat: np.ndarray

    def __post_init__(self):
        names, shapes, _ = zip(*_tensor_specs(self.dims))
        parts = np.split(self.flat, np.cumsum([math.prod(s) for s in shapes])[:-1])
        views = {name: part.reshape(shape)
                 for name, shape, part in zip(names, shapes, parts)}
        layers = [{} for _ in range(self.dims.layers)]
        for name, view in views.items():
            if name.startswith("layers."):
                _, l, field = name.split(".")
                layers[int(l)][field] = view
        object.__setattr__(self, "_views", views)
        object.__setattr__(self, "layers", tuple(LayerParams(**f) for f in layers))
        object.__setattr__(self, "final_proj", views["final_proj"])

    def tensors(self):
        """(name, view) of every tensor, in serialization order."""
        return self._views.items()


class EvalCounter:
    """Counts attention-score evaluations."""

    def __init__(self):
        self._total = 0

    def add(self, n: int):
        self._total += n

    def total(self) -> int:
        return self._total


def _xavier(rng, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_params(dims: Dims, seed: int) -> ModelParams:
    """Uniform Xavier initialization, drawn per head; deterministic under seed."""
    rng = np.random.default_rng(seed)
    return ModelParams(dims, np.concatenate([
        np.hstack([_xavier(rng, rows, cols // split) for _ in range(split)]).ravel()
        for _, (rows, cols), split in _tensor_specs(dims)]))


@dataclass
class _LayerTape:
    h_in: np.ndarray
    res_src: np.ndarray
    q: np.ndarray           # q, k, v and ctx by head: (n, heads, d_h)
    k: np.ndarray
    v: np.ndarray
    ctx: np.ndarray
    alphas: np.ndarray      # heads on the last axis: (nnz, heads) alpha for
                            # masked, (n, heads) row log-sum-exp for dense
    mask: KHopMask | None   # the lists attended over, None for all pairs


def _check_finite(h: np.ndarray, layer: int):
    if np.all(np.isfinite(h)):
        return
    bad = int(np.flatnonzero(~np.isfinite(h).all(axis=1))[0])
    raise NumericError(f"non-finite output at layer {layer}, node {bad}")


def _by_head(heads, *arrays):
    """(n, heads, width / heads) views of (n, width) arrays whose columns
    hold one contiguous block per head."""
    return tuple(a.reshape(a.shape[0], heads, -1) for a in arrays)


# Attention kernels over all heads. q, k, v and d_ctx come as (n, heads, d_h)
# views (:func:`_by_head`). Each forward returns ctx, shaped like v, and what
# its backward needs (the masked alpha, the dense row log-sum-exp) with
# heads on the last axis; each backward returns (d_q, d_k, d_v), shaped like
# (q, k, v).

def _masked_layer(q, k, v, mask: KHopMask, inv_scale):
    """Segment softmax over the scores of each node's mask list. Every
    per-entry step runs once for all heads; only the products with the
    mask pattern go head by head."""
    sizes, starts = mask.list_sizes(), mask.indptr[:-1]
    # the scores, turned into their softmax in place; lists are stored by
    # node, so a node's row reaches its entries by repetition, not a gather
    alpha = mask.entry_dots(q, k)
    alpha *= inv_scale
    alpha -= np.repeat(np.maximum.reduceat(alpha, starts, axis=0), sizes, axis=0)
    np.exp(alpha, out=alpha)
    alpha /= np.repeat(np.add.reduceat(alpha, starts, axis=0), sizes, axis=0)
    ctx = np.empty(v.shape)
    for h in range(v.shape[1]):
        ctx[:, h] = mask.pattern(alpha[:, h]) @ v[:, h]
    return ctx, alpha


def _masked_layer_backward(q, k, v, alpha, d_ctx, mask: KHopMask, inv_scale):
    sizes, starts = mask.list_sizes(), mask.indptr[:-1]
    # d_alpha, turned in place into d_score = alpha (d_alpha - seg_dot) inv_scale
    d_score = mask.entry_dots(d_ctx, v)
    seg_dot = np.add.reduceat(alpha * d_score, starts, axis=0)
    d_score -= np.repeat(seg_dot, sizes, axis=0)
    d_score *= alpha
    d_score *= inv_scale
    d_q, d_k, d_v = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
    for h in range(q.shape[1]):
        score_mat = mask.pattern(d_score[:, h])
        d_q[:, h] = score_mat @ k[:, h]
        d_k[:, h] = score_mat.T @ q[:, h]
        d_v[:, h] = mask.pattern(alpha[:, h]).T @ d_ctx[:, h]
    return d_q, d_k, d_v


# Byte budget of one row block of the dense kernel: a block holds
# DENSE_BLOCK_BYTES // (8 n) rows of n float64 scores, and the forward and
# backward passes keep at most two such blocks live.
DENSE_BLOCK_BYTES = 1 << 20


def _row_blocks(n, min_rows=1):
    """Slices of DENSE_BLOCK_BYTES // (8 n) rows, but at least ``min_rows``,
    covering ``range(n)``."""
    step = max(min_rows, DENSE_BLOCK_BYTES // (8 * n))
    for r0 in range(0, n, step):
        yield slice(r0, min(r0 + step, n))


# Largest score bound at which a row block of the dense kernel is
# exponentiated unshifted: for |s| <= EXP_SAFE, exp(s) lies in [7.5e-155,
# 1.3e154], so neither an exp nor a sum of fewer than 1e154 of them
# overflows, and no row sum falls near the smallest normal float.
EXP_SAFE = 0.5 * math.log(np.finfo(np.float64).max)


def _with_column(a, value):
    """``a`` (n, w) with one more column of ``value`` (a scalar or n values)."""
    out = np.empty((a.shape[0], a.shape[1] + 1))
    out[:, :-1] = a
    out[:, -1] = value
    return out


def _dense_layer(q, k, v, inv_scale):
    """Row softmax over all node pairs (vanilla attention), head by head and
    one row block at a time. Returns ctx and each row's log-sum-exp of its
    scaled scores, from which :func:`_dense_probs` rebuilds the attention
    rows.

    A block is shifted by its row maxima only when a score in it may
    exceed EXP_SAFE in magnitude, by the Cauchy-Schwarz bound
    |qs_i . k_j| <= |qs_i| max_j |k_j|. Each row's sum of exps comes out of
    the value GEMM through a column of ones after v."""
    n, heads = q.shape[:2]
    ctx = np.empty(v.shape)
    lse = np.empty((n, heads))
    for h in range(heads):
        qs, kh = q[:, h] * inv_scale, k[:, h]
        v1 = _with_column(v[:, h], 1.0)
        bound = np.linalg.norm(qs, axis=1) * np.linalg.norm(kh, axis=1).max()
        for r in _row_blocks(n):
            block = qs[r] @ kh.T
            row_max = 0.0
            # a NaN bound takes the shifted path too
            if not bound[r].max() <= EXP_SAFE:
                row_max = block.max(axis=1)
                block -= row_max[:, None]
            np.exp(block, out=block)
            out = block @ v1
            ctx[r, h] = out[:, :-1] / out[:, -1:]
            lse[r, h] = np.log(out[:, -1]) + row_max
    return ctx, lse


def _dense_probs(qs, kh, lse):
    """Yield (rows, attention block) per row block of one head, recomputed
    from its scaled queries ``qs = qh * inv_scale`` as exp(qs kh^T - lse);
    ``- lse`` enters the GEMM as one more column, [qs, -lse] [kh, 1]^T."""
    qs1, kh1 = _with_column(qs, -lse), _with_column(kh, 1.0)
    for r in _row_blocks(qs.shape[0]):
        block = qs1[r] @ kh1.T
        np.exp(block, out=block)
        yield r, block


def _dense_layer_backward(q, k, v, lse, ctx, d_ctx, inv_scale):
    d_q, d_k, d_v = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
    for h in range(q.shape[1]):
        qs, ks = q[:, h] * inv_scale, k[:, h] * inv_scale
        # sum_j attn_ij * d_attn_ij = d_ctx_i . ctx_i, since ctx_i = sum_j attn_ij v_j;
        # d_attn - row_dot is one GEMM, [d_ctx, -row_dot] [v, 1]^T
        d_ctx1 = _with_column(d_ctx[:, h],
                              -np.einsum("ij,ij->i", d_ctx[:, h], ctx[:, h]))
        v1 = _with_column(v[:, h], 1.0)
        # the sums over row blocks run in contiguous arrays: adding into the
        # strided head views was ~10% slower (n=1500, one BLAS thread on a
        # 2-vCPU Xeon VM)
        d_kh, d_vh = np.zeros(ks.shape), np.zeros(v[:, h].shape)
        for r, attn in _dense_probs(qs, k[:, h], lse[:, h]):
            d_vh += attn.T @ d_ctx[r, h]
            d_score = d_ctx1[r] @ v1.T
            d_score *= attn
            d_q[r, h] = d_score @ ks
            d_kh += d_score.T @ qs[r]
        d_k[:, h], d_v[:, h] = d_kh, d_vh
    return d_q, d_k, d_v


def _layer(h_prev, res_src, mask: KHopMask | None, p: LayerParams, heads: int,
           layer_idx=0):
    """Project keys and values once for all nodes, attend over ``heads``
    heads with the masked kernel (or the dense one when ``mask`` is None),
    and add the residual. Returns the layer output and its tape."""
    n = h_prev.shape[0]
    q, k, v = _by_head(heads, h_prev @ p.wq, h_prev @ p.wk, h_prev @ p.wv)
    inv_scale = 1.0 / np.sqrt(q.shape[2])
    if mask is None:
        ctx, alphas = _dense_layer(q, k, v, inv_scale)
    else:
        ctx, alphas = _masked_layer(q, k, v, mask, inv_scale)
    out = ctx.reshape(n, -1) @ p.wo + res_src @ p.wres
    _check_finite(out, layer=layer_idx)
    tape = _LayerTape(h_in=h_prev, res_src=res_src, q=q, k=k, v=v, ctx=ctx,
                      alphas=alphas, mask=mask)
    return out, tape


def _layer_backward(tape: _LayerTape, d_out, p: LayerParams, grads: LayerParams,
                    input_grad=True):
    """Write one layer's parameter gradients into ``grads``; if ``input_grad``,
    return the gradient at its input ``tape.h_in``, which reaches the output
    through attention alone: the residual maps the raw features."""
    n = d_out.shape[0]
    q, k, v, ctx = tape.q, tape.k, tape.v, tape.ctx
    np.matmul(ctx.reshape(n, -1).T, d_out, out=grads.wo)
    d_ctx = (d_out @ p.wo.T).reshape(ctx.shape)
    np.matmul(tape.res_src.T, d_out, out=grads.wres)
    inv_scale = 1.0 / np.sqrt(q.shape[2])
    if tape.mask is None:
        d_qkv = _dense_layer_backward(q, k, v, tape.alphas, ctx, d_ctx,
                                      inv_scale)
    else:
        d_qkv = _masked_layer_backward(q, k, v, tape.alphas, d_ctx, tape.mask,
                                       inv_scale)
    d_q, d_k, d_v = (d.reshape(n, -1) for d in d_qkv)
    for grad, d in ((grads.wq, d_q), (grads.wk, d_k), (grads.wv, d_v)):
        np.matmul(tape.h_in.T, d, out=grad)
    if input_grad:
        return d_q @ p.wq.T + d_k @ p.wk.T + d_v @ p.wv.T
    return None


def forward(g: Graph, mask: KHopMask, params: ModelParams,
            mode: str = "structure") -> np.ndarray:
    """Chain all layers from the raw features and apply the final
    projection; the embedding comes in the coordinates of its span
    (:func:`_forward_tape`)."""
    return _forward_tape(g.features, mask, params, mode)[0]


def _span_basis(final_proj):
    """Orthonormal columns q, d_out x min(d_out, d_v), of the reduced QR of
    ``final_proj.T``: a basis of the row space of ``final_proj``, in which
    every row of ``h @ final_proj`` lies. The forward and the backward pass
    each call it on the same matrix, and rely on it giving the same bits."""
    return np.linalg.qr(final_proj.T)[0]


def _forward_tape(x, mask, params: ModelParams, mode="structure", counter=None):
    """Chain the layers over ``mask`` ("structure") or over all node pairs
    ("vanilla"), every layer's residual source being ``x``, and apply the
    final projection. Returns (embeddings, last hidden state, per-layer
    tapes): every intermediate the backward pass needs. A ``counter`` gets
    each layer's score evaluations, one per head and attended pair.

    The embedding ``h @ final_proj`` has rank <= d_v, so it is returned as
    ``(h @ final_proj) @ q``, its coordinates in the basis q of
    :func:`_span_basis`: min(d_out, d_v) columns, with every inner product
    and distance of its rows kept up to rounding."""
    if mode not in ("structure", "vanilla"):
        raise ConfigError(f"unknown mode {mode!r}")
    attn_mask = mask if mode == "structure" else None
    dims = params.dims
    if x.shape[1] != dims.d:
        raise ConfigError(f"feature dim {x.shape[1]} != dims.d {dims.d}")
    tapes = []
    h = x
    for l, p in enumerate(params.layers):
        h, tape = _layer(h, x, attn_mask, p, dims.heads, layer_idx=l)
        tapes.append(tape)
        if counter is not None:
            pairs = x.shape[0] ** 2 if attn_mask is None else mask.total_nnz
            counter.add(dims.heads * pairs)
    return (h @ params.final_proj) @ _span_basis(params.final_proj), h, tapes


def _model_backward(params: ModelParams, tapes, h_last, d_embeddings):
    """Gradients of all parameters, in one buffer, from the gradient of the
    embeddings in span coordinates (:func:`_forward_tape`), which goes back
    to ``h @ final_proj`` through ``q.T``; q is taken as a constant.

    That is exact for a loss that reads only inner products of the rows, as
    the cosine losses do: such a loss is the same function of
    the full-width rows as of their coordinates, and its gradient with
    respect to the full-width rows lies in their span, which ``q.T`` maps
    onto."""
    d_embeddings = d_embeddings @ _span_basis(params.final_proj).T
    grads = ModelParams(params.dims, np.empty_like(params.flat))
    np.matmul(h_last.T, d_embeddings, out=grads.final_proj)
    d_h = d_embeddings @ params.final_proj.T
    for l in range(len(params.layers) - 1, -1, -1):
        # no layer reads the gradient at the raw features
        d_h = _layer_backward(tapes[l], d_h, params.layers[l], grads.layers[l],
                              input_grad=l > 0)
    return grads


def save_params(params: ModelParams, path):
    """Write parameters to the flat binary container.

    Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON
    header (dims plus tensor names and shapes), then every tensor as
    row-major little-endian float64 in header order: the buffer ``flat``.
    """
    header = {"dims": asdict(params.dims),
              "tensors": [{"name": n, "shape": list(shape)}
                          for n, shape, _ in _tensor_specs(params.dims)]}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with _atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array(len(blob), dtype="<u8").tobytes())
        fh.write(blob)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def _tensor_specs(dims: Dims):
    """Yield (name, shape, split) of every tensor ``dims`` implies, in
    serialization order; ``split`` is the number of per-head column blocks."""
    d_in = dims.d
    for l in range(dims.layers):
        yield from ((f"layers.{l}.wq", (d_in, dims.d_q), dims.heads),
                    (f"layers.{l}.wk", (d_in, dims.d_q), dims.heads),
                    (f"layers.{l}.wv", (d_in, dims.d_v), dims.heads),
                    (f"layers.{l}.wo", (dims.d_v, dims.d_v), 1),
                    (f"layers.{l}.wres", (dims.d, dims.d_v), 1))
        d_in = dims.d_v
    yield "final_proj", (dims.d_v, dims.d_out), 1
