"""Hop-masked multi-head attention model.

Each layer projects keys and values once for all nodes and caches them;
per-node attention then gathers only the rows allowed by the k-hop mask,
so the number of score evaluations per layer and head is exactly the total
mask size. The mask computes the per-entry row dot products of the scores
and of their gradient (``KHopMask.entry_dots``), gathering a cache-sized
chunk of entries at a time once for all heads. Vanilla mode swaps that masked kernel for a
dense softmax over all node pairs, computed in row blocks whose backward
pass recomputes the scores, so no n x n matrix is ever kept. The residual
path maps the original node features (default) or the previous hidden
state into the layer output. A final linear projection produces the
embedding matrix.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .graph import Graph, KHopMask, _atomic_open

__all__ = [
    "Dims",
    "LayerParams",
    "ModelParams",
    "EvalCounter",
    "init_params",
    "forward",
    "save_params",
    "load_params",
]

_MAGIC = b"AGCNPAR1"


@dataclass(frozen=True)
class Dims:
    """Model dimension record.

    d: input feature width; d_q/d_v: total query/key and value widths (split
    across heads), d_v also being every layer's output width; d_out:
    embedding width.
    ``residual`` selects the residual source: "input" feeds the original
    features into every layer, "hidden" feeds the previous layer's output.
    """

    d: int
    d_q: int
    d_v: int
    heads: int
    layers: int
    d_out: int
    residual: str = "input"

    def __post_init__(self):
        for name in ("d", "d_q", "d_v", "heads", "layers", "d_out"):
            if getattr(self, name) < 1:
                raise ConfigError(f"dims.{name} must be >= 1")
        if self.d_q % self.heads:
            raise ConfigError(f"d_q={self.d_q} not divisible by heads={self.heads}")
        if self.d_v % self.heads:
            raise ConfigError(f"d_v={self.d_v} not divisible by heads={self.heads}")
        if self.residual not in ("input", "hidden"):
            raise ConfigError("residual must be 'input' or 'hidden'")


@dataclass(frozen=True)
class LayerParams:
    """One attention layer: per-head blocks stored contiguously by columns;
    the head count is ``Dims.heads``."""

    wq: np.ndarray      # (d_in, d_q)
    wk: np.ndarray      # (d_in, d_q)
    wv: np.ndarray      # (d_in, d_v)
    wo: np.ndarray      # (d_v, d_v)
    wres: np.ndarray    # (res_in, d_v)


@dataclass(frozen=True)
class ModelParams:
    dims: Dims
    layers: tuple[LayerParams, ...]
    final_proj: np.ndarray   # (d_v, d_out)

    def tensors(self):
        """Yield (name, array) in a fixed serialization order."""
        for i, lp in enumerate(self.layers):
            for name in ("wq", "wk", "wv", "wo", "wres"):
                yield f"layers.{i}.{name}", getattr(lp, name)
        yield "final_proj", self.final_proj

    @classmethod
    def from_tensors(cls, dims: Dims, arrays) -> ModelParams:
        """The inverse of :meth:`tensors`: parameters from their arrays,
        given in serialization order."""
        it = iter(arrays)
        layers = tuple(LayerParams(*itertools.islice(it, 5))
                       for _ in range(dims.layers))
        return cls(dims=dims, layers=layers, final_proj=next(it))


class EvalCounter:
    """Counts attention-score evaluations per (layer, head)."""

    def __init__(self):
        self.counts = {}

    def add(self, layer: int, head: int, n: int):
        key = (layer, head)
        self.counts[key] = self.counts.get(key, 0) + n

    def total(self) -> int:
        return sum(self.counts.values())


def _xavier(rng, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def init_params(dims: Dims, seed: int) -> ModelParams:
    """Uniform Xavier initialization, drawn per head; deterministic under seed."""
    rng = np.random.default_rng(seed)
    return ModelParams.from_tensors(dims, (
        np.hstack([_xavier(rng, rows, cols // split) for _ in range(split)])
        for _, (rows, cols), split in _tensor_specs(dims)))


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


def _row_blocks(n):
    step = max(1, DENSE_BLOCK_BYTES // (8 * n))
    for r0 in range(0, n, step):
        yield slice(r0, min(r0 + step, n))


def _dense_layer(q, k, v, inv_scale):
    """Row softmax over all node pairs (vanilla attention), head by head and
    one row block at a time. Returns ctx and each row's log-sum-exp of its
    scaled scores, from which :func:`_dense_probs` rebuilds the attention
    rows."""
    n, heads = q.shape[:2]
    ctx = np.empty(v.shape)
    lse = np.empty((n, heads))
    for h in range(heads):
        qs, kh, vh = q[:, h] * inv_scale, k[:, h], v[:, h]
        for r in _row_blocks(n):
            block = qs[r] @ kh.T
            row_max = block.max(axis=1, keepdims=True)
            block -= row_max
            np.exp(block, out=block)
            row_sum = block.sum(axis=1, keepdims=True)
            ctx[r, h] = (block @ vh) / row_sum
            lse[r, h] = (row_max + np.log(row_sum))[:, 0]
    return ctx, lse


def _dense_probs(qs, kh, lse):
    """Yield (rows, attention block) per row block of one head, recomputed
    from its scaled queries ``qs = qh * inv_scale`` as exp(qs kh^T - lse)."""
    for r in _row_blocks(qs.shape[0]):
        block = qs[r] @ kh.T
        block -= lse[r, None]
        np.exp(block, out=block)
        yield r, block


def _dense_layer_backward(q, k, v, lse, ctx, d_ctx, inv_scale):
    d_q, d_k, d_v = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
    for h in range(q.shape[1]):
        qs, ks = q[:, h] * inv_scale, k[:, h] * inv_scale
        # sum_j attn_ij * d_attn_ij = d_ctx_i . ctx_i, since ctx_i = sum_j attn_ij v_j
        row_dot = np.einsum("ij,ij->i", d_ctx[:, h], ctx[:, h])
        # the sums over row blocks run in contiguous arrays: adding into the
        # strided head views was ~10% slower (n=1500, one BLAS thread on a
        # 2-vCPU Xeon VM)
        d_kh, d_vh = np.zeros(ks.shape), np.zeros(v[:, h].shape)
        for r, attn in _dense_probs(qs, k[:, h], lse[:, h]):
            d_vh += attn.T @ d_ctx[r, h]
            d_score = d_ctx[r, h] @ v[:, h].T
            d_score -= row_dot[r, None]
            d_score *= attn
            d_q[r, h] = d_score @ ks
            d_kh += d_score.T @ qs[r]
        d_k[:, h], d_v[:, h] = d_kh, d_vh
    return d_q, d_k, d_v


def _layer(h_prev, res_src, mask: KHopMask | None, p: LayerParams, heads: int,
           layer_idx=0, counter: EvalCounter | None = None):
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
    if counter is not None:
        for h in range(heads):
            counter.add(layer_idx, h, n * n if mask is None else mask.total_nnz)
    out = ctx.reshape(n, -1) @ p.wo + res_src @ p.wres
    _check_finite(out, layer=layer_idx)
    tape = _LayerTape(h_in=h_prev, res_src=res_src, q=q, k=k, v=v, ctx=ctx,
                      alphas=alphas, mask=mask)
    return out, tape


def _layer_backward(tape: _LayerTape, d_out, p: LayerParams, input_grad=True):
    """Parameter gradients of one layer and, if ``input_grad``, the gradient
    at its input ``tape.h_in``. That gradient takes the residual path too
    when the residual source is the input itself (the "hidden" wiring)."""
    n = d_out.shape[0]
    q, k, v, ctx = tape.q, tape.k, tape.v, tape.ctx
    d_wo = ctx.reshape(n, -1).T @ d_out
    d_ctx = (d_out @ p.wo.T).reshape(ctx.shape)
    d_wres = tape.res_src.T @ d_out
    inv_scale = 1.0 / np.sqrt(q.shape[2])
    if tape.mask is None:
        d_qkv = _dense_layer_backward(q, k, v, tape.alphas, ctx, d_ctx,
                                      inv_scale)
    else:
        d_qkv = _masked_layer_backward(q, k, v, tape.alphas, d_ctx, tape.mask,
                                       inv_scale)
    d_q, d_k, d_v = (d.reshape(n, -1) for d in d_qkv)
    grads = LayerParams(tape.h_in.T @ d_q, tape.h_in.T @ d_k, tape.h_in.T @ d_v,
                        d_wo, d_wres)
    if not input_grad:
        return grads, None
    d_h_in = d_q @ p.wq.T + d_k @ p.wk.T + d_v @ p.wv.T
    if tape.res_src is tape.h_in:
        d_h_in += d_out @ p.wres.T
    return grads, d_h_in


def forward(g: Graph, mask: KHopMask, params: ModelParams,
            mode: str = "structure") -> np.ndarray:
    """Chain all layers from the raw features and apply the final projection."""
    return _forward_tape(g.features, mask, params, mode)[0]


def _forward_tape(x, mask, params: ModelParams, mode="structure", counter=None):
    """Chain the layers over ``mask`` ("structure") or over all node pairs
    ("vanilla"), the residual source being ``x`` or each layer's own input,
    and apply the final projection. Returns (embeddings, last hidden state,
    per-layer tapes): every intermediate the backward pass needs."""
    if mode not in ("structure", "vanilla"):
        raise ConfigError(f"unknown mode {mode!r}")
    attn_mask = mask if mode == "structure" else None
    dims = params.dims
    if x.shape[1] != dims.d:
        raise ConfigError(f"feature dim {x.shape[1]} != dims.d {dims.d}")
    tapes = []
    h = x
    for l, p in enumerate(params.layers):
        res_src = x if dims.residual == "input" else h
        h, tape = _layer(h, res_src, attn_mask, p, dims.heads, layer_idx=l,
                         counter=counter)
        tapes.append(tape)
    return h @ params.final_proj, h, tapes


def _model_backward(params: ModelParams, tapes, h_last, d_embeddings):
    """Gradients of all parameters given the gradient at the final embeddings."""
    d_final = h_last.T @ d_embeddings
    d_h = d_embeddings @ params.final_proj.T
    layer_grads = [None] * len(params.layers)
    for l in range(len(params.layers) - 1, -1, -1):
        # no layer reads the gradient at the raw features
        layer_grads[l], d_h = _layer_backward(tapes[l], d_h, params.layers[l],
                                              input_grad=l > 0)
    return ModelParams(dims=params.dims, layers=tuple(layer_grads),
                       final_proj=d_final)


def save_params(params: ModelParams, path):
    """Write parameters to the flat binary container.

    Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON
    header (dims plus tensor names and shapes), then every tensor as
    row-major little-endian float64 in header order.
    """
    names, arrays = zip(*params.tensors())
    header = {
        "dims": asdict(params.dims),
        "tensors": [{"name": n, "shape": list(a.shape)}
                    for n, a in zip(names, arrays)],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with _atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array(len(blob), dtype="<u8").tobytes())
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _tensor_specs(dims: Dims):
    """Yield (name, shape, split) of every tensor ``dims`` implies, in
    serialization order; ``split`` is the number of per-head column blocks."""
    d_in = dims.d
    for l in range(dims.layers):
        res_in = dims.d if dims.residual == "input" else d_in
        yield from ((f"layers.{l}.wq", (d_in, dims.d_q), dims.heads),
                    (f"layers.{l}.wk", (d_in, dims.d_q), dims.heads),
                    (f"layers.{l}.wv", (d_in, dims.d_v), dims.heads),
                    (f"layers.{l}.wo", (dims.d_v, dims.d_v), 1),
                    (f"layers.{l}.wres", (res_in, dims.d_v), 1))
        d_in = dims.d_v
    yield "final_proj", (dims.d_v, dims.d_out), 1


def load_params(path) -> ModelParams:
    """Read parameters written by :func:`save_params`.

    A bad magic, a header shorter than its stated length or without the
    dims and tensor list, a tensor list other than the names and shapes the
    dims imply (the error names the first tensor that differs), and a body
    whose byte count is not what those shapes need each raise
    :class:`ConfigError` naming ``path``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise ConfigError(f"{path}: not a parameter file: bad magic {data[:8]!r}")
    if len(data) < 16:
        raise ConfigError(f"{path}: truncated header length")
    hlen = int.from_bytes(data[8:16], "little")
    offset = 16 + hlen
    if offset > len(data):
        raise ConfigError(f"{path}: header needs {hlen} bytes, "
                          f"{len(data) - 16} present")
    try:
        header = json.loads(data[16:offset].decode("utf-8"))
        dims = Dims(**header["dims"])
        specs = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: bad header: {exc!r}") from exc
    want = [(name, shape) for name, shape, _ in _tensor_specs(dims)]
    if specs != want:
        first = next(p for p in itertools.zip_longest(specs, want) if p[0] != p[1])
        got, implied = ("nothing" if t is None else f"{t[0]} {t[1]}" for t in first)
        raise ConfigError(f"{path}: header lists {got} where dims imply {implied}")
    sizes = [math.prod(shape) for _, shape in want]
    if len(data) - offset != 8 * sum(sizes):
        raise ConfigError(f"{path}: the tensors need {8 * sum(sizes)} bytes "
                          f"after the header, {len(data) - offset} present")
    body = np.frombuffer(data, dtype="<f8", offset=offset)
    return ModelParams.from_tensors(dims, (
        part.reshape(shape).copy() for part, (_, shape)
        in zip(np.split(body, np.cumsum(sizes)[:-1]), want)))
