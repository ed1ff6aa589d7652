import dataclasses
import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import agcn.model
from agcn.errors import ConfigError, NumericError
from agcn.graph import KHopMask, khop_mask
from agcn.model import (Dims, EvalCounter, init_params,
                        load_params, save_params, forward, _forward_tape,
                        _dense_probs, _layer, _layer_backward,
                        _model_backward)

from conftest import complete_mask, neighbors, path_graph, random_graph

DIMS = Dims(d=3, d_q=4, d_v=4, heads=2, layers=2, d_out=3)


def naive_layer_oracle(h_prev, x, mask, p, heads):
    """Per-node gather-then-project attention: the literal per-node form."""
    n = h_prev.shape[0]
    dqh = p.wq.shape[1] // heads
    dvh = p.wv.shape[1] // heads
    out = np.zeros((n, p.wo.shape[1]))
    for i in range(n):
        nb = neighbors(mask, i)
        gathered = h_prev[nb]
        ctx_parts = []
        for h in range(heads):
            wq = p.wq[:, h * dqh:(h + 1) * dqh]
            wk = p.wk[:, h * dqh:(h + 1) * dqh]
            wv = p.wv[:, h * dvh:(h + 1) * dvh]
            q_i = h_prev[i] @ wq
            k_i = gathered @ wk          # projected after the gather
            v_i = gathered @ wv
            scores = (k_i @ q_i) / np.sqrt(dqh)
            scores = scores - scores.max()
            weights = np.exp(scores)
            weights = weights / weights.sum()
            ctx_parts.append(weights @ v_i)
        out[i] = np.concatenate(ctx_parts) @ p.wo + x[i] @ p.wres
    return out


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_deterministic_under_seed():
    a = init_params(DIMS, seed=42)
    b = init_params(DIMS, seed=42)
    for (na, ta), (nb, tb) in zip(a.tensors(), b.tensors()):
        assert na == nb
        np.testing.assert_array_equal(ta, tb)


def test_init_differs_across_seeds():
    a = init_params(DIMS, seed=0)
    b = init_params(DIMS, seed=1)
    assert any((ta != tb).any() for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()))


def test_init_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        Dims(d=3, d_q=6, d_v=4, heads=4, layers=1, d_out=2)
    with pytest.raises(ConfigError, match="d_v=6 not divisible by heads=4"):
        Dims(d=3, d_q=4, d_v=6, heads=4, layers=1, d_out=2)


def test_forward_rejects_unknown_mode_and_feature_width():
    g = random_graph(5, 0.5, seed=4, d=3)
    mask = khop_mask(g, 1)
    with pytest.raises(ConfigError, match="unknown mode 'bogus'"):
        forward(g, mask, init_params(DIMS, seed=0), mode="bogus")
    wide = init_params(dataclasses.replace(DIMS, d=4), seed=0)
    with pytest.raises(ConfigError, match="feature dim 3 != dims.d 4"):
        forward(g, mask, wide)


def test_init_bounds_follow_fan_in_out():
    params = init_params(DIMS, seed=3)
    dqh = DIMS.d_q // DIMS.heads
    bound = np.sqrt(6.0 / (DIMS.d + dqh))
    assert np.abs(params.layers[0].wq).max() <= bound


@pytest.mark.parametrize("residual, digest", [
    ("input", "219b3f8c201d27ec435e82ccceba206d166af3b24becac3fe0b70082ffe256cd"),
    ("hidden", "deaa71eda405b6dc246de082ae7aa7219873d7c5fd7d18b21569c083aa54ba29"),
], ids=["input", "hidden"])
def test_init_params_pinned_bytes(residual, digest):
    """The draw order (per-head blocks of wq, wk, wv, then wo, wres per
    layer, then final_proj) and the Xavier bounds, pinned bit for bit."""
    dims = Dims(d=7, d_q=6, d_v=4, heads=2, layers=3, d_out=3,
                residual=residual)
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for _, a in init_params(dims, seed=11).tensors())
    assert hashlib.sha256(blob).hexdigest() == digest


# ---------------------------------------------------------------------------
# layer forward
# ---------------------------------------------------------------------------

def test_single_node_layer_hand_eval():
    dims = Dims(d=3, d_q=2, d_v=2, heads=1, layers=1, d_out=2)
    params = init_params(dims, seed=1)
    p = params.layers[0]
    x = np.array([[0.3, -1.2, 2.0]])
    mask = complete_mask(1)   # single node: attention over self only
    out, tape = _layer(x, x, mask, p, dims.heads)
    expected = (x @ p.wv) @ p.wo + x @ p.wres   # softmax over self is 1
    np.testing.assert_allclose(out, expected, atol=1e-14)
    np.testing.assert_allclose(tape.k.reshape(1, -1), x @ p.wk, atol=0)
    np.testing.assert_array_equal(_layer(x, x, mask, p, dims.heads)[0], out)


def _dense_rows(p, tape):
    """Per head, the row blocks of attention the dense backward rebuilds."""
    inv_scale = 1.0 / np.sqrt(p.wq.shape[1] // tape.q.shape[1])
    for h, lse in enumerate(tape.alphas.T):
        yield list(_dense_probs(tape.q[:, h] * inv_scale, tape.k[:, h], lse))


@settings(max_examples=40)
@given(n=st.integers(1, 12), p_edge=st.floats(0.0, 1.0), k=st.integers(1, 3),
       block_rows=st.integers(1, 5), scale=st.sampled_from([1.0, 30.0]),
       seed=st.integers(0, 2 ** 16))
@example(n=9, p_edge=0.4, k=2, block_rows=3, scale=1.0, seed=8)
def test_attention_rows_sum_to_one(n, p_edge, k, block_rows, scale, seed):
    g = random_graph(n, p_edge, seed=seed)
    x = g.features * scale
    p = init_params(DIMS, seed=seed).layers[0]
    mask = khop_mask(g, k)
    _, tape = _layer(x, x, mask, p, DIMS.heads)
    for alpha in tape.alphas.T:
        np.testing.assert_allclose(np.add.reduceat(alpha, mask.indptr[:-1]),
                                   1.0, atol=1e-9)
        assert alpha.min() >= 0
    with mock.patch.object(agcn.model, "DENSE_BLOCK_BYTES", 8 * n * block_rows):
        _, tape = _layer(x, x, None, p, DIMS.heads)
        for blocks in _dense_rows(p, tape):
            assert sum(r.stop - r.start for r, _ in blocks) == n
            for _, attn in blocks:
                np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)
                assert attn.min() >= 0


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_cached_projection_matches_naive_oracle(seed):
    g = random_graph(6, 0.5, seed=seed)
    mask = khop_mask(g, 2)
    params = init_params(DIMS, seed=seed)
    p = params.layers[0]
    got = _layer(g.features, g.features, mask, p, DIMS.heads)[0]
    expect = naive_layer_oracle(g.features, g.features, mask, p, DIMS.heads)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_layer_cache_shape_and_content():
    g = random_graph(7, 0.4, seed=2)
    mask = khop_mask(g, 1)
    params = init_params(DIMS, seed=2)
    p = params.layers[0]
    _, tape = _layer(g.features, g.features, mask, p, DIMS.heads)
    assert tape.k.shape == (7, DIMS.heads, DIMS.d_q // DIMS.heads)
    assert tape.v.shape == (7, DIMS.heads, DIMS.d_v // DIMS.heads)
    np.testing.assert_allclose(tape.v.reshape(7, -1), g.features @ p.wv, atol=0)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_layer_numeric_error_names_layer_and_node():
    g = random_graph(4, 0.6, seed=3)
    feats = g.features.copy()
    feats[2, 0] = np.inf
    mask = khop_mask(g, 1)
    params = init_params(DIMS, seed=0)
    with pytest.raises(NumericError, match="layer 0"):
        _layer(feats, feats, mask, params.layers[0], DIMS.heads)


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

def test_zero_final_projection_gives_zero_embeddings():
    g = random_graph(6, 0.5, seed=4)
    mask = khop_mask(g, 2)
    params = init_params(DIMS, seed=4)
    zeroed = type(params)(dims=params.dims, layers=params.layers,
                          final_proj=np.zeros_like(params.final_proj))
    h = forward(g, mask, zeroed)
    assert (h == 0).all()


@settings(max_examples=30)
@given(n=st.integers(2, 10), p_edge=st.floats(0.0, 1.0),
       mode=st.sampled_from(["structure", "vanilla"]),
       residual=st.sampled_from(["input", "hidden"]),
       seed=st.integers(0, 2 ** 16))
@example(n=10, p_edge=0.35, mode="structure", residual="input", seed=6)
def test_forward_permutation_equivariance(n, p_edge, mode, residual, seed):
    # permuting the nodes permutes the embeddings and leaves every
    # parameter gradient unchanged
    from agcn.graph import build_graph
    g = random_graph(n, p_edge, seed=seed)
    dims = dataclasses.replace(DIMS, residual=residual)
    params = init_params(dims, seed=seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)            # node i is renamed perm[i]
    inv = np.argsort(perm)
    rows, cols = g.adj.nonzero()
    keep = rows < cols
    g_p = build_graph(np.column_stack([perm[rows[keep]], perm[cols[keep]]]),
                      g.features[inv])
    d_emb = rng.standard_normal((n, dims.d_out))
    runs = []
    for graph, d in ((g, d_emb), (g_p, d_emb[inv])):
        mask = khop_mask(graph, 2)
        emb, h_last, tapes = _forward_tape(graph.features, mask, params,
                                           mode=mode)
        np.testing.assert_array_equal(forward(graph, mask, params, mode=mode),
                                      emb)
        runs.append((emb, _model_backward(params, tapes, h_last, d)))
    np.testing.assert_allclose(runs[1][0], runs[0][0][inv], atol=1e-10)
    for (name, a), (_, b) in zip(runs[0][1].tensors(), runs[1][1].tensors()):
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("maker,n,probe", [("path", 33, 0), ("tree", 31, 15)])
def test_locality_beyond_receptive_field_is_bitwise(maker, n, probe):
    if maker == "path":
        g = path_graph(n, d=3, seed=1)
    else:
        edges = [[(v - 1) // 2, v] for v in range(1, n)]
        from agcn.graph import build_graph
        g = build_graph(edges, np.random.default_rng(1).standard_normal((n, 3)))
    k, layers = 2, 2
    dims = Dims(d=3, d_q=4, d_v=4, heads=2, layers=layers, d_out=3)
    mask = khop_mask(g, k)
    params = init_params(dims, seed=9)
    h = forward(g, mask, params)

    from conftest import bfs_distances
    dist = bfs_distances(g.adj.toarray(), probe)
    far = np.flatnonzero((dist > layers * k) | (dist < 0))
    assert len(far) > 0
    feats = g.features.copy()
    feats[far] += 100.0
    g2 = type(g)(adj=g.adj, features=feats)
    h2 = forward(g2, mask, params)
    assert (h2[probe] == h[probe]).all()   # bitwise equality inside the ball


# ---------------------------------------------------------------------------
# vanilla attention
# ---------------------------------------------------------------------------

def test_vanilla_equals_masked_with_complete_mask():
    g = random_graph(8, 0.4, seed=10)
    params = init_params(DIMS, seed=10)
    p = params.layers[0]
    full = complete_mask(8)
    a = _layer(g.features, g.features, full, p, DIMS.heads)[0]
    b = _layer(g.features, g.features, None, p, DIMS.heads)[0]
    np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("residual", ["input", "hidden"])
def test_vanilla_backward_equals_masked_with_complete_mask(residual):
    g = random_graph(8, 0.4, seed=10)
    dims = Dims(d=3, d_q=4, d_v=4, heads=2, layers=2, d_out=3,
                residual=residual)
    params = init_params(dims, seed=10)
    full = complete_mask(8)
    d_emb = np.random.default_rng(10).standard_normal((8, dims.d_out))
    grads = {}
    for mode, dense in (("structure", False), ("vanilla", True)):
        _, h_last, tapes = _forward_tape(g.features, full, params, mode=mode)
        assert [t.mask is None for t in tapes] == [dense, dense]
        grads[mode] = _model_backward(params, tapes, h_last, d_emb)
    for (name, a), (_, b) in zip(grads["structure"].tensors(),
                                 grads["vanilla"].tensors()):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("block_rows", [1, 3, 8])
def test_dense_row_blocks_match_masked_complete(block_rows, monkeypatch):
    # 8 nodes in blocks of 1, of 3 (the last one ragged) and of all rows
    monkeypatch.setattr(agcn.model, "DENSE_BLOCK_BYTES", 8 * 8 * block_rows)
    g = random_graph(8, 0.4, seed=10)
    dims = Dims(d=3, d_q=4, d_v=4, heads=2, layers=2, d_out=3)
    params = init_params(dims, seed=10)
    full = complete_mask(8)
    d_emb = np.random.default_rng(10).standard_normal((8, dims.d_out))
    runs = {}
    for mode in ("structure", "vanilla"):
        emb, h_last, tapes = _forward_tape(g.features, full, params, mode=mode)
        runs[mode] = emb, _model_backward(params, tapes, h_last, d_emb)
    np.testing.assert_allclose(runs["vanilla"][0], runs["structure"][0],
                               rtol=1e-12, atol=1e-12)
    for (name, a), (_, b) in zip(runs["structure"][1].tensors(),
                                 runs["vanilla"][1].tensors()):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)
    _, tape = _layer(g.features, g.features, None, params.layers[0], dims.heads)
    for blocks in _dense_rows(params.layers[0], tape):
        assert blocks[0][0] == slice(0, block_rows)


def test_dense_layer_memory_is_bounded_by_row_blocks():
    # taping one n x n attention matrix per head would alone take
    # heads * n^2 * 8 B = 32 MiB here; the row blocks need a few MiB
    n = 1024
    dims = Dims(d=8, d_q=64, d_v=64, heads=4, layers=1, d_out=4)
    p = init_params(dims, seed=0).layers[0]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, dims.d))
    d_out = rng.standard_normal((n, dims.d_v))
    tracemalloc.start()
    try:
        _, tape = _layer(x, x, None, p, dims.heads)
        _layer_backward(tape, d_out, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_backward_forms_no_gradient_at_the_raw_features():
    # the gradient at a 4096-wide input would take three n x d GEMMs of
    # 8 MiB each; the parameter gradients need about 1 MiB
    n, d = 256, 4096
    dims = Dims(d=d, d_q=8, d_v=8, heads=2, layers=1, d_out=4)
    params = init_params(dims, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, d))
    self_only = KHopMask(indptr=np.arange(n + 1),
                         indices=np.arange(n))
    _, h_last, tapes = _forward_tape(x, self_only, params)
    d_emb = rng.standard_normal((n, dims.d_out))
    tracemalloc.start()
    try:
        _model_backward(params, tapes, h_last, d_emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_vanilla_identical_rows_agree():
    params = init_params(DIMS, seed=1)
    row = np.array([0.5, -0.1, 1.0])
    x = np.vstack([row, row])
    out = _layer(x, x, None, params.layers[0], DIMS.heads)[0]
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_vanilla_matches_dense_softmax_oracle():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((5, 3))
    params = init_params(DIMS, seed=14)
    p = params.layers[0]
    got = _layer(x, x, None, p, DIMS.heads)[0]

    dqh = DIMS.d_q // DIMS.heads
    dvh = DIMS.d_v // DIMS.heads
    parts = []
    for h in range(DIMS.heads):
        q = x @ p.wq[:, h * dqh:(h + 1) * dqh]
        k = x @ p.wk[:, h * dqh:(h + 1) * dqh]
        v = x @ p.wv[:, h * dvh:(h + 1) * dvh]
        s = q @ k.T / np.sqrt(dqh)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        parts.append((e / e.sum(axis=1, keepdims=True)) @ v)
    expect = np.hstack(parts) @ p.wo + x @ p.wres
    np.testing.assert_allclose(got, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# cost instrumentation
# ---------------------------------------------------------------------------

def test_score_evaluations_equal_mask_size():
    g = random_graph(15, 0.3, seed=21)
    mask = khop_mask(g, 2)
    params = init_params(DIMS, seed=21)
    counter = EvalCounter()
    _forward_tape(g.features, mask, params, counter=counter)
    expected = int(mask.total_nnz)
    for layer in range(DIMS.layers):
        for head in range(DIMS.heads):
            assert counter.counts[(layer, head)] == expected
    per_layer = {}
    for (layer, _), n in counter.counts.items():
        per_layer[layer] = per_layer.get(layer, 0) + n
    assert per_layer == {0: expected * DIMS.heads, 1: expected * DIMS.heads}


def test_vanilla_counts_all_pairs():
    g = random_graph(7, 0.3, seed=22)
    mask = khop_mask(g, 1)
    params = init_params(DIMS, seed=22)
    counter = EvalCounter()
    _forward_tape(g.features, mask, params, mode="vanilla", counter=counter)
    assert counter.counts[(0, 0)] == 49


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_params_roundtrip_bitwise(tmp_path):
    g = random_graph(9, 0.4, seed=33)
    mask = khop_mask(g, 2)
    for residual in ("input", "hidden"):
        params = init_params(dataclasses.replace(DIMS, residual=residual),
                             seed=33)
        path = tmp_path / f"{residual}.bin"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.dims == params.dims
        for (na, ta), (nb, tb) in zip(params.tensors(), loaded.tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)
        # the file holds the whole model, head split included: the loaded
        # parameters embed the graph bit for bit as the saved ones do
        for mode in ("structure", "vanilla"):
            np.testing.assert_array_equal(forward(g, mask, loaded, mode=mode),
                                          forward(g, mask, params, mode=mode))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAPARM" + b"\x00" * 32)
    with pytest.raises(ConfigError):
        load_params(path)


def _header_end(blob: bytes) -> int:
    return 16 + int.from_bytes(blob[8:16], "little")


def _with_header(blob: bytes, edit) -> bytes:
    """``blob`` with its JSON header passed through ``edit`` (in place)."""
    header = json.loads(blob[16:_header_end(blob)])
    edit(header)
    text = json.dumps(header).encode()
    return blob[:8] + len(text).to_bytes(8, "little") + text + blob[_header_end(blob):]


@pytest.mark.parametrize("damage", ["short_length_field", "truncated_header",
                                    "header_without_dims", "indivisible_heads",
                                    "dims_with_d_model", "truncated_tensor",
                                    "trailing_bytes"])
def test_load_rejects_damaged_params(tmp_path, damage):
    path = tmp_path / "params.bin"
    save_params(init_params(DIMS, seed=33), path)
    blob = path.read_bytes()
    damaged = {
        "short_length_field": blob[:12],
        "truncated_header": blob[:_header_end(blob) - 5],
        "header_without_dims": _with_header(blob, lambda h: h.pop("dims")),
        # invalid dims: d_q=4 over 3 heads
        "indivisible_heads": _with_header(
            blob, lambda h: h["dims"].update(heads=3)),
        # the layer width key of files written before d_v fixed it
        "dims_with_d_model": _with_header(
            blob, lambda h: h["dims"].update(d_model=DIMS.d_v)),
        "truncated_tensor": blob[:-8],
        "trailing_bytes": blob + b"\x00",
    }[damage]
    path.write_bytes(damaged)
    with pytest.raises(ConfigError) as err:
        load_params(path)
    assert str(path) in str(err.value)


def _grow_layers(header, by):
    header["dims"]["layers"] += by


def _transpose_first(header):
    header["tensors"][0]["shape"].reverse()


@pytest.mark.parametrize("edit, tensor", [
    (lambda h: _grow_layers(h, 1), "layers.2.wq"),     # dims name a tensor
    (lambda h: _grow_layers(h, -1), "layers.1.wq"),    # the list runs on
    (_transpose_first, "layers.0.wq"),                 # same bytes, wrong shape
], ids=["dims_one_layer_more", "dims_one_layer_fewer", "transposed_wq"])
def test_load_rejects_header_that_disagrees_with_dims(tmp_path, edit, tensor):
    path = tmp_path / "params.bin"
    save_params(init_params(DIMS, seed=33), path)
    path.write_bytes(_with_header(path.read_bytes(), edit))
    with pytest.raises(ConfigError) as err:
        load_params(path)
    assert str(path) in str(err.value)
    assert tensor in str(err.value)


_SPECIAL = np.array([0.0, -0.0, 5e-324, -1.5e308, np.pi, -1.0 / 3.0])


@settings(max_examples=40)
@given(d=st.integers(1, 6), dqh=st.integers(1, 3), dvh=st.integers(1, 3),
       heads=st.integers(1, 3), layers=st.integers(1, 3),
       d_out=st.integers(1, 5), residual=st.sampled_from(["input", "hidden"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_params_roundtrip_bitwise_property(d, dqh, dvh, heads, layers, d_out,
                                           residual, seed):
    dims = Dims(d=d, d_q=dqh * heads, d_v=dvh * heads,
                heads=heads, layers=layers, d_out=d_out, residual=residual)
    params = init_params(dims, seed % 1000)
    rng = np.random.default_rng(seed)
    pool = np.concatenate([_SPECIAL, rng.standard_normal(8)])
    for _, tensor in params.tensors():      # signed zeros, subnormals, huge
        tensor.flat[:] = rng.choice(pool, size=tensor.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.bin"
        save_params(params, path)
        loaded = load_params(path)
    assert loaded.dims == dims
    got, want = list(loaded.tensors()), list(params.tensors())
    assert [(n, a.shape) for n, a in got] == [(n, a.shape) for n, a in want]
    for (name, a), (_, b) in zip(got, want):
        assert a.tobytes() == b.tobytes(), name
