import json

import numpy as np
import pytest

from agcn.errors import ConfigError, NumericError
from agcn.graph import KHopMask, khop_mask
from agcn.model import (Dims, EvalCounter, init_params, layer_forward,
                        load_params, save_params, forward, _forward_tape,
                        _layer, _model_backward)

from conftest import path_graph, random_graph

DIMS = Dims(d=3, d_model=5, d_q=4, d_v=4, heads=2, layers=2, d_out=3)


def naive_layer_oracle(h_prev, x, mask, p):
    """Per-node gather-then-project attention: the literal per-node form."""
    n = h_prev.shape[0]
    heads = p.heads
    dqh = p.wq.shape[1] // heads
    dvh = p.wv.shape[1] // heads
    out = np.zeros((n, p.wo.shape[1]))
    for i in range(n):
        nb = mask.neighbors(i)
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
        Dims(d=3, d_model=5, d_q=6, d_v=4, heads=4, layers=1, d_out=2)


def test_init_bounds_follow_fan_in_out():
    params = init_params(DIMS, seed=3)
    dqh = DIMS.d_q // DIMS.heads
    bound = np.sqrt(6.0 / (DIMS.d + dqh))
    assert np.abs(params.layers[0].wq).max() <= bound


# ---------------------------------------------------------------------------
# layer forward
# ---------------------------------------------------------------------------

def test_single_node_layer_hand_eval():
    dims = Dims(d=3, d_model=4, d_q=2, d_v=2, heads=1, layers=1, d_out=2)
    params = init_params(dims, seed=1)
    p = params.layers[0]
    x = np.array([[0.3, -1.2, 2.0]])
    mask = KHopMask.complete(1)   # single node: attention over self only
    out, tape = _layer(x, x, mask, p)
    expected = (x @ p.wv) @ p.wo + x @ p.wres   # softmax over self is 1
    np.testing.assert_allclose(out, expected, atol=1e-14)
    np.testing.assert_allclose(tape.k_full, x @ p.wk, atol=0)
    np.testing.assert_array_equal(layer_forward(x, x, mask, p), out)


def test_attention_rows_sum_to_one():
    g = random_graph(9, 0.4, seed=8)
    mask = khop_mask(g, 2)
    params = init_params(DIMS, seed=5)
    _, tape = _layer(g.features, g.features, mask, params.layers[0])
    starts = mask.indptr[:-1]
    for alpha in tape.alphas:
        sums = np.add.reduceat(alpha, starts)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert alpha.min() >= 0


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_cached_projection_matches_naive_oracle(seed):
    g = random_graph(6, 0.5, seed=seed)
    mask = khop_mask(g, 2)
    params = init_params(DIMS, seed=seed)
    p = params.layers[0]
    got = layer_forward(g.features, g.features, mask, p)
    expect = naive_layer_oracle(g.features, g.features, mask, p)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_layer_cache_shape_and_content():
    g = random_graph(7, 0.4, seed=2)
    mask = khop_mask(g, 1)
    params = init_params(DIMS, seed=2)
    p = params.layers[0]
    _, tape = _layer(g.features, g.features, mask, p)
    assert tape.k_full.shape == (7, DIMS.d_q)
    assert tape.v_full.shape == (7, DIMS.d_v)
    np.testing.assert_allclose(tape.v_full, g.features @ p.wv, atol=0)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_layer_numeric_error_names_layer_and_node():
    g = random_graph(4, 0.6, seed=3)
    feats = g.features.copy()
    feats[2, 0] = np.inf
    mask = khop_mask(g, 1)
    params = init_params(DIMS, seed=0)
    with pytest.raises(NumericError, match="layer 0"):
        layer_forward(feats, feats, mask, params.layers[0])


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


def test_forward_permutation_equivariance():
    from agcn.graph import build_graph
    g = random_graph(10, 0.35, seed=6)
    mask = khop_mask(g, 2)
    params = init_params(DIMS, seed=6)
    h = forward(g, mask, params)

    rng = np.random.default_rng(0)
    perm = rng.permutation(10)
    inv = np.argsort(perm)
    rows, cols = g.adj.nonzero()
    keep = rows < cols
    edges_p = np.column_stack([perm[rows[keep]], perm[cols[keep]]])
    g_p = build_graph(edges_p, g.features[inv])
    h_p = forward(g_p, khop_mask(g_p, 2), params)
    np.testing.assert_allclose(h_p, h[inv], atol=1e-9)


@pytest.mark.parametrize("maker,n,probe", [("path", 33, 0), ("tree", 31, 15)])
def test_locality_beyond_receptive_field_is_bitwise(maker, n, probe):
    if maker == "path":
        g = path_graph(n, d=3, seed=1)
    else:
        edges = [[(v - 1) // 2, v] for v in range(1, n)]
        from agcn.graph import build_graph
        g = build_graph(edges, np.random.default_rng(1).standard_normal((n, 3)))
    k, layers = 2, 2
    dims = Dims(d=3, d_model=4, d_q=4, d_v=4, heads=2, layers=layers, d_out=3)
    mask = khop_mask(g, k)
    params = init_params(dims, seed=9)
    h = forward(g, mask, params)

    from conftest import bfs_distances
    dist = bfs_distances(g.adj.toarray(), probe)
    far = np.flatnonzero((dist > layers * k) | (dist < 0))
    assert len(far) > 0
    feats = g.features.copy()
    feats[far] += 100.0
    g2 = type(g)(n_nodes=g.n_nodes, adj=g.adj, features=feats)
    h2 = forward(g2, mask, params)
    assert (h2[probe] == h[probe]).all()   # bitwise equality inside the ball


# ---------------------------------------------------------------------------
# vanilla attention
# ---------------------------------------------------------------------------

def test_vanilla_equals_masked_with_complete_mask():
    g = random_graph(8, 0.4, seed=10)
    params = init_params(DIMS, seed=10)
    p = params.layers[0]
    full = KHopMask.complete(8)
    a = layer_forward(g.features, g.features, full, p)
    b = layer_forward(g.features, g.features, None, p, mode="vanilla")
    np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("residual", ["input", "hidden"])
def test_vanilla_backward_equals_masked_with_complete_mask(residual):
    g = random_graph(8, 0.4, seed=10)
    dims = Dims(d=3, d_model=4, d_q=4, d_v=4, heads=2, layers=2, d_out=3,
                residual=residual)
    params = init_params(dims, seed=10)
    full = KHopMask.complete(8)
    d_emb = np.random.default_rng(10).standard_normal((8, dims.d_out))
    grads = {}
    for mode, dense in (("structure", False), ("vanilla", True)):
        _, h_last, tapes = _forward_tape(g.features, full, params, mode=mode)
        assert [t.dense for t in tapes] == [dense, dense]
        grads[mode] = _model_backward(params, tapes, h_last, full, d_emb)
    for (name, a), (_, b) in zip(grads["structure"].tensors(),
                                 grads["vanilla"].tensors()):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12, err_msg=name)


def test_vanilla_identical_rows_agree():
    params = init_params(DIMS, seed=1)
    row = np.array([0.5, -0.1, 1.0])
    x = np.vstack([row, row])
    out = layer_forward(x, x, None, params.layers[0], mode="vanilla")
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_vanilla_matches_dense_softmax_oracle():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((5, 3))
    params = init_params(DIMS, seed=14)
    p = params.layers[0]
    got = layer_forward(x, x, None, p, mode="vanilla")

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
    forward(g, mask, params, counter=counter)
    expected = int(mask.total_nnz)
    for layer in range(DIMS.layers):
        for head in range(DIMS.heads):
            assert counter.counts[(layer, head)] == expected
    assert counter.per_layer() == {0: expected * DIMS.heads,
                                   1: expected * DIMS.heads}


def test_vanilla_counts_all_pairs():
    g = random_graph(7, 0.3, seed=22)
    mask = khop_mask(g, 1)
    params = init_params(DIMS, seed=22)
    counter = EvalCounter()
    forward(g, mask, params, mode="vanilla", counter=counter)
    assert counter.counts[(0, 0)] == 49


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_params_roundtrip_bitwise(tmp_path):
    params = init_params(DIMS, seed=33)
    path = tmp_path / "params.bin"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.dims == params.dims
    for (na, ta), (nb, tb) in zip(params.tensors(), loaded.tensors()):
        assert na == nb
        np.testing.assert_array_equal(ta, tb)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAPARM" + b"\x00" * 32)
    with pytest.raises(ConfigError):
        load_params(path)


def _header_end(blob: bytes) -> int:
    return 16 + int.from_bytes(blob[8:16], "little")


def _without_dims(blob: bytes) -> bytes:
    header = json.loads(blob[16:_header_end(blob)])
    del header["dims"]
    text = json.dumps(header).encode()
    return blob[:8] + len(text).to_bytes(8, "little") + text + blob[_header_end(blob):]


@pytest.mark.parametrize("damage", ["truncated_header", "header_without_dims",
                                    "truncated_tensor", "trailing_bytes"])
def test_load_rejects_damaged_params(tmp_path, damage):
    path = tmp_path / "params.bin"
    save_params(init_params(DIMS, seed=33), path)
    blob = path.read_bytes()
    damaged = {
        "truncated_header": blob[:_header_end(blob) - 5],
        "header_without_dims": _without_dims(blob),
        "truncated_tensor": blob[:-8],
        "trailing_bytes": blob + b"\x00",
    }[damage]
    path.write_bytes(damaged)
    with pytest.raises(ConfigError) as err:
        load_params(path)
    assert str(path) in str(err.value)
