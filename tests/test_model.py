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
from agcn.model import (Dims, EvalCounter, ModelParams, init_params,
                        save_params, forward, _forward_tape, _dense_probs,
                        _layer, _layer_backward, _model_backward,
                        _tensor_specs)

from conftest import (binary_tree, complete_mask, neighbors, path_graph,
                      random_graph)

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


@pytest.mark.parametrize("field, value", [("layers", 2.0), ("heads", True)],
                         ids=["fractional_layers", "bool_heads"])
def test_dims_rejects_wrong_field_types(field, value):
    # dims of the wrong type, even where their value would do
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        dataclasses.replace(DIMS, **{field: value})


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


def test_init_params_pinned_bytes():
    """The draw order (per-head blocks of wq, wk, wv, then wo, wres per
    layer, then final_proj) and the Xavier bounds, pinned bit for bit."""
    dims = Dims(d=7, d_q=6, d_v=4, heads=2, layers=3, d_out=3)
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for _, a in init_params(dims, seed=11).tensors())
    assert hashlib.sha256(blob).hexdigest() == (
        "219b3f8c201d27ec435e82ccceba206d166af3b24becac3fe0b70082ffe256cd")


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
    zeroed = type(params)(dims=params.dims, flat=params.flat.copy())
    zeroed.final_proj[:] = 0.0
    h = forward(g, mask, zeroed)
    assert (h == 0).all()


@pytest.mark.parametrize("d_out", [3, 4, 9])
def test_forward_returns_span_coordinates_of_the_projection(d_out):
    # the rows of h_last @ final_proj in an orthonormal basis of the
    # projection's row space: min(d_out, d_v) wide, every inner product and
    # pairwise distance kept to 1e-12 of the rows' norms
    g = random_graph(12, 0.4, seed=8)
    dims = dataclasses.replace(DIMS, d_out=d_out)
    params = init_params(dims, seed=8)
    mask = khop_mask(g, 2)
    emb, h_last, _ = _forward_tape(g.features, mask, params)
    np.testing.assert_array_equal(forward(g, mask, params), emb)
    assert emb.shape == (g.n_nodes, min(d_out, dims.d_v))
    full = h_last @ params.final_proj
    norms = np.linalg.norm(full, axis=1)
    scale = 1e-12 * np.outer(norms, norms)
    assert (np.abs(emb @ emb.T - full @ full.T) <= scale).all()
    i, j = np.triu_indices(g.n_nodes, k=1)
    want = ((full[i] - full[j]) ** 2).sum(axis=1)
    got = ((emb[i] - emb[j]) ** 2).sum(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@settings(max_examples=30)
@given(n=st.integers(2, 10), p_edge=st.floats(0.0, 1.0),
       mode=st.sampled_from(["structure", "vanilla"]),
       seed=st.integers(0, 2 ** 16))
@example(n=10, p_edge=0.35, mode="structure", seed=6)
def test_forward_permutation_equivariance(n, p_edge, mode, seed):
    # permuting the nodes permutes the embeddings and leaves every
    # parameter gradient unchanged
    from agcn.graph import build_graph
    g = random_graph(n, p_edge, seed=seed)
    params = init_params(DIMS, seed=seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)            # node i is renamed perm[i]
    inv = np.argsort(perm)
    rows, cols = g.adj.nonzero()
    keep = rows < cols
    g_p = build_graph(np.column_stack([perm[rows[keep]], perm[cols[keep]]]),
                      g.features[inv])
    d_emb = rng.standard_normal((n, DIMS.d_out))
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
        g = binary_tree(4, d=3, seed=1)
    assert g.n_nodes == n
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


def test_vanilla_backward_equals_masked_with_complete_mask():
    g = random_graph(8, 0.4, seed=10)
    dims = Dims(d=3, d_q=4, d_v=4, heads=2, layers=2, d_out=3)
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
    params = init_params(dims, seed=0)
    p = params.layers[0]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, dims.d))
    d_out = rng.standard_normal((n, dims.d_v))
    tracemalloc.start()
    try:
        _, tape = _layer(x, x, None, p, dims.heads)
        grads = ModelParams(dims, np.empty_like(params.flat)).layers[0]
        _layer_backward(tape, d_out, p, grads)
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


def _complete_run(x, params, d_emb, mode):
    """(embedding, gradients, tapes) of ``mode`` over a complete mask."""
    emb, h_last, tapes = _forward_tape(x, complete_mask(len(x)), params,
                                       mode=mode)
    return emb, _model_backward(params, tapes, h_last, d_emb), tapes


def _assert_gradients_close(a, b, rel):
    # within rel of the largest entry of any gradient: where the softmax
    # saturates, the query and key gradients are themselves rounding-sized
    scale = max(np.abs(t).max() for _, t in a.tensors())
    for (name, ta), (_, tb) in zip(a.tensors(), b.tensors()):
        np.testing.assert_allclose(tb, ta, rtol=0, atol=rel * scale,
                                   err_msg=name)


@pytest.mark.parametrize("scale, shifted", [(1.0, False), (30.0, True)],
                         ids=["unshifted", "shifted"])
def test_dense_kernel_matches_the_shifted_oracle_in_either_branch(scale,
                                                                  shifted):
    # feature scale 1 keeps every score bound below EXP_SAFE, so no block is
    # shifted; at scale 30 layer 0's bound is in the thousands and its
    # blocks are shifted by their row maxima
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, DIMS.d)) * scale
    params = init_params(DIMS, seed=5)
    d_emb = rng.standard_normal((10, DIMS.d_out))
    _, grads, tapes = _complete_run(x, params, d_emb, "vanilla")
    qs = tapes[0].q / np.sqrt(tapes[0].q.shape[2])
    bound = max(np.linalg.norm(qs[:, h], axis=1).max()
                * np.linalg.norm(tapes[0].k[:, h], axis=1).max()
                for h in range(DIMS.heads))
    assert (bound > agcn.model.EXP_SAFE) == shifted, bound

    p = params.layers[0]
    got = _layer(x, x, None, p, DIMS.heads)[0]
    dqh, dvh = DIMS.d_q // DIMS.heads, DIMS.d_v // DIMS.heads
    parts = []
    for h in range(DIMS.heads):
        s = (x @ p.wq[:, h * dqh:(h + 1) * dqh]) @ (
            x @ p.wk[:, h * dqh:(h + 1) * dqh]).T / np.sqrt(dqh)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        parts.append(e / e.sum(axis=1, keepdims=True)
                     @ (x @ p.wv[:, h * dvh:(h + 1) * dvh]))
    expect = np.hstack(parts) @ p.wo + x @ p.wres
    np.testing.assert_allclose(got, expect, rtol=1e-12,
                               atol=1e-12 * np.abs(expect).max())
    _assert_gradients_close(_complete_run(x, params, d_emb, "structure")[1],
                            grads, 1e-12)


def test_dense_kernel_branch_changes_only_rounding(monkeypatch):
    # the same input through the shifted path only and the unshifted only
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, DIMS.d))
    params = init_params(DIMS, seed=5)
    d_emb = rng.standard_normal((10, DIMS.d_out))
    runs = []
    for exp_safe in (0.0, np.inf):
        monkeypatch.setattr(agcn.model, "EXP_SAFE", exp_safe)
        runs.append(_complete_run(x, params, d_emb, "vanilla"))
    (emb_shifted, grads_shifted, _), (emb_plain, grads_plain, _) = runs
    np.testing.assert_allclose(emb_plain, emb_shifted, rtol=0,
                               atol=1e-13 * np.abs(emb_shifted).max())
    _assert_gradients_close(grads_shifted, grads_plain, 1e-13)
    # unshifted, scores in the thousands overflow exp: the scale-30 case
    # needs the shift
    with pytest.raises(FloatingPointError), np.errstate(over="raise"):
        _layer(x * 30.0, x * 30.0, None, params.layers[0], DIMS.heads)


def test_khop_attention_at_the_diameter_is_vanilla_attention():
    # a connected graph: from k = its diameter on, every k-hop list holds
    # every node, and structure mode is the Transformer
    from agcn.datagen import SBMSpec, gen_sbm
    from conftest import bfs_distances
    g = gen_sbm(SBMSpec(block_sizes=(30, 30), p_in=0.12, p_out=0.02,
                        feature_dim=16, seed=5))
    adj = g.adj.toarray()
    dist = np.array([bfs_distances(adj, i) for i in range(g.n_nodes)])
    assert dist.min() >= 0
    diameter = int(dist.max())
    dims = Dims(d=16, d_q=8, d_v=8, heads=2, layers=2, d_out=4)
    params = init_params(dims, seed=5)
    d_emb = np.random.default_rng(5).standard_normal((g.n_nodes, dims.d_out))
    emb_v, h_last, tapes = _forward_tape(g.features, None, params,
                                         mode="vanilla")
    grads_v = _model_backward(params, tapes, h_last, d_emb)
    gaps = {}
    for k in (diameter - 1, diameter, diameter + 2):
        emb, h_last, tapes = _forward_tape(g.features, khop_mask(g, k), params)
        grads = _model_backward(params, tapes, h_last, d_emb)
        gaps[k] = np.abs(emb - emb_v).max()
        if k >= diameter:
            np.testing.assert_allclose(emb, emb_v, rtol=0, atol=1e-12)
            for (name, a), (_, b) in zip(grads_v.tensors(), grads.tensors()):
                np.testing.assert_allclose(b, a, rtol=0, atol=1e-12,
                                           err_msg=name)
    # one hop short, some list misses a node and the layers differ
    assert gaps[diameter - 1] > 1e-3, gaps


# ---------------------------------------------------------------------------
# cost instrumentation
# ---------------------------------------------------------------------------

def test_score_evaluations_equal_mask_size():
    g = random_graph(15, 0.3, seed=21)
    mask = khop_mask(g, 2)
    params = init_params(DIMS, seed=21)
    counter = EvalCounter()
    _, _, tapes = _forward_tape(g.features, mask, params, counter=counter)
    expected = int(mask.total_nnz)
    # the scores actually computed: one alpha per mask entry and head
    for tape in tapes:
        assert tape.mask is mask
        assert tape.alphas.shape == (expected, DIMS.heads)
    assert len(tapes) == DIMS.layers
    assert counter.total() == DIMS.layers * DIMS.heads * expected


def test_vanilla_counts_all_pairs():
    g = random_graph(7, 0.3, seed=22)
    mask = khop_mask(g, 1)
    params = init_params(DIMS, seed=22)
    counter = EvalCounter()
    _, _, tapes = _forward_tape(g.features, mask, params, mode="vanilla",
                                counter=counter)
    # every row's log-sum-exp over all 7 nodes, per head
    for tape in tapes:
        assert tape.mask is None
        assert tape.alphas.shape == (7, DIMS.heads)
    assert len(tapes) == DIMS.layers
    assert counter.total() == DIMS.layers * DIMS.heads * 49


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _read_params_file(path):
    """The JSON header of a params.bin file and the bytes after it."""
    blob = path.read_bytes()
    assert blob[:8] == b"AGCNPAR1"
    end = 16 + int.from_bytes(blob[8:16], "little")
    return json.loads(blob[16:end]), blob[end:]


def _header_of(dims):
    return {"dims": dataclasses.asdict(dims),
            "tensors": [{"name": name, "shape": list(shape)}
                        for name, shape, _ in _tensor_specs(dims)]}


def test_params_roundtrip_bitwise(tmp_path):
    params = init_params(DIMS, seed=33)
    path = tmp_path / "params.bin"
    save_params(params, path)
    header, body = _read_params_file(path)
    assert header == _header_of(DIMS)
    # the file holds the whole model, head split included: the one buffer
    assert body == params.flat.astype("<f8").tobytes()


def test_params_file_pinned_bytes(tmp_path):
    """The whole params.bin format, header included, pinned bit for bit."""
    path = tmp_path / "params.bin"
    save_params(init_params(Dims(d=7, d_q=6, d_v=4, heads=2, layers=3,
                                 d_out=3), seed=11), path)
    blob = path.read_bytes()
    assert len(blob) == 3853
    assert hashlib.sha256(blob).hexdigest() == (
        "b0e797b8440e6cacd58f55ec34157686ccf100b91dd378a946f75bd7b6b30e0f")


def test_every_tensor_is_a_view_of_one_writable_buffer():
    params = init_params(DIMS, seed=33)
    assert params.flat.shape == (sum(a.size for _, a in params.tensors()),)
    for name, tensor in params.tensors():
        assert np.shares_memory(tensor, params.flat), name
    assert params.flat.flags.writeable
    params.layers[0].wq[0, 0] = 7.0
    assert params.flat[0] == 7.0      # layers.0.wq comes first
    # a buffer of any other length leaves a tensor that cannot take its shape
    for size in (params.flat.size - 1, params.flat.size + 1):
        with pytest.raises(ValueError):
            ModelParams(DIMS, np.zeros(size))


_SPECIAL = np.array([0.0, -0.0, 5e-324, -1.5e308, np.pi, -1.0 / 3.0])


@settings(max_examples=40)
@given(d=st.integers(1, 6), dqh=st.integers(1, 3), dvh=st.integers(1, 3),
       heads=st.integers(1, 3), layers=st.integers(1, 3),
       d_out=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_params_roundtrip_bitwise_property(d, dqh, dvh, heads, layers, d_out,
                                           seed):
    dims = Dims(d=d, d_q=dqh * heads, d_v=dvh * heads,
                heads=heads, layers=layers, d_out=d_out)
    params = init_params(dims, seed % 1000)
    rng = np.random.default_rng(seed)
    pool = np.concatenate([_SPECIAL, rng.standard_normal(8)])
    for _, tensor in params.tensors():      # signed zeros, subnormals, huge
        tensor.flat[:] = rng.choice(pool, size=tensor.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.bin"
        save_params(params, path)
        header, body = _read_params_file(path)
    assert header == _header_of(dims)
    assert body == params.flat.astype("<f8").tobytes()
