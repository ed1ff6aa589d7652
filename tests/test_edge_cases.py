"""Stress cases that cross module seams: degenerate nodes, unequal head
widths, label-free training."""

import json

import numpy as np
import pytest

from agcn.cli import main
from agcn.graph import build_graph, khop_mask, khop_weights
from agcn.model import Dims, forward, init_params, _forward_tape
from agcn.training import TrainingConfig, train, _objective, _unit_rows

from conftest import grads_from_tape, pair_batch, random_graph, reanchor
from test_training import _fd_grads


def graph_with_isolated_node(seed=0):
    """Connected core plus one isolated node (self-only mask, zero-weight
    positive row)."""
    rng = np.random.default_rng(seed)
    edges = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [4, 5], [5, 6], [4, 6]]
    feats = rng.standard_normal((8, 4))      # node 7 is isolated
    return build_graph(edges, feats)


def test_gradcheck_with_isolated_and_noncontributing_nodes():
    g = graph_with_isolated_node(3)
    cfg = TrainingConfig(k=1, lam=0.5, layers=2, heads=2, d_q=4, d_v=4,
                         d_out=3, epochs=1, pair_cap=16, seed=3)
    mask = khop_mask(g, cfg.k)
    weights = khop_weights(g, cfg.k)
    assert weights.toarray()[7].sum() == 0     # isolated: zero positive row
    params = init_params(cfg.dims_for(4), 3)
    emb, h_last, tapes = _forward_tape(g.features, mask, params)
    batch = pair_batch(_unit_rows(emb)[0], mask, cfg.pair_cap,
                        np.random.default_rng(3))

    def frozen_loss():
        e, _, _ = _forward_tape(g.features, mask, params)
        u, norms = _unit_rows(e)
        return _objective(u, norms, [reanchor(batch, u)], weights, cfg)[2]

    analytic, *_ = grads_from_tape(params, tapes, h_last, *_unit_rows(emb),
                                   cfg, weights, batch)
    for (name, a), (_, f) in zip(analytic.tensors(), _fd_grads(frozen_loss, params)):
        np.testing.assert_allclose(a, f, rtol=1e-4, atol=1e-8,
                                   err_msg=f"gradient mismatch in {name}")


def test_gradcheck_unequal_head_widths():
    # d_q/heads != d_v/heads exercises every slice path
    g = random_graph(9, 0.5, seed=41, d=3)
    dims = Dims(d=3, d_q=6, d_v=4, heads=2, layers=2, d_out=3)
    cfg = TrainingConfig(k=2, lam=1e-2, layers=2, heads=2, d_q=6, d_v=4,
                         d_out=3, epochs=1, pair_cap=32, seed=41)
    mask = khop_mask(g, cfg.k)
    weights = khop_weights(g, cfg.k)
    params = init_params(dims, 41)
    emb, h_last, tapes = _forward_tape(g.features, mask, params)
    batch = pair_batch(_unit_rows(emb)[0], mask, cfg.pair_cap,
                        np.random.default_rng(41))

    def frozen_loss():
        e, _, _ = _forward_tape(g.features, mask, params)
        u, norms = _unit_rows(e)
        return _objective(u, norms, [reanchor(batch, u)], weights, cfg)[2]

    analytic, *_ = grads_from_tape(params, tapes, h_last, *_unit_rows(emb),
                                   cfg, weights, batch)
    for (name, a), (_, f) in zip(analytic.tensors(), _fd_grads(frozen_loss, params)):
        np.testing.assert_allclose(a, f, rtol=1e-4, atol=1e-8,
                                   err_msg=f"gradient mismatch in {name}")


def test_isolated_node_trains_and_keeps_self_embedding_finite():
    g = graph_with_isolated_node(5)
    cfg = TrainingConfig(k=2, lam=1e-2, epochs=3, layers=1, heads=1,
                         d_q=2, d_v=2, d_out=2, seed=5)
    params, history = train(g, cfg)
    emb = forward(g, khop_mask(g, cfg.k), params)
    assert np.isfinite(emb).all()
    assert np.isfinite(history[:, 1:]).all()


def test_cli_train_without_labels(tmp_path):
    g = random_graph(10, 0.5, seed=2, d=3)
    from agcn.datagen import write_graph_files
    paths = write_graph_files(g, tmp_path, prefix="nolab")
    assert "labels" not in paths
    out = tmp_path / "run"
    rc = main(["train", "--graph", str(paths["edges"]),
               "--features", str(paths["features"]),
               "--epochs", "3", "--layers", "1", "--heads", "1",
               "--dq", "2", "--dv", "2", "--dout", "2",
               "--out-dir", str(out)])
    assert rc == 0
    record = json.loads((out / "result.json").read_text())
    assert record["result"] is None
    assert record["dataset"]["n_clusters"] is None
    assert (out / "params.bin").exists()
