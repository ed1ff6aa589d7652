"""The benchmark's tracer must keep finding, firing and restoring its hooks.

``perfbench/tracing.py`` wraps agcn functions by module attribute name. A
rename, or a call that stops going through the module global, silently
breaks the traced benchmark while every other test stays green. This test
loads the tracer from its source file (without importing or writing
anything under ``perfbench/``) and runs a tiny training job under it.
"""

import dataclasses
import types
from pathlib import Path

import numpy as np
import pytest

import agcn.training
from agcn.clustering import evaluate
from agcn.datagen import SBMSpec, gen_sbm
from agcn.graph import build_graph, khop_mask
from agcn.model import forward
from agcn.training import TrainingConfig, _node_chunks, _unit_rows, train

from conftest import pair_batch

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


# without the hinge no pairs are sampled and no hinge is evaluated
_NO_HINGE = {"training.pair_batch", "training.loss_neg"}


@pytest.mark.parametrize("mode,use_neg,unused", [
    pytest.param("structure", True, {"model.dense_layer"},
                 id="structure-model.dense_layer"),
    pytest.param("vanilla", True, {"model.masked_layer"},
                 id="vanilla-model.masked_layer"),
    pytest.param("structure", False, {"model.dense_layer"} | _NO_HINGE,
                 id="structure-no-lneg"),
])
def test_every_wrapped_hook_fires_and_is_restored(mode, use_neg, unused):
    tracing = _load_tracing()
    g = gen_sbm(SBMSpec(block_sizes=(10, 10), p_in=0.5, p_out=0.05,
                        feature_dim=4, seed=0))
    cfg = TrainingConfig(k=2, lam=1e-2, epochs=2, layers=2, heads=2, d_q=4,
                         d_v=4, d_out=3, pair_cap=4, restarts=2, mode=mode,
                         use_neg=use_neg)
    mask = khop_mask(g, cfg.k)
    tracer = tracing.Tracer(cfg.pair_cap)
    tracer.install()
    try:
        params, _ = train(g, cfg)
        emb = forward(g, mask, params, mode=mode)
        evaluate(emb, g.n_clusters, g.labels, seeds=[0, 1], restarts=cfg.restarts)
    finally:
        bad = tracer.restore()
    assert bad == []

    fired = {s["name"] for s in tracer.spans}
    wrapped = {name for _, _, name in tracing.WRAPPED}
    assert fired == wrapped - unused

    per_head = mask.total_nnz if mode == "structure" else g.n_nodes ** 2
    forwards = [s for s in tracer.spans if s["name"] == "model.forward"]
    assert len(forwards) == cfg.epochs
    for rec in forwards:
        assert rec["score_evals"] == cfg.layers * cfg.heads * per_head
    assert all(s["pairs"] > 0 for s in tracer.spans
               if s["name"] == "training.pair_batch")
    (mask_rec,) = [s for s in tracer.spans if s["name"] == "graph.khop_mask"]
    assert mask_rec["nnz"] == mask.total_nnz


def test_tracer_counts_every_pair_of_every_chunk(monkeypatch):
    # an epoch draws and scores its pairs chunk by chunk; the spans of all
    # chunks count every pair of the graph, as one batch would hold them
    tracing = _load_tracing()
    g = gen_sbm(SBMSpec(block_sizes=(20, 20), p_in=0.4, p_out=0.1,
                        feature_dim=4, seed=1))
    cfg = TrainingConfig(k=2, epochs=2, layers=1, heads=2, d_q=4, d_v=4,
                         d_out=3, pair_cap=40)
    mask = khop_mask(g, cfg.k)
    others = mask.list_sizes() - 1
    assert (others * (others - 1) // 2 > cfg.pair_cap).any()
    monkeypatch.setattr(agcn.training, "PAIR_CHUNK", 100)
    n_chunks = len(_node_chunks(mask, cfg.pair_cap))
    assert n_chunks > 1
    # how many pairs a node takes depends on its list alone
    whole = len(pair_batch(_unit_rows(g.features)[0], mask, cfg.pair_cap,
                           np.random.default_rng(0)).plus_e)

    tracer = tracing.Tracer(cfg.pair_cap)
    tracer.install()
    try:
        with tracer.span("train") as run:
            train(g, cfg)
    finally:
        bad = tracer.restore()
    assert bad == []
    assert [e["pairs"] for e in tracing.epochs_of(tracer.spans, run)] == (
        [whole] * cfg.epochs)
    # each chunk's pairs are scored before the next chunk is drawn
    hinge = [s["name"] for s in tracer.spans if s["name"] in _NO_HINGE]
    assert hinge == (["training.pair_batch", "training.loss_neg"]
                     * (n_chunks * cfg.epochs))


def test_a_graph_with_no_pair_draws_no_chunk():
    # a perfect matching at k=1: every list holds its node and one other,
    # so no node has a pair, and the hinge on trains as the hinge off
    tracing = _load_tracing()
    feats = np.random.default_rng(4).standard_normal((8, 3))
    g = build_graph([[i, i + 1] for i in range(0, 8, 2)], feats)
    cfg = TrainingConfig(k=1, lam=0.5, epochs=3, layers=1, heads=2, d_q=4,
                         d_v=4, d_out=3)
    assert _node_chunks(khop_mask(g, cfg.k), cfg.pair_cap) == []
    want_params, want_history = train(g, dataclasses.replace(cfg,
                                                             use_neg=False))
    tracer = tracing.Tracer(cfg.pair_cap)
    tracer.install()
    try:
        params, history = train(g, cfg)
    finally:
        bad = tracer.restore()
    assert bad == []
    fired = {s["name"] for s in tracer.spans}
    assert "training.loss_pos" in fired and not fired & _NO_HINGE
    assert history.tobytes() == want_history.tobytes()
    assert params.flat.tobytes() == want_params.flat.tobytes()
