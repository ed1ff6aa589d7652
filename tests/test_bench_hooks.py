"""The benchmark's tracer must keep finding, firing and restoring its hooks.

``perfbench/tracing.py`` wraps agcn functions by module attribute name. A
rename, or a call that stops going through the module global, silently
breaks the traced benchmark while every other test stays green. This test
loads the tracer from its source file (without importing or writing
anything under ``perfbench/``) and runs a tiny training job under it.
"""

import types
from pathlib import Path

import pytest

from agcn.clustering import evaluate
from agcn.datagen import SBMSpec, gen_sbm
from agcn.graph import khop_mask
from agcn.model import forward
from agcn.training import TrainingConfig, train

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
