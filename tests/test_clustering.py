import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import agcn.clustering as clustering
from agcn.clustering import (accuracy, evaluate, kmeans, label_mapping, nmi,
                             _assign, _kmeans_pp_init, _lloyd, _sq_norms)
from agcn.datagen import SBMSpec, gen_sbm
from agcn.errors import ConfigError, DimensionError
from agcn.graph import khop_mask
from agcn.model import forward
from agcn.training import TrainingConfig, train

from conftest import assign_oracle


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_separated_pairs():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    labels = kmeans(pts, 2, seed=0)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmeans_c_equals_n_zero_inertia():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((6, 2))
    labels = kmeans(pts, 6, seed=0, restarts=20)
    assert len(set(labels.tolist())) == 6


def brute_force_best_inertia(points, n_clusters):
    """Exhaustive minimum of within-cluster sum of squares over assignments.

    Enumerates every base-C code; WCSS = sum ||x||^2 - sum_c ||s_c||^2 / n_c.
    """
    n = len(points)
    codes = np.arange(n_clusters ** n)
    assign = (codes[:, None] // n_clusters ** np.arange(n)) % n_clusters
    onehot = np.eye(n_clusters)[assign]                  # (M, n, C)
    counts = onehot.sum(axis=1)                          # (M, C)
    sums = np.einsum("mnc,nd->mcd", onehot, points)      # (M, C, d)
    sq = np.einsum("mcd,mcd->mc", sums, sums)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_cluster = np.where(counts > 0, sq / counts, 0.0)
    valid = (counts > 0).all(axis=1)
    total = (points ** 2).sum()
    return float((total - per_cluster.sum(axis=1))[valid].min())


def test_kmeans_matches_exhaustive_oracle_small():
    rng = np.random.default_rng(4)
    centers = np.array([[0, 0], [4, 0], [0, 4]], dtype=float)
    pts = np.vstack([c + 0.5 * rng.standard_normal((4, 2)) for c in centers])
    labels = kmeans(pts, 3, seed=4, restarts=20)
    inertia = sum(((pts[labels == c] - pts[labels == c].mean(axis=0)) ** 2).sum()
                  for c in range(3))
    assert inertia == pytest.approx(brute_force_best_inertia(pts, 3), rel=1e-9)


def test_kmeans_rejects_too_many_clusters():
    with pytest.raises(ConfigError):
        kmeans(np.zeros((3, 2)), 4, seed=0)


def test_lloyd_inertia_nonincreasing():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((40, 3))
    centers = _kmeans_pp_init(pts, 4, rng, _sq_norms(pts))
    _, _, trace = _lloyd(pts, centers, tol=0.0, max_iter=50,
                         sq_norms=_sq_norms(pts))
    diffs = np.diff(np.asarray(trace))
    assert (diffs <= 1e-9).all()


def test_lloyd_repairs_empty_clusters():
    pts = np.zeros((5, 2))
    pts[4] = [10.0, 0.0]
    centers = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    labels, _, _ = _lloyd(pts, centers, tol=1e-6, max_iter=10,
                          sq_norms=_sq_norms(pts))
    assert len(np.unique(labels)) == 3


def _checked_assign(points, centers):
    """Run ``_assign`` and the broadcast oracle; check the distances agree
    to 1e-9 (||x||^2 + ||c||^2) and are never negative."""
    labels, d2 = _assign(points, centers, _sq_norms(points))
    ref_labels, ref = assign_oracle(points, centers)
    tol = 1e-9 * ((points ** 2).sum(axis=1)[:, None]
                  + (centers ** 2).sum(axis=1)[None, :])
    assert (d2 >= 0).all()
    assert (np.abs(d2 - ref) <= tol).all()
    return labels, ref_labels, ref, tol


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("seed", range(3))
def test_assign_matches_broadcast_oracle(seed, offset):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((200, 5)) + offset
    # three centers sit exactly on points, where the distance is 0
    centers = np.vstack([points[:3], rng.standard_normal((4, 5)) + offset])
    labels, ref_labels, _, _ = _checked_assign(points, centers)
    np.testing.assert_array_equal(labels, ref_labels)


@given(n=st.integers(1, 60), n_clusters=st.integers(1, 8),
       d=st.integers(1, 12), offset=st.sampled_from([0.0, -3.0, 50.0, 1e3]),
       spread=st.sampled_from([1e-3, 1.0, 30.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_assign_agrees_with_oracle_property(n, n_clusters, d, offset, spread,
                                            seed):
    rng = np.random.default_rng(seed)
    points = spread * rng.standard_normal((n, d)) + offset
    centers = spread * rng.standard_normal((n_clusters, d)) + offset
    labels, ref_labels, ref, tol = _checked_assign(points, centers)
    rows = np.arange(n)
    # the chosen center is the oracle's nearest up to the distance tolerance
    assert (ref[rows, labels] <= ref[rows, ref_labels] + tol[rows, labels]
            + tol[rows, ref_labels]).all()


@pytest.mark.parametrize("case", ["random", "empty_cluster_repair"])
def test_lloyd_calls_assign_once_per_iteration(monkeypatch, case):
    rng = np.random.default_rng(6)
    if case == "random":
        pts = rng.standard_normal((40, 3))
        centers = _kmeans_pp_init(pts, 4, rng, _sq_norms(pts))
    else:
        pts = np.zeros((5, 2))
        pts[4] = [10.0, 0.0]
        centers = np.zeros((3, 2))
    calls = []
    original = clustering._assign

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(clustering, "_assign", counting)
    _kmeans_pp_init(pts, 3, rng, _sq_norms(pts))
    assert calls == []
    _, _, trace = _lloyd(pts, centers, tol=0.0, max_iter=50,
                         sq_norms=_sq_norms(pts))
    assert len(calls) == len(trace)


def test_lloyd_center_update_is_member_mean():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((50, 4)) + 100.0
    centers = _kmeans_pp_init(pts, 5, rng, _sq_norms(pts))
    # tol=inf stops after one step: assign, then move every center
    labels, _, trace = _lloyd(pts, centers, tol=np.inf, max_iter=10,
                              sq_norms=_sq_norms(pts))
    assert len(trace) == 1
    means = np.array([pts[labels == c].mean(axis=0) for c in range(5)])
    np.testing.assert_allclose(centers, means, rtol=1e-13, atol=0)


def test_evaluate_matches_lloyd_driven_by_oracle(monkeypatch):
    g = gen_sbm(SBMSpec(block_sizes=(15, 15, 15), p_in=0.4, p_out=0.02,
                        feature_dim=8, seed=2))
    cfg = TrainingConfig(k=2, lam=1e-2, epochs=3, layers=1, heads=2, d_q=4,
                         d_v=4, d_out=4, seed=2, restarts=3)
    params, _ = train(g, cfg)
    emb = forward(g, khop_mask(g, cfg.k), params)
    seeds = range(5)
    fast = evaluate(emb, g.n_clusters, g.labels, seeds, restarts=cfg.restarts)
    monkeypatch.setattr(clustering, "_assign",
                        lambda points, centers, sq_norms:
                        assign_oracle(points, centers))
    ref = evaluate(emb, g.n_clusters, g.labels, seeds, restarts=cfg.restarts)
    np.testing.assert_array_equal(fast.labels, ref.labels)
    assert (fast.acc, fast.nmi, fast.chosen_seed) == (ref.acc, ref.nmi,
                                                      ref.chosen_seed)
    for (s, inertia, a, m), (rs, r_inertia, ra, rm) in zip(fast.seed_records,
                                                          ref.seed_records):
        assert (s, a, m) == (rs, ra, rm)
        assert inertia == pytest.approx(r_inertia, rel=1e-12)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_permuted_labels_full_credit():
    assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_accuracy_half_credit():
    assert accuracy([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5


def test_accuracy_length_mismatch():
    with pytest.raises(DimensionError):
        accuracy([0, 1], [0, 1, 2])


def test_label_mapping_length_mismatch():
    with pytest.raises(DimensionError):
        label_mapping([0, 1], [0, 1, 2])


def brute_force_accuracy(pred, truth, n_labels):
    best = 0
    for perm in itertools.permutations(range(n_labels)):
        mapped = np.asarray([perm[p] for p in pred])
        best = max(best, (mapped == np.asarray(truth)).sum())
    return best / len(pred)


@pytest.mark.parametrize("seed", range(10))
def test_accuracy_matches_permutation_brute_force(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 5))
    pred = rng.integers(0, c, size=10)
    truth = rng.integers(0, c, size=10)
    assert accuracy(pred, truth) == pytest.approx(
        brute_force_accuracy(pred, truth, c))


def test_accuracy_identity():
    truth = np.array([0, 1, 2, 1, 0, 2])
    assert accuracy(truth, truth) == 1.0


# ---------------------------------------------------------------------------
# NMI
# ---------------------------------------------------------------------------

def test_nmi_identical_partitions_exactly_one():
    labels = np.array([0, 0, 1, 1, 2, 2, 2])
    assert nmi(labels, labels) == 1.0
    relabeled = np.array([2, 2, 0, 0, 1, 1, 1])
    assert nmi(relabeled, labels) == 1.0


def test_nmi_single_cluster_is_zero():
    assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0


def test_nmi_matches_contingency_oracle():
    pred = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 1, 0])
    truth = np.array([0, 0, 1, 1, 1, 2, 2, 2, 0, 0, 1, 2])
    n = len(pred)
    table = np.zeros((3, 3))
    for p, t in zip(pred, truth):
        table[p, t] += 1
    pi = table.sum(axis=1) / n
    pj = table.sum(axis=0) / n
    mi = 0.0
    for i in range(3):
        for j in range(3):
            pij = table[i, j] / n
            if pij > 0:
                mi += pij * np.log(pij / (pi[i] * pj[j]))
    h_p = -(pi * np.log(pi)).sum()
    h_t = -(pj * np.log(pj)).sum()
    expect = mi / (0.5 * (h_p + h_t))
    assert nmi(pred, truth) == pytest.approx(expect, rel=1e-12)


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(12)
    pred = rng.integers(0, 4, size=30)
    truth = rng.integers(0, 4, size=30)
    perm = np.array([2, 3, 1, 0])
    assert accuracy(perm[pred], truth) == accuracy(pred, truth)
    assert nmi(perm[pred], truth) == pytest.approx(nmi(pred, truth), rel=1e-12)
    assert nmi(pred, perm[truth]) == pytest.approx(nmi(pred, truth), rel=1e-12)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_one_hot_truth_is_perfect():
    truth = np.array([0, 1, 2, 0, 1, 2])
    h = np.eye(3)[truth]
    res = evaluate(h, 3, truth, seeds=[0, 1])
    assert res.acc == 1.0
    assert res.nmi == 1.0
    assert len(res.seed_records) == 2


def test_evaluate_constant_embeddings_accuracy_range():
    truth = np.array([0, 0, 0, 0, 1, 1, 2])
    h = np.zeros((7, 3))
    res = evaluate(h, 3, truth, seeds=[0])
    largest = 4
    assert res.acc <= largest / 7 + 1e-9
    assert res.acc >= (largest - 3 + 1) / 7 - 1e-9


def test_evaluate_selects_best_by_inertia():
    rng = np.random.default_rng(9)
    h = rng.standard_normal((20, 2))
    truth = rng.integers(0, 2, size=20)
    res = evaluate(h, 2, truth, seeds=[0, 1, 2], restarts=1)
    inertias = [r[1] for r in res.seed_records]
    assert res.seed_records[[r[0] for r in res.seed_records].index(
        res.chosen_seed)][1] == min(inertias)


@pytest.mark.parametrize("n_clusters", [0, 5])
def test_evaluate_rejects_cluster_count_outside_one_to_n(n_clusters):
    with pytest.raises(ConfigError):
        evaluate(np.eye(3), n_clusters, [0, 1, 2], seeds=[0])


def test_evaluate_rejects_empty_seed_list():
    with pytest.raises(ConfigError):
        evaluate(np.eye(3), 2, [0, 1, 1], seeds=[])


@pytest.mark.parametrize("restarts", [0, -1])
def test_evaluate_rejects_fewer_than_one_restart(restarts):
    with pytest.raises(ConfigError, match="restarts"):
        evaluate(np.eye(3), 2, [0, 1, 1], seeds=[0], restarts=restarts)
