import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import agcn.clustering as clustering
from agcn.analysis import grouping_probe, mask_features, r_ratio
from agcn.clustering import (accuracy, evaluate, kmeans, label_mapping, nmi,
                             _assign, _kmeans_pp_init, _lloyd, _sq_norms)
from agcn.datagen import SBMSpec, gen_sbm
from agcn.errors import ConfigError
from agcn.graph import build_graph, khop_mask, khop_weights
from agcn.model import forward
from agcn.training import TrainingConfig, train

from conftest import (assign_oracle, canonical_oracle, kmeans_oracle,
                      kmeans_pp_oracle, lloyd_oracle, oracle_restarts,
                      shortest_path_histogram_oracle)


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


def _inits(points, n_clusters, restarts, rng):
    """``restarts`` k-means++ inits stacked as one (R, C, d) array."""
    sq_norms = _sq_norms(points)
    return np.stack([kmeans_pp_oracle(points, n_clusters, rng, sq_norms)
                     for _ in range(restarts)])


def test_lloyd_inertia_nonincreasing():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((40, 3))
    centers = _inits(pts, 4, 3, rng)
    _, _, trace = _lloyd(pts, centers, tol=0.0, max_iter=50,
                         sq_norms=_sq_norms(pts))
    diffs = np.diff(np.asarray(trace), axis=0)
    assert (diffs <= 1e-9).all()


def test_lloyd_repairs_empty_clusters():
    pts = np.zeros((5, 2))
    pts[4] = [10.0, 0.0]
    centers = np.zeros((2, 3, 2))
    centers[1, 0] = [10.0, 0.0]
    labels, _, _ = _lloyd(pts, centers, tol=1e-6, max_iter=10,
                          sq_norms=_sq_norms(pts))
    for row in labels:
        assert len(np.unique(row)) == 3


def _checked_assign(points, centers):
    """Run ``_assign`` and the broadcast oracle; check the distances agree
    to 1e-9 (||x||^2 + ||c||^2) and are never negative."""
    sq_norms = _sq_norms(points)
    labels = _assign(points, centers[None], sq_norms)[0][0]
    # each center as a set of its own: its distance to every point
    d2 = _assign(points, centers[:, None], sq_norms)[1].T
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
       n_sets=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_assign_agrees_with_oracle_property(n, n_clusters, d, offset, spread,
                                            n_sets, seed):
    rng = np.random.default_rng(seed)
    points = spread * rng.standard_normal((n, d)) + offset
    sets = spread * rng.standard_normal((n_sets, n_clusters, d)) + offset
    rows = np.arange(n)
    labels, mins = _assign(points, sets, _sq_norms(points))
    for centers, set_labels, set_mins in zip(sets, labels, mins):
        one_set, ref_labels, ref, tol = _checked_assign(points, centers)
        # a set's labels and distances do not depend on the sets beside it
        np.testing.assert_array_equal(set_labels, one_set)
        assert (np.abs(set_mins - ref[rows, set_labels])
                <= tol[rows, set_labels]).all()
        # the chosen center is the oracle's nearest up to the distance
        # tolerance
        assert (ref[rows, set_labels] <= ref[rows, ref_labels]
                + tol[rows, set_labels] + tol[rows, ref_labels]).all()


@pytest.mark.parametrize("case", ["random", "empty_cluster_repair"])
def test_lloyd_calls_assign_once_per_iteration(monkeypatch, case):
    calls = []
    original = clustering._assign

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(clustering, "_assign", counting)
    for restarts in (1, 3):
        rng = np.random.default_rng(6)
        if case == "random":
            pts = rng.standard_normal((40, 3))
            centers = _inits(pts, 4, restarts, rng)
        else:
            pts = np.zeros((5, 2))
            pts[4] = [10.0, 0.0]
            centers = np.zeros((restarts, 3, 2))
        calls.clear()
        _kmeans_pp_init(pts, 3, [6, 7], restarts, _sq_norms(pts))
        assert calls == []
        # one call per lockstep step, whatever the number of live restarts
        _, _, trace = _lloyd(pts, centers, tol=0.0, max_iter=50,
                             sq_norms=_sq_norms(pts))
        assert len(calls) == len(trace)


def test_lloyd_center_update_is_member_mean():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((50, 4)) + 100.0
    centers = _inits(pts, 5, 2, rng)
    # tol=inf stops after one step: assign, then move every center
    labels, _, trace = _lloyd(pts, centers, tol=np.inf, max_iter=10,
                              sq_norms=_sq_norms(pts))
    assert len(trace) == 1
    for set_centers, set_labels in zip(centers, labels):
        means = np.array([pts[set_labels == c].mean(axis=0)
                          for c in range(5)])
        np.testing.assert_allclose(set_centers, means, rtol=1e-13, atol=0)


def _inertia_close(got, ref, points):
    """1e-12 relative, with a floor of 1e-12 of the points' squared norms:
    distances ||x||^2 - 2 x.c + ||c||^2 round at that scale, and with
    C = n the inertia itself is rounding."""
    return got == pytest.approx(ref, rel=1e-12,
                                abs=1e-12 * float((points ** 2).sum()))


def _assert_matches_oracle(points, n_clusters, seed, restarts):
    labels = clustering._kmeans_with_inertia(points, n_clusters, [seed],
                                             restarts)
    np.testing.assert_array_equal(
        labels, kmeans_oracle(points, n_clusters, [seed], restarts))
    return labels[0]


@given(n=st.integers(1, 40), n_clusters=st.integers(1, 6),
       d=st.integers(1, 6), restarts=st.integers(1, 4),
       offset=st.sampled_from([0.0, -3.0, 50.0]),
       spread=st.sampled_from([0.3, 1.0, 30.0]),
       seed=st.integers(0, 2 ** 16))
def test_kmeans_matches_oracle_driver_property(n, n_clusters, d, restarts,
                                               offset, spread, seed):
    n_clusters = min(n_clusters, n)
    rng = np.random.default_rng(seed)
    points = spread * rng.standard_normal((n, d)) + offset
    runs = oracle_restarts(points, n_clusters, [seed], restarts)[0]
    # lockstep gives every restart the labels and inertia it gets alone
    sq_norms = _sq_norms(points)
    centers = _inits(points, n_clusters, restarts,
                     np.random.default_rng(seed))
    labels, inertias, _ = _lloyd(points, centers, clustering.LLOYD_TOL,
                                 clustering.LLOYD_MAX_ITER, sq_norms)
    for (ref_labels, ref_inertia), got_labels, got in zip(runs, labels,
                                                          inertias):
        np.testing.assert_array_equal(got_labels, ref_labels)
        assert _inertia_close(got, ref_inertia, points)
    # the pick is the labels of a restart of least inertia; restarts that
    # reach one partition tie up to rounding, which then decides which is
    # first
    (chosen,) = clustering._kmeans_with_inertia(points, n_clusters, [seed],
                                                restarts)
    best = min(i for _, i in runs)
    assert any(np.array_equal(chosen, canonical_oracle(ref_labels))
               and _inertia_close(ref_inertia, best, points)
               for ref_labels, ref_inertia in runs)


def test_kmeans_matches_oracle_with_empty_cluster_repair():
    # three distinct points, four copies each, and five clusters: only a
    # repair gives every cluster a member
    pts = np.repeat(np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0]]), 4,
                    axis=0)
    labels = _assert_matches_oracle(pts, 5, seed=1, restarts=4)
    assert len(np.unique(labels)) == 5


def test_kmeans_matches_oracle_with_one_cluster_per_point():
    pts = np.random.default_rng(3).standard_normal((6, 2))
    labels = _assert_matches_oracle(pts, 6, seed=0, restarts=5)
    assert len(np.unique(labels)) == 6


def test_kmeans_matches_oracle_with_one_restart():
    pts = np.random.default_rng(5).standard_normal((80, 3))
    _assert_matches_oracle(pts, 4, seed=2, restarts=1)


def test_kmeans_matches_oracle_when_lloyd_hits_max_iter(monkeypatch):
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((120, 4))
    monkeypatch.setattr(clustering, "LLOYD_MAX_ITER", 2)
    # the run is cut: two steps, the last one still dropping by > tol
    init = kmeans_pp_oracle(pts, 5, np.random.default_rng(4), _sq_norms(pts))
    _, _, trace = lloyd_oracle(pts, init, clustering.LLOYD_TOL, 2)
    assert len(trace) == 2 and trace[0] - trace[1] > clustering.LLOYD_TOL
    _assert_matches_oracle(pts, 5, seed=4, restarts=3)


def test_lloyd_stable_label_stop_is_exact():
    # with tol < 0 only equal labels or max_iter end a restart: lockstep
    # stops long before the oracle's 300 steps, at its labels and inertia
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((60, 3))
    centers = _inits(pts, 4, 3, rng)
    ref = [lloyd_oracle(pts, c.copy(), tol=-1.0, max_iter=300)
           for c in centers]
    labels, inertia, trace = _lloyd(pts, centers, tol=-1.0, max_iter=300,
                                    sq_norms=_sq_norms(pts))
    assert len(trace) < 50
    for (ref_labels, ref_inertia, ref_trace), got_labels, got in zip(
            ref, labels, inertia):
        assert len(ref_trace) == 300
        np.testing.assert_array_equal(got_labels, ref_labels)
        assert _inertia_close(got, ref_inertia, pts)


def test_evaluate_matches_lloyd_driven_by_oracle(monkeypatch):
    g = gen_sbm(SBMSpec(block_sizes=(15, 15, 15), p_in=0.4, p_out=0.02,
                        feature_dim=8, seed=2))
    cfg = TrainingConfig(k=2, lam=1e-2, epochs=3, layers=1, heads=2, d_q=4,
                         d_v=4, d_out=4, seed=2, restarts=3)
    params, _ = train(g, cfg)
    emb = forward(g, khop_mask(g, cfg.k), params)
    seeds = range(5)
    fast = evaluate(emb, g.n_clusters, g.labels, seeds, restarts=cfg.restarts)
    monkeypatch.setattr(clustering, "_kmeans_with_inertia", kmeans_oracle)
    ref = evaluate(emb, g.n_clusters, g.labels, seeds, restarts=cfg.restarts)
    np.testing.assert_array_equal(fast.labels, ref.labels)
    assert (fast.acc, fast.nmi, fast.chosen_seed) == (ref.acc, ref.nmi,
                                                      ref.chosen_seed)
    for (s, inertia, a, m), (rs, r_inertia, ra, rm) in zip(fast.seed_records,
                                                          ref.seed_records):
        assert (s, a, m) == (rs, ra, rm)
        assert inertia == pytest.approx(r_inertia, rel=1e-12)


# ---------------------------------------------------------------------------
# lockstep seeding, seed groups and canonical labels
# ---------------------------------------------------------------------------

@given(n=st.integers(1, 30), distinct=st.integers(1, 30), d=st.integers(1, 5),
       n_clusters=st.integers(1, 30), all_points=st.booleans(),
       integer=st.booleans(), restarts=st.integers(1, 4),
       seeds=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=4),
       data_seed=st.integers(0, 2 ** 32 - 1))
def test_kmeans_pp_init_matches_sequential_oracle_property(
        n, distinct, d, n_clusters, all_points, integer, restarts, seeds,
        data_seed):
    # Integer-valued points repeat rows: every squared distance is then
    # exact, so the lockstep GEMM and the oracle's GEMVs agree to the bit
    # even on a point that sits on a chosen center. Gaussian rows are
    # distinct, where rounding of the two has not moved a pick; it does on
    # repeated real-valued rows, whose distance to a copy rounds to a
    # residue of either sign.
    rng = np.random.default_rng(data_seed)
    if integer:
        rows = rng.integers(-6, 7, size=(min(distinct, n), d)).astype(float)
        points = rows[rng.integers(len(rows), size=n)]
    else:
        points = 3.0 * rng.standard_normal((n, d)) + 10.0
    n_clusters = n if all_points else min(n_clusters, n)
    got = _kmeans_pp_init(points, n_clusters, seeds, restarts,
                          _sq_norms(points))
    ref = np.concatenate([_inits(points, n_clusters, restarts,
                                 np.random.default_rng(seed))
                          for seed in seeds])
    np.testing.assert_array_equal(got, ref)


def _blobs(n_per, n_blobs, d, seed):
    rng = np.random.default_rng(seed)
    means = 4.0 * rng.standard_normal((n_blobs, d))
    return np.repeat(means, n_per, axis=0) + rng.standard_normal(
        (n_per * n_blobs, d))


def test_multi_seed_kmeans_matches_per_seed_oracle():
    pts = _blobs(30, 4, 3, seed=13)
    seeds = [5, 0, 5, 9]
    labels = clustering._kmeans_with_inertia(pts, 4, seeds, 3)
    assert labels.shape == (4, len(pts))
    np.testing.assert_array_equal(labels, kmeans_oracle(pts, 4, seeds, 3))
    # a repeated seed repeats its result
    np.testing.assert_array_equal(labels[0], labels[2])


def _count_calls(monkeypatch, name):
    """The positional arguments of every call to ``clustering.<name>``."""
    calls = []
    original = getattr(clustering, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(clustering, name, counting)
    return calls


def test_seed_groups_give_the_results_of_one_group(monkeypatch):
    pts = _blobs(25, 3, 4, seed=21)
    seeds = list(range(5))
    calls = _count_calls(monkeypatch, "_lloyd")
    per_seed_bytes = 8 * 4 * 3 * len(pts)       # restarts * C * n float64
    results = {}
    for budget, groups in ((1, 5), (2 * per_seed_bytes, 3), (1 << 40, 1)):
        monkeypatch.setattr(clustering, "KMEANS_GROUP_BYTES", budget)
        calls.clear()
        results[budget] = clustering._kmeans_with_inertia(pts, 3, seeds, 4)
        assert len(calls) == groups
    want = kmeans_oracle(pts, 3, seeds, 4)
    for labels in results.values():
        np.testing.assert_array_equal(labels, want)


def test_evaluate_makes_one_kmeans_call(monkeypatch):
    pts = _blobs(20, 3, 2, seed=4)
    truth = np.repeat(np.arange(3), 20)
    calls = _count_calls(monkeypatch, "_kmeans_with_inertia")
    res = evaluate(pts, 3, truth, seeds=range(6), restarts=4)
    assert len(calls) == 1
    assert len(res.seed_records) == 6


def test_evaluate_checks_truth_length_before_kmeans(monkeypatch):
    pts = _blobs(25, 2, 2, seed=4)
    calls = _count_calls(monkeypatch, "_kmeans_with_inertia")
    with pytest.raises(ConfigError, match=r"\(50,\) vs \(48,\)"):
        evaluate(pts, 2, np.zeros(48, dtype=int), seeds=range(10))
    assert calls == []


def test_evaluate_peak_memory_is_bounded_by_the_group_budget():
    pts = _blobs(286, 7, 100, seed=2)[:2000]
    truth = np.repeat(np.arange(7), 286)[:2000]
    # 10 restarts * 7 clusters * 2000 points of float64 is 1.12 MB a seed:
    # the ten seeds run as more than one group
    assert 10 * 8 * 10 * 7 * len(pts) > clustering.KMEANS_GROUP_BYTES
    tracemalloc.start()
    try:
        evaluate(pts, 7, truth, seeds=range(10), restarts=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * clustering.KMEANS_GROUP_BYTES


def _first_appearance_order(labels):
    _, first = np.unique(labels, return_index=True)
    return (np.diff(first) > 0).all() and labels[0] == 0


def test_kmeans_labels_are_numbered_by_first_appearance():
    pts = _blobs(15, 5, 2, seed=8)[::-1]
    for seed in range(4):
        labels = kmeans(pts, 5, seed=seed, restarts=3)
        assert _first_appearance_order(labels)
        np.testing.assert_array_equal(labels, canonical_oracle(labels))
    res = evaluate(pts, 5, np.repeat(np.arange(5), 15), seeds=range(4),
                   restarts=3)
    assert _first_appearance_order(res.labels)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["kmeans", "evaluate"])
def test_non_finite_points_fail_before_any_draw(monkeypatch, value, entry):
    pts = np.random.default_rng(1).standard_normal((20, 3))
    pts[7, 1] = value
    pts[12, 0] = value

    def no_draw(*args, **kwargs):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ConfigError, match="row 7 "):
        if entry == "kmeans":
            kmeans(pts, 3, seed=0)
        else:
            evaluate(pts, 3, np.zeros(20, dtype=int), seeds=[0, 1])


@pytest.mark.parametrize("shape", [(6,), (2, 3, 2), (5, 0)],
                         ids=["1d", "3d", "no_columns"])
@pytest.mark.parametrize("entry", ["kmeans", "evaluate"])
def test_bad_point_arrays_fail_before_any_draw(monkeypatch, shape, entry):
    pts = np.arange(float(np.prod(shape))).reshape(shape)

    def no_draw(*args, **kwargs):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ConfigError, match=rf"shape \({shape[0]},"):
        if entry == "kmeans":
            kmeans(pts, 2, seed=0)
        else:
            evaluate(pts, 2, np.zeros(shape[0], dtype=int), seeds=[0, 1])


# ---------------------------------------------------------------------------
# k-means in the coordinates of the points' span
# ---------------------------------------------------------------------------

def _embedded_blobs(n_per, n_blobs, rank, dim, seed):
    """``_blobs`` in ``rank`` dimensions, mapped into ``dim`` > ``rank`` by
    a random matrix: points of rank ``rank``, as an embedding through a
    narrower projection is."""
    proj = np.random.default_rng(seed + 1).standard_normal((rank, dim))
    return _blobs(n_per, n_blobs, rank, seed) @ proj


def test_kmeans_on_a_span_matches_the_oracle_on_the_points(monkeypatch):
    pts = _embedded_blobs(20, 4, rank=3, dim=8, seed=5)
    seen = _count_calls(monkeypatch, "_lloyd")
    seeds = [0, 3, 7]
    labels = clustering._kmeans_with_inertia(pts, 4, seeds, 3)
    # Lloyd ran in the 3 coordinates of the span, once for the one group
    assert [args[0].shape for args in seen] == [(len(pts), 3)]
    np.testing.assert_array_equal(labels, kmeans_oracle(pts, 4, seeds, 3))


def test_span_coordinates_keep_pairwise_distances():
    pts = _embedded_blobs(15, 3, rank=4, dim=10, seed=9)
    coords = clustering._span_coordinates(pts, max_dim=10)
    assert coords.shape == (len(pts), 4)
    i, j = np.triu_indices(len(pts), k=1)
    want = ((pts[i] - pts[j]) ** 2).sum(axis=1)
    got = ((coords[i] - coords[j]) ** 2).sum(axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # full rank and rank 0 keep the array itself
    full = _blobs(10, 2, 3, seed=1)
    zeros = np.zeros((6, 3))
    assert clustering._span_coordinates(full, max_dim=10) is full
    assert clustering._span_coordinates(zeros, max_dim=10) is zeros


def test_points_without_a_rank_check_reach_lloyd_unchanged(monkeypatch):
    seen = _count_calls(monkeypatch, "_lloyd")
    full = _blobs(10, 3, 4, seed=2)
    clustering._kmeans_with_inertia(full, 3, [0, 1], 2)
    # rank 2 in 7 dimensions, but 7 > 2 * seeds * restarts * C = 6
    narrow = _embedded_blobs(10, 3, rank=2, dim=7, seed=2)
    clustering._kmeans_with_inertia(narrow, 3, [0], 1)
    assert seen[0][0] is full and seen[1][0] is narrow
    # with one more restart the check runs, and Lloyd gets the span
    clustering._kmeans_with_inertia(narrow, 3, [0], 2)
    assert seen[2][0].shape == (30, 2)
    # fewer points than dimensions: eigh would cost more than the Gram
    few = np.random.default_rng(3).standard_normal((6, 8))
    clustering._kmeans_with_inertia(few, 2, range(4), 4)
    assert seen[3][0] is few


def test_evaluate_of_a_wide_embedding_does_not_depend_on_the_span_step(
        monkeypatch):
    g = gen_sbm(SBMSpec(block_sizes=(15, 15, 15), p_in=0.4, p_out=0.02,
                        feature_dim=8, seed=3))
    cfg = TrainingConfig(k=2, lam=1e-2, epochs=3, layers=1, heads=2, d_q=4,
                         d_v=4, d_out=9, seed=3, restarts=3)
    params, _ = train(g, cfg)
    emb = forward(g, khop_mask(g, cfg.k), params)
    seen = _count_calls(monkeypatch, "_lloyd")
    got = evaluate(emb, g.n_clusters, g.labels, range(6), cfg.restarts)
    assert seen[0][0].shape == (g.n_nodes, cfg.d_v)
    monkeypatch.setattr(clustering, "_span_coordinates",
                        lambda points, max_dim: points)
    want = evaluate(emb, g.n_clusters, g.labels, range(6), cfg.restarts)
    assert seen[1][0] is emb
    assert got.to_dict() == want.to_dict()
    np.testing.assert_array_equal(got.labels, want.labels)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_permuted_labels_full_credit():
    assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_accuracy_half_credit():
    assert accuracy([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5


def test_accuracy_length_mismatch():
    with pytest.raises(ConfigError):
        accuracy([0, 1], [0, 1, 2])


def test_label_mapping_length_mismatch():
    with pytest.raises(ConfigError):
        label_mapping([0, 1], [0, 1, 2])


def test_label_matching_memory_is_bounded_by_the_cluster_counts():
    # the table is over the distinct labels, not up to the largest value
    tracemalloc.start()
    try:
        assert accuracy([0, 3000], [0, 1]) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    mapping = label_mapping([5, 5, 2, 9], [1, 1, 0, 0])
    assert mapping[5] == 1 and mapping[2] == 0
    # the unmatched predicted label maps to no true label
    assert mapping[9] == -1


def _best_matched_count(pred, truth):
    """Most nodes any one-to-one pairing of the distinct labels matches,
    from every pairing of the smaller label set into the larger."""
    pv, tv = np.unique(pred), np.unique(truth)
    count = {(p, t): int(np.sum((pred == p) & (truth == t)))
             for p in pv for t in tv}
    if len(pv) <= len(tv):
        return max(sum(count[p, t] for p, t in zip(pv, perm))
                   for perm in itertools.permutations(tv, len(pv)))
    return max(sum(count[p, t] for p, t in zip(perm, tv))
               for perm in itertools.permutations(pv, len(tv)))


@pytest.mark.parametrize("seed", range(40))
def test_label_mapping_is_a_best_matching_of_tied_tables(seed):
    # small counts over up to 6 x 6 labels tie often; whichever optimum is
    # returned is one-to-one and matches as many nodes as the best pairing
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 4, size=rng.integers(1, 7, size=2))
    table[0, 0] += 1                        # at least one node
    cells = np.repeat(np.arange(table.size), table.ravel())
    pred, truth = np.divmod(cells, table.shape[1])
    pred = 3 * pred + 1                     # label values need not be 0..C-1
    mapping = label_mapping(pred, truth)
    present = mapping[np.unique(pred)]
    matched = present[present >= 0]
    assert len(set(matched.tolist())) == len(matched)
    assert len(matched) == min(len(np.unique(pred)), len(np.unique(truth)))
    assert set(matched.tolist()) <= set(truth.tolist())
    assert (mapping[pred] == truth).sum() == _best_matched_count(pred, truth)


def _best_matching_weight(table):
    """Most count any one-to-one pairing of rows with columns gathers: a
    DP over the rows that keeps, per set of used columns, its best count."""
    best = {0: 0}
    for row in table.tolist():
        grown = dict(best)                  # the row stays unmatched
        for used, weight in best.items():
            for j, count in enumerate(row):
                if not used >> j & 1:
                    key = used | 1 << j
                    grown[key] = max(grown.get(key, 0), weight + count)
        best = grown
    return max(best.values())


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("kind", ["ties", "zero_lines", "near_1e9"])
def test_matcher_is_exact_on_rectangular_tables(kind, seed):
    # up to 9 x 9 labels, beyond what permutations can check; counts near
    # 1e9 differ in their last digit, which a float sum could round away
    rng = np.random.default_rng(seed)
    shape = rng.integers(1, 10, size=2)
    if kind == "ties":
        table = rng.integers(0, 3, size=shape)
    elif kind == "zero_lines":
        table = rng.integers(1, 50, size=shape)
        table[rng.random(shape[0]) < 0.4] = 0
        table[:, rng.random(shape[1]) < 0.4] = 0
    else:
        table = 10 ** 9 - rng.integers(0, 4, size=shape)
    best = _best_matching_weight(table)
    # the matcher takes the side with fewer labels as its rows
    flip = table.shape[0] > table.shape[1]
    rows, cols = clustering._max_matching(table.T if flip else table)
    assert sorted(rows.tolist()) == list(range(min(table.shape)))
    assert len(set(cols.tolist())) == len(cols)
    assert int((table.T if flip else table)[rows, cols].sum()) == best
    if kind != "near_1e9" and table.sum() > 0:
        cells = np.repeat(np.arange(table.size), table.ravel())
        pred, truth = np.divmod(cells, table.shape[1])
        assert (label_mapping(pred, truth)[pred] == truth).sum() == best


def test_metrics_load_no_scipy_optimize():
    # the label matcher is the package's own: scipy.optimize would add ~17
    # MB to every agcn process, and scipy.sparse.csgraph, with the
    # scipy.sparse.linalg it loads, ~11 MB. Only the shortest-path analysis
    # loads csgraph, when it is called
    heavy = ("scipy.optimize", "scipy.sparse.csgraph", "scipy.sparse.linalg")
    spec = "SBMSpec(block_sizes=(6, 6), p_in=0.6, p_out=0.1, seed=3)"
    code = "\n".join([
        "import json, sys",
        "import agcn.cli",
        "from agcn import (SBMSpec, TrainingConfig, accuracy, evaluate,",
        "                  forward, gen_sbm, khop_mask, label_mapping, train,",
        "                  shortest_path_histogram)",
        f"g = gen_sbm({spec})",
        "cfg = TrainingConfig(epochs=2, layers=1, heads=1, d_q=2, d_v=2,",
        "                     d_out=2, restarts=2)",
        "params, _ = train(g, cfg)",
        "emb = forward(g, khop_mask(g, cfg.k), params)",
        "res = evaluate(emb, 2, g.labels, seeds=[0, 1], restarts=2)",
        "accuracy(res.labels, g.labels)",
        "label_mapping(res.labels, g.labels)",
        f"print(sorted(m for m in sys.modules if m.startswith({heavy!r})))",
        "hist = shortest_path_histogram(g)",
        "print(json.dumps({str(k): v for k, v in hist.items()}))",
    ])
    src = str(Path(clustering.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded, hist = proc.stdout.splitlines()
    assert loaded == "[]"
    expect = shortest_path_histogram_oracle(gen_sbm(eval(spec)))
    assert json.loads(hist) == {str(k): v for k, v in expect.items()}


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


@pytest.mark.parametrize("metric", [accuracy, nmi, label_mapping])
@pytest.mark.parametrize("side", ["pred", "truth"])
def test_metrics_reject_negative_labels(metric, side):
    # a -1 once indexed the confusion matrix from its end and merged two
    # clusters: accuracy([-1, 1], [0, 1]) read 0.5 where nmi read 1.0
    labels = {"pred": [0, 1, 1], "truth": [0, 1, 1], side: [-1, 1, 1]}
    with pytest.raises(ConfigError, match=f"^{side} label -1 is negative"):
        metric(labels["pred"], labels["truth"])


def test_metrics_reject_empty_label_vectors():
    # accuracy and label_mapping raised numpy's zero-size reduction error
    # and nmi returned 0.0; all three reject the empty vectors alike
    for metric in (accuracy, nmi, label_mapping):
        with pytest.raises(ConfigError, match="^no labels: the label vectors "
                                              "are empty$"):
            metric([], [])


@pytest.mark.parametrize("call, side, value", [
    (lambda pts, g: accuracy([0.7, 1.2], [0, 1]), "pred", "0.7"),
    (lambda pts, g: nmi([0.7, 1.2], [0, 1]), "pred", "0.7"),
    (lambda pts, g: label_mapping([0, 1], [0.0, 1.5]), "truth", "1.5"),
    (lambda pts, g: evaluate(pts, 2, g.labels + 0.5, [0]), "truth", "0.5"),
    (lambda pts, g: r_ratio(g, [0, 0, 1, np.nan], g.labels, k_range=(1,)),
     "pred", "nan"),
], ids=["accuracy", "nmi", "label_mapping", "evaluate", "r_ratio"])
def test_labels_reject_fractions(call, side, value):
    # a fractional label was truncated: accuracy([0.7, 1.2], [0, 1]) read 1.0
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
    g = build_graph([[0, 1], [2, 3]], pts, [0, 0, 1, 1])
    with pytest.raises(ConfigError,
                       match=f"^{side} label {value} is not a whole number"):
        call(pts, g)
    # whole-valued floats are labels
    assert accuracy([0.0, 1.0, 1.0], [1, 0, 0]) == 1.0
    assert evaluate(pts, 2, g.labels.astype(float), [0]).acc == 1.0


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


@pytest.mark.parametrize("n, c_pred, c_truth", [(1400, 7, 7), (443, 2, 11),
                                                (2892, 11, 3), (60, 5, 4)])
def test_nmi_depends_on_the_partitions_alone(n, c_pred, c_truth):
    # bitwise equal under independent renumberings of either side, with
    # gaps in the label values, and with the arguments swapped
    rng = np.random.default_rng(n)
    truth = rng.integers(0, c_truth, size=n)
    pred = np.where(rng.random(n) < 0.7, truth % c_pred,
                    rng.integers(0, c_pred, size=n))
    value = nmi(pred, truth)
    for _ in range(30):
        p_names = rng.choice(50, size=c_pred, replace=False)
        t_names = rng.choice(50, size=c_truth, replace=False)
        assert nmi(p_names[pred], t_names[truth]) == value
        assert nmi(t_names[truth], p_names[pred]) == value


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


@pytest.mark.parametrize("per, n_clusters, d, spread, seed",
                         [(100, 5, 8, 1.0, 27), (200, 7, 16, 1.5, 24)])
def test_evaluate_result_does_not_depend_on_the_group_budget(
        monkeypatch, per, n_clusters, d, spread, seed):
    # overlapping blobs on which several K-means seeds reach one partition;
    # one seed per group and all seeds in one group round Lloyd's GEMMs
    # differently, yet must report the same inertias and chosen seed
    rng = np.random.default_rng(seed)
    means = spread * rng.standard_normal((n_clusters, d))
    pts = np.repeat(means, per, axis=0)
    pts += rng.standard_normal(pts.shape)
    truth = np.repeat(np.arange(n_clusters), per)
    results = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(clustering, "KMEANS_GROUP_BYTES", budget)
        results.append(evaluate(pts, n_clusters, truth, seeds=range(10),
                                restarts=10).to_dict())
    assert results[0] == results[1]


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


@pytest.mark.parametrize("call, name", [
    (lambda pts, g: kmeans(pts, 2, seed=1.5), "seed"),
    (lambda pts, g: kmeans(pts, 2, seed=True), "seed"),
    (lambda pts, g: kmeans(pts, 2, seed=0, restarts=2.5), "restarts"),
    (lambda pts, g: kmeans(pts, 2.0, seed=0), "n_clusters"),
    (lambda pts, g: evaluate(pts, 2, [0, 1, 1, 0], seeds=[0.5]), "seed"),
    (lambda pts, g: evaluate(pts, 2, [0, 1, 1, 0], seeds=[0, np.True_]),
     "seed"),
    (lambda pts, g: grouping_probe(g, 2.5), "k"),
    (lambda pts, g: mask_features(g, 0.5, 1.5), "seed"),
    (lambda pts, g: khop_mask(g, 1.5), "k"),
    (lambda pts, g: khop_mask(g, True), "k"),
    (lambda pts, g: khop_weights(g, 2.5), "k"),
    (lambda pts, g: r_ratio(g, [0, 0, 1, 1], [0, 0, 1, 1], k_range=(1.5,)),
     "k_range entry"),
], ids=["kmeans_float_seed", "kmeans_bool_seed", "kmeans_float_restarts",
        "kmeans_float_clusters", "evaluate_float_seed", "evaluate_numpy_bool_seed",
        "grouping_float_k", "mask_features_float_seed", "khop_mask_float_k",
        "khop_mask_bool_k", "khop_weights_float_k", "r_ratio_float_k"])
def test_integer_arguments_reject_other_types(call, name):
    # NumPy integers pass, as in TrainingConfig; a float or a bool names
    # its argument instead of failing inside NumPy or being taken as 0/1
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
    g = build_graph([[0, 1], [2, 3]], pts, [0, 0, 1, 1])
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, not "):
        call(pts, g)
    assert (kmeans(pts, np.int64(2), seed=np.int32(1), restarts=np.uint8(2))
            == kmeans(pts, 2, seed=1, restarts=2)).all()
