import tracemalloc

import numpy as np
import pytest

from agcn.analysis import grouping_probe, mask_features, r_ratio
from agcn.clustering import label_mapping
from agcn.datagen import SBMSpec, gen_sbm
from agcn.errors import ConfigError
from agcn.graph import build_graph, normalized_adjacency
from agcn.model import DENSE_BLOCK_BYTES

from conftest import random_graph


def two_cliques(m=5, d=3):
    edges = []
    for base in (0, m):
        edges += [[base + i, base + j] for i in range(m) for j in range(i + 1, m)]
    feats = np.zeros((2 * m, d))
    feats[:m, 0] = 1.0
    feats[m:, 1] = 1.0
    labels = np.repeat([0, 1], m)
    return build_graph(edges, feats, labels)


# ---------------------------------------------------------------------------
# grouping probe
# ---------------------------------------------------------------------------

def test_grouping_probe_rejects_k_zero():
    with pytest.raises(ConfigError):
        grouping_probe(two_cliques(), 0)


def test_grouping_probe_two_cliques_no_errors():
    res = grouping_probe(two_cliques(), k=2, seed=0)
    assert not res.errors.any()
    assert res.coords.shape == (10, 2)


def test_grouping_probe_filter_matches_dense_oracle():
    g = random_graph(12, 0.3, seed=2, d=4,
                     labels=np.random.default_rng(2).integers(0, 2, 12))
    k = 3
    res = grouping_probe(g, k=k, seed=1)
    ahat = normalized_adjacency(g, with_self_loops=True).toarray()
    expect = np.linalg.matrix_power(ahat, k) @ g.features
    np.testing.assert_allclose(res.filtered, expect, atol=1e-10)


def test_grouping_probe_edgeless_filter_is_identity():
    g = build_graph(np.empty((0, 2)), np.random.default_rng(0).standard_normal((6, 3)),
                    labels=np.array([0, 0, 0, 1, 1, 1]))
    res = grouping_probe(g, k=1, seed=0)
    np.testing.assert_allclose(res.filtered, g.features, atol=1e-12)


def test_grouping_probe_requires_labels():
    g = random_graph(6, 0.5, seed=1)
    with pytest.raises(ConfigError):
        grouping_probe(g, k=2)


def test_grouping_probe_coords_deterministic():
    g = two_cliques()
    a = grouping_probe(g, k=2, seed=3)
    b = grouping_probe(g, k=2, seed=3)
    np.testing.assert_array_equal(a.coords, b.coords)


# ---------------------------------------------------------------------------
# r-ratio
# ---------------------------------------------------------------------------

def _binary_power_rows(g, k):
    dense = g.adj.toarray()
    power = np.linalg.matrix_power(dense, k)
    return (power > 0).astype(float)


def brute_force_r(g, pred, truth, k):
    """Double-loop oracle over explicit binarized power rows."""
    rows = _binary_power_rows(g, k)
    mapping = label_mapping(pred, truth)
    wrong = mapping[np.asarray(pred)] != np.asarray(truth)
    n = g.n_nodes
    all_d = [np.linalg.norm(rows[i] - rows[j])
             for i in range(n) for j in range(i + 1, n)]
    out = {}
    for t in np.unique(truth):
        member = [i for i in range(n) if wrong[i] and truth[i] == t]
        if len(member) < 2:
            out[int(t)] = None
            continue
        sub_d = [np.linalg.norm(rows[i] - rows[j])
                 for ai, i in enumerate(member) for j in member[ai + 1:]]
        if sum(all_d) == 0 or sum(sub_d) == 0:
            out[int(t)] = None
            continue
        pair_mean = np.mean(sub_d) / np.mean(all_d)
        literal = (sum(sub_d) / len(member)) / (sum(all_d) / n)
        out[int(t)] = (pair_mean, literal)
    return out


def test_r_ratio_matches_exhaustive_pair_loop():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 2, 10)
    g = random_graph(10, 0.4, seed=6, d=3, labels=labels)
    pred = rng.integers(0, 2, 10)
    report = r_ratio(g, pred, labels, k_range=(1, 2, 3))
    expect = {k: brute_force_r(g, pred, labels, k) for k in (1, 2, 3)}
    for entry in report.entries:
        want = expect[entry.k][entry.cluster]
        if want is None:
            assert entry.pair_mean is None
            assert entry.notice is not None
        else:
            assert entry.pair_mean == pytest.approx(want[0], rel=1e-9)
            assert entry.literal == pytest.approx(want[1], rel=1e-9)


def test_r_ratio_distances_stay_within_row_blocks():
    # at k=1 the Gram matrix of the adjacency is sparse, so the distances
    # are one dense row block at a time, beside its sparse product: the
    # budget is a few blocks, where one n x n array would take 8 n^2 = 32 MiB
    n = 2048
    half = n // 2
    g = gen_sbm(SBMSpec(block_sizes=(half, half), p_in=6.4 / (half - 1),
                        p_out=1.6 / half, feature_dim=4, seed=0))
    pred = np.random.default_rng(0).integers(0, 2, n)
    tracemalloc.start()
    try:
        r_ratio(g, pred, g.labels, k_range=(1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * DENSE_BLOCK_BYTES, peak


def test_r_ratio_equal_distances_give_one_and_degenerate_power_is_omitted():
    # complete graph: every pair of adjacency rows sits sqrt(2) apart, so a
    # misclustered pair matches the population mean exactly (ratio one);
    # the binarized square is all-ones, so k=2 collapses to zero distances
    edges = [[i, j] for i in range(4) for j in range(i + 1, 4)]
    labels = np.zeros(4, dtype=int)
    g = build_graph(edges, np.zeros((4, 2)), labels)
    pred = np.array([0, 0, 1, 1])               # two nodes wrong in cluster 0
    report = r_ratio(g, pred, labels, k_range=(1, 2))
    by_k = {e.k: e for e in report.entries}
    assert by_k[1].pair_mean == pytest.approx(1.0, rel=1e-12)
    assert by_k[2].pair_mean is None
    assert by_k[2].notice == "degenerate zero pair distances"


def test_r_ratio_pair_mean_unaffected_by_duplicating_pair_population():
    # the headline mode normalizes by pair counts, so duplicating every
    # pairwise distance leaves it unchanged, unlike the literal printout
    dists = np.array([1.0, 2.0, 3.0])
    assert np.mean(np.tile(dists, 2)) == np.mean(dists)


def test_r_ratio_requires_matching_lengths():
    g = two_cliques()
    with pytest.raises(ConfigError):
        r_ratio(g, np.zeros(3, dtype=int), g.labels, k_range=(1,))


def test_r_ratio_rejects_a_scalar_prediction():
    g = two_cliques()
    with pytest.raises(ConfigError, match="lengths must match"):
        r_ratio(g, 5, g.labels, k_range=(1,))


def test_r_ratio_report_serializes():
    g = two_cliques()
    pred = np.array([0, 1, 0, 0, 0, 1, 1, 0, 1, 1])
    report = r_ratio(g, pred, g.labels, k_range=(1, 2))
    payload = report.to_dict()
    assert payload["mode"] == "pair-mean"
    assert set(payload["misclustered"].keys()) == {"0", "1"}


# ---------------------------------------------------------------------------
# feature masking
# ---------------------------------------------------------------------------

def test_mask_features_zero_fraction_identity():
    g = two_cliques()
    out = mask_features(g, 0.0, seed=1)
    np.testing.assert_array_equal(out.features, g.features)


def test_mask_features_exact_row_count():
    g = random_graph(10, 0.3, seed=3, d=4)
    out = mask_features(g, 0.6, seed=5)
    zeroed = np.flatnonzero((out.features == 0).all(axis=1))
    assert len(zeroed) == 6


def test_mask_features_deterministic_and_structure_preserving():
    g = random_graph(12, 0.3, seed=4, d=3)
    a = mask_features(g, 0.5, seed=9)
    b = mask_features(g, 0.5, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.adj is g.adj
    assert (a.adj.toarray() == g.adj.toarray()).all()


def test_mask_features_rejects_bad_fraction():
    g = two_cliques()
    with pytest.raises(ConfigError):
        mask_features(g, 1.0, seed=0)
    with pytest.raises(ConfigError):
        mask_features(g, -0.1, seed=0)
    for fraction in (False, "0.5"):
        with pytest.raises(ConfigError, match="^fraction must be a real number, not "):
            mask_features(g, fraction, seed=0)
