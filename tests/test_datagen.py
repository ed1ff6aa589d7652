import numpy as np
import pytest

from agcn.datagen import (SBMSpec, TreeMatchSpec, gen_sbm, gen_tree_match,
                          write_graph_files)
from agcn.errors import ConfigError
from agcn.graph import khop_mask, load_graph

from conftest import bfs_distances, homophily_ratio, neighbors


def test_sbm_two_cliques():
    g = gen_sbm(SBMSpec(block_sizes=(5, 5), p_in=1.0, p_out=0.0, seed=0))
    assert g.n_edges == 2 * (5 * 4 // 2)
    assert homophily_ratio(g) == pytest.approx(1.0)
    assert g.labels.tolist() == [0] * 5 + [1] * 5


def test_sbm_edge_count_within_three_sigma():
    # p_in == p_out reduces to a Bernoulli graph on all pairs
    p = 0.2
    g = gen_sbm(SBMSpec(block_sizes=(30, 30), p_in=p, p_out=p, seed=4))
    n_pairs = 60 * 59 // 2
    mean = n_pairs * p
    sigma = np.sqrt(n_pairs * p * (1 - p))
    assert abs(g.n_edges - mean) <= 3 * sigma


def test_sbm_deterministic():
    spec = SBMSpec(block_sizes=(10, 12), p_in=0.4, p_out=0.05, seed=9)
    a, b = gen_sbm(spec), gen_sbm(spec)
    assert (a.adj.toarray() == b.adj.toarray()).all()
    np.testing.assert_array_equal(a.features, b.features)


def test_sbm_labels_match_blocks():
    g = gen_sbm(SBMSpec(block_sizes=(3, 4, 5), p_in=0.5, p_out=0.1, seed=1))
    assert np.bincount(g.labels).tolist() == [3, 4, 5]


def test_sbm_validates_probabilities():
    with pytest.raises(ConfigError):
        SBMSpec(block_sizes=(4, 4), p_in=1.5, p_out=0.0)
    with pytest.raises(ConfigError):
        SBMSpec(block_sizes=(), p_in=0.5, p_out=0.1)


@pytest.mark.parametrize("field, value", [
    ("feature_dim", 0), ("feature_dim", -1),
    ("mean_scale", float("inf")), ("mean_scale", float("nan")),
    ("noise_scale", float("nan")), ("noise_scale", float("-inf")),
])
def test_sbm_validates_features(field, value):
    with pytest.raises(ConfigError, match=field):
        SBMSpec(block_sizes=(4, 4), p_in=0.5, p_out=0.1, **{field: value})


@pytest.mark.parametrize("depth,n_expected", [(1, 3), (3, 15), (5, 63)])
def test_tree_node_count(depth, n_expected):
    g = gen_tree_match(TreeMatchSpec(depth=depth, seed=0))
    assert g.n_nodes == n_expected
    assert g.n_edges == n_expected - 1          # connected and acyclic


def test_tree_root_to_leaf_distance():
    r = 3
    g = gen_tree_match(TreeMatchSpec(depth=r, seed=0))
    dist = bfs_distances(g.adj.toarray(), 0)
    leaves = np.arange(2 ** r - 1, g.n_nodes)
    assert (dist[leaves] == r).all()
    # leaves under different root children sit a full diameter apart
    first_leaf = 2 ** r - 1
    leaf_dist = bfs_distances(g.adj.toarray(), first_leaf)
    assert leaf_dist.max() == 2 * r


def test_tree_mask_at_depth_reaches_all_leaves():
    r = 4
    g = gen_tree_match(TreeMatchSpec(depth=r, seed=2))
    mask = khop_mask(g, r)
    root_reach = set(neighbors(mask, 0).tolist())
    leaves = set(range(2 ** r - 1, g.n_nodes))
    assert leaves <= root_reach
    # one hop fewer misses every leaf
    short = set(neighbors(khop_mask(g, r - 1), 0).tolist())
    assert not (leaves & short)


def test_tree_root_code_matches_some_leaf():
    g = gen_tree_match(TreeMatchSpec(depth=3, seed=5))
    leaves = g.labels[2 ** 3 - 1:]
    assert g.labels[0] in leaves
    assert sorted(leaves.tolist()) == list(range(1, 9))
    # features are the one-hot of the label
    assert (np.argmax(g.features, axis=1) == g.labels).all()


def test_tree_deterministic():
    a = gen_tree_match(TreeMatchSpec(depth=4, seed=7))
    b = gen_tree_match(TreeMatchSpec(depth=4, seed=7))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_write_then_load_roundtrip(tmp_path):
    g = gen_sbm(SBMSpec(block_sizes=(6, 6), p_in=0.5, p_out=0.1, seed=3))
    paths = write_graph_files(g, tmp_path, prefix="toy")
    loaded = load_graph(paths["edges"], paths["features"], paths["labels"])
    assert (loaded.adj.toarray() == g.adj.toarray()).all()
    np.testing.assert_allclose(loaded.features, g.features, rtol=0, atol=0)
    np.testing.assert_array_equal(loaded.labels, g.labels)
