import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agcn.model
from agcn.datagen import SBMSpec, gen_sbm
from agcn.errors import ConfigError, DimensionError, ParseError
from agcn.graph import (ENTRY_CHUNK, Graph, build_graph, khop_mask,
                        khop_weights, load_graph, normalized_adjacency,
                        shortest_path_histogram)

from conftest import (bfs_distances, complete_mask, dense_normalized,
                      homophily_ratio, neighbors, pair_sims_oracle, path_graph,
                      random_graph, shortest_path_histogram_oracle)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_load_minimal_graph(tmp_path):
    (tmp_path / "g.edges").write_text("0 1\n")
    (tmp_path / "g.csv").write_text("0,0,0\n0,0,0\n")
    g = load_graph(tmp_path / "g.edges", tmp_path / "g.csv")
    assert g.n_nodes == 2
    assert g.adj.nnz == 2
    assert (g.adj.toarray() == g.adj.toarray().T).all()


def test_load_drops_self_loops_and_duplicates(tmp_path):
    (tmp_path / "g.edges").write_text("0 1\n1 0\n1,1\n0 1\n")
    (tmp_path / "g.csv").write_text("1.0\n2.0\n")
    g = load_graph(tmp_path / "g.edges", tmp_path / "g.csv")
    assert g.n_edges == 1
    assert g.adj.diagonal().sum() == 0
    assert g.features.shape == (2, 1)


def test_load_reports_out_of_range_with_line(tmp_path):
    (tmp_path / "g.edges").write_text("0 1\n0 5\n")
    (tmp_path / "g.csv").write_text("0\n0\n0\n")
    with pytest.raises(ParseError) as err:
        load_graph(tmp_path / "g.edges", tmp_path / "g.csv")
    assert "5" in str(err.value)
    assert err.value.line == 2


@pytest.mark.parametrize("edges, feats, bad, line, message", [
    ("0 1\n0 1 2\n", "0\n0\n", "g.edges", 2,
     "3 values, expected 2"),
    ("0 1\n\n1 x\n", "0\n0\n", "g.edges", 3, "non-integer edge endpoint"),
    ("0 1\n", "0,0\n1,x\n", "g.csv", 2, "bad feature row"),
    ("0 1\n", "# x,y\n0,0\n\n1,2,3\n", "g.csv", 4,
     "3 values, the first row has 2"),
    ("0 1\n", "0,0\n  \n1,1\n", "g.csv", 2, "bad feature row '  '"),
    ("0 1\n", "", "g.csv", None, "empty feature file"),
    ("0 1\n", "# x,y\n\n", "g.csv", None, "empty feature file"),
], ids=["three_fields", "non_integer_endpoint", "unparsable_feature",
        "feature_width_changes", "blank_feature_row", "empty_features",
        "comment_only_features"])
def test_load_rejects_malformed_file(tmp_path, edges, feats, bad, line,
                                     message):
    (tmp_path / "g.edges").write_text(edges)
    (tmp_path / "g.csv").write_text(feats)
    with pytest.raises(ParseError, match=message) as err:
        load_graph(tmp_path / "g.edges", tmp_path / "g.csv")
    assert err.value.path == tmp_path / bad
    if line is not None:
        assert err.value.line == line
        assert f"{bad}:{line}]" in str(err.value)


# an endpoint beyond int64 fails as one out of range, not by overflow
@pytest.mark.parametrize("edges", [[[0, 3]], [[-1, 0]], [[0, 2 ** 63]],
                                   [[-2 ** 63 - 1, 0]]])
def test_build_graph_rejects_endpoint_out_of_range(edges):
    with pytest.raises(ParseError, match="outside \\[0, 3\\)"):
        build_graph(edges, np.ones((3, 1)))


# a fraction, NaN or infinity is named, not truncated or cast on
@pytest.mark.parametrize("bad", [1.5, math.nan, math.inf, -0.5])
def test_build_graph_rejects_non_integer_endpoint(bad):
    with pytest.raises(ParseError, match=f"non-integer edge endpoint {bad}"):
        build_graph([[0, 1], [2, bad]], np.ones((3, 1)))


@pytest.mark.parametrize("bad", [1.7, math.nan, -math.inf])
def test_build_graph_rejects_non_integer_label(bad):
    with pytest.raises(ConfigError, match=f"non-integer label {bad}"):
        build_graph([[0, 1]], np.zeros((3, 1)), [0, bad, 2])


def test_build_graph_takes_whole_floats_as_ids():
    g = build_graph(np.array([[0.0, 2.0]]), np.zeros((3, 1)), [0.0, 1.0, 1.0])
    assert g.adj.toarray()[0].tolist() == [0.0, 0.0, 1.0]
    assert g.labels.dtype == np.int64 and g.labels.tolist() == [0, 1, 1]


@pytest.mark.parametrize("rows,line", [
    ("0,0\n1,nan\n2,2\n", 2),
    ("# x,y\n0,0\n\n1,1\ninf,2\n", 5),
])
def test_load_rejects_non_finite_feature_row(tmp_path, rows, line):
    (tmp_path / "g.edges").write_text("0 1\n")
    (tmp_path / "g.csv").write_text(rows)
    with pytest.raises(ParseError) as err:
        load_graph(tmp_path / "g.edges", tmp_path / "g.csv")
    assert err.value.path == tmp_path / "g.csv"
    assert err.value.line == line
    assert f"g.csv:{line}" in str(err.value)


def test_load_label_row_mismatch(tmp_path):
    (tmp_path / "g.edges").write_text("0 1\n")
    (tmp_path / "g.csv").write_text("0\n0\n0\n")
    (tmp_path / "g.lab").write_text("0\n1\n")
    with pytest.raises(ParseError, match="2 labels for 3 nodes") as err:
        load_graph(tmp_path / "g.edges", tmp_path / "g.csv", tmp_path / "g.lab")
    assert err.value.path == tmp_path / "g.lab" and err.value.line is None
    # too many: the first extra line is named
    (tmp_path / "g.lab").write_text("0\n1\n\n1\n0\n")
    with pytest.raises(ParseError, match="more labels than the 3 nodes") as err:
        load_graph(tmp_path / "g.edges", tmp_path / "g.csv", tmp_path / "g.lab")
    assert err.value.path == tmp_path / "g.lab" and err.value.line == 5


@pytest.mark.parametrize("labels", [None, np.empty(0, dtype=np.int64)])
def test_graph_rejects_zero_nodes(labels):
    with pytest.raises(ConfigError, match="graph has no nodes"):
        build_graph(np.empty((0, 2)), np.empty((0, 3)), labels)


def test_graph_rejects_adjacency_of_another_size():
    # the node count is the number of feature rows; the adjacency must match
    adj = build_graph([[0, 1]], np.zeros((2, 1))).adj
    with pytest.raises(DimensionError, match=r"\(2, 2\) != \(3, 3\)"):
        Graph(adj=adj, features=np.zeros((3, 1)))


@pytest.mark.parametrize("label", ["3", "7"])
def test_load_rejects_label_outside_node_count(tmp_path, label):
    # K-means cannot fit more clusters than there are nodes, so a label at
    # or above the node count fails on its line, not after training
    (tmp_path / "g.edges").write_text("0 1\n1 2\n")
    (tmp_path / "g.csv").write_text("0\n0\n0\n")
    (tmp_path / "g.lab").write_text(f"0\n{label}\n1\n")
    with pytest.raises(ParseError, match=f"label {label} outside \\[0, 3\\)") \
            as err:
        load_graph(tmp_path / "g.edges", tmp_path / "g.csv", tmp_path / "g.lab")
    assert err.value.path == tmp_path / "g.lab" and err.value.line == 2


@pytest.mark.parametrize("labels", [[0, 3, 1], [0, -1, 1], [0, 2 ** 63, 1]])
def test_graph_rejects_label_outside_node_count(labels):
    # files are range-checked by their reader; arrays by Graph
    with pytest.raises(ConfigError, match="labels must lie in \\[0, 3\\)"):
        build_graph([[0, 1]], np.zeros((3, 1)), labels)


@pytest.mark.parametrize("edges, labels, bad, line, message", [
    ("0 1\n", "0\n99999999999999999999\n0\n", "g.lab", 2,
     "label 99999999999999999999 outside \\[0, 3\\)"),
    ("0 1\n", "0\n1 2\n0\n", "g.lab", 2, "2 values, expected 1"),
    ("0 1\n1, x\n", "0\n0\n0\n", "g.edges", 2,
     "non-integer edge endpoint 'x'"),
    ("0 1\n\n2 -1\n", "0\n0\n0\n", "g.edges", 3,
     "edge endpoint -1 outside \\[0, 3\\)"),
    ("1\n", "0\n0\n0\n", "g.edges", 1, "1 values, expected 2"),
], ids=["label_beyond_int64", "two_labels", "non_integer_after_comma",
        "negative_endpoint", "one_endpoint"])
def test_node_row_files_check_each_value_on_its_line(tmp_path, edges, labels,
                                                     bad, line, message):
    (tmp_path / "g.edges").write_text(edges)
    (tmp_path / "g.csv").write_text("0\n0\n0\n")
    (tmp_path / "g.lab").write_text(labels)
    with pytest.raises(ParseError, match=message) as err:
        load_graph(tmp_path / "g.edges", tmp_path / "g.csv", tmp_path / "g.lab")
    assert err.value.path == tmp_path / bad and err.value.line == line


def test_node_row_files_split_on_commas_and_skip_blank_lines(tmp_path):
    # edge and label files follow one rule
    (tmp_path / "g.edges").write_text("0,1\n\n 1 , 2 \n")
    (tmp_path / "g.csv").write_text("0\n0\n0\n")
    (tmp_path / "g.lab").write_text("0,\n\n1\n  2\n\n")
    g = load_graph(tmp_path / "g.edges", tmp_path / "g.csv", tmp_path / "g.lab")
    assert g.n_edges == 2 and g.labels.tolist() == [0, 1, 2]


def test_load_with_labels_sets_cluster_count(tmp_path):
    (tmp_path / "g.edges").write_text("0 1\n1 2\n")
    (tmp_path / "g.csv").write_text("0\n0\n0\n")
    (tmp_path / "g.lab").write_text("0\n2\n1\n")
    g = load_graph(tmp_path / "g.edges", tmp_path / "g.csv", tmp_path / "g.lab")
    assert g.n_clusters == 3


# ---------------------------------------------------------------------------
# normalized adjacency
# ---------------------------------------------------------------------------

def test_normalized_single_edge():
    g = build_graph([[0, 1]], np.zeros((2, 1)))
    mat = normalized_adjacency(g, with_self_loops=False).toarray()
    assert mat[0, 1] == pytest.approx(1.0)
    assert mat[1, 0] == pytest.approx(1.0)


def test_normalized_single_node_with_self_loops():
    g = build_graph(np.empty((0, 2)), np.zeros((1, 1)))
    mat = normalized_adjacency(g, with_self_loops=True).toarray()
    assert mat[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("self_loops", [False, True])
def test_normalized_matches_dense_oracle(self_loops):
    g = random_graph(8, 0.4, seed=7)
    got = normalized_adjacency(g, self_loops).toarray()
    expect = dense_normalized(g.adj.toarray(), self_loops)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_normalized_isolated_node_row_is_zero():
    g = build_graph([[0, 1]], np.zeros((3, 1)))
    mat = normalized_adjacency(g, with_self_loops=False).toarray()
    assert (mat[2] == 0).all()


def test_normalized_spectral_bound_small_graphs():
    for seed in range(5):
        g = random_graph(rng_n(seed), 0.3, seed=seed)
        mat = normalized_adjacency(g, False).toarray()
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() >= -1 - 1e-9 and eig.max() <= 1 + 1e-9


def rng_n(seed):
    return int(np.random.default_rng(seed).integers(4, 33))


# ---------------------------------------------------------------------------
# k-hop mask
# ---------------------------------------------------------------------------

def test_khop_path_two_hops():
    g = path_graph(3)
    mask = khop_mask(g, 2)
    assert neighbors(mask, 0).tolist() == [0, 1, 2]


def test_khop_triangle_one_hop():
    g = build_graph([[0, 1], [1, 2], [0, 2]], np.zeros((3, 1)))
    mask = khop_mask(g, 1)
    for i in range(3):
        assert neighbors(mask, i).tolist() == [0, 1, 2]


def test_khop_rejects_zero():
    with pytest.raises(ConfigError):
        khop_mask(path_graph(3), 0)
    with pytest.raises(ConfigError, match="k must be >= 1"):
        khop_weights(path_graph(3), 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_khop_matches_bfs_oracle(k):
    g = random_graph(10, 0.3, seed=3)
    dense = g.adj.toarray()
    mask = khop_mask(g, k)
    for i in range(10):
        dist = bfs_distances(dense, i, cutoff=k)
        expected = np.flatnonzero(dist >= 0)
        assert neighbors(mask, i).tolist() == expected.tolist()


def test_khop_monotone_and_symmetric():
    g = random_graph(12, 0.25, seed=5)
    prev = None
    for k in (1, 2, 4):
        mask = khop_mask(g, k)
        dense = np.zeros((12, 12), dtype=bool)
        for i in range(12):
            nb = neighbors(mask, i)
            dense[i, nb] = True
            assert i in nb
            if prev is not None:
                assert set(prev[i]) <= set(nb.tolist())
        assert (dense == dense.T).all()
        prev = [neighbors(mask, i).tolist() for i in range(12)]


def test_khop_at_diameter_covers_component():
    g = path_graph(6)
    mask = khop_mask(g, 5)
    for i in range(6):
        assert neighbors(mask, i).tolist() == list(range(6))
    # disconnected pair stays separate at any k
    g2 = build_graph([[0, 1], [2, 3]], np.zeros((4, 1)))
    mask2 = khop_mask(g2, 4)
    assert neighbors(mask2, 0).tolist() == [0, 1]
    assert neighbors(mask2, 3).tolist() == [2, 3]


def test_khop_isolated_node_self_only():
    g = build_graph([[0, 1]], np.zeros((3, 1)))
    mask = khop_mask(g, 3)
    assert neighbors(mask, 2).tolist() == [2]


def test_khop_counts():
    g = random_graph(9, 0.3, seed=11)
    mask = khop_mask(g, 2)
    sizes = mask.list_sizes()
    assert mask.total_nnz == sizes.sum()
    assert sizes.tolist() == [len(neighbors(mask, i)) for i in range(9)]


@settings(max_examples=40)
@given(n=st.integers(1, 14), p_edge=st.floats(0.0, 1.0), k=st.integers(1, 3),
       cap=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_mask_rows_strictly_increase_and_hold_self(n, p_edge, k, cap, seed):
    mask = khop_mask(random_graph(n, p_edge, seed=seed), k)
    for m in (mask, complete_mask(n), mask.subsample(cap, seed)):
        for i in range(n):
            nb = neighbors(m, i)
            assert (np.diff(nb) > 0).all()
            assert i in nb


def test_subsample_caps_lists_and_keeps_self():
    g = random_graph(12, 0.6, seed=2)
    mask = khop_mask(g, 2)
    capped = mask.subsample(4, seed=0)
    for i in range(12):
        nb = neighbors(capped, i)
        assert len(nb) == min(len(neighbors(mask, i)), 4)
        assert i in nb
        assert set(nb.tolist()) <= set(neighbors(mask, i).tolist())


def test_entry_dots_chunked_is_bitwise_single_shot():
    rng = np.random.default_rng(11)
    full = complete_mask(90)          # 8100 entries: several chunks and a remainder
    assert full.total_nnz > 3 * ENTRY_CHUNK and full.total_nnz % ENTRY_CHUNK
    h = rng.standard_normal((90, 37))
    h[3] = 0.0
    qkv = rng.standard_normal((90, 3 * 16))
    # a subsample is not symmetric: entry (i, j) need not have (j, i)
    for mask in (full, full.subsample(50, seed=1)):
        rows, cols = mask.src_ids, mask.indices
        # whole rows, and strided per-head column views
        for a, b in ((h, h), (qkv[:, 4:8], qkv[:, 20:24])):
            got = mask.entry_dots(a, b)
            assert got.tobytes() == pair_sims_oracle(a, b, rows, cols).tobytes()
        # all heads at once from (n, heads, d_h) views, as the attention
        # layers pass them: column h is head h's strided view
        for heads, d_h in ((4, 16), (3, 5)):
            q, k = (rng.standard_normal((90, heads * d_h)) for _ in range(2))
            got = mask.entry_dots(q.reshape(90, heads, d_h),
                                  k.reshape(90, heads, d_h))
            assert got.shape == (mask.total_nnz, heads)
            for hd in range(heads):
                c = slice(hd * d_h, (hd + 1) * d_h)
                want = pair_sims_oracle(q[:, c], k[:, c], rows, cols)
                assert got[:, hd].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# k-hop weights
# ---------------------------------------------------------------------------

def test_weights_single_edge_k1():
    g = build_graph([[0, 1]], np.zeros((2, 1)))
    w = khop_weights(g, 1).toarray()
    assert w[0, 1] == pytest.approx(1.0)
    assert w[0, 0] == 0.0


def test_weights_single_edge_k2_all_zero():
    g = build_graph([[0, 1]], np.zeros((2, 1)))
    w = khop_weights(g, 2)
    assert w.nnz == 0


def test_weights_match_dense_power_oracle():
    g = random_graph(8, 0.4, seed=7)
    got = khop_weights(g, 3).toarray()
    dense = dense_normalized(g.adj.toarray(), False)
    expect = np.linalg.matrix_power(dense, 3)
    np.fill_diagonal(expect, 0.0)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_weights_nonnegative_entries_bounded():
    # spectral bound: every entry of the k-th power stays within [0, 1]
    for seed in range(4):
        g = random_graph(16, 0.3, seed=seed)
        for k in (1, 2, 5):
            w = khop_weights(g, k)
            assert w.nnz == 0 or w.data.min() >= 0
            assert w.nnz == 0 or w.data.max() <= 1 + 1e-9


def test_weights_row_sums_on_regular_graphs():
    # cycle = 2-regular: row sums of every power equal one exactly
    n = 12
    edges = [[i, (i + 1) % n] for i in range(n)]
    g = build_graph(edges, np.zeros((n, 1)))
    for k in (1, 2, 3, 4):
        dense = dense_normalized(g.adj.toarray(), False)
        power = np.linalg.matrix_power(dense, k)
        assert power.sum(axis=1).max() <= 1 + 1e-9


def test_weights_symmetric():
    g = random_graph(10, 0.35, seed=9)
    w = khop_weights(g, 2).toarray()
    np.testing.assert_allclose(w, w.T, atol=1e-12)


# ---------------------------------------------------------------------------
# homophily
# ---------------------------------------------------------------------------

def test_homophily_complete_single_label():
    edges = [[i, j] for i in range(5) for j in range(i + 1, 5)]
    g = build_graph(edges, np.zeros((5, 1)), labels=np.zeros(5, dtype=int))
    assert homophily_ratio(g) == pytest.approx(1.0)


def test_homophily_star_two_labels():
    edges = [[0, i] for i in range(1, 5)]
    labels = np.array([0, 1, 1, 1, 1])
    g = build_graph(edges, np.zeros((5, 1)), labels=labels)
    assert homophily_ratio(g) == pytest.approx(0.0)


def test_homophily_requires_labels():
    with pytest.raises(ConfigError):
        homophily_ratio(path_graph(3))


def test_homophily_excludes_isolated_nodes():
    g = build_graph([[0, 1]], np.zeros((3, 1)), labels=np.array([0, 0, 1]))
    assert homophily_ratio(g) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# shortest-path histogram
# ---------------------------------------------------------------------------

def test_histogram_path_same_label():
    g = path_graph(3, labels=np.zeros(3, dtype=int))
    assert shortest_path_histogram(g) == {1: 2, 2: 1}


def test_histogram_disconnected_pair():
    g = build_graph(np.empty((0, 2)), np.zeros((2, 1)), labels=np.zeros(2, dtype=int))
    assert shortest_path_histogram(g) == {math.inf: 1}


def test_histogram_matches_bfs_oracle():
    rng = np.random.default_rng(1)
    sizes = [20, 20]
    labels = np.repeat([0, 1], sizes)
    n = 40
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], 0.3, 0.01)
    keep = rng.random(len(iu)) < p
    g = build_graph(np.column_stack([iu[keep], ju[keep]]),
                    rng.standard_normal((n, 2)), labels)
    got = shortest_path_histogram(g)

    dense = g.adj.toarray()
    expect = {}
    for i in range(n):
        dist = bfs_distances(dense, i)
        for j in range(i + 1, n):
            if labels[i] != labels[j]:
                continue
            key = math.inf if dist[j] < 0 else int(dist[j])
            expect[key] = expect.get(key, 0) + 1
    assert got == expect


@pytest.mark.parametrize("rows", [None, 1, 3])
@pytest.mark.parametrize("seed", range(3))
def test_histogram_row_blocks_match_one_block_per_cluster(monkeypatch, rows,
                                                          seed):
    # three clusters, one of a single node, and isolated nodes that leave
    # pairs unreachable; ``rows`` member rows per block, the last ragged
    rng = np.random.default_rng(seed)
    n = 31
    labels = np.concatenate([[2], rng.integers(0, 2, n - 1)])
    g = random_graph(n, 0.08, seed, labels=labels)
    if rows is not None:
        monkeypatch.setattr(agcn.model, "DENSE_BLOCK_BYTES", 8 * n * rows)
    got = shortest_path_histogram(g)
    assert got == shortest_path_histogram_oracle(g)
    assert list(got) == sorted(got)


def test_histogram_distances_stay_within_row_blocks():
    # one cluster's 512 x 1024 distance block alone takes 4 MiB
    n = 1024
    half = n // 2
    g = gen_sbm(SBMSpec(block_sizes=(half, half), p_in=6.4 / (half - 1),
                        p_out=1.6 / half, feature_dim=1, seed=0))
    tracemalloc.start()
    try:
        got = shortest_path_histogram(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * agcn.model.DENSE_BLOCK_BYTES, peak
    assert got == shortest_path_histogram_oracle(g)
