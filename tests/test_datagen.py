import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from agcn import datagen
from agcn.datagen import SBMSpec, gen_sbm, write_graph_files
from agcn.errors import ConfigError
from agcn.graph import build_graph, load_graph

from conftest import gen_sbm_oracle, homophily_ratio


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


@pytest.mark.parametrize("budget", [None, 30, 1],
                         ids=["default", "uneven_blocks", "one_row_blocks"])
@pytest.mark.parametrize("spec", [
    SBMSpec(block_sizes=(6, 6), p_in=0.5, p_out=0.1, seed=3),
    SBMSpec(block_sizes=(9, 4, 1), p_in=1.0, p_out=0.2, seed=5),
    SBMSpec(block_sizes=(1,), p_in=0.5, p_out=0.5, seed=2),
    SBMSpec(block_sizes=(300,) * 5, p_in=0.0214, p_out=0.0013,
            feature_dim=8, seed=7),
], ids=["below_one_block", "p_in_one", "one_node", "two_default_blocks"])
def test_sbm_row_blocks_match_one_draw_over_all_pairs(monkeypatch, spec,
                                                      budget):
    if budget is not None:
        monkeypatch.setattr(datagen, "SBM_PAIR_BUDGET", budget)
    assert gen_sbm(spec).fingerprint() == gen_sbm_oracle(spec).fingerprint()


def test_sbm_pair_draw_memory_is_bounded():
    # one draw over all ~4.5M pairs of 3000 nodes peaks at ~148 MB; row
    # blocks of SBM_PAIR_BUDGET pairs at ~40 MB
    spec = SBMSpec(block_sizes=(1000,) * 3, p_in=0.008, p_out=0.001, seed=1)
    tracemalloc.start()
    try:
        gen_sbm(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak


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


@pytest.mark.parametrize("field, value", [
    ("block_sizes", 5), ("block_sizes", (2.7, 3.9)), ("block_sizes", (True, 4)),
    ("block_sizes", ("4", "4")), ("p_in", "0.5"), ("p_out", None),
    ("feature_dim", 2.0), ("feature_dim", True), ("mean_scale", "1"),
    ("noise_scale", False), ("seed", 1.5), ("seed", True), ("seed", "3"),
])
def test_sbm_rejects_wrong_field_types(field, value):
    spec = {"block_sizes": (4, 4), "p_in": 0.5, "p_out": 0.1, field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        SBMSpec(**spec)


def test_sbm_accepts_numpy_scalars():
    spec = SBMSpec(block_sizes=(np.int64(6), 6), p_in=np.float64(0.5),
                   p_out=0.1, feature_dim=np.int32(3), seed=np.uint8(3))
    same = SBMSpec(block_sizes=(6, 6), p_in=0.5, p_out=0.1, feature_dim=3,
                   seed=3)
    assert gen_sbm(spec).fingerprint() == gen_sbm(same).fingerprint()


def test_write_then_load_roundtrip(tmp_path):
    g = gen_sbm(SBMSpec(block_sizes=(6, 6), p_in=0.5, p_out=0.1, seed=3))
    paths = write_graph_files(g, tmp_path, prefix="toy")
    loaded = load_graph(paths["edges"], paths["features"], paths["labels"])
    assert (loaded.adj.toarray() == g.adj.toarray()).all()
    np.testing.assert_allclose(loaded.features, g.features, rtol=0, atol=0)
    np.testing.assert_array_equal(loaded.labels, g.labels)


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    feats = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=n * d, max_size=n * d))
    labels = draw(st.none() | st.lists(node, min_size=n, max_size=n))
    return build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2),
                       np.reshape(feats, (n, d)), labels)


@given(_graphs())
@example(build_graph(np.empty((0, 2)), np.zeros((1, 1))))
@example(build_graph(np.empty((0, 2)), np.ones((3, 2)), [2, 0, 0]))
@example(build_graph([[0, 2]], np.full((4, 1), -0.0), [0, 0, 1, 3]))
def test_written_files_load_back_to_the_same_graph(g):
    # edgeless graphs, isolated nodes and a single node included
    with tempfile.TemporaryDirectory() as out:
        paths = write_graph_files(g, out)
        loaded = load_graph(paths["edges"], paths["features"],
                            paths.get("labels"))
    assert loaded.fingerprint() == g.fingerprint()
