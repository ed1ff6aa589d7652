import contextlib
import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import agcn.model
import agcn.training
from agcn.datagen import SBMSpec, gen_sbm
from agcn.errors import ConfigError, NumericError
from agcn.graph import KHopMask, build_graph, khop_mask, khop_weights
from agcn.model import Dims, ModelParams, init_params, _forward_tape
from agcn.training import (TrainingConfig, adam_step, init_adam_state,
                           train, _loss_neg, _loss_pos_impl, _objective,
                           _decode_pairs, _node_chunks, _pair_batch, _rank,
                           _sort_within_lists, _unit_rows, _unit_rows_backward)

from conftest import (complete_mask, cosine_sim, grads_from_tape,
                      loss_pos_oracle, neighbors, pair_batch,
                      pair_sims_oracle, random_graph, reanchor, train_oracle)


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------

def _cosine(u, v):
    """Production pair similarity of two row vectors."""
    u = _unit_rows(np.array([u, v], dtype=np.float64))[0]
    return float(complete_mask(2).entry_dots(u, u)[1])     # entry (0, 1)


def test_cosine_basic_cases():
    for sim in (_cosine, cosine_sim):
        assert sim([1, 0], [1, 0]) == pytest.approx(1.0)
        assert sim([1, 0], [0, 1]) == pytest.approx(0.0)
        assert sim([1, 2], [2, 1]) == pytest.approx(0.8, abs=1e-12)


def test_cosine_zero_vector_gives_zero():
    assert _cosine([0, 0], [1, 2]) == 0.0
    assert cosine_sim([0, 0], [1, 2]) == 0.0


# ---------------------------------------------------------------------------
# positive loss
# ---------------------------------------------------------------------------

def _pos(h, w):
    return _loss_pos_impl(_unit_rows(h)[0], w)[0]


def test_loss_pos_two_nodes_single_edge_is_zero():
    g = build_graph([[0, 1]], np.array([[1.0, 0.0], [0.5, 0.5]]))
    w = khop_weights(g, 1)
    h = np.array([[1.0, 2.0], [0.3, -0.4]])
    assert _pos(h, w) == pytest.approx(0.0, abs=1e-12)


def test_loss_pos_identical_rows_uniform_weights():
    # sims cancel, leaving -log(sum_j w_ij / (N - 1)) per node
    n = 5
    edges = [[i, j] for i in range(n) for j in range(i + 1, n) if (i + j) % 2]
    g = build_graph(edges, np.ones((n, 2)))
    w = g.adj.copy()          # binary uniform weights
    h = np.tile([0.3, -1.0], (n, 1))
    expect = np.mean([
        -np.log(w.toarray()[i].sum() / (n - 1)) for i in range(n)
        if w.toarray()[i].sum() > 0
    ])
    assert _pos(h, w) == pytest.approx(expect, rel=1e-12)


def test_loss_pos_matches_brute_force():
    g = random_graph(6, 0.5, seed=5, d=4)
    w = khop_weights(g, 2)
    rng = np.random.default_rng(5)
    h = rng.standard_normal((6, 4))
    wd = w.toarray()
    vals = []
    for i in range(6):
        num = sum(wd[i, j] * math.exp(cosine_sim(h[i], h[j]))
                  for j in range(6) if j != i)
        den = sum(math.exp(cosine_sim(h[i], h[k]))
                  for k in range(6) if k != i)
        if num > 0:
            vals.append(-math.log(num / den))
    assert _pos(h, w) == pytest.approx(np.mean(vals), rel=1e-10)


def test_loss_pos_degenerate_when_no_positive_rows(monkeypatch):
    # no walk of exactly k hops joins two nodes, so every positive-weight row
    # is zero: train says so before the first forward pass
    def no_forward(*args, **kwargs):
        raise AssertionError("forward pass run on a degenerate graph")

    monkeypatch.setattr(agcn.training, "_forward_tape", no_forward)
    for edges, k in ((np.empty((0, 2)), 1), ([[0, 1]], 2)):
        g = build_graph(edges, np.ones((3, 2)))
        assert khop_weights(g, k).nnz == 0
        cfg = TrainingConfig(k=k, lam=1e-2, epochs=2, layers=1, heads=1,
                             d_q=2, d_v=2, d_out=2)
        with pytest.raises(ConfigError, match=f"no walk of exactly k={k} hops"):
            train(g, cfg)


def test_loss_pos_nonnegative_for_power_weights():
    for seed in range(4):
        g = random_graph(10, 0.4, seed=seed, d=3)
        for k in (1, 2, 3):
            w = khop_weights(g, k)
            if w.nnz == 0:
                continue
            h = np.random.default_rng(seed).standard_normal((10, 3))
            assert _pos(h, w) >= -1e-12


def _sbm_of_degree(n, degree=8, seed=0):
    """Two equal blocks, ~80% of a node's ``degree`` edges inside its own:
    the k-hop lists keep their length as n grows."""
    half = n // 2
    return gen_sbm(SBMSpec(block_sizes=(half, half),
                           p_in=0.8 * degree / (half - 1),
                           p_out=0.2 * degree / half, feature_dim=4, seed=seed))


def test_loss_pos_gradient_peak_memory():
    # exp(u u^T) is formed one row block at a time: 128 rows of n floats
    # here (the floor binds), with the gradient and a few other (n, d)
    # arrays beside it; one n x n array alone would take 8 n^2 = 32 MiB
    n, d = 2048, 16
    w = khop_weights(_sbm_of_degree(n), 2)
    u, _ = _unit_rows(np.random.default_rng(0).standard_normal((n, d)))
    tracemalloc.start()
    try:
        _loss_pos_impl(u, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 128 + 4 * 8 * n * d, peak


def test_train_epoch_forms_no_n_by_n_array():
    # a structure-mode epoch holds the masks, the tapes and one row block of
    # the positive loss; an n x n array alone would take 8 n^2 bytes
    n = 2048
    g = _sbm_of_degree(n)
    cfg = TrainingConfig(epochs=1, layers=1, heads=1, d_q=4, d_v=4, d_out=4,
                         pair_cap=8)
    tracemalloc.start()
    try:
        train(g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n, peak


def test_train_peak_does_not_grow_with_epochs():
    # an epoch's tapes, pairs and gradients are released before the next
    # epoch forms its own, so three epochs peak as high as one
    g = _sbm_of_degree(512)
    peaks = []
    for epochs in (1, 3):
        cfg = TrainingConfig(epochs=epochs, layers=1, heads=2, d_q=8, d_v=8,
                             d_out=8)
        tracemalloc.start()
        try:
            train(g, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0], peaks


def test_train_peak_does_not_grow_with_the_pair_count():
    # an epoch's pairs are drawn and scored one chunk of nodes at a time:
    # all 1.2M pairs of this graph's k=2 lists peak within 2 MiB of 8 pairs
    # a node, where one int64 array of every pair alone takes 9.4 MiB. At
    # the default gamma few hinges are active; an active one keeps 8 bytes
    # for the epoch's one final sum
    g = _sbm_of_degree(512)
    m = khop_mask(g, 2).list_sizes() - 1
    assert (m * (m - 1) // 2).sum() > 1_200_000
    peaks = []
    for cap in (8, 10 ** 6):
        cfg = TrainingConfig(epochs=1, layers=1, heads=2, d_q=8, d_v=8,
                             d_out=8, pair_cap=cap)
        tracemalloc.start()
        try:
            train(g, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2 * 2 ** 20, peaks


@contextlib.contextmanager
def _pos_blocks(rows):
    """The positive loss in blocks of ``rows`` rows, the last one ragged:
    the byte budget is below one row, so the floor sets the block, which is
    the loss's own floor when ``rows`` is None."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(agcn.model,
                                              "DENSE_BLOCK_BYTES", 8))
        if rows is not None:
            stack.enter_context(mock.patch.object(
                agcn.training, "_row_blocks",
                lambda n, min_rows: agcn.model._row_blocks(n, rows)))
        yield


@settings(max_examples=60)
@given(n=st.one_of(st.integers(2, 20), st.sampled_from([127, 128, 129, 300])),
       rows=st.one_of(st.none(), st.integers(1, 7)),
       degree=st.floats(0.5, 6.0), k=st.integers(1, 3),
       binary=st.booleans(), n_zero=st.integers(0, 3),
       n_unweighted=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
@example(n=127, rows=None, degree=4.0, k=2, binary=False, n_zero=1,
         n_unweighted=2, seed=1)
@example(n=128, rows=None, degree=4.0, k=2, binary=False, n_zero=1,
         n_unweighted=2, seed=2)
@example(n=300, rows=None, degree=4.0, k=2, binary=True, n_zero=1,
         n_unweighted=2, seed=3)
@example(n=9, rows=1, degree=3.0, k=2, binary=False, n_zero=1,
         n_unweighted=1, seed=4)
def test_blocked_loss_pos_matches_dense_oracle(n, rows, degree, k, binary,
                                               n_zero, n_unweighted, seed):
    # with the real floor (rows None), n=127 is below one block, 128 is one
    # block and 129 and 300 are not multiples of it; small n cover blocks of
    # one to seven rows. Some rows of u are zero, some rows store no weight
    g = random_graph(n, min(1.0, degree / n), seed=seed, d=3)
    w = g.adj if binary else khop_weights(g, k)
    w = sparse.csr_array(w * (np.arange(n) >= n_unweighted)[:, None])
    w.eliminate_zeros()
    assume(w.nnz > 0)
    h = np.random.default_rng(seed).standard_normal((n, 5))
    h[:n_zero] = 0.0
    u = _unit_rows(h)[0]
    want_value, want_grad = loss_pos_oracle(u, w)
    with _pos_blocks(rows):
        value, grad = _loss_pos_impl(u, w)
    assert value == pytest.approx(want_value, rel=1e-12, abs=1e-15)
    # an entry sums terms of order 1/n, which can cancel to a gradient of
    # ~1e-17 (a complete graph with equal weights): rounding is relative to
    # the terms, not to their sum
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 / n)


# ---------------------------------------------------------------------------
# ranking and pair sampling (an epoch's pairs as one _pair_batch chunk)
# ---------------------------------------------------------------------------

def _node_pairs(batch, i):
    """(better-ranked, worse-ranked, rank gap) neighbor triples of node i."""
    src, dst = batch.mask.src_ids, batch.mask.indices
    of_i = src[batch.plus_e] == i
    assert (src[batch.minus_e[of_i]] == i).all()
    return list(zip(dst[batch.plus_e[of_i]].tolist(),
                    dst[batch.minus_e[of_i]].tolist(),
                    batch.gap[of_i].tolist()))


def _oracle_ranking(h, i, mask):
    """Non-self neighbors of i by descending cosine similarity, ties by index."""
    nb = [j for j in neighbors(mask, i).tolist() if j != i]
    return sorted(nb, key=lambda j: (-cosine_sim(h[i], h[j]), j))


def _oracle_all_pairs(order):
    return {(order[a], order[b], b - a)
            for a in range(len(order)) for b in range(a + 1, len(order))}


def _batch(h, mask, cap=256, seed=0):
    return pair_batch(_unit_rows(h)[0], mask, cap, np.random.default_rng(seed))


def test_rank_neighbors_orders_by_similarity():
    h = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.0, 0.0]])
    g = build_graph([[0, 1], [0, 2]], h)
    batch = _batch(h, khop_mask(g, 1))
    assert _node_pairs(batch, 0) == [(1, 2, 1)]      # 1 has rank 1, 2 rank 2
    assert len(batch.plus_e) == 1 and batch.n_contrib == 1


def test_rank_neighbors_tie_prefers_lower_index():
    h = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
    g = build_graph([[0, 1], [0, 2]], h)
    batch = _batch(h, khop_mask(g, 1))
    of_0 = (batch.mask.src_ids == 0) & (batch.mask.indices != 0)
    sims = batch.entry_sims[of_0]
    assert sims[0] == sims[1]                       # bitwise-equal similarities
    assert _node_pairs(batch, 0) == [(1, 2, 1)]     # tie broken by ascending index


def test_rank_neighbors_matches_sort_oracle():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((9, 5))
    edges = [[0, j] for j in range(1, 9)]
    g = build_graph(edges, h)
    mask = khop_mask(g, 1)
    pairs = _node_pairs(_batch(h, mask), 0)
    assert len(pairs) == 28
    assert set(pairs) == _oracle_all_pairs(_oracle_ranking(h, 0, mask))


@settings(max_examples=60)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=30),
       hub=st.integers(13, 300), hub_at=st.integers(0, 30),
       data=st.data())
def test_sort_within_lists_is_lexsort(sizes, hub, hub_at, data):
    sizes.insert(hub_at, hub)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    src = np.repeat(np.arange(len(sizes)), sizes)
    nnz = len(src)
    # integer-valued keys tie often; each list's first entry plays its
    # node, whose key is -inf
    key = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=nnz,
                                      max_size=nnz)), dtype=np.float64)
    key[indptr[:-1]] = -np.inf
    padded = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        padded.append(a.size)
        return argsort(a, *args, **kwargs)

    with mock.patch.object(np, "argsort", counting):
        got = _sort_within_lists(key, indptr)
    want = np.lexsort((key, src))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert sum(padded) < 2 * nnz


def test_sample_pairs_returns_all_when_under_cap():
    h, i, mask = _tiny_ranked(3)
    pairs = _node_pairs(_batch(h, mask), i)
    assert len(pairs) == 3
    assert set(pairs) == _oracle_all_pairs(_oracle_ranking(h, i, mask))


def test_sample_pairs_two_neighbors_single_oriented_pair():
    h, i, mask = _tiny_ranked(2)
    pairs = _node_pairs(_batch(h, mask), i)
    order = _oracle_ranking(h, i, mask)
    assert pairs == [(order[0], order[1], 1)]


def test_sample_pairs_capped_distinct_reproducible():
    h, i, mask = _tiny_ranked(30)
    batch_a = _batch(h, mask, cap=10, seed=9)
    batch_b = _batch(h, mask, cap=10, seed=9)
    for name in ("plus_e", "minus_e", "gap"):
        np.testing.assert_array_equal(getattr(batch_a, name), getattr(batch_b, name))
    pairs = _node_pairs(batch_a, i)
    assert len(pairs) == 10
    assert len(set(pairs)) == 10
    assert set(pairs) <= _oracle_all_pairs(_oracle_ranking(h, i, mask))


@settings(max_examples=60)
@given(n=st.integers(2, 14), p=st.floats(0.1, 1.0), k=st.integers(1, 2),
       ties=st.booleans(), pick=st.integers(0, 13), offset=st.integers(-1, 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_batch_invariants_property(n, p, k, ties, pick, offset, seed):
    g = random_graph(n, p, seed=seed % 1000, d=3)
    rng = np.random.default_rng(seed)
    # coarse integer rows make many bitwise-equal similarities, zero rows too
    h = (rng.integers(-1, 2, size=(n, 2)).astype(np.float64) if ties
         else rng.standard_normal((n, 3)))
    mask = khop_mask(g, k)
    m = mask.list_sizes() - 1                      # non-self neighbors
    # a cap at or next to some node's pair count: lists straddle it
    cap = max(1, int(m[pick % n] * (m[pick % n] - 1) // 2) + offset)
    u = _unit_rows(h)[0]
    chunk_rng = np.random.default_rng()
    chunk_rng.bit_generator.state = rng.bit_generator.state
    batch = pair_batch(u, mask, cap, rng)
    # one node a chunk, as train draws them, the pairs come out the same
    ranking = _rank(u, mask)
    with mock.patch.object(agcn.training, "PAIR_CHUNK", 1):
        chunks = [_pair_batch(ranking, nodes, cap, chunk_rng)
                  for nodes in _node_chunks(mask, cap)]
    for name in ("plus_e", "minus_e", "gap"):
        np.testing.assert_array_equal(
            np.concatenate([getattr(c, name) for c in chunks]
                           + [np.empty(0, dtype=np.int64)]),
            getattr(batch, name))

    assert batch.mask is mask
    src, dst = mask.src_ids, mask.indices
    sims = batch.entry_sims
    np.testing.assert_array_equal(sims, pair_sims_oracle(u, u, src, dst))
    rank = np.full(len(sims), -1, dtype=np.int64)
    for i in range(n):
        entries = np.flatnonzero((src == i) & (dst != i))
        order = sorted(entries, key=lambda e: (-sims[e], dst[e]))
        rank[order] = np.arange(len(order))
    plus, minus = batch.plus_e, batch.minus_e
    # no pair references a node's own entry
    assert (src[plus] != dst[plus]).all() and (src[minus] != dst[minus]).all()
    assert (src[plus] == src[minus]).all()
    assert (batch.gap >= 1).all()
    np.testing.assert_array_equal(batch.gap, rank[minus] - rank[plus])
    # oriented by similarity, a tie going to the lower neighbor index
    tie = sims[plus] == sims[minus]
    assert ((sims[plus] > sims[minus])
            | (tie & (dst[plus] < dst[minus]))).all()
    assert len(set(zip(plus.tolist(), minus.tolist()))) == len(plus)
    np.testing.assert_array_equal(
        np.bincount(src[plus], minlength=n),
        np.minimum(m * (m - 1) // 2, cap))
    assert batch.n_contrib == int((m >= 2).sum())


def test_pair_batch_order_is_the_hinge_summation_order():
    # star centers with 4, 6, 3, 5, 7, 3 and 2 leaves against a cap of 10:
    # 6 and 7 leaves give 15 and 21 pairs, over the cap; 5 leaves give 10
    leaves = [4, 6, 3, 5, 7, 3, 2]
    firsts = np.cumsum([0] + [m + 1 for m in leaves])
    edges = [[c, c + j] for c, m in zip(firsts, leaves) for j in range(1, m + 1)]
    h = np.random.default_rng(1).standard_normal((firsts[-1], 3))
    mask = khop_mask(build_graph(edges, h), 1)
    batch = _batch(h, mask, cap=10, seed=2)

    src, dst, sims = mask.src_ids, mask.indices, batch.entry_sims
    rank = np.full(len(sims), -1, dtype=np.int64)
    for c in firsts[:-1]:
        entries = np.flatnonzero((src == c) & (dst != c))
        order = sorted(entries, key=lambda e: (-sims[e], dst[e]))
        rank[order] = np.arange(len(order))
    owner = src[batch.plus_e]
    # each node's pairs are one contiguous run
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    runs = owner[starts].tolist()
    assert len(runs) == len(set(runs))
    # under-cap nodes by list size, ties by index, then over-cap nodes by index
    by_star = dict(zip(firsts[:-1].tolist(), leaves))
    under = sorted((c for c, m in by_star.items() if m * (m - 1) // 2 <= 10),
                   key=lambda c: (by_star[c], c))
    over = sorted(c for c, m in by_star.items() if m * (m - 1) // 2 > 10)
    assert runs == under + over
    # an under-cap node's pairs are in row-major code order
    for c in under:
        of_c = owner == c
        a, b = np.triu_indices(by_star[c], k=1)
        np.testing.assert_array_equal(rank[batch.plus_e[of_c]], a)
        np.testing.assert_array_equal(rank[batch.minus_e[of_c]], b)
    assert np.bincount(owner)[over].tolist() == [10, 10]


def _tiny_ranked(n_neighbors):
    rng = np.random.default_rng(n_neighbors)
    h = rng.standard_normal((n_neighbors + 1, 4))
    edges = [[0, j] for j in range(1, n_neighbors + 1)]
    g = build_graph(edges, h)
    return h, 0, khop_mask(g, 1)


def _stars(n_stars, leaves, seed=0):
    """Unit feature rows and 1-hop mask of ``n_stars`` disjoint stars: each
    center has ``leaves`` neighbors, each leaf one."""
    size = leaves + 1
    edges = [[s * size, s * size + j]
             for s in range(n_stars) for j in range(1, size)]
    h = np.random.default_rng(seed).standard_normal((n_stars * size, 4))
    return _unit_rows(h)[0], khop_mask(build_graph(edges, h), 1)


class _CountingRng:
    """A ``np.random.Generator`` stand-in that counts ``choice`` calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.choice_calls = 0

    def choice(self, *args, **kwargs):
        self.choice_calls += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _epoch_rng(seed, epoch):
    """The per-epoch generator whose draws ``train``'s pair chunks share."""
    return np.random.default_rng(np.random.SeedSequence((seed, epoch)))


def test_pair_batch_draws_once_per_overcap_node():
    # every list fits under the cap: the generator is not read at all
    h, mask = _stars(8, 12)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    pair_batch(h, mask, 66, rng)
    assert rng.bit_generator.state == before

    for n_stars in (1, 8, 64):
        # 12 neighbors: 66 pairs per center against a cap of 4
        h, mask = _stars(n_stars, 12)
        rng = _CountingRng(n_stars)
        batch = pair_batch(h, mask, 4, rng)
        centers = np.arange(n_stars) * 13
        np.testing.assert_array_equal(
            np.bincount(mask.src_ids[batch.plus_e], minlength=len(h))[centers], 4)
        assert rng.choice_calls == n_stars


def test_sampled_pairs_are_uniform_over_streams():
    # a 6-neighbor node has 15 pairs; with cap 4 each is in a batch with
    # probability 4/15
    h, mask = _stars(1, 6)
    hits = {}
    streams = 0
    for seed in range(50):
        for epoch in range(40):
            batch = pair_batch(h, mask, 4, _epoch_rng(seed, epoch))
            pairs = set(zip(batch.plus_e.tolist(), batch.minus_e.tolist()))
            assert len(batch.plus_e) == len(pairs) == 4
            for pair in pairs:
                hits[pair] = hits.get(pair, 0) + 1
            streams += 1
    assert len(hits) == 15
    freq = np.array(list(hits.values())) / streams
    # one standard deviation of a frequency over 2000 streams is 0.0099
    np.testing.assert_allclose(freq, 4 / 15, atol=0.05)


def test_sampler_near_cap_keeps_cap_distinct_uniform_pairs():
    # 24 neighbors give 276 pairs, of which each center keeps 256
    h, mask = _stars(8, 24)
    batch = pair_batch(h, mask, 256, np.random.default_rng(5))
    owner = mask.src_ids[batch.plus_e]
    for center in np.arange(8) * 25:
        of_c = owner == center
        pairs = set(zip(batch.plus_e[of_c].tolist(), batch.minus_e[of_c].tolist()))
        assert of_c.sum() == len(pairs) == 256

    h, mask = _stars(500, 24)
    batch = pair_batch(h, mask, 256, np.random.default_rng(6))
    src, dst = mask.src_ids, mask.indices
    centers = src[batch.plus_e]
    assert (centers % 25 == 0).all() and (src[batch.minus_e] == centers).all()
    np.testing.assert_array_equal(np.bincount(centers // 25, minlength=500), 256)
    assert len(set(zip(batch.plus_e.tolist(), batch.minus_e.tolist()))) == 500 * 256
    # ranking maps a center's pair codes one to one onto its leaf pairs, so
    # each leaf pair is kept with probability 256/276 too; one standard
    # deviation of its frequency over 500 centers is 0.0116
    lo = np.minimum(dst[batch.plus_e], dst[batch.minus_e]) - centers
    hi = np.maximum(dst[batch.plus_e], dst[batch.minus_e]) - centers
    freq = np.bincount((lo - 1) * 24 + hi - 1, minlength=24 * 24) / 500
    a, b = np.triu_indices(24, k=1)
    np.testing.assert_allclose(freq[a * 24 + b], 256 / 276, atol=0.06)
    assert freq.sum() == 256


def test_decode_pairs_matches_row_major_enumeration():
    for m in range(2, 40):
        a, b = np.triu_indices(m, k=1)
        got = _decode_pairs(np.arange(len(a)), np.full(len(a), m))
        np.testing.assert_array_equal(got[0], a)
        np.testing.assert_array_equal(got[1], b)
    # long lists, where sqrt rounding needs the integer fix-up: row a ends
    # at the cumulative row length, as the per-list search found it
    m = 300_000
    ends = np.cumsum(np.arange(m - 1, 0, -1))
    codes = np.concatenate([np.arange(5), ends[:5], ends[:5] - 1,
                            ends[-5:] - 1,
                            np.random.default_rng(0).integers(0, ends[-1], 1000)])
    a = np.searchsorted(ends, codes, side="right")
    b = a + 1 + codes - np.where(a > 0, ends[a - 1], 0)
    got = _decode_pairs(codes, np.full(len(codes), m))
    np.testing.assert_array_equal(got[0], a)
    np.testing.assert_array_equal(got[1], b)


def test_pair_batch_is_a_function_of_seed_and_epoch():
    h, mask = _stars(3, 10)
    first = pair_batch(h, mask, 8, _epoch_rng(4, 2))
    again = pair_batch(h, mask, 8, _epoch_rng(4, 2))
    other = pair_batch(h, mask, 8, _epoch_rng(4, 3))
    for name in ("plus_e", "minus_e", "gap"):
        np.testing.assert_array_equal(getattr(first, name), getattr(again, name))
    assert not np.array_equal(first.plus_e, other.plus_e)


# ---------------------------------------------------------------------------
# negative loss
# ---------------------------------------------------------------------------

def _neg(h, mask, cfg):
    """The hinge on the pairs training would sample at ``h`` with cfg.seed."""
    batch = _batch(h, mask, cfg.pair_cap, cfg.seed)
    return _loss_neg(_unit_rows(h)[0], [batch], cfg.gamma)[0]


def test_loss_neg_single_pair_equal_sims_equals_margin():
    # path 0-1-2: only the middle node has two neighbors; make both ends
    # equally similar to it so the hinge reduces to the margin
    h = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    g = build_graph([[0, 1], [1, 2]], h)
    cfg = TrainingConfig(gamma=1e-4, pair_cap=256, epochs=1)
    val = _neg(h, khop_mask(g, 1), cfg)
    assert val == pytest.approx(1e-4, rel=1e-12)


def test_loss_neg_hinge_inactive():
    assert max(0.0, math.exp(-1) - math.exp(1) + 1e-4) == 0.0
    h = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    g = build_graph([[0, 1], [0, 2]], h)
    cfg = TrainingConfig(gamma=1e-4, pair_cap=256, epochs=1)
    # node 0: plus=1 (sim 1), minus=2 (sim -1) -> hinge is inactive
    val = _neg(h, khop_mask(g, 1), cfg)
    assert val == 0.0


def test_loss_neg_matches_exhaustive_oracle():
    g = random_graph(6, 0.6, seed=7, d=4)
    rng = np.random.default_rng(17)
    h = rng.standard_normal((6, 4))
    mask = khop_mask(g, 2)
    cfg = TrainingConfig(gamma=1e-4, pair_cap=10 ** 9, epochs=1)
    got = _neg(h, mask, cfg)

    total, contrib = 0.0, 0
    for i in range(6):
        nb = [j for j in neighbors(mask, i).tolist() if j != i]
        if len(nb) < 2:
            continue
        contrib += 1
        sims = {j: cosine_sim(h[i], h[j]) for j in nb}
        order = sorted(nb, key=lambda j: (-sims[j], j))
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                eta = cfg.gamma * (b - a)
                total += max(0.0, math.exp(sims[order[b]])
                             - math.exp(sims[order[a]]) + eta)
    assert got == pytest.approx(total / contrib, rel=1e-10)


def test_loss_neg_nonnegative_and_zero_without_pairs():
    g = build_graph([[0, 1]], np.ones((2, 2)))
    cfg = TrainingConfig(epochs=1)
    assert _neg(np.ones((2, 2)), khop_mask(g, 1), cfg) == 0.0


# ---------------------------------------------------------------------------
# total loss (the training objective)
# ---------------------------------------------------------------------------

def test_total_loss_lambda_zero_is_exactly_neg():
    g = random_graph(7, 0.5, seed=3, d=3)
    h = np.random.default_rng(3).standard_normal((7, 3))
    batch = _batch(h, khop_mask(g, 2))
    cfg = TrainingConfig(lam=0.0, gamma=0.5, epochs=1)   # active hinges
    w = khop_weights(g, 2)
    u, norms = _unit_rows(h)
    l_neg_alone, d_neg = _loss_neg(u, [batch], cfg.gamma)
    l_pos, l_neg, l_total, _ = _objective(u, norms, [batch], w, cfg)
    assert math.isnan(l_pos) and l_neg > 0
    assert l_total == l_neg == l_neg_alone
    # the positive term is skipped, not evaluated: no weights are needed
    _, _, _, d_emb = _objective(u, norms, [batch], None, cfg)
    np.testing.assert_array_equal(d_emb, _unit_rows_backward(u, norms, d_neg))


def test_total_loss_weighted_sum():
    g = random_graph(7, 0.5, seed=4, d=3)
    h = np.random.default_rng(4).standard_normal((7, 3))
    batch = _batch(h, khop_mask(g, 2))
    w = khop_weights(g, 2)
    cfg = TrainingConfig(lam=1e-2, gamma=0.5, epochs=1)  # active hinges
    u, norms = _unit_rows(h)
    l_neg_alone, d_neg = _loss_neg(u, [batch], cfg.gamma)
    d_pos = _loss_pos_impl(u, w)[1]
    l_pos, l_neg, l_total, d_emb = _objective(u, norms, [batch], w, cfg)
    assert l_pos == _pos(h, w)
    assert l_neg > 0 and l_neg == l_neg_alone
    assert l_total == pytest.approx(l_neg + 1e-2 * l_pos, rel=1e-14)
    expect = _unit_rows_backward(u, norms, d_neg + 1e-2 * d_pos)
    np.testing.assert_allclose(d_emb, expect, rtol=1e-14, atol=1e-17)
    # use_neg=False drops the hinge from the value and the gradient, and
    # reads no pairs
    off = TrainingConfig(lam=1e-2, gamma=0.5, epochs=1, use_neg=False)
    l_pos, l_neg, l_total, _ = _objective(u, norms, None, w, off)
    assert l_neg == 0.0 and l_total == 1e-2 * l_pos


def test_losses_invariant_under_positive_scaling():
    g = random_graph(8, 0.5, seed=6, d=4)
    h = np.random.default_rng(6).standard_normal((8, 4))
    mask = khop_mask(g, 2)
    w = khop_weights(g, 2)
    cfg = TrainingConfig(epochs=1)
    assert _pos(3.7 * h, w) == pytest.approx(_pos(h, w), rel=1e-9)
    assert _neg(3.7 * h, mask, cfg) == pytest.approx(
        _neg(h, mask, cfg), rel=1e-9)


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def _fd_grads(loss_fn, params, step=1e-5):
    grads = []
    for name, arr in params.tensors():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = loss_fn()
            arr[idx] = orig - step
            f_minus = loss_fn()
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * step)
        grads.append((name, g))
    return grads


def _gradcheck_setup(g, cfg, seed):
    """Mask, parameters, forward tape and frozen pairs of one gradient case."""
    mask = khop_mask(g, cfg.k)
    params = init_params(cfg.dims_for(g.feature_dim), seed)
    emb, h_last, tapes = _forward_tape(g.features, mask, params, mode=cfg.mode)
    batch = _batch(emb, mask, cfg.pair_cap, cfg.seed)
    return mask, params, emb, h_last, tapes, batch


def _hinges(batch, gamma):
    """Per-pair hinge arguments; a pair's hinge is active where this is > 0."""
    return (np.exp(batch.entry_sims[batch.minus_e])
            - np.exp(batch.entry_sims[batch.plus_e]) + gamma * batch.gap)


def _gradcheck_case(g, cfg, seed, min_hinge_margin=1e-3):
    """Return True if the case is usable (no hinge sitting on its kink) and,
    if so, assert analytic == finite differences."""
    mask, params, emb, h_last, tapes, batch = _gradcheck_setup(g, cfg, seed)
    weights = khop_weights(g, cfg.k) if cfg.lam != 0 else None

    if cfg.use_neg and batch.n_contrib:
        if np.abs(_hinges(batch, cfg.gamma)).min() < min_hinge_margin:
            return False

    def frozen_loss():
        e, _, _ = _forward_tape(g.features, mask, params, mode=cfg.mode)
        u, norms = _unit_rows(e)
        return _objective(u, norms, [reanchor(batch, u)], weights, cfg)[2]

    analytic, *_ = grads_from_tape(params, tapes, h_last, *_unit_rows(emb),
                                   cfg, weights, batch)
    numeric = _fd_grads(frozen_loss, params)
    for (name, a), (_, f) in zip(analytic.tensors(), numeric):
        np.testing.assert_allclose(
            a, f, rtol=1e-4, atol=1e-8,
            err_msg=f"gradient mismatch in {name}")
    return True


def _cfg_grid():
    cases = []
    for layers in (1, 2):
        for heads in (1, 2):
            cases.append(TrainingConfig(
                k=2, lam=1e-2, layers=layers, heads=heads,
                d_q=4, d_v=4, d_out=3, epochs=1, pair_cap=64))
    cases.append(TrainingConfig(k=1, lam=0.0, layers=1, heads=2,
                                d_q=4, d_v=4, d_out=3, epochs=1))
    cases.append(TrainingConfig(k=2, lam=0.5, layers=2, heads=2, d_q=4,
                                d_v=4, d_out=3, epochs=1, use_neg=False))
    cases.append(TrainingConfig(k=2, lam=1e-2, layers=2, heads=2, d_q=4,
                                d_v=4, d_out=3, epochs=1, mode="vanilla"))
    # at the default gamma every hinge that clears the kink margin is
    # inactive; a wide margin puts active hinges into the check
    cases.append(TrainingConfig(k=2, lam=1e-2, layers=2, heads=2, d_q=4,
                                d_v=4, d_out=3, epochs=1, pair_cap=64,
                                gamma=0.5))
    return cases


@pytest.mark.parametrize("case_idx", range(len(_cfg_grid())))
def test_gradients_match_finite_differences(case_idx):
    cfg = _cfg_grid()[case_idx]
    rng = np.random.default_rng(100 + case_idx)
    checked = 0
    attempts = 0
    while checked < 2 and attempts < 20:
        seed = int(rng.integers(0, 10 ** 6))
        n = int(rng.integers(6, 13))
        g = random_graph(n, 0.45, seed=seed, d=4)
        if g.n_edges < 3:
            attempts += 1
            continue
        if _gradcheck_case(g, cfg, seed):
            checked += 1
        attempts += 1
    assert checked >= 2, "could not find usable gradient-check instances"


def test_gradient_lambda_zero_positive_term_contributes_nothing():
    g = random_graph(8, 0.5, seed=15, d=4)
    cfg0 = TrainingConfig(k=2, lam=0.0, layers=1, heads=2, d_q=4, d_v=4,
                          d_out=3, epochs=1, use_neg=False)
    mask = khop_mask(g, cfg0.k)
    params = init_params(cfg0.dims_for(4), 15)
    emb, h_last, tapes = _forward_tape(g.features, mask, params)
    batch = _batch(emb, mask, cfg0.pair_cap, cfg0.seed)
    # no weights: at lambda 0 the positive term is never evaluated
    grads, l_pos, l_neg, l_total = grads_from_tape(
        params, tapes, h_last, *_unit_rows(emb), cfg0, None, batch)
    assert math.isnan(l_pos) and l_neg == l_total == 0.0
    for _, tensor in grads.tensors():
        np.testing.assert_allclose(tensor, 0.0, atol=1e-15)


def test_objective_gradient_with_a_zero_embedding_row():
    # a zero row has cosine 0 with every row whatever the others do: its own
    # gradient is exactly 0, and it adds nothing to any other row's
    g = random_graph(9, 0.5, seed=8, d=3)
    emb = np.random.default_rng(8).standard_normal((9, 3))
    emb[4] = 0.0
    mask, w = khop_mask(g, 2), khop_weights(g, 2)
    cfg = TrainingConfig(k=2, lam=1e-2, gamma=0.5, epochs=1)   # active hinges
    batch = _batch(emb, mask, cfg.pair_cap, cfg.seed)
    assert (_hinges(batch, cfg.gamma) > 1e-3).any()
    assert np.abs(_hinges(batch, cfg.gamma)).min() > 1e-3     # off the kink
    d_emb = _objective(*_unit_rows(emb), [batch], w, cfg)[3]
    assert (d_emb[4] == 0.0).all()

    step = 1e-6
    numeric = np.zeros_like(emb)
    for i in np.flatnonzero(np.arange(9) != 4):
        for j in range(3):
            vals = []
            for sign in (1.0, -1.0):
                e = emb.copy()
                e[i, j] += sign * step
                u, norms = _unit_rows(e)
                vals.append(
                    _objective(u, norms, [reanchor(batch, u)], w, cfg)[2])
            numeric[i, j] = (vals[0] - vals[1]) / (2.0 * step)
    np.testing.assert_allclose(d_emb, numeric, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _zeros_like(params):
    """Parameters of the same shapes, every entry zero."""
    return ModelParams(params.dims, np.zeros_like(params.flat))


def test_adam_first_step_magnitude_close_to_lr():
    params = init_params(Dims(d=2, d_q=2, d_v=2, heads=1,
                              layers=1, d_out=2), seed=0)
    grads = _zeros_like(params)
    grads.layers[0].wq[:] = 3.0
    state = init_adam_state(params)
    new, _ = adam_step(params, grads, state, lr=0.01)
    delta = params.layers[0].wq - new.layers[0].wq
    np.testing.assert_allclose(delta, 0.01, rtol=1e-6)


def test_adam_zero_gradient_keeps_params():
    params = init_params(Dims(d=2, d_q=2, d_v=2, heads=1,
                              layers=1, d_out=2), seed=1)
    state = init_adam_state(params)
    new, _ = adam_step(params, _zeros_like(params), state, lr=0.5)
    for (_, a), (_, b) in zip(params.tensors(), new.tensors()):
        np.testing.assert_array_equal(a, b)


def test_adam_three_steps_match_scalar_simulation():
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.1
    x = 2.0
    m = v = 0.0
    trace = []
    for t in range(1, 4):
        grad = 2.0 * x                      # d/dx of x^2
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad ** 2
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x = x - lr * mhat / (math.sqrt(vhat) + eps)
        trace.append(x)

    # a one-unit model: every tensor 1x1 at 2.0, each following the scalar
    dims = Dims(d=1, d_q=1, d_v=1, heads=1, layers=1, d_out=1)
    params = ModelParams(dims, np.full(6, 2.0))
    state = init_adam_state(params)
    got = []
    for _ in range(3):
        grads = ModelParams(dims, 2.0 * params.flat)
        params, state = adam_step(params, grads, state, lr)
        got.append([float(a[0, 0]) for _, a in params.tensors()])
    np.testing.assert_allclose(got, [[x] * 6 for x in trace], rtol=1e-12)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_history_shape_and_finiteness():
    g = build_graph([[0, 1]], np.array([[1.0, 0.0], [0.0, 1.0]]))
    cfg = TrainingConfig(k=1, lam=1e-2, epochs=5, layers=1, heads=1,
                         d_q=2, d_v=2, d_out=2)
    _, history = train(g, cfg)
    assert history.shape == (5, 3)
    assert np.isfinite(history[:, 1]).all()
    assert np.isfinite(history[:, 2]).all()


def test_train_lambda_zero_total_equals_neg():
    g = random_graph(8, 0.5, seed=20, d=3)
    cfg = TrainingConfig(k=2, lam=0.0, epochs=4, layers=1, heads=1,
                         d_q=2, d_v=2, d_out=2)
    _, history = train(g, cfg)
    np.testing.assert_array_equal(history[:, 2], history[:, 1])
    assert np.isnan(history[:, 0]).all()


def test_train_deterministic_bitwise():
    g = random_graph(9, 0.4, seed=21, d=3)
    cfg = TrainingConfig(k=2, lam=1e-2, epochs=3, layers=2, heads=2,
                         d_q=4, d_v=4, d_out=3, seed=7)
    p1, h1 = train(g, cfg)
    p2, h2 = train(g, cfg)
    np.testing.assert_array_equal(h1, h2)
    for (_, a), (_, b) in zip(p1.tensors(), p2.tensors()):
        np.testing.assert_array_equal(a, b)


def test_train_normalizes_embeddings_once_per_epoch(monkeypatch):
    calls = []
    unit_rows = agcn.training._unit_rows

    def counting(h):
        calls.append(h.shape)
        return unit_rows(h)

    monkeypatch.setattr(agcn.training, "_unit_rows", counting)
    g = random_graph(9, 0.5, seed=22, d=3)
    cfg = TrainingConfig(k=2, epochs=3, layers=1, heads=1, d_q=2, d_v=2,
                         d_out=2)
    train(g, cfg)
    # the pair sampler and the objective share each epoch's unit rows
    assert len(calls) == cfg.epochs


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_mask_entries_are_gathered_once_per_pass_for_all_heads(monkeypatch,
                                                               heads):
    calls = []
    entry_dots = KHopMask.entry_dots

    def counting(mask, a, b):
        calls.append(a.shape)
        return entry_dots(mask, a, b)

    monkeypatch.setattr(KHopMask, "entry_dots", counting)
    g = random_graph(10, 0.5, seed=25, d=3)
    cfg = TrainingConfig(k=2, epochs=1, layers=2, heads=heads, d_q=8, d_v=8,
                         d_out=3)
    train(g, cfg)
    # per layer the scores and their gradient, then the pair similarities
    assert len(calls) == 2 * cfg.layers + 1
    assert calls[0] == (g.n_nodes, heads, cfg.d_q // heads)


def test_train_without_hinge_builds_no_pairs(monkeypatch):
    g = random_graph(10, 0.5, seed=23, d=3)
    cfg = TrainingConfig(k=2, lam=0.5, epochs=4, layers=1, heads=2, d_q=4,
                         d_v=4, d_out=3, seed=5, use_neg=False)
    # the loop as it was when every epoch built its pairs and discarded them
    mask, weights = khop_mask(g, cfg.k), khop_weights(g, cfg.k)
    params = init_params(cfg.dims_for(g.feature_dim), cfg.seed)
    state = init_adam_state(params)
    expect = []
    for epoch in range(cfg.epochs):
        emb, h_last, tapes = _forward_tape(g.features, mask, params)
        u, norms = _unit_rows(emb)
        batch = pair_batch(u, mask, cfg.pair_cap, _epoch_rng(cfg.seed, epoch))
        grads, *losses = grads_from_tape(params, tapes, h_last, u, norms,
                                         cfg, weights, batch)
        expect.append(losses)
        params, state = adam_step(params, grads, state, cfg.lr)

    def no_pairs(*args):
        raise AssertionError("pairs built while the hinge is off")

    monkeypatch.setattr(agcn.training, "_rank", no_pairs)
    monkeypatch.setattr(agcn.training, "_pair_batch", no_pairs)
    _, history = train(g, cfg)
    np.testing.assert_array_equal(history, expect)


@settings(max_examples=80)
@given(n=st.integers(1, 40), p=st.floats(0.0, 1.0), k=st.integers(1, 2),
       cap=st.integers(1, 80), pair_chunk=st.sampled_from([1, 7, 2 ** 14]),
       seed=st.integers(0, 2 ** 16))
def test_node_chunks_cut_the_summation_order_property(n, p, k, cap,
                                                      pair_chunk, seed):
    mask = khop_mask(random_graph(n, p, seed), k)
    with mock.patch.object(agcn.training, "PAIR_CHUNK", pair_chunk):
        chunks = _node_chunks(mask, cap)
    # the summation order as hinge_oracle states it: under-cap nodes by
    # list size, ties by index, then over-cap nodes by index
    sizes = mask.list_sizes() - 1
    totals = sizes * (sizes - 1) // 2
    small = np.flatnonzero((sizes >= 2) & (totals <= cap))
    small = small[np.argsort(sizes[small], kind="stable")]
    order = np.concatenate([small, np.flatnonzero(totals > cap)])
    assert all(len(nodes) >= 1 for nodes in chunks)
    np.testing.assert_array_equal(
        np.concatenate([np.empty(0, dtype=np.int64), *chunks]), order)
    # a chunk holds the nodes whose first pair falls in one run of
    # PAIR_CHUNK pairs, and the runs increase from chunk to chunk
    counts = np.minimum(totals, cap)
    firsts = dict(zip(order.tolist(),
                      (np.cumsum(counts[order]) - counts[order]).tolist()))
    runs = []
    for nodes in chunks:
        assert counts[nodes].sum() < pair_chunk + cap
        (run,) = {firsts[i] // pair_chunk for i in nodes.tolist()}
        runs.append(run)
    assert runs == sorted(set(runs))


@pytest.mark.parametrize("use_neg", [True, False])
def test_pair_chunks_change_no_bit(monkeypatch, use_neg):
    # k=2 lists of up to 28 non-self neighbors against a cap of 60: 45
    # nodes take all their pairs and 49 draw 60. A chunk of one node and
    # one chunk of every node train to the same bits as the hinge of one
    # batch of every pair
    g = _sbm_of_degree(96, degree=3)
    cfg = TrainingConfig(epochs=3, layers=1, heads=2, d_q=4, d_v=4, d_out=4,
                         pair_cap=60, gamma=0.05, seed=2, use_neg=use_neg)
    mask = khop_mask(g, cfg.k)
    m = mask.list_sizes() - 1
    totals = m * (m - 1) // 2
    assert (totals > cfg.pair_cap).sum() >= 10
    assert ((m >= 2) & (totals <= cfg.pair_cap)).sum() >= 10
    if not use_neg:
        def no_pairs(*args):
            raise AssertionError("pairs built while the hinge is off")

        monkeypatch.setattr(agcn.training, "_rank", no_pairs)
    want_params, want_history = train_oracle(g, cfg)
    # the hinge has active pairs in every epoch
    assert (want_history[:, 1] > 0).all() == use_neg
    for pair_chunk, n_chunks in ((1, int((m >= 2).sum())), (10 ** 12, 1)):
        monkeypatch.setattr(agcn.training, "PAIR_CHUNK", pair_chunk)
        assert len(_node_chunks(mask, cfg.pair_cap)) == n_chunks
        params, history = train(g, cfg)
        assert history.tobytes() == want_history.tobytes()
        assert params.flat.tobytes() == want_params.flat.tobytes()


def test_train_numeric_failure_names_its_epoch():
    # epoch 0 is finite; its Adam step moves every parameter by ~lr, so
    # epoch 1's forward pass overflows, and its error names the epoch too
    g = random_graph(8, 0.5, seed=24, d=3)
    cfg = TrainingConfig(k=2, epochs=3, layers=1, heads=1, d_q=2, d_v=2,
                         d_out=2, lr=1e300)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
        train(g, cfg)
    assert str(err.value).startswith("epoch 1: non-finite output"), err.value


def test_train_names_the_first_non_finite_gradient(monkeypatch):
    epochs = []
    backward = agcn.training._model_backward

    def poisoned(*args):
        grads = backward(*args)
        if len(epochs) == 1:
            # the final projection comes after layer 1 in the layout
            grads.final_proj[0, 0] = np.inf
            grads.layers[1].wv[1, 0] = np.nan
        epochs.append(len(epochs))
        return grads

    monkeypatch.setattr(agcn.training, "_model_backward", poisoned)
    g = random_graph(8, 0.5, seed=24, d=3)
    cfg = TrainingConfig(k=2, epochs=3, layers=2, heads=1, d_q=2, d_v=2,
                         d_out=2)
    with pytest.raises(NumericError) as err:
        train(g, cfg)
    assert str(err.value) == "epoch 1: non-finite gradient in layers.1.wv"
    assert epochs == [0, 1]


def test_heterophilic_structure_recovered_at_two_hops():
    # cross-block edges dominate and features are pure noise: one-hop
    # positive weights pull the wrong pairs together, while two-hop walks
    # land back inside the block and recover it
    from agcn.datagen import SBMSpec, gen_sbm
    from agcn.model import forward
    from agcn.clustering import evaluate

    g = gen_sbm(SBMSpec(block_sizes=(20, 20), p_in=0.02, p_out=0.4,
                        feature_dim=6, mean_scale=0.0, noise_scale=1.0,
                        seed=0))
    accs = {}
    for k in (1, 2):
        cfg = TrainingConfig(k=k, lam=1.0, epochs=200, layers=2, heads=4,
                             d_q=16, d_v=16, d_out=8, seed=0)
        params, _ = train(g, cfg)
        emb = forward(g, khop_mask(g, k), params)
        accs[k] = evaluate(emb, 2, g.labels, seeds=range(5), restarts=5).acc
    assert accs[2] >= 0.9
    assert accs[1] <= 0.75


@pytest.mark.parametrize("field, value, wanted", [
    ("k", 2.5, "an integer"),
    ("epochs", 2.0, "an integer"),
    ("heads", 1.0, "an integer"),
    ("pair_cap", 2.5, "an integer"),
    ("seed", True, "an integer"),
    ("use_neg", "no", "a bool"),
    ("use_neg", 1, "a bool"),
    ("lam", True, "a real number"),
    ("gamma", "1e-4", "a real number"),
    ("mode", 1, "a string"),
])
def test_config_rejects_value_of_wrong_type(field, value, wanted):
    # the type is checked before any bound, so no comparison raises a
    # TypeError and no truthy string turns the hinge on
    with pytest.raises(ConfigError, match=f"^{field} must be {wanted}, not "):
        TrainingConfig(**{field: value})


def test_config_takes_numpy_numbers():
    cfg = TrainingConfig(k=np.int64(2), epochs=np.int32(3), lam=np.float32(0.5),
                         gamma=1, pair_cap=np.uint8(4))
    assert (cfg.k, cfg.epochs, cfg.pair_cap) == (2, 3, 4)


def test_config_is_frozen_after_its_checks():
    # a field checked once when built cannot be changed past the check
    cfg = TrainingConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k = 0
    assert dataclasses.replace(cfg, k=3).k == 3
    with pytest.raises(ConfigError, match="k must be >= 1"):
        dataclasses.replace(cfg, k=0)


def test_train_rejects_bad_config():
    with pytest.raises(ConfigError):
        TrainingConfig(k=0)
    with pytest.raises(ConfigError):
        TrainingConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        TrainingConfig(mode="other")
    # every setting, the layer settings by Dims' rules, is checked before any
    # graph is read
    for bad, message in (({"epochs": 0}, "epochs must be >= 1"),
                         ({"pair_cap": 0}, "pair_cap must be >= 1"),
                         ({"restarts": 0}, "restarts must be >= 1"),
                         ({"d_q": 6, "heads": 4}, "not divisible by heads"),
                         ({"d_v": 0}, "d_v must be >= 1")):
        with pytest.raises(ConfigError, match=message):
            TrainingConfig(**bad)
    # NaN passes no ordering test, and infinity passes a lower bound
    for bad in ({"lr": math.nan}, {"gamma": math.inf}, {"lam": math.nan},
                {"lam": math.inf}):
        with pytest.raises(ConfigError, match="must be finite"):
            TrainingConfig(**bad)
