"""Graph container, normalization matrices, k-hop reachability and label diagnostics.

Graphs are undirected and unweighted: a symmetric boolean adjacency in CSR
form (no stored self-loops), a dense float feature matrix, and optional
integer labels. All structures are treated as immutable after construction.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import shortest_path as _sp_shortest_path

from .errors import ConfigError, DimensionError, ParseError

__all__ = [
    "Graph",
    "KHopMask",
    "build_graph",
    "load_graph",
    "normalized_adjacency",
    "khop_mask",
    "khop_weights",
    "shortest_path_histogram",
]


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and optional cluster labels."""

    n_nodes: int
    adj: sparse.csr_array          # symmetric, 0/1 float64, zero diagonal
    features: np.ndarray           # (n_nodes, d) float64
    labels: np.ndarray | None = None
    n_clusters: int | None = None

    def __post_init__(self):
        if self.features.shape[0] != self.n_nodes:
            raise DimensionError(
                f"feature rows ({self.features.shape[0]}) != n_nodes ({self.n_nodes})"
            )
        if self.labels is not None:
            if len(self.labels) != self.n_nodes:
                raise DimensionError(
                    f"label count ({len(self.labels)}) != n_nodes ({self.n_nodes})"
                )
            if self.n_clusters is None:
                object.__setattr__(self, "n_clusters", int(self.labels.max()) + 1)
            if self.labels.min() < 0 or self.labels.max() >= self.n_clusters:
                raise ConfigError("labels must lie in [0, n_clusters)")

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.adj.nnz // 2

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def fingerprint(self) -> str:
        """Content hash over structure, features and labels (sha256 hex)."""
        h = hashlib.sha256()
        h.update(np.int64(self.n_nodes).tobytes())
        h.update(np.ascontiguousarray(self.adj.indptr, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.adj.indices, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.features, dtype=np.float64).tobytes())
        if self.labels is not None:
            h.update(np.ascontiguousarray(self.labels, dtype=np.int64).tobytes())
        return h.hexdigest()


def build_graph(edges: np.ndarray, features: np.ndarray,
                labels: np.ndarray | None = None) -> Graph:
    """Assemble a Graph from an (m, 2) edge index array.

    Edges are symmetrized and deduplicated; self-loops are dropped.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    n = features.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        bad = int(edges.max()) if edges.max() >= n else int(edges.min())
        raise ParseError(f"edge endpoint {bad} outside [0, {n})")
    keep = edges[:, 0] != edges[:, 1]
    edges = edges[keep]
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    data = np.ones(len(rows), dtype=np.float64)
    adj = sparse.csr_array((data, (rows, cols)), shape=(n, n))
    adj.data[:] = 1.0  # collapse duplicates introduced by coo summation
    adj.sort_indices()
    lab = None
    if labels is not None:
        lab = np.asarray(labels, dtype=np.int64)
    return Graph(n_nodes=n, adj=adj, features=features, labels=lab)


def load_graph(edge_path, feature_path, label_path=None) -> Graph:
    """Load a graph from an edge list, a features CSV and optional labels.

    The edge file holds one integer pair per line (whitespace or comma
    separated); the feature file is CSV with one row per node; the label
    file holds one integer per line. Node count is set by the feature file.
    """
    features = _read_features(feature_path)
    n = features.shape[0]
    edges = _read_edges(edge_path, n)
    labels = None
    if label_path is not None:
        labels = _read_labels(label_path)
        if len(labels) != n:
            raise DimensionError(
                f"label file has {len(labels)} rows but feature file has {n}"
            )
    return build_graph(edges, features, labels)


def _read_features(path) -> np.ndarray:
    # opened here, not by numpy, so that a missing file raises an OSError
    # carrying its filename
    with open(path) as fh:
        try:
            feats = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ParseError(f"bad feature row: {exc}", path=path) from exc
    if feats.size == 0:
        raise ParseError("empty feature file", path=path)
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise ParseError("non-finite feature value", path=path,
                         line=_data_line(path, int(bad.argmax())))
    return feats


def _data_line(path, row: int) -> int | None:
    """1-based line number of the ``row``-th row ``np.loadtxt`` read from
    ``path`` (it skips blank lines and ``#`` comments)."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.split("#", 1)[0].strip():
                if row == 0:
                    return lineno
                row -= 1
    return None


def _read_edges(path, n_nodes: int) -> np.ndarray:
    pairs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.replace(",", " ").strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(
                    f"expected two integers, got {len(parts)} fields",
                    path=path, line=lineno,
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(
                    f"non-integer edge endpoint {parts!r}", path=path, line=lineno
                ) from exc
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                bad = u if not (0 <= u < n_nodes) else v
                raise ParseError(
                    f"node index {bad} out of range [0, {n_nodes})",
                    path=path, line=lineno,
                )
            pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _read_labels(path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError as exc:
                raise ParseError(
                    f"non-integer label {line!r}", path=path, line=lineno
                ) from exc
            if values[-1] < 0:
                raise ParseError(f"negative label {line!r}", path=path,
                                 line=lineno)
    return np.asarray(values, dtype=np.int64)


@contextmanager
def _atomic_open(path, mode="w"):
    """Open ``path`` for writing so that it appears whole or not at all.

    The block writes to a temporary file beside ``path``, which replaces
    ``path`` only when the block ends without an exception; otherwise the
    temporary file is removed and an earlier ``path`` stays as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def normalized_adjacency(g: Graph, with_self_loops: bool = False) -> sparse.csr_array:
    """Return D^{-1/2} A D^{-1/2}, optionally with self-loops folded into A and D.

    Isolated nodes (degree zero, no self-loops) keep an all-zero row.
    """
    if g.n_nodes == 0:
        raise ConfigError("graph has no nodes")
    a = g.adj
    if with_self_loops:
        a = (a + sparse.eye_array(g.n_nodes, format="csr")).tocsr()
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    mat = a.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :]).tocsr()
    mat.sort_indices()
    return mat


# entries per gather block in KHopMask.entry_dots: two (chunk, d) row blocks
# stay in cache, where one gather of every entry would not
ENTRY_CHUNK = 2048


@dataclass(frozen=True)
class KHopMask:
    """Boolean <=k-hop reachability, stored as per-node sorted neighbor lists.

    Every node reaches itself. Lists are CSR-style: the neighbors of node i
    are ``indices[indptr[i]:indptr[i+1]]``, sorted ascending.
    """

    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    _src: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def total_nnz(self) -> int:
        return int(self.indptr[-1])

    def list_sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def src_ids(self) -> np.ndarray:
        """Row id of every stored entry (cached)."""
        if self._src is None:
            src = np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.list_sizes())
            object.__setattr__(self, "_src", src)
        return self._src

    def entry_dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a[i] . b[j]`` for every stored entry (i, j), in storage order,
        gathering ``ENTRY_CHUNK`` entries at a time."""
        src, dst = self.src_ids(), self.indices
        dots = np.empty(self.total_nnz)
        for s in range(0, self.total_nnz, ENTRY_CHUNK):
            e = slice(s, s + ENTRY_CHUNK)
            np.einsum("ij,ij->i", a[src[e]], b[dst[e]], out=dots[e])
        return dots

    def pattern(self, data: np.ndarray) -> sparse.csr_array:
        """CSR array sharing this mask's sparsity pattern with given data."""
        return sparse.csr_array(
            (data, self.indices, self.indptr), shape=(self.n_nodes, self.n_nodes)
        )

    def subsample(self, max_neighbors: int, seed: int) -> "KHopMask":
        """Cap every list at ``max_neighbors`` by seeded uniform subsampling.

        Every entry draws one random 32-bit key (equal keys rank by index),
        the node itself ranking first, and each list keeps its
        ``max_neighbors`` lowest-ranked entries, still in index order. The
        result is generally not
        symmetric, which only affects attention gathering, never losses.
        """
        if max_neighbors < 1:
            raise ConfigError("max_neighbors must be >= 1")
        src = self.src_ids()
        key = np.random.default_rng(seed).integers(1, 2 ** 32, self.total_nnz)
        key[src == self.indices] = 0
        # one sort by (row, key); rows keep their slots, so an entry's rank
        # is its sorted slot minus its row's start
        order = np.argsort((src << 32) | key, kind="stable")
        rank = np.empty(self.total_nnz, dtype=np.int64)
        rank[order] = np.arange(self.total_nnz) - self.indptr[src]
        keep = rank < max_neighbors
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[keep], minlength=self.n_nodes), out=indptr[1:])
        return KHopMask(n_nodes=self.n_nodes, indptr=indptr,
                        indices=self.indices[keep])


def khop_mask(g: Graph, k: int) -> KHopMask:
    """Boolean reachability within k hops, self included: (A + I)^k > 0."""
    if k < 1:
        raise ConfigError(f"hop order k must be >= 1, got {k}")
    n = g.n_nodes
    step = (g.adj + sparse.eye_array(n, format="csr")).tocsr()
    step.data[:] = 1.0
    reach = step.copy()
    for _ in range(k - 1):
        reach = reach @ step
        reach.data[:] = 1.0
    reach = reach.tocsr()
    reach.sort_indices()
    return KHopMask(
        n_nodes=n,
        indptr=reach.indptr.astype(np.int64),
        indices=reach.indices.astype(np.int64),
    )


def khop_weights(g: Graph, k: int) -> sparse.csr_array:
    """k-th power of the self-loop-free normalized adjacency, diagonal zeroed.

    These are the real-valued positive-pair weights; entries are nonnegative
    and, by the spectral bound, never exceed one.
    """
    if k < 1:
        raise ConfigError(f"hop order k must be >= 1, got {k}")
    base = normalized_adjacency(g, with_self_loops=False)
    w = base.copy()
    for _ in range(k - 1):
        w = (w @ base).tocsr()
    w = sparse.csr_array(w)
    w.setdiag(0.0)
    w.eliminate_zeros()
    w.sort_indices()
    return w


def shortest_path_histogram(g: Graph) -> dict:
    """Tally shortest-path distance for every unordered same-label node pair.

    Unreachable pairs land in the ``math.inf`` bucket. Keys are ints (plus
    possibly ``math.inf``), inserted in ascending order.
    """
    if g.labels is None:
        raise ConfigError("shortest_path_histogram requires node labels")
    dists = [np.empty(0)]
    for lab in np.unique(g.labels):
        members = np.flatnonzero(g.labels == lab)
        if len(members) < 2:
            continue
        dist = _sp_shortest_path(g.adj, method="D", unweighted=True,
                                 directed=False, indices=members)
        iu, ju = np.triu_indices(len(members), k=1)
        dists.append(dist[:, members][iu, ju])
    # np.unique sorts ascending, so an infinite distance comes last
    keys, counts = np.unique(np.concatenate(dists), return_counts=True)
    return {(math.inf if math.isinf(k) else int(k)): int(c)
            for k, c in zip(keys, counts)}
