"""Graph container, normalization matrices and k-hop reachability.

Graphs are undirected and unweighted: a symmetric boolean adjacency in CSR
form (no stored self-loops), a dense float feature matrix, and optional
integer labels. All structures are treated as immutable after construction.
"""

from __future__ import annotations

import hashlib
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ConfigError, ParseError, _check_type

__all__ = [
    "Graph",
    "KHopMask",
    "build_graph",
    "load_graph",
    "normalized_adjacency",
    "khop_mask",
    "khop_weights",
]


@dataclass(frozen=True)
class Graph:
    """Undirected graph of at least one node, with node features and
    optional cluster labels in ``[0, n_nodes)``; ``n_nodes`` is the number
    of feature rows and ``n_clusters`` the largest label plus one."""

    adj: sparse.csr_array          # symmetric, 0/1 float64, zero diagonal
    features: np.ndarray           # (n_nodes, d) float64
    labels: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_nodes
        if n == 0:
            raise ConfigError("graph has no nodes")
        if self.adj.shape != (n, n):
            raise ConfigError(f"adjacency shape {self.adj.shape} != "
                              f"({n}, {n}), the feature rows")
        if self.labels is not None:
            if len(self.labels) != n:
                raise ConfigError(
                    f"label count ({len(self.labels)}) != n_nodes ({n})"
                )
            if self.labels.min() < 0 or self.labels.max() >= n:
                raise ConfigError(f"labels must lie in [0, {n}), the node "
                                  f"count")

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_clusters(self) -> int | None:
        return None if self.labels is None else int(self.labels.max()) + 1

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
    edges, bad, whole = _node_ids(edges, n)
    if bad is not None:
        raise ParseError(f"edge endpoint {bad} outside [0, {n})" if whole
                         else f"non-integer edge endpoint {bad}")
    edges = edges.reshape(-1, 2)
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
        lab, bad, whole = _node_ids(labels, n)
        if bad is not None:
            raise ConfigError(f"labels must lie in [0, {n}), the node count, "
                              f"not {bad}" if whole
                              else f"non-integer label {bad}")
    return Graph(adj=adj, features=features, labels=lab)


def _node_ids(values, n: int):
    """``(ids, bad, whole)``: ``values`` as an int64 array and ``None``, or
    ``None`` and the first value that is not an integer in [0, n), with
    whether it is a whole number at all (a fraction, NaN and infinity are
    not). Values are checked before the cast, so none is truncated."""
    values = np.asarray(values)
    flat = values.ravel()
    if values.dtype.kind in "biu":
        num, is_whole = flat, np.ones(flat.shape, dtype=bool)
    else:
        num = flat.astype(np.float64)
        is_whole = np.isfinite(num) & (num == np.round(num))
    ok = is_whole & (num >= 0) & (num < n)
    if ok.all():
        return values.astype(np.int64), None, True
    first = int(np.argmin(ok))
    if is_whole[first]:
        return None, int(flat[first]), True
    return None, flat[first], False


def load_graph(edge_path, feature_path, label_path=None) -> Graph:
    """Load a graph from an edge list, a features CSV and optional labels.

    The feature file is CSV with one row per node and sets the node count;
    edge and label files are read by ``_read_node_rows``, two and one values
    a line.
    """
    features = _read_features(feature_path)
    n = features.shape[0]
    edges = _read_edges(edge_path, n)
    labels = None if label_path is None else _read_labels(label_path, n)
    return build_graph(edges, features, labels)


def _read_features(path) -> np.ndarray:
    # opened here, not by numpy, so that a missing file raises an OSError
    # carrying its filename
    with open(path) as fh, warnings.catch_warnings():
        # loadtxt only warns when the file holds no data row
        warnings.simplefilter("error", UserWarning)
        try:
            feats = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except UserWarning as exc:
            raise ParseError("empty feature file", path=path) from exc
        except ValueError as exc:
            # numpy's own row numbers skip blank and comment lines, and are
            # 0- or 1-based by error kind, so the file is read again
            message, line = _first_bad_row(path, exc)
            raise ParseError(message, path=path, line=line) from exc
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        lineno, _ = _data_lines(path)[int(bad.argmax())]
        raise ParseError("non-finite feature value", path=path, line=lineno)
    return feats


def _data_lines(path) -> list:
    """(1-based line number, text) of every line ``np.loadtxt`` reads as a
    data row of ``path``: all but those left empty once a ``#`` comment is
    cut off (a line of spaces is a data row, and a bad one)."""
    with open(path) as fh:
        lines = [(lineno, raw.rstrip("\n"))
                 for lineno, raw in enumerate(fh, start=1)]
    return [(lineno, text) for lineno, text in lines if text.split("#", 1)[0]]


def _first_bad_row(path, exc):
    """(message, line) of the first data row that ``np.loadtxt`` cannot
    parse on its own or whose value count differs from the first row's;
    ``exc`` names the fault when no single row shows it."""
    width = None
    for lineno, text in _data_lines(path):
        try:
            values = np.loadtxt([text], delimiter=",", dtype=np.float64, ndmin=1)
        except ValueError:
            return f"bad feature row {text!r}: not all numbers", lineno
        width = width or values.size
        if values.size != width:
            return (f"bad feature row {text!r}: {values.size} values, the "
                    f"first row has {width}"), lineno
    return f"bad feature row: {exc}", None


# an ASCII decimal integer: int() alone also reads "1_0" and non-ASCII digits
_is_integer = re.compile(r"[+-]?[0-9]+").fullmatch

# an ASCII decimal float, or inf, infinity or nan in any case: one value as
# np.loadtxt reads it, less the surrounding spaces that float() also skips
_is_float = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                       r"|inf(?:inity)?|nan)", re.IGNORECASE).fullmatch


def _read_node_rows(path, n_nodes: int, width: int, what: str,
                    max_rows: int | None = None) -> np.ndarray:
    """(rows, width) int64 array of the non-blank lines of ``path``, each
    ``width`` values split on whitespace or commas. Every value is checked on
    its line to be an ASCII decimal integer in [0, n_nodes); a line past
    ``max_rows`` rows is an error too."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.replace(",", " ").split()
            if not parts:
                continue
            if len(rows) == max_rows:
                raise ParseError(f"more {what}s than the {n_nodes} nodes",
                                 path=path, line=lineno)
            if len(parts) != width:
                raise ParseError(f"{len(parts)} values, expected {width}",
                                 path=path, line=lineno)
            row = []
            for text in parts:
                if not _is_integer(text):
                    raise ParseError(f"non-integer {what} {text!r}",
                                     path=path, line=lineno)
                row.append(int(text))
                if not 0 <= row[-1] < n_nodes:
                    raise ParseError(f"{what} {row[-1]} outside [0, {n_nodes})",
                                     path=path, line=lineno)
            rows.append(row)
    return np.asarray(rows, dtype=np.int64).reshape(-1, width)


def _read_edges(path, n_nodes: int) -> np.ndarray:
    return _read_node_rows(path, n_nodes, 2, "edge endpoint")


def _read_labels(path, n_nodes: int) -> np.ndarray:
    labels = _read_node_rows(path, n_nodes, 1, "label", max_rows=n_nodes)
    if len(labels) != n_nodes:
        raise ParseError(f"{len(labels)} labels for {n_nodes} nodes", path=path)
    return labels.ravel()


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


# entries per gather block in KHopMask.entry_dots: two (chunk, width) row
# blocks stay in cache, where one gather of every entry would not; 512 was
# the fastest of 256-4096 for both the 4 x 16 attention rows and the 100-wide
# embeddings at n=1400 (one BLAS thread on a 2-vCPU Xeon VM)
ENTRY_CHUNK = 512


@dataclass(frozen=True)
class KHopMask:
    """Boolean <=k-hop reachability, stored as per-node sorted neighbor lists.

    Every node reaches itself. Lists are CSR-style: the neighbors of node i
    are ``indices[indptr[i]:indptr[i+1]]``, sorted ascending.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def total_nnz(self) -> int:
        return int(self.indptr[-1])

    def list_sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def src_ids(self) -> np.ndarray:
        """Row id of every stored entry."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.list_sizes())

    def entry_dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a[i] . b[j]`` over the last axis for every stored entry (i, j),
        in storage order: ``(nnz,)`` from ``(n, d)`` operands, ``(nnz, heads)``
        from ``(n, heads, d_h)`` ones. Each chunk of ``ENTRY_CHUNK`` entries
        is gathered once for all heads."""
        src, dst = self.src_ids, self.indices
        dots = np.empty((self.total_nnz,) + a.shape[1:-1])
        for s in range(0, self.total_nnz, ENTRY_CHUNK):
            e = slice(s, s + ENTRY_CHUNK)
            np.einsum("...d,...d->...", np.take(a, src[e], axis=0),
                      np.take(b, dst[e], axis=0), out=dots[e])
        return dots

    def pattern(self, data: np.ndarray) -> sparse.csr_array:
        """CSR array sharing this mask's sparsity pattern with given data."""
        return sparse.csr_array(
            (data, self.indices, self.indptr), shape=(self.n_nodes, self.n_nodes)
        )


def khop_mask(g: Graph, k: int) -> KHopMask:
    """Boolean reachability within k hops, self included: (A + I)^k > 0."""
    _check_type("k", k)
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
    return KHopMask(indptr=reach.indptr.astype(np.int64),
                    indices=reach.indices.astype(np.int64))


def khop_weights(g: Graph, k: int) -> sparse.csr_array:
    """k-th power of the self-loop-free normalized adjacency, diagonal zeroed.

    These are the real-valued positive-pair weights; entries are nonnegative
    and, by the spectral bound, never exceed one.
    """
    _check_type("k", k)
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

