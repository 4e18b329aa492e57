"""Bernoulli stochastic block models: domain types, scenario builders, sampling.

A block model is described by a symmetric connectivity matrix (edge
probabilities between clusters) and a vector of cluster proportions.
Graphs are undirected, simple (zero diagonal) and stored as sparse CSR.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass

import numpy as np

SCENARIO_KINDS = ("assortative", "disassortative", "hub")

PROPORTION_KINDS = ("balanced", "inverse_square")


def _readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _as(kind: type, value):
    """``value`` if it is a ``kind``, else ``kind(value)``, whose constructor checks it."""
    return value if isinstance(value, kind) else kind(value)


def _freeze(adj: AdjacencyMatrix, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
    for name, arr in (("indptr", indptr), ("indices", indices), ("data", data)):
        arr.setflags(write=False)
        object.__setattr__(adj, name, arr)


@dataclass(frozen=True, init=False)
class AdjacencyMatrix:
    """Symmetric pairwise-relation matrix with a zero diagonal, stored as CSR.

    Any input, dense or ``scipy.sparse``, becomes fresh canonical CSR arrays
    (sorted indices, no duplicates, no stored zeros) held read-only, so
    later writes to the input cannot reach them.  ``indptr``, ``indices``
    and ``data`` are the only arrays held, O(|E|) in memory; ``csr`` is the
    ``scipy.sparse.csr_array`` over those same arrays, built without a copy
    on first use, which is where a graph first loads ``scipy.sparse``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __init__(self, matrix):
        # Imported here: scipy.sparse costs ~0.2 s to load, and sampled and
        # read graphs are built in numpy without it.
        from scipy import sparse

        a = matrix if sparse.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if a.shape[0] < 1:
            raise ValueError("adjacency matrix must be nonempty")
        a = sparse.csr_array(a, dtype=np.float64, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if not np.isfinite(a.data).all():
            raise ValueError("adjacency entries must be finite")
        if (a != a.T).nnz:
            raise ValueError("adjacency matrix must be symmetric")
        if a.diagonal().any():
            raise ValueError("adjacency diagonal must be zero")
        _freeze(self, a.indptr, a.indices, a.data)

    @functools.cached_property
    def csr(self):
        """A's ``scipy.sparse.csr_array``, sharing ``indptr``, ``indices`` and ``data``."""
        from scipy import sparse

        csr = sparse.csr_array((self.data, self.indices, self.indptr), shape=(self.n, self.n))
        csr.has_canonical_format = True
        return csr

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def entries(self) -> np.ndarray:
        """Read-only dense copy of A, built on each call in O(n^2) memory."""
        arr = self.csr.toarray()
        arr.setflags(write=False)
        return arr

    def edge_count(self) -> int:
        """Number of undirected edges (nonzero upper-triangle entries)."""
        # Symmetric with a zero diagonal, so each edge is stored exactly twice.
        return self.indices.size // 2


def adjacency_from_edges(n: int, i, j) -> AdjacencyMatrix:
    """Binary graph on ``n`` nodes with an edge for each pair ``(i[e], j[e])``.

    Pairs must be integers with ``0 <= i < j < n``, else ``ValueError``.
    They may come in any order and integer dtype; a repeated pair is stored
    once.  The canonical CSR arrays are built in numpy without a COO copy:
    both halves of A are keyed ``row * n + column`` into one int64 buffer,
    sorted in place and cut to its distinct keys only when some repeat.
    Row r starts at the first key ``>= r * n``, and the keys reduced ``% n``
    are the columns.  The narrowed columns and the float64 ones come after
    the keys, so the build peaks near the pairs plus the CSR.  The arrays
    are wrapped without the copy and the symmetry check the
    ``AdjacencyMatrix`` constructor makes of other inputs.
    """
    i, j = np.asarray(i), np.asarray(j)
    if n < 1:
        raise ValueError("a graph needs at least one node")
    if i.ndim != 1 or i.shape != j.shape:
        raise ValueError("edge endpoints must be two vectors of one length")
    if not i.size:  # plain empty lists come as float64
        i = j = np.empty(0, np.int64)
    if not (np.issubdtype(i.dtype, np.integer) and np.issubdtype(j.dtype, np.integer)):
        raise ValueError("edge endpoints must be integers")
    if not np.all((0 <= i) & (i < j) & (j < n)):
        raise ValueError(f"edges must satisfy 0 <= i < j < n = {n}")
    m = i.size
    keys = np.empty(2 * m, np.int64)
    upper, lower = keys[:m], keys[m:]
    np.multiply(i, n, out=upper, dtype=np.int64)
    np.add(upper, j, out=upper, dtype=np.int64)
    np.multiply(j, n, out=lower, dtype=np.int64)
    np.add(lower, i, out=lower, dtype=np.int64)
    del upper, lower
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):  # repeated pairs: keep each key's first copy
        keys = keys[np.insert(keys[1:] != keys[:-1], 0, True)]
    index = _index_dtype(n, keys.size // 2)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(index)
    np.remainder(keys, n, out=keys)
    indices = keys.astype(index)
    del keys
    adj = object.__new__(AdjacencyMatrix)
    _freeze(adj, indptr, indices, np.ones(indices.size))
    return adj


def _index_dtype(n: int, m: int) -> type:
    """Index dtype of the CSR array of ``m`` edges on ``n`` nodes: int32 while
    ``n`` and its ``2 m`` entries fit, as scipy picks it for such an array."""
    return np.int32 if max(n, 2 * m) <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Symmetric cluster-to-cluster connectivity values.

    ``raw`` keeps the values exactly as supplied or as a closed-form update
    made them: a square, nonempty, finite and exactly symmetric read-only
    array.  A loss clamps them where it reads them
    (:meth:`gwsbm.losses.CompositeLoss.prepare_theta`).
    """

    raw: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.raw, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("connectivity matrix must be square and nonempty")
        if not np.isfinite(arr).all():
            raise ValueError("connectivity entries must be finite")
        if not np.array_equal(arr, arr.T):
            raise ValueError("connectivity must be symmetric")
        object.__setattr__(self, "raw", _readonly(arr))

    @property
    def k(self) -> int:
        return self.raw.shape[0]

    def has_distinct_profiles(self) -> bool:
        """True when no two clusters share an identical row (and column).

        Identical profiles make clusters statistically indistinguishable.
        Rows tie only when equal bit for bit; a tolerance for near-ties
        would be a guessed constant.  Every row is compared: a fit leaves
        its clusters without mass out itself (see
        :attr:`gwsbm.solver.FitResult.degenerate`).
        """
        return not any(np.array_equal(a, b) for a, b in itertools.combinations(self.raw, 2))


@dataclass(frozen=True)
class Proportions:
    """Cluster proportions: a probability vector over clusters."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("proportions must be a nonempty vector")
        if np.any(arr < 0.0) or not np.isfinite(arr).all():
            raise ValueError("proportions must be finite and nonnegative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError("proportions must sum to one within 1e-12")
        object.__setattr__(self, "weights", _readonly(arr))

    @property
    def k(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Labels:
    """Integer cluster assignments for the nodes of one graph."""

    values: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1:
            raise ValueError("labels must be a vector")
        if not np.issubdtype(arr.dtype, np.integer):
            # NaN, infinities and floats past int64 are refused before the cast, which warns on them
            castable = not np.issubdtype(arr.dtype, np.inexact) or np.all(np.abs(arr) < 2.0**63)
            if not (castable and np.array_equal(arr, arr.astype(np.int64))):
                raise ValueError("labels must be integers")
        arr = arr.astype(np.int64)
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"label range k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError("label range k must be positive")
        if arr.size and (arr.min() < 0 or arr.max() >= self.k):
            raise ValueError("labels must lie in [0, k)")
        object.__setattr__(self, "values", _readonly(arr, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def build_scenario(kind: str, k: int, p_in: float, p_out: float) -> ConnectivityMatrix:
    """Build one of the canonical connectivity patterns.

    ``assortative`` puts ``p_in`` on the diagonal and ``p_out`` elsewhere,
    ``disassortative`` swaps the two, and ``hub`` is assortative with the
    first cluster connected to everything (itself included) at ``p_in``.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind: {kind!r}")
    if k < 1:
        raise ValueError("k must be positive")
    if not (0.0 < p_out <= p_in < 1.0):
        raise ValueError("scenario rates must satisfy 0 < p_out <= p_in < 1")
    if kind == "hub" and k < 2:
        raise ValueError("hub scenario needs at least two clusters")
    eye = np.eye(k)
    ones = np.ones((k, k))
    if kind == "assortative":
        theta = (p_in - p_out) * eye + p_out * ones
    elif kind == "disassortative":
        theta = (p_out - p_in) * eye + p_in * ones
    else:
        theta = (p_in - p_out) * eye + p_out * ones
        theta[0, :] = p_in
        theta[:, 0] = p_in
    return ConnectivityMatrix(theta)


def balanced_proportions(k: int) -> Proportions:
    """Uniform proportions over ``k`` clusters."""
    if k < 1:
        raise ValueError("k must be positive")
    return Proportions(np.full(k, 1.0 / k))


def unbalanced_proportions(k: int) -> Proportions:
    """Proportions decaying like the inverse square of the cluster index.

    Cluster ``j`` (1-based) receives weight proportional to ``1 / j**2``.
    """
    if k < 1:
        raise ValueError("k must be positive")
    w = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** 2
    return Proportions(w / w.sum())


def make_proportions(kind: str, k: int) -> Proportions:
    """Dispatch on a proportion scheme name ('balanced' or 'inverse_square')."""
    if kind == "balanced":
        return balanced_proportions(k)
    if kind == "inverse_square":
        return unbalanced_proportions(k)
    raise ValueError(f"unknown proportion kind: {kind!r}")


def sample_graph(
    conn: ConnectivityMatrix,
    props: Proportions,
    n: int,
    seed: int,
) -> tuple[AdjacencyMatrix, Labels]:
    """Sample one undirected graph and its planted labels.

    Labels are drawn i.i.d. from ``props``; each unordered node pair (i, j)
    with i < j receives an edge independently with probability
    ``conn.raw[z_i, z_j]``.  Raw (pre-clamp) connectivity values are used so
    that probability 0 and 1 behave exactly.  The generator is NumPy's
    seeded PCG64, so results are reproducible bit for bit for a given seed.

    After the labels, pair (i, j) compares the uniform at row i, column j of
    ``rng.random((n, n))``.  Row i skips its first i + 1 uniforms and reads
    the other n - i - 1, so n (n - 1) / 2 of the n^2 stream positions are
    read; PCG64 makes one 64-bit draw per double, so the graph is the one
    the single n x n draw gives, in O(|E| + n) memory.  Time stays
    Theta(n^2).  The rows' columns fill one buffer that doubles when full,
    so a sample leaves no n small arrays freed across the heap.  The pairs,
    narrowed to the CSR's index dtype, go to :func:`adjacency_from_edges`,
    so sampling peaks near 1.4 times the CSR's bytes.
    """
    conn, props = _as(ConnectivityMatrix, conn), _as(Proportions, props)
    if conn.k != props.k:
        raise ValueError("connectivity and proportions disagree on k")
    if n < 2:
        raise ValueError("need at least two nodes")
    p = conn.raw
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    z = rng.choice(conn.k, size=n, p=props.weights).astype(np.int64)
    uniforms = np.empty(n)
    columns = np.empty(n, np.int64)  # each row's columns in turn; doubles when full
    counts = np.empty(n - 1, np.int64)
    m = 0
    for i in range(n - 1):
        rng.bit_generator.advance(i + 1)
        row = rng.random(out=uniforms[i + 1 :])
        hits = np.flatnonzero(row < p[z[i]][z[i + 1 :]])
        if m + hits.size > columns.size:
            columns, full = np.empty(2 * (m + hits.size), np.int64), columns
            columns[:m] = full[:m]
            del full
        np.add(hits, i + 1, out=columns[m : m + hits.size])
        counts[i] = hits.size
        m += hits.size
    index = _index_dtype(n, m)  # narrowed pairs take half the memory of int64 ones
    j = columns[:m].astype(index)
    del columns
    i = np.repeat(np.arange(n - 1, dtype=index), counts)
    return adjacency_from_edges(n, i, j), Labels(z, conn.k)


def block_densities(adj: AdjacencyMatrix, labels: Labels) -> np.ndarray:
    """Empirical edge density between every pair of clusters.

    Cells with no supporting node pair are reported as ``nan``.
    """
    adj = _as(AdjacencyMatrix, adj)
    if labels.n != adj.n:
        raise ValueError("labels and adjacency disagree on n")
    k = labels.k
    z = labels.values
    onehot = np.zeros((adj.n, k))
    onehot[np.arange(adj.n), z] = 1.0
    counts = onehot.T @ (adj.csr @ onehot)
    sizes = onehot.sum(axis=0)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    with np.errstate(invalid="ignore", divide="ignore"):
        dens = np.where(pairs > 0, counts / np.maximum(pairs, 1e-300), np.nan)
    return dens
