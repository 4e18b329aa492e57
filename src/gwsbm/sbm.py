"""Bernoulli stochastic block models: domain types, scenario builders, sampling.

A block model is described by a symmetric connectivity matrix (edge
probabilities between clusters) and a vector of cluster proportions.
Graphs are undirected, simple (zero diagonal) and stored as sparse CSR.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

SCENARIO_KINDS = ("assortative", "disassortative", "hub")

PROPORTION_KINDS = ("balanced", "inverse_square")

#: Uniforms :func:`sample_graph` holds at a time, 1 MiB of float64: it draws
#: slabs of ``_SLAB_CELLS // n`` rows of ``n``, clipped to [1, n] rows.
_SLAB_CELLS = 1 << 17


def _readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _freeze(adj: AdjacencyMatrix, csr: sparse.csr_array) -> None:
    for arr in (csr.data, csr.indices, csr.indptr):
        arr.setflags(write=False)
    object.__setattr__(adj, "csr", csr)


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric pairwise-relation matrix with a zero diagonal, stored as CSR.

    Any input, dense or ``scipy.sparse``, becomes a fresh canonical CSR
    array (sorted indices, no duplicates, no stored zeros) with read-only
    arrays, so later writes to the input cannot reach it.  ``csr`` is the
    only array held, O(|E|) in memory.
    """

    csr: sparse.csr_array

    def __post_init__(self):
        a = self.csr if sparse.issparse(self.csr) else np.asarray(self.csr, dtype=np.float64)
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
        _freeze(self, a)

    @classmethod
    def _from_canonical(cls, csr: sparse.csr_array) -> AdjacencyMatrix:
        """Wrap a CSR array already canonical, symmetric, finite and zero on
        the diagonal, without a copy or a check."""
        adj = object.__new__(cls)
        _freeze(adj, csr)
        return adj

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only dense copy of A, built on each call in O(n^2) memory."""
        arr = self.csr.toarray()
        arr.setflags(write=False)
        return arr

    def edge_count(self) -> int:
        """Number of undirected edges (nonzero upper-triangle entries)."""
        # Symmetric with a zero diagonal, so each edge is stored exactly twice.
        return self.csr.nnz // 2


def adjacency_from_edges(n: int, i, j) -> AdjacencyMatrix:
    """Binary graph on ``n`` nodes with an edge for each pair ``(i[e], j[e])``.

    Pairs must be integers with ``0 <= i < j < n``, else ``ValueError``.
    They may come in any order, and a repeated pair is stored once.
    """
    i, j = np.asarray(i), np.asarray(j)
    if n < 1:
        raise ValueError("a graph needs at least one node")
    if i.ndim != 1 or i.shape != j.shape:
        raise ValueError("edge endpoints must be two vectors of one length")
    if i.size and not (np.issubdtype(i.dtype, np.integer) and np.issubdtype(j.dtype, np.integer)):
        raise ValueError("edge endpoints must be integers")
    i, j = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
    if not np.all((0 <= i) & (i < j) & (j < n)):
        raise ValueError(f"edges must satisfy 0 <= i < j < n = {n}")
    return _adjacency_from_keys(n, i * n + j)


def _adjacency_from_keys(n: int, keys: np.ndarray) -> AdjacencyMatrix:
    """The graph whose edges (i, j), 0 <= i < j < n, are keyed ``i * n + j``.

    Keys are sorted and deduplicated only when not already strictly
    increasing.  Each edge is stored as ``(j, i)`` and ``(i, j)``, the lower
    half first: the COO to CSR pass keeps entries in input order within a
    row, so every row's columns come out sorted and the CSR array is
    canonical as built.  It is wrapped without the copy and the symmetry
    check the ``AdjacencyMatrix`` constructor makes of other inputs.
    """
    if np.any(keys[1:] <= keys[:-1]):
        keys = np.unique(keys)
    m = keys.size
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.empty(2 * m, dtype=index), np.empty(2 * m, dtype=index)
    np.divmod(keys, n, out=(cols[:m], rows[:m]), casting="unsafe")
    rows[m:], cols[m:] = cols[:m], rows[:m]
    coo = sparse.coo_array((np.ones(2 * m), (rows, cols)), shape=(n, n))
    return AdjacencyMatrix._from_canonical(coo.tocsr())


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
            if not np.array_equal(arr, arr.astype(np.int64)):
                raise ValueError("labels must be integers")
        arr = arr.astype(np.int64)
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
    ``rng.random((n, n))``.  The uniforms are drawn in slabs of rows, and
    PCG64 makes one 64-bit draw per double either way, so the graph is the
    one the single n x n draw gives, in O(|E| + n) memory.  Time stays
    Theta(n^2): every one of the n^2 uniforms is drawn.
    """
    if conn.k != props.k:
        raise ValueError("connectivity and proportions disagree on k")
    if n < 2:
        raise ValueError("need at least two nodes")
    p = conn.raw
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    z = rng.choice(conn.k, size=n, p=props.weights).astype(np.int64)
    height = min(n, max(1, _SLAB_CELLS // n))
    uniforms = np.empty((height, n))
    pieces = []
    for start in range(0, n, height):
        stop = min(start + height, n)
        slab = rng.random(out=uniforms[: stop - start])
        # columns from start + 1 on; triu then keeps j > i in every row
        r, c = np.nonzero(np.triu(slab[:, start + 1 :] < p[z[start:stop]][:, z[start + 1 :]]))
        pieces.append((r + start) * n + (c + start + 1))
    keys = np.concatenate(pieces)  # row-major, so strictly increasing
    del pieces
    return _adjacency_from_keys(n, keys), Labels(z, conn.k)


def block_densities(adj: AdjacencyMatrix, labels: Labels) -> np.ndarray:
    """Empirical edge density between every pair of clusters.

    Cells with no supporting node pair are reported as ``nan``.
    """
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
