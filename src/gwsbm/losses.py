"""Composite inner losses, the factored quadratic assignment cost and the objective.

Every supported loss decomposes as

    loss(a, b) = f1(a) + f2(b) - a * h2(b),    with f1(0) = 0,

which lets the cost application

    M[i, k] = sum_{j != i} sum_l loss(A[i, j], theta[k, l]) * T[j, l]

be assembled from three matrix products instead of a four-index tensor:
``f1(A) @ rowsum``, ``f2(theta) @ colsum`` and ``A @ T @ h2(theta).T``.
Adjacency matrices have a zero diagonal and ``f1(0) = 0``, so of the
diagonal (i == j) terms those products include only the ``f2`` part is
nonzero, and one exact correction removes it.  ``f1(0) = 0`` also means
``f1(A)`` lives on A's nonzero entries, so :class:`CostKernel` holds A and
``f1(A)`` as sparse CSR arrays and one cost application takes
O(|E| k + n k^2) time for a graph with |E| stored entries.  The products
are assembled in one place (:meth:`CostKernel.assemble_cost`) from a given
``A @ T``: for a one-hot plan of mass u per row, such as a Frank-Wolfe
vertex, that product is u times the neighbour-label sums
(:meth:`CostKernel.label_sums`), which a caller updates over the
relabelled rows alone.

The objective ``<cost(T), T>`` and the connectivity minimizing it at a
fixed plan read the plan only through its pair summaries
(:meth:`CostKernel.pair_summaries`), and each is written once on them:
:func:`summary_objective` (every objective value outside Frank-Wolfe,
penalized or not) and :func:`theta_from_summaries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .sbm import PROB_MARGIN, AdjacencyMatrix, ConnectivityMatrix

LOSS_KINDS = ("squared", "bernoulli_nll", "poisson_nll", "exponential_nll")

#: Row sums of a transport plan must match 1/n this tightly.
ROW_SUM_TOL = 1e-10

#: Pair-mass floor below which a closed-form connectivity cell is inactive.
DENOMINATOR_FLOOR = 1e-12

#: Largest share of the rows that :meth:`CostKernel.label_sums` updates rather
#: than rebuilds.  At n=1000, k=10 (one BLAS thread, 2-core x86_64) an update
#: took about 10 us per relabelled row on graphs of mean degree 53 and 370
#: alike, and a rebuild 0.39 ms and 2.2 ms: on the sparser graph the two meet
#: near 5 % of the rows, which 3-4 % of the steps of workload-shaped fits exceed.
_UPDATE_ROWS = 0.05


@dataclass(frozen=True)
class CompositeLoss:
    """A decomposable inner loss together with its parameter domain.

    ``b_lo``/``b_hi`` bound the open domain of the second argument;
    ``theta_clamp`` is the closed interval connectivity values are clipped
    into; ``theta_inverse_map`` turns a weighted mean of first arguments
    into the optimal second argument.
    """

    kind: str
    f1: Callable[[np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]
    h2: Callable[[np.ndarray], np.ndarray]
    b_lo: float
    b_hi: float
    theta_inverse_map: Callable[[np.ndarray], np.ndarray]
    theta_clamp: tuple[float, float]

    def __call__(self, a, b):
        """Evaluate loss(a, b) elementwise."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return self.f1(a) + self.f2(b) - a * self.h2(b)

    def contains(self, values) -> bool:
        """True when all values lie strictly inside the parameter domain."""
        v = np.asarray(values, dtype=np.float64)
        return bool(np.all(v > self.b_lo) and np.all(v < self.b_hi))

    def prepare_theta(self, conn) -> np.ndarray:
        """Extract loss-appropriate connectivity values.

        ``ConnectivityMatrix`` inputs are clipped into ``theta_clamp``.
        Plain arrays are taken as-is and must already be valid, which
        signals the need for clamping upstream.
        """
        if isinstance(conn, ConnectivityMatrix):
            return np.clip(conn.raw, *self.theta_clamp)
        vals = np.asarray(conn, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("connectivity values must form a square matrix")
        if not self.contains(vals):
            raise ValueError(
                f"connectivity entries escape the {self.kind} domain; "
                "clamp them upstream"
            )
        return vals


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _zeros_like(x: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(x, dtype=np.float64))


def make_loss(kind: str) -> CompositeLoss:
    """Return the named composite loss.

    Kinds: ``squared`` (a - b)^2, ``bernoulli_nll``, ``poisson_nll`` and
    ``exponential_nll`` (rate parameterization, ``loss(a, b) = ab - log b``).
    """
    if kind == "squared":
        return CompositeLoss(
            kind=kind,
            f1=lambda a: a**2,
            f2=lambda b: b**2,
            h2=lambda b: 2.0 * b,
            b_lo=-np.inf,
            b_hi=np.inf,
            theta_inverse_map=_identity,
            theta_clamp=(-np.inf, np.inf),
        )
    if kind == "bernoulli_nll":
        return CompositeLoss(
            kind=kind,
            f1=_zeros_like,
            f2=lambda b: -np.log1p(-b),
            h2=lambda b: np.log(b) - np.log1p(-b),
            b_lo=0.0,
            b_hi=1.0,
            theta_inverse_map=_identity,
            theta_clamp=(PROB_MARGIN, 1.0 - PROB_MARGIN),
        )
    if kind == "poisson_nll":
        # Imported here: scipy.special costs ~0.3 s to load and only this loss uses it.
        from scipy.special import gammaln

        return CompositeLoss(
            kind=kind,
            f1=lambda a: gammaln(np.asarray(a, dtype=np.float64) + 1.0),
            f2=_identity,
            h2=np.log,
            b_lo=0.0,
            b_hi=np.inf,
            theta_inverse_map=_identity,
            theta_clamp=(PROB_MARGIN, np.inf),
        )
    if kind == "exponential_nll":
        return CompositeLoss(
            kind=kind,
            f1=_zeros_like,
            f2=lambda b: -np.log(b),
            h2=lambda b: -b,
            b_lo=0.0,
            b_hi=np.inf,
            theta_inverse_map=lambda x: 1.0 / np.maximum(x, PROB_MARGIN),
            theta_clamp=(PROB_MARGIN, np.inf),
        )
    raise ValueError(f"unknown loss kind: {kind!r}")


@dataclass(frozen=True)
class TransportPlan:
    """A soft assignment of n nodes to k clusters.

    Rows are nonnegative and each sums to 1/n, so column sums form a
    probability vector over clusters (the cluster masses).
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("plan must be a nonempty 2-d array")
        if not np.isfinite(arr).all():
            raise ValueError("plan entries must be finite")
        if np.any(arr < 0.0):
            raise ValueError("plan entries must be nonnegative")
        n = arr.shape[0]
        rows = arr.sum(axis=1)
        if np.max(np.abs(rows - 1.0 / n)) > ROW_SUM_TOL:
            raise ValueError("plan rows must each sum to 1/n within 1e-10")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError("plan total mass must be 1 within 1e-9")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def column_masses(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


def _plan_matrix(plan) -> np.ndarray:
    if isinstance(plan, TransportPlan):
        return plan.matrix
    return np.asarray(plan, dtype=np.float64)


class CostKernel:
    """Caches the per-graph arrays needed to apply the pairwise cost.

    ``a`` is the :class:`AdjacencyMatrix`'s own CSR array, shared, not
    copied, and ``fa`` is ``f1(A)`` as a CSR array.  ``f1`` is evaluated on
    A's stored values only (``f1(0) = 0``) and ``fa`` is built from the
    entries where it does not vanish, without copying A, so it is empty
    for the Bernoulli and exponential losses.  Each :meth:`cost` call then
    costs O(|E| k + n k^2): one sparse ``A @ T`` plus products with the
    k x k connectivity.  :meth:`assemble_cost` takes ``A @ T`` as given; for
    one-hot plans it is a multiple of :meth:`label_sums`, which an update
    carries to the next labels in O(sum of the relabelled rows' degrees).
    """

    def __init__(self, adj, loss: CompositeLoss):
        if not isinstance(adj, AdjacencyMatrix):
            adj = AdjacencyMatrix(adj)
        self.loss = loss
        self.a = adj.csr
        self.n = adj.n
        f1 = np.asarray(loss.f1(self.a.data), dtype=np.float64)
        kept = np.flatnonzero(f1)
        # fa's row pointers: the kept entries that precede each row of A
        indptr = np.searchsorted(kept, self.a.indptr)
        self.fa = sparse.csr_array((f1[kept], self.a.indices[kept], indptr), shape=self.a.shape)

    def cost(self, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Apply the cost tensor to a plan, excluding i == j terms exactly.

        The map is linear in ``t`` and, with A and ``theta`` symmetric,
        self-adjoint: ``<cost(u), v> == <cost(v), u>``.
        """
        return self.assemble_cost(t, self.a @ t, theta)

    def assemble_cost(self, t: np.ndarray, at: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """:meth:`cost` of ``t`` given its product ``at = A @ t``, however that was formed."""
        f2t = np.asarray(self.loss.f2(theta), dtype=np.float64)
        h2t = np.asarray(self.loss.h2(theta), dtype=np.float64)
        rows = t.sum(axis=1)
        cols = t.sum(axis=0)
        m = (self.fa @ rows)[:, None] + (f2t @ cols)[None, :] - at @ h2t.T
        # remove the j == i terms; with A[i, i] = 0 and f1(0) = 0 only f2's remain
        m -= t @ f2t.T
        return m

    def label_sums(
        self,
        labels: np.ndarray,
        k: int,
        sums: np.ndarray | None = None,
        old: np.ndarray | None = None,
    ) -> np.ndarray:
        """Neighbour-label sums ``W = A @ onehot(labels)`` over ``k`` labels.

        ``W[i, l]`` adds ``A[i, j]`` over the nodes j labelled l, so a plan
        putting mass u on each row's label has ``A @ plan = u W``.  Given
        the sums ``sums`` of the labels ``old``, updates them in place: A is
        symmetric, so its column j is its CSR row j, and relabelling j from
        l to l' moves that row's entries from column l of ``W`` to column l'.
        That costs O(sum of the relabelled rows' degrees) and allocates
        nothing plan-sized.  The sums are rebuilt instead when more than
        ``_UPDATE_ROWS`` of the rows were relabelled.  The sums are float64
        for every graph; on an integer-valued A each is an exact integer,
        so updated and rebuilt sums agree bit for bit, while on a
        real-valued A an update rounds differently from a rebuild.
        """
        if sums is not None:
            changed = np.flatnonzero(labels != old)
            if changed.size <= _UPDATE_ROWS * self.n:
                indptr, indices, data = self.a.indptr, self.a.indices, self.a.data
                for j in changed:
                    row = slice(indptr[j], indptr[j + 1])
                    np.subtract.at(sums[:, old[j]], indices[row], data[row])
                    np.add.at(sums[:, labels[j]], indices[row], data[row])
                return sums
        onehot = np.zeros((self.n, k))
        onehot[np.arange(self.n), labels] = 1.0
        return self.a @ onehot

    def pair_summaries(self, t: np.ndarray) -> tuple:
        """``(s, d, q, f1)``: all the objective and the closed-form connectivity read of ``t``.

        ``s[k, l]`` is the plan-weighted sum of A over node pairs i != j (A's
        zero diagonal drops i == j), ``d[k, l]`` the matching pair mass, ``q``
        the cluster masses and ``f1`` is ``rows^T f1(A) rows`` for the plan's
        row sums.  Pouring cluster j into i adds row and column j of ``s`` and
        ``d`` (and ``q[j]``) into i and keeps ``f1``.  Costs one ``A @ t``.
        """
        rows = t.sum(axis=1)
        q = t.sum(axis=0)
        s = t.T @ (self.a @ t)
        d = np.outer(q, q) - t.T @ t
        return 0.5 * (s + s.T), 0.5 * (d + d.T), q, float(rows @ (self.fa @ rows))

    def objective(self, t: np.ndarray, theta: np.ndarray) -> float:
        """Quadratic assignment objective ``<cost(t), t>``, priced from the summaries of ``t``."""
        return summary_objective(self.pair_summaries(t), theta, self.loss)

    def connectivity(self, t: np.ndarray) -> ConnectivityMatrix:
        """Closed-form connectivity at plan ``t``."""
        return ConnectivityMatrix(*theta_from_summaries(self.pair_summaries(t), self.loss))


def column_mass_penalty(plan) -> float:
    """Square-root cluster-mass penalty ``sum_k sqrt(q_k)`` of a plan or of its masses ``q``.

    Concave in the masses: between 1 (single surviving cluster) and
    ``sqrt(k)`` (all clusters equally loaded), so smaller means sparser.
    """
    q = _plan_matrix(plan)
    if q.ndim == 2:
        q = q.sum(axis=0)
    return float(np.sum(np.sqrt(np.maximum(q, 0.0))))


def summary_objective(summ: tuple, theta, loss: CompositeLoss, sparsity: float = 0.0) -> float:
    """Objective of the plan whose pair summaries are ``summ`` at connectivity ``theta``.

    The loss decomposition turns
    ``sum_{i != j, k, l} loss(A[i, j], theta[k, l]) T[i, k] T[j, l]`` into
    ``f1 + sum(f2(theta) d - h2(theta) s)``, exact for any plan; a nonzero
    ``sparsity`` adds ``sparsity * column_mass_penalty(q)``.
    """
    s, d, q, f1 = summ
    f2t = np.asarray(loss.f2(theta), dtype=np.float64)
    h2t = np.asarray(loss.h2(theta), dtype=np.float64)
    return f1 + float(np.sum(f2t * d - h2t * s)) + sparsity * column_mass_penalty(q)


def _checked_kernel(adj, loss: CompositeLoss, t: np.ndarray, theta=None) -> CostKernel:
    """Kernel for ``adj`` after checking the plan (and connectivity) shapes against it."""
    kernel = CostKernel(adj, loss)
    if t.shape[0] != kernel.n:
        raise ValueError("plan and adjacency disagree on n")
    if theta is not None and theta.shape[0] != t.shape[1]:
        raise ValueError("plan and connectivity disagree on k")
    return kernel


def cost_application(adj, plan, conn, loss: CompositeLoss) -> np.ndarray:
    """Matrix M with M[i, k] = sum_{j != i, l} loss(A[i, j], theta[k, l]) T[j, l]."""
    t = _plan_matrix(plan)
    theta = loss.prepare_theta(conn)
    m = _checked_kernel(adj, loss, t, theta).cost(t, theta)
    if not np.isfinite(m).all():
        raise FloatingPointError("non-finite cost: connectivity outside loss domain?")
    return m


def srgw_objective(adj, plan, conn, loss: CompositeLoss) -> float:
    """Semi-relaxed Gromov-Wasserstein objective of a plan at fixed connectivity.

    Equals ``sum_{i != j, k, l} loss(A[i, j], theta[k, l]) T[i, k] T[j, l]``;
    diagonal (i == j) terms are excluded exactly.
    """
    t = _plan_matrix(plan)
    theta = loss.prepare_theta(conn)
    value = _checked_kernel(adj, loss, t, theta).objective(t, theta)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite objective: connectivity outside loss domain?")
    return value


def theta_from_summaries(summ: tuple, loss: CompositeLoss) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form connectivity values and inactive mask from pair summaries.

    Each cell is ``theta_inverse_map`` of the weighted mean ``s / d``,
    clipped into the loss clamp interval.  Cells whose pair mass is at most
    ``DENOMINATOR_FLOOR`` carry no information: they are set to 0.5 and
    flagged in the returned mask.
    """
    s, d = summ[:2]
    inactive = d <= DENOMINATOR_FLOOR
    ratio = np.where(inactive, 1.0, s / np.where(inactive, 1.0, d))
    theta = np.clip(np.asarray(loss.theta_inverse_map(ratio), dtype=np.float64), *loss.theta_clamp)
    return np.where(inactive, 0.5, theta), inactive


def closed_form_connectivity(adj, plan, loss: CompositeLoss) -> ConnectivityMatrix:
    """Connectivity matrix minimizing the objective at a fixed plan.

    Both the weighted sum and the pair mass drop i == j terms, matching
    :func:`srgw_objective` exactly; see :func:`theta_from_summaries` for
    the cell rule.
    """
    t = _plan_matrix(plan)
    return _checked_kernel(adj, loss, t).connectivity(t)
