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
O(|E| k + n k^2) time for a graph with |E| stored entries, less the
sparse ``A @ T`` when the caller has it: Frank-Wolfe's start plan reuses
the product its pair summaries formed, and its one-hot vertices are priced
from neighbour-label sums without being formed (:meth:`CostKernel.label_sums`).

The objective ``<cost(T), T>`` and the connectivity minimizing it at a
fixed plan read the plan only through its pair summaries
(:meth:`CostKernel.pair_summaries`), and each is written once on them:
:func:`summary_objective` (every objective value outside Frank-Wolfe,
penalized or not) and :func:`theta_from_summaries`.
Every entry point here and in :mod:`gwsbm.solver` starts from
:func:`_checked_kernel`.  Connectivity is clamped once, by
:meth:`CompositeLoss.prepare_theta`; a closed-form one is born clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sbm import AdjacencyMatrix, ConnectivityMatrix, _as

#: Margin that keeps connectivity entries away from {0, 1} so that
#: log-based losses stay finite.
PROB_MARGIN = 1e-6

LOSS_KINDS = ("squared", "bernoulli_nll", "poisson_nll", "exponential_nll")

#: Row sums of a transport plan must match 1/n this tightly.
ROW_SUM_TOL = 1e-10

#: Pair-mass floor at or below which a closed-form connectivity cell is unsupported.
DENOMINATOR_FLOOR = 1e-12

#: Stored entries a new kernel passes to ``f1`` per call, and the budget of each run of whole
#: rows :meth:`CostKernel.label_sums` scatters (fewer entries than this plus one row's), so
#: both hold O(n + this) transient memory, not O(|E|) or O(the relabelled rows' degrees).
_SCATTER_ENTRIES = 1 << 14


@dataclass(frozen=True)
class CompositeLoss:
    """A decomposable inner loss together with its parameter domain.

    ``b_lo``/``b_hi`` bound the open domain of the second argument;
    ``theta_inverse_map`` turns a weighted mean of first arguments into
    the optimal second argument.
    """

    kind: str
    f1: Callable[[np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]
    h2: Callable[[np.ndarray], np.ndarray]
    b_lo: float
    b_hi: float
    theta_inverse_map: Callable[[np.ndarray], np.ndarray]

    @property
    def theta_clamp(self) -> tuple[float, float]:
        """The closed interval connectivity values are clipped into:
        ``PROB_MARGIN`` inside each finite bound of the domain."""
        return self.b_lo + PROB_MARGIN, self.b_hi - PROB_MARGIN

    def __call__(self, a, b):
        """Evaluate loss(a, b) elementwise."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return self.f1(a) + self.f2(b) - a * self.h2(b)

    def prepare_theta(self, conn) -> np.ndarray:
        """Extract loss-appropriate connectivity values.

        ``ConnectivityMatrix`` inputs are clipped into ``theta_clamp``.
        Plain arrays are taken as-is once they pass the
        ``ConnectivityMatrix`` checks (square, finite and exactly
        symmetric, as Frank-Wolfe's gradient ``2 cost`` needs) and lie in
        the loss domain: they must be clamped upstream.
        """
        if isinstance(conn, ConnectivityMatrix):
            return np.clip(conn.raw, *self.theta_clamp)
        vals = ConnectivityMatrix(conn).raw
        if not (np.all(vals > self.b_lo) and np.all(vals < self.b_hi)):
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
    """The matrix of a ``TransportPlan``, or any n x k array as float64."""
    if isinstance(plan, TransportPlan):
        return plan.matrix
    t = np.asarray(plan, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError("plan must be a 2-d array")
    return t


class CostKernel:
    """Caches the per-graph arrays needed to apply the pairwise cost.

    ``a`` is the :class:`AdjacencyMatrix`'s own CSR array, shared, not
    copied, and ``fa`` is ``f1(A)`` as a CSR array.  ``f1`` is evaluated on
    A's stored values only (``f1(0) = 0``), in groups of ``_SCATTER_ENTRIES``,
    and ``fa`` is built from the entries where it does not vanish, without
    copying A, so it is empty for the Bernoulli and exponential losses and
    building it allocates no transient as long as A's values.  Each :meth:`cost`
    call then costs O(|E| k + n k^2): one sparse ``A @ T`` plus products with
    the k x k connectivity, or only the latter when ``A @ T`` is given; for
    one-hot plans it is a multiple of :meth:`label_sums`, which an update
    carries to the next labels in O(sum of the relabelled rows' degrees), and
    :meth:`_vertex_cost` prices such a plan from its labels alone.
    """

    def __init__(self, adj, loss: CompositeLoss):
        adj = _as(AdjacencyMatrix, adj)
        # Imported here: scipy.sparse costs ~0.2 s to load and only products need it.
        from scipy import sparse

        self.loss = loss
        self.a = adj.csr
        self.n = adj.n
        # f1 over groups of A's stored values, keeping only where it does not vanish
        kept, values = [np.empty(0, np.intp)], [np.empty(0)]
        for start in range(0, adj.data.size, _SCATTER_ENTRIES):
            f1 = np.asarray(loss.f1(adj.data[start : start + _SCATTER_ENTRIES]), dtype=np.float64)
            nonzero = np.flatnonzero(f1)
            kept.append(nonzero + start)
            values.append(f1[nonzero])
            del f1  # before the next group's
        kept = np.concatenate(kept)
        values = np.concatenate(values)
        # fa's row pointers: the kept entries that precede each row of A
        indptr = np.searchsorted(kept, adj.indptr)
        self.fa = sparse.csr_array((values, adj.indices[kept], indptr), shape=self.a.shape)
        # the read-only plan pair_summaries last read, and its A @ t
        self._summarised = (None, None)

    def cost(self, t: np.ndarray, theta: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
        """Apply the cost tensor to a plan, excluding i == j terms exactly.

        ``at`` is ``A @ t`` when the caller has it, however formed.  Without
        it, the product :meth:`pair_summaries` last formed is reused if it was
        formed for this same read-only array, else a fresh one is formed.  The
        map is linear in ``t`` and, with A and ``theta`` symmetric,
        self-adjoint: ``<cost(u), v> == <cost(v), u>``.
        """
        if at is None:
            plan, at = self._summarised
            if plan is not t:
                at = self.a @ t
        f2t = np.asarray(self.loss.f2(theta), dtype=np.float64)
        h2t = np.asarray(self.loss.h2(theta), dtype=np.float64)
        rows = t.sum(axis=1)
        cols = t.sum(axis=0)
        m = (self.fa @ rows)[:, None] + (f2t @ cols)[None, :] - at @ h2t.T
        # remove the j == i terms; with A[i, i] = 0 and f1(0) = 0 only f2's remain
        m -= t @ f2t.T
        return m

    def _vertex_cost(self, theta: np.ndarray) -> Callable:
        """``price(labels, sums, out, scratch)``: :meth:`cost` at ``theta`` of the
        one-hot plan x putting ``unit = 1/n`` on each row's label, written into ``out``.

        ``sums`` are the labels' :meth:`label_sums`, so ``unit * sums`` is
        ``A @ x``, and x is never formed.  Each entry is ``cost(x, theta, unit *
        sums)``'s bit for bit, by the same operations in the same order:
        x's row sums are ``unit`` exactly, so ``fa`` meets them once, here (an
        empty ``fa``, as for the Bernoulli and exponential losses, gives
        ``+0.0`` in every row, and ``+0.0 + c`` is ``0.0 + c``); a column sum
        of x adds ``unit`` once per member row in turn, so it is read from a
        running sum by the label's count; and each entry of ``x @ f2(theta).T``
        has one nonzero term, ``unit * f2(theta)[:, label]``, so it is gathered
        by label.  ``f2`` and ``h2`` are evaluated once, here; ``scratch`` is an
        n x k buffer that ``price`` overwrites.
        """
        n, k = self.n, theta.shape[0]
        unit = 1.0 / n
        f2t = np.asarray(self.loss.f2(theta), dtype=np.float64)
        h2t = np.asarray(self.loss.h2(theta), dtype=np.float64).T
        own = unit * f2t.T  # row l: the j == i terms of a row labelled l
        masses = np.concatenate(([0.0], np.cumsum(np.full(n, unit))))
        if k == 1:  # one column is a contiguous run, which numpy sums pairwise
            masses[n] = np.full(n, unit).sum()
        rows = (self.fa @ np.full(n, unit))[:, None] if self.fa.nnz else 0.0

        def price(labels: np.ndarray, sums: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
            np.matmul(np.multiply(sums, unit, out=out), h2t, out=scratch)
            np.add(rows, f2t @ masses[np.bincount(labels, minlength=k)], out=out)
            out -= scratch
            out -= np.take(own, labels, axis=0, out=scratch, mode="clip")
            return out

        return price

    def label_sums(
        self,
        labels: np.ndarray,
        k: int,
        sums: np.ndarray | None = None,
        old: np.ndarray | None = None,
    ) -> np.ndarray:
        """Neighbour-label sums ``W = A @ onehot(labels)`` over ``k`` labels.

        ``W[i, l]`` adds ``A[i, j]`` over the nodes j labelled l, so a plan
        putting mass u on each row's label has ``A @ plan = u W``.  Given the
        sums ``sums`` this method returned for the labels ``old``, updates
        them in place however many rows moved: A is symmetric, so relabelling
        j from l to l' moves its CSR row j from column l of ``W`` to l'.  The
        relabelled rows' stored entries move by scatter-adds in runs of whole
        rows, each fewer than ``_SCATTER_ENTRIES`` entries plus one row's:
        every run subtracts from the old columns before any adds to the new
        ones, so ``W`` takes the same sequence of operations as one subtraction
        of all of them and one addition, bit for bit on any graph, in O(sum of
        their degrees) time and O(n + _SCATTER_ENTRIES) transient memory; a
        single run is gathered once, and unchanged labels return ``sums`` at
        once.  On an integer-valued A the float64 sums are exact integers, equal
        to a fresh product bit for bit.
        """
        if sums is None:
            return self.a @ np.eye(k)[labels]
        changed = np.flatnonzero(labels != old)
        if not changed.size:
            return sums
        lo = self.a.indptr[changed]
        degrees = self.a.indptr[changed + 1] - lo
        ends = np.cumsum(degrees)
        if ends[-1] <= _SCATTER_ENTRIES:
            runs = [slice(None)]
        else:
            # runs of whole rows: each closes at the row whose entry count so far reaches the next budget multiple
            multiples = np.arange(_SCATTER_ENTRIES, ends[-1], _SCATTER_ENTRIES)
            cuts = [-1, *np.searchsorted(ends, multiples).tolist(), changed.size - 1]
            runs = [slice(a + 1, b + 1) for a, b in zip(cuts, cuts[1:]) if a < b]

        def gather(run):
            counts = degrees[run]
            entries = np.arange(counts.sum()) + np.repeat(lo[run] - (np.cumsum(counts) - counts), counts)
            cells = self.a.indices[entries].astype(np.intp) * k  # column * k passes 2**31 for large n k
            return cells, self.a.data[entries]

        # one run is gathered once, for both passes
        once = gather(runs[0]) if len(runs) == 1 else None
        flat = sums.reshape(-1)  # a view: the sums this method returns are C-contiguous
        for scatter, side in ((np.subtract.at, old[changed]), (np.add.at, labels[changed])):
            for run in runs:
                cells, values = once or gather(run)
                scatter(flat, cells + np.repeat(side[run], degrees[run]), values)
        return sums

    def pair_summaries(self, t: np.ndarray) -> tuple:
        """``(s, d, q, f1)``: all the objective and the closed-form connectivity read of ``t``.

        ``s[k, l]`` is the plan-weighted sum of A over node pairs i != j (A's
        zero diagonal drops i == j), ``d[k, l]`` the matching pair mass, ``q``
        the cluster masses and ``f1`` is ``rows^T f1(A) rows`` for the plan's
        row sums.  Pouring cluster j into i adds row and column j of ``s`` and
        ``d`` (and ``q[j]``) into i and keeps ``f1``.  Costs one ``A @ t``,
        which a read-only ``t`` keeps for its next :meth:`cost`.
        """
        rows = t.sum(axis=1)
        q = t.sum(axis=0)
        at = self.a @ t
        if not t.flags.writeable:  # its values cannot change before the cost reads them
            self._summarised = (t, at)
        s = t.T @ at
        d = np.outer(q, q) - t.T @ t
        return 0.5 * (s + s.T), 0.5 * (d + d.T), q, float(rows @ (self.fa @ rows))

    def objective(self, t: np.ndarray, theta: np.ndarray) -> float:
        """Quadratic assignment objective ``<cost(t), t>``, priced from the summaries of ``t``."""
        return summary_objective(self.pair_summaries(t), theta, self.loss)

    def connectivity(self, t: np.ndarray) -> ConnectivityMatrix:
        """Closed-form connectivity at plan ``t``."""
        return ConnectivityMatrix(theta_from_summaries(self.pair_summaries(t), self.loss))


def column_mass_penalty(plan) -> float:
    """Square-root cluster-mass penalty ``sum_k sqrt(q_k)`` of a plan or of its masses ``q``.

    Concave in the masses: between 1 (single surviving cluster) and
    ``sqrt(k)`` (all clusters equally loaded), so smaller means sparser.
    """
    if np.ndim(plan) == 1:  # the masses themselves
        q = np.asarray(plan, dtype=np.float64)
    else:
        q = _plan_matrix(plan).sum(axis=0)
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


def _checked_kernel(adj, loss: CompositeLoss, plan, conn=None) -> tuple:
    """``(kernel, t, theta)``: the kernel of ``adj``, the matrix of ``plan`` and ``conn``
    prepared (``None`` when not given), with their shapes checked against each other."""
    t = _plan_matrix(plan)
    theta = None if conn is None else loss.prepare_theta(conn)
    kernel = CostKernel(adj, loss)
    if t.shape[0] != kernel.n:
        raise ValueError("plan and adjacency disagree on n")
    if theta is not None and theta.shape[0] != t.shape[1]:
        raise ValueError("plan and connectivity disagree on k")
    return kernel, t, theta


def cost_application(adj, plan, conn, loss: CompositeLoss) -> np.ndarray:
    """Matrix M with M[i, k] = sum_{j != i, l} loss(A[i, j], theta[k, l]) T[j, l]."""
    kernel, t, theta = _checked_kernel(adj, loss, plan, conn)
    m = kernel.cost(t, theta)
    if not np.isfinite(m).all():
        raise FloatingPointError("non-finite cost: connectivity outside loss domain?")
    return m


def srgw_objective(adj, plan, conn, loss: CompositeLoss) -> float:
    """Semi-relaxed Gromov-Wasserstein objective of a plan at fixed connectivity.

    Equals ``sum_{i != j, k, l} loss(A[i, j], theta[k, l]) T[i, k] T[j, l]``;
    diagonal (i == j) terms are excluded exactly.
    """
    kernel, t, theta = _checked_kernel(adj, loss, plan, conn)
    value = kernel.objective(t, theta)
    if not np.isfinite(value):
        raise FloatingPointError("non-finite objective: connectivity outside loss domain?")
    return value


def theta_from_summaries(summ: tuple, loss: CompositeLoss) -> np.ndarray:
    """Closed-form connectivity values from pair summaries.

    Each cell is ``theta_inverse_map`` of the weighted mean ``s / d``,
    clipped into the loss clamp interval.  Cells whose pair mass is at most
    ``DENOMINATOR_FLOOR`` carry no information: they hold the placeholder
    0.5.
    """
    s, d = summ[:2]
    unsupported = d <= DENOMINATOR_FLOOR
    ratio = s / np.where(unsupported, 1.0, d)
    theta = np.clip(np.asarray(loss.theta_inverse_map(ratio), dtype=np.float64), *loss.theta_clamp)
    return np.where(unsupported, 0.5, theta)


def closed_form_connectivity(adj, plan, loss: CompositeLoss) -> ConnectivityMatrix:
    """Connectivity matrix minimizing the objective at a fixed plan.

    Both the weighted sum and the pair mass drop i == j terms, matching
    :func:`srgw_objective` exactly; see :func:`theta_from_summaries` for
    the cell rule.
    """
    kernel, t, _ = _checked_kernel(adj, loss, plan)
    return kernel.connectivity(t)
