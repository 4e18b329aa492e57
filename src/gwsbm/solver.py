"""Sparse semi-relaxed Gromov-Wasserstein solvers for block models.

Three nested loops:

* :func:`fw_solve` runs Frank-Wolfe on the quadratic assignment objective
  over plans whose rows each carry 1/n mass.  The linear minimization
  oracle is row-wise (mass goes to the cheapest cluster), and the step
  size minimizes the objective on the segment in closed form: the cost
  application is linear in the plan and self-adjoint, so with ``m`` the
  cost of the current plan ``t``, ``mx`` that of the oracle's vertex ``x``
  and ``d = x - t``, the objective at ``t + gamma d`` is
  ``f0 + b gamma + a gamma^2`` with ``a = <mx - m, d>`` and
  ``b = <2 m (+ linear), d>``, the gradient along ``d``.  Each iteration
  applies the cost once, to the vertex.
* :func:`mm_solve` adds ``sparsity * sum_k sqrt(q_k)`` on the cluster
  masses.  Each round linearizes the concave penalty at the current plan
  and hands the resulting linear cost to Frank-Wolfe (warm-started), which
  makes the true penalized objective non-increasing.
* :func:`bcd_fit` alternates closed-form connectivity updates with
  :func:`mm_solve` until the penalized objective stalls.  When the
  sparsity penalty is active it also proposes whole-cluster merges after
  every plan solve, accepting one only when it strictly lowers the
  penalized objective under a refit connectivity.  The row-wise oracle
  cannot see such moves (the square-root penalty gain is second order in
  any single row), so without them the solver parks in plans that split
  one true cluster across several columns.

The sparsity strength is the only setting; the iteration caps and
relative stopping tolerances of the three loops are the module constants
below.

ELBO helpers for the Bernoulli block model live here too, because the
penalized objective and the variational bound are two views of the same
quantity (see :func:`entropic_objective`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .losses import (
    CompositeLoss,
    CostKernel,
    TransportPlan,
    _plan_matrix,
    make_loss,
    pair_summaries,
    theta_from_summaries,
)
from .metrics import hard_labels, selected_k
from .sbm import ConnectivityMatrix, Labels, Proportions


class SolverError(RuntimeError):
    """Raised when an objective turns non-finite mid-solve."""


FW_MAX_ITERS = 500
FW_REL_TOL = 1e-9
MM_MAX_ITERS = 50
MM_REL_TOL = 1e-7
BCD_MAX_ITERS = 50
BCD_REL_TOL = 1e-8

#: Cluster-mass floor that keeps the penalty linearization finite on empty clusters.
MASS_FLOOR = 1e-16


def _check_sparsity(sparsity) -> float:
    """The penalty strength as a float; it must be finite and nonnegative."""
    sparsity = float(sparsity)
    if not (np.isfinite(sparsity) and sparsity >= 0.0):
        raise ValueError(f"sparsity must be finite and nonnegative, got {sparsity}")
    return sparsity


@dataclass
class FitResult:
    """Outcome of :func:`bcd_fit`.

    ``loss_history`` records the penalized objective once per outer
    iteration and is non-increasing.  ``k_hat`` counts clusters whose mass
    exceeds 1e-6.  ``degenerate`` is set when the graph has no edges or
    two live clusters share a connectivity profile (see
    :meth:`ConnectivityMatrix.has_distinct_profiles`).
    """

    plan: TransportPlan
    connectivity: ConnectivityMatrix
    loss_history: list[float]
    k_hat: int
    labels: Labels
    runtime_ms: float
    degenerate: bool = False


def column_mass_penalty(plan) -> float:
    """Square-root cluster-mass penalty ``sum_k sqrt(q_k)``.

    Concave in the masses: between 1 (single surviving cluster) and
    ``sqrt(k)`` (all clusters equally loaded), so smaller means sparser.
    """
    q = _plan_matrix(plan).sum(axis=0)
    return float(np.sum(np.sqrt(np.maximum(q, 0.0))))


def penalty_linearization(plan, sparsity: float) -> np.ndarray:
    """Row-constant tangent cost of the penalty at the current plan.

    Column k of the result equals ``sparsity / (2 sqrt(max(q_k, MASS_FLOOR)))``,
    the exact gradient of the penalty wherever masses exceed the floor.
    Nearly dead clusters therefore price any returning mass prohibitively.
    """
    t = _plan_matrix(plan)
    q = np.maximum(t.sum(axis=0), MASS_FLOOR)
    row = _check_sparsity(sparsity) / (2.0 * np.sqrt(q))
    return np.broadcast_to(row, t.shape).copy()


def _penalized(kernel: CostKernel, t: np.ndarray, theta: np.ndarray, sparsity: float) -> float:
    """Penalized objective of plan ``t`` at connectivity values ``theta``."""
    return kernel.objective(t, theta) + sparsity * column_mass_penalty(t)


def _summary_score(
    s: np.ndarray,
    d: np.ndarray,
    q: np.ndarray,
    loss: CompositeLoss,
    sparsity: float,
    f1_term: float,
) -> float:
    """Penalized objective at the closed-form connectivity of the summaries.

    Takes the connectivity from :func:`gwsbm.losses.theta_from_summaries`,
    then evaluates ``f1_term + sum(f2(theta) d - h2(theta) s)`` which
    equals the quadratic objective because rows of the plan all carry
    mass 1/n.
    """
    theta, _ = theta_from_summaries(s, d, loss)
    f2t = np.asarray(loss.f2(theta), dtype=np.float64)
    h2t = np.asarray(loss.h2(theta), dtype=np.float64)
    quad = f1_term + float(np.sum(f2t * d - h2t * s))
    return quad + sparsity * float(np.sum(np.sqrt(np.maximum(q, 0.0))))


def _merge_rowcol(mat: np.ndarray, i: int, j: int) -> np.ndarray:
    out = mat.copy()
    out[i, :] += out[j, :]
    out[:, i] += out[:, j]
    return np.delete(np.delete(out, j, axis=0), j, axis=1)


def _merge_step(
    kernel: CostKernel,
    t: np.ndarray,
    conn: ConnectivityMatrix,
    pen: float,
    *,
    sparsity: float = 0.0,
    on_iterate=None,
) -> tuple[np.ndarray, ConnectivityMatrix, float]:
    """Pour one cluster into another while that strictly lowers the score.

    ``conn`` and ``pen`` are the closed-form connectivity of ``t`` and the
    penalized objective there; the plan, connectivity and penalized
    objective after the last accepted merge are returned.  The score is
    the penalized objective with the connectivity refit to the candidate
    plan, so an accepted merge is a guaranteed descent step of the full
    alternating scheme.  Candidates are ranked with the cheap summary
    formula above; the best one is re-scored through the exact objective
    before being accepted, which keeps the loss history provably
    non-increasing regardless of floating-point dust.
    """
    f1_term = float(kernel.fa.sum()) / float(kernel.n) ** 2
    while True:
        s, d, q = pair_summaries(kernel.a, t)
        live = np.flatnonzero(q > 1e-12)
        if live.size < 2:
            return t, conn, pen
        current = _summary_score(s, d, q, kernel.loss, sparsity, f1_term)
        best_gain, best_pair = 0.0, None
        for a in range(live.size):
            i = int(live[a])
            for b in range(a + 1, live.size):
                j = int(live[b])
                cand = _summary_score(
                    _merge_rowcol(s, i, j),
                    _merge_rowcol(d, i, j),
                    np.delete(q + (np.arange(q.size) == i) * q[j], j),
                    kernel.loss,
                    sparsity,
                    f1_term,
                )
                gain = current - cand
                if gain > best_gain:
                    best_gain, best_pair = gain, (i, j)
        if best_pair is None:
            return t, conn, pen
        i, j = best_pair
        merged = t.copy()
        merged[:, i] += merged[:, j]
        merged[:, j] = 0.0
        merged_conn = kernel.connectivity(merged)
        merged_pen = _penalized(kernel, merged, kernel.loss.prepare_theta(merged_conn), sparsity)
        if not merged_pen < pen:
            return t, conn, pen
        t, conn, pen = merged, merged_conn, merged_pen
        if on_iterate is not None:
            on_iterate(t, pen)


def _check_finite(value: float, where: str) -> float:
    if not np.isfinite(value):
        raise SolverError(f"non-finite objective in {where}; "
                          "check connectivity values against the loss domain")
    return value


def _fw_core(
    kernel: CostKernel,
    theta: np.ndarray,
    t0: np.ndarray,
    linear: np.ndarray | None,
    on_iterate=None,
) -> tuple[np.ndarray, float]:
    """Frank-Wolfe on <cost(t), t> + <linear, t> over row-constrained plans."""
    n, k = t0.shape
    t = np.array(t0, dtype=np.float64)
    m = kernel.cost(t, theta)
    obj = float(np.vdot(m, t))
    if linear is not None:
        obj += float(np.vdot(linear, t))
    _check_finite(obj, "fw_solve")
    if on_iterate is not None:
        on_iterate(t, obj)
    rows = np.arange(n)
    unit = 1.0 / n
    for _ in range(FW_MAX_ITERS):
        grad = 2.0 * m if linear is None else 2.0 * m + linear
        cols = np.argmin(grad, axis=1)
        x = np.zeros_like(t)
        x[rows, cols] = unit
        mx = kernel.cost(x, theta)
        # the objective along t + gamma d is exactly f0 + b gamma + a gamma^2:
        # the cost is linear in the plan and self-adjoint, so cost(d) = mx - m
        d = x - t
        a = float(np.vdot(mx - m, d))
        b = float(np.vdot(grad, d))
        f0 = obj
        if a > 0.0:
            gamma = min(1.0, max(0.0, -b / (2.0 * a)))
        else:
            gamma = 1.0 if a + b <= 0.0 else 0.0
        if gamma == 0.0:
            break
        t = (1.0 - gamma) * t + gamma * x
        # the cost application is linear in the plan, so blend it too
        m = (1.0 - gamma) * m + gamma * mx
        obj = _check_finite((a * gamma + b) * gamma + f0, "fw_solve")
        if on_iterate is not None:
            on_iterate(t, obj)
        if abs(f0 - obj) <= FW_REL_TOL * max(abs(f0), 1e-15):
            break
    return t, obj


def fw_solve(
    adj,
    loss: CompositeLoss,
    conn,
    plan0: TransportPlan,
    on_iterate=None,
) -> TransportPlan:
    """Minimize the objective at fixed connectivity from a feasible start.

    This is :func:`mm_solve` without penalty: one Frank-Wolfe run.  Ties
    in the row-wise oracle resolve to the lowest cluster index, so runs
    are deterministic.
    """
    return mm_solve(adj, loss, conn, plan0, on_iterate=on_iterate)


def _mm_core(
    kernel: CostKernel,
    theta: np.ndarray,
    t0: np.ndarray,
    sparsity: float,
    on_iterate=None,
) -> np.ndarray:
    if sparsity == 0.0:
        t, _ = _fw_core(kernel, theta, t0, None, on_iterate)
        return t
    t = np.array(t0, dtype=np.float64)
    pen = _check_finite(_penalized(kernel, t, theta, sparsity), "mm_solve")
    for _ in range(MM_MAX_ITERS):
        linear = penalty_linearization(t, sparsity)
        t, _ = _fw_core(kernel, theta, t, linear, on_iterate)
        new_pen = _check_finite(_penalized(kernel, t, theta, sparsity), "mm_solve")
        done = abs(pen - new_pen) <= MM_REL_TOL * max(abs(pen), 1e-15)
        pen = new_pen
        if done:
            break
    return t


def mm_solve(
    adj,
    loss: CompositeLoss,
    conn,
    plan0: TransportPlan,
    *,
    sparsity: float = 0.0,
    on_iterate=None,
) -> TransportPlan:
    """Minimize objective plus sparsity penalty by majorize-minimize rounds.

    Each round replaces the concave penalty with its tangent at the
    current plan and runs Frank-Wolfe warm-started, stopping when the
    true penalized objective stalls.  With ``sparsity == 0`` this is a
    single plain Frank-Wolfe solve.
    """
    sparsity = _check_sparsity(sparsity)
    kernel = CostKernel(adj, loss)
    theta = loss.prepare_theta(conn)
    t0 = _plan_matrix(plan0)
    if t0.shape[0] != kernel.n or theta.shape[0] != t0.shape[1]:
        raise ValueError("plan, adjacency and connectivity shapes disagree")
    return TransportPlan(_mm_core(kernel, theta, t0, sparsity, on_iterate))


def bcd_fit(
    adj,
    loss: CompositeLoss,
    plan0: TransportPlan,
    *,
    sparsity: float = 0.0,
    on_iterate=None,
) -> FitResult:
    """Alternate closed-form connectivity updates with plan solves.

    Every step — the connectivity refit, the majorize-minimize plan
    solve, and the descent-only cluster merges that follow it whenever
    the sparsity penalty is active — can only lower the penalized
    objective, so ``loss_history`` (recorded against the freshly refit
    connectivity once per round) is non-increasing.  Stops when its
    relative change drops below ``BCD_REL_TOL`` or after
    ``BCD_MAX_ITERS`` rounds.
    """
    sparsity = _check_sparsity(sparsity)
    start = time.perf_counter()
    kernel = CostKernel(adj, loss)
    t = _plan_matrix(plan0).copy()
    if t.shape[0] != kernel.n:
        raise ValueError("plan and adjacency disagree on n")
    history: list[float] = []
    conn = kernel.connectivity(t)
    prev = None
    for _ in range(BCD_MAX_ITERS):
        t = _mm_core(kernel, loss.prepare_theta(conn), t, sparsity, on_iterate)
        conn = kernel.connectivity(t)
        pen = _penalized(kernel, t, loss.prepare_theta(conn), sparsity)
        if sparsity > 0.0:
            t, conn, pen = _merge_step(
                kernel, t, conn, pen, sparsity=sparsity, on_iterate=on_iterate
            )
        _check_finite(pen, "bcd_fit")
        history.append(pen)
        if prev is not None and abs(prev - pen) <= BCD_REL_TOL * max(abs(prev), 1e-15):
            break
        prev = pen
    plan = TransportPlan(t)
    runtime_ms = (time.perf_counter() - start) * 1e3
    return FitResult(
        plan=plan,
        connectivity=conn,
        loss_history=history,
        k_hat=selected_k(plan),
        labels=hard_labels(plan),
        runtime_ms=runtime_ms,
        degenerate=kernel.a.nnz == 0 or not conn.has_distinct_profiles(),
    )


def elbo_value(resp, adj, conn: ConnectivityMatrix, props: Proportions) -> float:
    """Evidence lower bound of the Bernoulli block model.

    ``resp`` holds row-stochastic assignment responsibilities.  The bound
    is the expected edge log-likelihood (each unordered pair counted once,
    no self pairs) plus the assignment entropy plus the expected log prior
    under ``props``.  The convention 0 log 0 = 0 applies throughout.
    """
    # Imported here: scipy.special costs ~0.3 s to load and a plain fit never needs it.
    from scipy.special import xlogy

    resp = np.asarray(resp, dtype=np.float64)
    if resp.ndim != 2:
        raise ValueError("responsibilities must be 2-d")
    if np.any(resp < 0.0) or np.max(np.abs(resp.sum(axis=1) - 1.0)) > 1e-8:
        raise ValueError("responsibility rows must be probability vectors")
    if resp.shape[1] != props.k or resp.shape[1] != conn.k:
        raise ValueError("responsibilities, proportions and connectivity disagree on k")
    loss = make_loss("bernoulli_nll")
    kernel = CostKernel(adj, loss)
    if resp.shape[0] != kernel.n:
        raise ValueError("responsibilities and adjacency disagree on n")
    theta = loss.prepare_theta(conn)
    col = resp.sum(axis=0)
    w = props.weights
    if np.any((w == 0.0) & (col > 0.0)):
        raise ValueError("a cluster with zero prior mass carries responsibility")
    quad = float(np.vdot(kernel.cost(resp, theta), resp))
    entropy = -float(xlogy(resp, resp).sum())
    prior = float(xlogy(col, w).sum())
    return -0.5 * quad + entropy + prior


def entropic_objective(plan, adj, conn: ConnectivityMatrix) -> float:
    """Entropy-corrected Bernoulli objective of a plan.

    Equals the plain objective minus ``(2/n) * (H(plan) - H(masses))``.
    Maximizing the block-model ELBO over hard-prior proportions is the
    same problem as minimizing this quantity over feasible plans.
    """
    # Imported here: scipy.special costs ~0.3 s to load and a plain fit never needs it.
    from scipy.special import xlogy

    t = _plan_matrix(plan)
    n = t.shape[0]
    loss = make_loss("bernoulli_nll")
    kernel = CostKernel(adj, loss)
    theta = loss.prepare_theta(conn)
    lp = float(np.vdot(kernel.cost(t, theta), t))
    h_plan = -float(xlogy(t, t).sum())
    q = t.sum(axis=0)
    h_mass = -float(xlogy(q, q).sum())
    return lp - (2.0 / n) * (h_plan - h_mass)
