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
  applies the cost once, to the vertex.  The vertex is one-hot with mass
  ``1/n``, so its ``A @ x`` is ``1/n`` times the neighbour-label sums of
  its labels (:meth:`gwsbm.losses.CostKernel.label_sums`), which each run
  builds once and then updates over the rows whose label changed:
  consecutive vertices differ on about 1 % of the rows.
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

Outside Frank-Wolfe, every objective value is
:func:`gwsbm.losses.summary_objective` of the plan's pair summaries, which
:func:`bcd_fit` computes once per plan and shares between the
connectivity refit, the penalized objective and the merge step.

The sparsity strength is the only setting; the iteration caps and
relative stopping tolerances of the three loops are the module constants
below, all applied by one relative-stall test.

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
    _checked_kernel,
    _plan_matrix,
    make_loss,
    srgw_objective,
    summary_objective,
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
    two live clusters share a connectivity profile bit for bit; near-ties
    count as distinct (see :meth:`ConnectivityMatrix.has_distinct_profiles`).
    """

    plan: TransportPlan
    connectivity: ConnectivityMatrix
    loss_history: list[float]
    k_hat: int
    labels: Labels
    runtime_ms: float
    degenerate: bool = False


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


def _merge_rowcol(mat: np.ndarray, i: int, j: int) -> np.ndarray:
    out = mat.copy()
    out[i, :] += out[j, :]
    out[:, i] += out[:, j]
    return np.delete(np.delete(out, j, axis=0), j, axis=1)


def _merge_step(
    kernel: CostKernel,
    t: np.ndarray,
    summ: tuple,
    conn: ConnectivityMatrix,
    pen: float,
    *,
    sparsity: float = 0.0,
) -> tuple[np.ndarray, tuple, ConnectivityMatrix, float]:
    """Pour one cluster into another while that strictly lowers the score.

    ``summ``, ``conn`` and ``pen`` are the pair summaries of ``t``, its
    closed-form connectivity and the penalized objective there; the same
    four are returned after the last accepted merge.  A candidate's score
    is the penalized objective at the connectivity refit to the merged
    plan, so an accepted merge is a descent step of the alternating
    scheme.  Candidates are ranked on merged summaries; the best one is
    formed as a plan and refit and re-scored from its own fresh summaries
    before being accepted (keeping the loss history non-increasing despite
    floating-point dust), and those summaries serve the next pass.
    """
    loss = kernel.loss
    while True:
        s, d, q, f1 = summ
        live = np.flatnonzero(q > 1e-12)
        best_gain, best_pair = 0.0, None
        for a in range(live.size):
            i = int(live[a])
            for b in range(a + 1, live.size):
                j = int(live[b])
                cand = (
                    _merge_rowcol(s, i, j),
                    _merge_rowcol(d, i, j),
                    np.delete(q + (np.arange(q.size) == i) * q[j], j),
                    f1,
                )
                theta, _ = theta_from_summaries(cand, loss)
                gain = pen - summary_objective(cand, theta, loss, sparsity)
                if gain > best_gain:
                    best_gain, best_pair = gain, (i, j)
        if best_pair is None:
            return t, summ, conn, pen
        i, j = best_pair
        merged = t.copy()
        merged[:, i] += merged[:, j]
        merged[:, j] = 0.0
        merged_summ = kernel.pair_summaries(merged)
        merged_conn = ConnectivityMatrix(*theta_from_summaries(merged_summ, loss))
        merged_pen = summary_objective(merged_summ, merged_conn.raw, loss, sparsity)
        if not merged_pen < pen:
            return t, summ, conn, pen
        t, summ, conn, pen = merged, merged_summ, merged_conn, merged_pen


def _stalled(prev: float, new: float, rtol: float) -> bool:
    """True when ``new`` differs from ``prev`` by at most ``rtol`` relative to ``prev``."""
    return abs(prev - new) <= rtol * max(abs(prev), 1e-15)


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
) -> np.ndarray:
    """Frank-Wolfe on <cost(t), t> + <linear, t> over row-constrained plans.

    Applies the cost to ``t0`` and then once per iteration, to the vertex,
    through neighbour-label sums carried from one vertex to the next.
    Stops at the first step that leaves the plan unchanged, so it returns
    ``t0`` itself when no step moves it.  ``on_iterate(t, obj)`` sees ``t0``
    and every accepted iterate, with this objective.
    """
    n, k = t0.shape
    t = t0
    m = kernel.cost(t, theta)
    obj = float(np.vdot(m, t))
    if linear is not None:
        obj += float(np.vdot(linear, t))
    _check_finite(obj, "fw_solve")
    if on_iterate is not None:
        on_iterate(t, obj)
    rows = np.arange(n)
    unit = 1.0 / n
    cols = sums = None
    for _ in range(FW_MAX_ITERS):
        grad = 2.0 * m if linear is None else 2.0 * m + linear
        cols, old = np.argmin(grad, axis=1), cols
        x = np.zeros_like(t)
        x[rows, cols] = unit
        # A @ x is unit times the neighbour-label sums, which the last vertex's
        # sums give after an update over the rows whose label changed
        sums = kernel.label_sums(cols, k, sums, old)
        mx = kernel.assemble_cost(x, unit * sums, theta)
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
        moved = (1.0 - gamma) * t + gamma * x
        if np.array_equal(moved, t):  # a zero step, or one too small to change t
            break
        t = moved
        # the cost application is linear in the plan, so blend it too
        m = (1.0 - gamma) * m + gamma * mx
        obj = _check_finite((a * gamma + b) * gamma + f0, "fw_solve")
        if on_iterate is not None:
            on_iterate(t, obj)
        if _stalled(f0, obj, FW_REL_TOL):
            break
    return t


def fw_solve(adj, loss: CompositeLoss, conn, plan0: TransportPlan) -> TransportPlan:
    """Minimize the objective at fixed connectivity from a feasible start.

    This is :func:`mm_solve` without penalty: one Frank-Wolfe run.  Ties
    in the row-wise oracle resolve to the lowest cluster index, so runs
    are deterministic.
    """
    return mm_solve(adj, loss, conn, plan0)


def _mm_core(
    kernel: CostKernel,
    theta: np.ndarray,
    t0: np.ndarray,
    summ0: tuple,
    sparsity: float,
    on_iterate=None,
) -> tuple[np.ndarray, tuple]:
    """Majorize-minimize from ``t0`` (summaries ``summ0``); returns the plan and its summaries."""
    if sparsity == 0.0:
        t = _fw_core(kernel, theta, t0, None, on_iterate)
        return t, summ0 if t is t0 else kernel.pair_summaries(t)
    t, summ = t0, summ0
    pen = _check_finite(summary_objective(summ, theta, kernel.loss, sparsity), "mm_solve")
    for _ in range(MM_MAX_ITERS):
        moved = _fw_core(kernel, theta, t, penalty_linearization(t, sparsity), on_iterate)
        if moved is t:
            break
        t, summ = moved, kernel.pair_summaries(moved)
        new_pen = _check_finite(summary_objective(summ, theta, kernel.loss, sparsity), "mm_solve")
        done = _stalled(pen, new_pen, MM_REL_TOL)
        pen = new_pen
        if done:
            break
    return t, summ


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

    ``on_iterate(t, obj)`` sees the start and each accepted iterate of
    every Frank-Wolfe run with that run's own objective, the round's linear
    term (:func:`penalty_linearization`) included: never a penalized
    objective or a merge score.
    """
    sparsity = _check_sparsity(sparsity)
    theta = loss.prepare_theta(conn)
    t0 = _plan_matrix(plan0)
    kernel = _checked_kernel(adj, loss, t0, theta)
    t, _ = _mm_core(kernel, theta, t0, kernel.pair_summaries(t0), sparsity, on_iterate)
    return TransportPlan(t)


def bcd_fit(
    adj,
    loss: CompositeLoss,
    plan0: TransportPlan,
    *,
    sparsity: float = 0.0,
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
    t = _plan_matrix(plan0).copy()
    kernel = _checked_kernel(adj, loss, t)
    history: list[float] = []
    summ = kernel.pair_summaries(t)
    conn = ConnectivityMatrix(*theta_from_summaries(summ, loss))
    for _ in range(BCD_MAX_ITERS):
        t, summ = _mm_core(kernel, loss.prepare_theta(conn), t, summ, sparsity)
        conn = ConnectivityMatrix(*theta_from_summaries(summ, loss))
        pen = summary_objective(summ, conn.raw, loss, sparsity)
        if sparsity > 0.0:
            t, summ, conn, pen = _merge_step(kernel, t, summ, conn, pen, sparsity=sparsity)
        history.append(_check_finite(pen, "bcd_fit"))
        if len(history) > 1 and _stalled(history[-2], pen, BCD_REL_TOL):
            break
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
    col = resp.sum(axis=0)
    w = props.weights
    if np.any((w == 0.0) & (col > 0.0)):
        raise ValueError("a cluster with zero prior mass carries responsibility")
    quad = srgw_objective(adj, resp, conn, make_loss("bernoulli_nll"))
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
    lp = srgw_objective(adj, t, conn, make_loss("bernoulli_nll"))
    h_plan = -float(xlogy(t, t).sum())
    q = t.sum(axis=0)
    h_mass = -float(xlogy(q, q).sum())
    return lp - (2.0 / n) * (h_plan - h_mass)
