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
  ``b = <2 m + prices, d>``, the gradient along ``d``.  Each iteration
  applies the cost once, to the one-hot vertex, whose ``A @ x`` comes from
  neighbour-label sums carried from one vertex to the next
  (:meth:`gwsbm.losses.CostKernel.label_sums`).
* :func:`mm_solve` adds ``sparsity * sum_k sqrt(q_k)`` on the cluster
  masses.  Each round hands Frank-Wolfe (warm-started) the penalty's tangent
  at the current plan, one price per cluster, which makes the true penalized
  objective non-increasing; at zero sparsity it is :func:`fw_solve`.
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
:func:`bcd_fit` computes once per plan; :func:`_refit` prices every plan it
and the merge step see.  :func:`fw_solve` reads no summaries.

The sparsity strength is the only setting, and no solver takes a
callback; the iteration caps and relative stopping tolerances of the
three loops are the module constants below, all applied by one
relative-stall test.  A lowered cap returns an intermediate iterate.

ELBO helpers for the Bernoulli block model live here too, because the
penalized objective and the variational bound are two views of the same
quantity (see :func:`entropic_objective`).
"""

from __future__ import annotations

import itertools
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .losses import (
    DENOMINATOR_FLOOR,
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


def _check_sparsity(value, name: str = "sparsity") -> float:
    """A penalty strength as a float: a real number, not a bool or text, finite and
    nonnegative.  A refusal calls it ``name``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    number = float(value) if real else np.nan
    if not (np.isfinite(number) and number >= 0.0):
        raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")
    return number


@dataclass
class FitResult:
    """Outcome of :func:`bcd_fit`.

    ``loss_history`` records the penalized objective once per outer
    iteration and is non-increasing.  ``k_hat`` counts clusters whose mass
    exceeds 1e-6.  ``degenerate`` is set when the graph has no edges or
    two live clusters share a connectivity profile bit for bit; near-ties
    count as distinct (see :meth:`ConnectivityMatrix.has_distinct_profiles`).
    A cluster is live when some cell of its row in the final plan's pair
    mass exceeds ``DENOMINATOR_FLOOR``; a dead one's row is the 0.5
    placeholder and never counts as a tie.
    """

    plan: TransportPlan
    connectivity: ConnectivityMatrix
    loss_history: list[float]
    k_hat: int
    labels: Labels
    runtime_ms: float
    degenerate: bool = False


def penalty_linearization(plan, sparsity: float) -> np.ndarray:
    """Tangent of the penalty at the current plan: one price per cluster.

    Entry k equals ``sparsity / (2 sqrt(max(q_k, MASS_FLOOR)))``, the exact
    gradient of the penalty in column k wherever masses exceed the floor.
    Nearly dead clusters therefore price any returning mass prohibitively.
    """
    q = np.maximum(_plan_matrix(plan).sum(axis=0), MASS_FLOOR)
    return _check_sparsity(sparsity) / (2.0 * np.sqrt(q))


def _merge_rowcol(mat: np.ndarray, i: int, j: int) -> np.ndarray:
    out = mat.copy()
    out[i, :] += out[j, :]
    out[:, i] += out[:, j]
    return np.delete(np.delete(out, j, axis=0), j, axis=1)


def _refit(summ: tuple, loss: CompositeLoss, sparsity: float) -> tuple[ConnectivityMatrix, float]:
    """Closed-form connectivity of the plan with pair summaries ``summ``, and the score there."""
    conn = ConnectivityMatrix(theta_from_summaries(summ, loss))
    return conn, summary_objective(summ, conn.raw, loss, sparsity)


def _merge_step(
    kernel: CostKernel,
    t: np.ndarray,
    summ: tuple,
    conn: ConnectivityMatrix,
    pen: float,
    *,
    sparsity: float,
) -> tuple[np.ndarray, tuple, ConnectivityMatrix, float]:
    """Pour one cluster into another while that strictly lowers the score.

    ``summ`` holds the pair summaries of ``t`` and ``(conn, pen)`` their
    :func:`_refit`; the same four are returned after the last accepted
    merge.  Candidates are ranked by the :func:`_refit` score of their
    merged summaries, so an accepted merge is a descent step.  The best one
    is formed as a plan and re-scored from its own fresh summaries before
    being accepted, which keeps the loss history non-increasing despite
    floating-point dust; those summaries serve the next pass.
    """
    while True:
        s, d, q, f1 = summ
        best_gain, best_pair = 0.0, None
        for i, j in itertools.combinations(np.flatnonzero(q > 1e-12).tolist(), 2):
            merged_q = np.delete(q + (np.arange(q.size) == i) * q[j], j)
            cand = (_merge_rowcol(s, i, j), _merge_rowcol(d, i, j), merged_q, f1)
            gain = pen - _refit(cand, kernel.loss, sparsity)[1]
            if gain > best_gain:
                best_gain, best_pair = gain, (i, j)
        if best_pair is None:
            return t, summ, conn, pen
        i, j = best_pair
        merged = t.copy()
        merged[:, i] += merged[:, j]
        merged[:, j] = 0.0
        merged_summ = kernel.pair_summaries(merged)
        merged_conn, merged_pen = _refit(merged_summ, kernel.loss, sparsity)
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
    prices: np.ndarray,
) -> np.ndarray:
    """Frank-Wolfe on <cost(t), t> + <prices, column masses of t> over row-constrained plans.

    Applies the cost to ``t0`` and then once per iteration, to the vertex,
    through neighbour-label sums carried from one vertex to the next.
    Stops at the first step that leaves the plan unchanged, so it returns
    ``t0`` itself when no step moves it.
    """
    n, k = t0.shape
    t = t0
    m = kernel.cost(t, theta)
    obj = _check_finite(float(np.vdot(m, t)) + float(prices @ t.sum(axis=0)), "a Frank-Wolfe step")
    rows = np.arange(n)
    unit = 1.0 / n
    cols = sums = None
    for _ in range(FW_MAX_ITERS):
        grad = 2.0 * m + prices
        cols, old = np.argmin(grad, axis=1), cols
        x = np.zeros_like(t)
        x[rows, cols] = unit
        # A @ x is unit times the neighbour-label sums, which the last vertex's
        # sums give after an update over the rows whose label changed
        sums = kernel.label_sums(cols, k, sums, old)
        mx = kernel.cost(x, theta, unit * sums)
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
        obj = _check_finite((a * gamma + b) * gamma + f0, "a Frank-Wolfe step")
        if _stalled(f0, obj, FW_REL_TOL):
            break
    return t


def _feasible(plan0) -> TransportPlan:
    """``plan0`` as a plan: a raw array must pass the ``TransportPlan`` checks."""
    return plan0 if isinstance(plan0, TransportPlan) else TransportPlan(plan0)


def fw_solve(adj, loss: CompositeLoss, conn, plan0: TransportPlan) -> TransportPlan:
    """Minimize the objective at fixed connectivity from a feasible start.

    One Frank-Wolfe run with zero cluster prices, the plan :func:`mm_solve`
    returns without penalty.  Ties in the row-wise oracle resolve to the
    lowest cluster index, so runs are deterministic.
    """
    kernel, t0, theta = _checked_kernel(adj, loss, _feasible(plan0), conn)
    return TransportPlan(_fw_core(kernel, theta, t0, np.zeros(t0.shape[1])))


def _mm_core(
    kernel: CostKernel,
    theta: np.ndarray,
    t0: np.ndarray,
    summ0: tuple,
    sparsity: float,
) -> tuple[np.ndarray, tuple]:
    """Majorize-minimize from ``t0`` (summaries ``summ0``); returns the plan and its summaries."""
    t, summ = t0, summ0
    where = "a majorize-minimize round"
    pen = _check_finite(summary_objective(summ, theta, kernel.loss, sparsity), where)
    for _ in range(MM_MAX_ITERS if sparsity else 1):  # zero prices: one plain Frank-Wolfe run
        moved = _fw_core(kernel, theta, t, penalty_linearization(t, sparsity))
        if moved is t:
            break
        t, summ = moved, kernel.pair_summaries(moved)
        new_pen = _check_finite(summary_objective(summ, theta, kernel.loss, sparsity), where)
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
) -> TransportPlan:
    """Minimize objective plus sparsity penalty by majorize-minimize rounds.

    Each round replaces the concave penalty with its tangent at the
    current plan and runs Frank-Wolfe warm-started, stopping when the
    true penalized objective stalls.  With ``sparsity == 0`` this is
    :func:`fw_solve`, which prices no plan.
    """
    sparsity = _check_sparsity(sparsity)
    if not sparsity:
        return fw_solve(adj, loss, conn, plan0)
    kernel, t0, theta = _checked_kernel(adj, loss, _feasible(plan0), conn)
    return TransportPlan(_mm_core(kernel, theta, t0, kernel.pair_summaries(t0), sparsity)[0])


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
    kernel, t, _ = _checked_kernel(adj, loss, _feasible(plan0))
    history: list[float] = []
    summ = kernel.pair_summaries(t)
    conn, _ = _refit(summ, loss, sparsity)
    for _ in range(BCD_MAX_ITERS):
        t, summ = _mm_core(kernel, conn.raw, t, summ, sparsity)
        conn, pen = _refit(summ, loss, sparsity)
        if sparsity > 0.0:
            t, summ, conn, pen = _merge_step(kernel, t, summ, conn, pen, sparsity=sparsity)
        history.append(_check_finite(pen, "an alternating-fit round"))
        if len(history) > 1 and _stalled(history[-2], pen, BCD_REL_TOL):
            break
    plan = TransportPlan(t)
    runtime_ms = (time.perf_counter() - start) * 1e3
    # dead rows and columns hold the placeholder 0.5, so live rows tie where their live columns do
    live = ~np.all(summ[1] <= DENOMINATOR_FLOOR, axis=1)
    return FitResult(
        plan=plan,
        connectivity=conn,
        loss_history=history,
        k_hat=selected_k(plan),
        labels=hard_labels(plan),
        runtime_ms=runtime_ms,
        degenerate=kernel.a.nnz == 0
        or not ConnectivityMatrix(conn.raw[np.ix_(live, live)]).has_distinct_profiles(),
    )


def _checked_resp(resp) -> np.ndarray:
    """``resp`` as floats, checked 2-d and nonnegative with rows summing to 1 within 1e-8."""
    resp = np.asarray(resp, dtype=np.float64)
    if resp.ndim != 2:
        raise ValueError("responsibilities must be 2-d")
    if np.any(resp < 0.0) or np.max(np.abs(resp.sum(axis=1) - 1.0)) > 1e-8:
        raise ValueError("responsibility rows must be probability vectors")
    return resp


def elbo_value(resp, adj, conn: ConnectivityMatrix, props: Proportions) -> float:
    """Evidence lower bound of the Bernoulli block model.

    ``resp`` holds row-stochastic assignment responsibilities.  The bound
    is the expected edge log-likelihood (each unordered pair counted once,
    no self pairs) plus the assignment entropy plus the expected log prior
    under ``props``.  The convention 0 log 0 = 0 applies throughout.
    """
    resp = _checked_resp(resp)
    if resp.shape[1] != props.k or resp.shape[1] != conn.k:
        raise ValueError("responsibilities, proportions and connectivity disagree on k")
    if np.any((props.weights == 0.0) & (resp.sum(axis=0) > 0.0)):
        raise ValueError("a cluster with zero prior mass carries responsibility")
    kernel, _, theta = _checked_kernel(adj, make_loss("bernoulli_nll"), resp, conn)
    return _elbo(kernel.objective(resp, theta), resp, props)


def _elbo(quad: float, resp: np.ndarray, props: Proportions) -> float:
    """:func:`elbo_value` of checked responsibilities whose Bernoulli objective is ``quad``."""
    # Imported here: scipy.special costs ~0.3 s to load and a plain fit never needs it.
    from scipy.special import xlogy

    if not np.isfinite(quad):
        raise FloatingPointError("non-finite objective: connectivity outside loss domain?")
    entropy = -float(xlogy(resp, resp).sum())
    prior = float(xlogy(resp.sum(axis=0), props.weights).sum())
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
