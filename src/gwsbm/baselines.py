"""Reference methods: variational EM and exhaustive small-scale oracles.

The exhaustive routines enumerate all k**n hard assignments, so they are
guarded to tiny instances; they exist to certify the scalable solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initplans import labels_to_plan
from .losses import CompositeLoss, CostKernel, TransportPlan, _checked_kernel, make_loss
from .sbm import AdjacencyMatrix, ConnectivityMatrix, Labels, Proportions, _as
from .solver import _checked_resp, _elbo, _fw_core, _refit, _stalled

#: Hard cap on k**n for the exhaustive routines.
ENUMERATION_CAP = 10_000_000

#: Lower cap for :func:`restarted_fw_minimum`, which runs one Frank-Wolfe solve per labeling.
RESTART_CAP = 1_000_000

_CHUNK = 1 << 14

#: Proportions are clamped here when a cluster empties during VEM.
ALPHA_FLOOR = 1e-8

#: Outer-iteration cap and relative ELBO stopping tolerance of :func:`vem_fit`.
VEM_MAX_ITERS = 100
VEM_REL_TOL = 1e-7

#: Bracket width at which :func:`_golden_max` stops, and its iteration cap.
GOLDEN_TOL = 1e-9
GOLDEN_MAX_ITERS = 200


@dataclass
class VemState:
    """Final state of :func:`vem_fit`.

    ``elbo_history`` holds the bound after every outer iteration
    (the starting value first) and is non-decreasing.
    """

    resp: np.ndarray
    connectivity: ConnectivityMatrix
    proportions: Proportions
    elbo: float
    elbo_history: list[float]


def _m_step(kernel: CostKernel, resp: np.ndarray):
    w = resp.mean(axis=0)
    w = np.maximum(w, ALPHA_FLOOR)
    props = Proportions(w / w.sum())
    conn, quad = _refit(kernel.pair_summaries(resp), kernel.loss, 0.0)
    return props, conn, _elbo(quad, resp, props)


def vem_fit(
    adj: AdjacencyMatrix,
    k: int,
    resp0: np.ndarray,
) -> VemState:
    """Variational EM for the Bernoulli block model.

    The E-step iterates the mean-field fixed point in the log domain
    (each row gets ``log alpha_k`` minus the expected pairwise code length
    of its edges), row-normalizes, and damps the update by one half;
    sweeps stop when the mean absolute change drops below 1e-6 or after
    50 sweeps.  The M-step sets proportions to cluster means (floored at
    1e-8 and renormalized if a cluster empties); the connectivity (pair-weighted
    edge frequencies) and the bound come from one pair-summary pass through the
    solver's closed-form refit.  Outer iterations stop when the ELBO's
    relative change falls below ``VEM_REL_TOL`` or after ``VEM_MAX_ITERS``.
    """
    # Imported here: scipy.special costs ~0.3 s to load and a plain fit never needs it.
    from scipy.special import logsumexp

    resp = _checked_resp(np.array(resp0, dtype=np.float64))
    if resp.shape[1] != k:
        raise ValueError("responsibilities must be n x k")
    kernel = _checked_kernel(adj, make_loss("bernoulli_nll"), resp)[0]
    props, conn, elbo = _m_step(kernel, resp)
    history = [elbo]
    for _ in range(VEM_MAX_ITERS):
        theta = conn.raw  # a closed-form connectivity is already clamped
        log_alpha = np.log(props.weights)
        for _ in range(50):
            logits = log_alpha[None, :] - kernel.cost(resp, theta)
            logits -= logsumexp(logits, axis=1, keepdims=True)
            proposal = np.exp(logits)
            new = 0.5 * resp + 0.5 * proposal
            delta = float(np.abs(new - resp).mean())
            resp = new
            if delta < 1e-6:
                break
        props, conn, elbo = _m_step(kernel, resp)
        history.append(elbo)
        if _stalled(history[-2], elbo, VEM_REL_TOL):
            break
    return VemState(resp, conn, props, elbo, history)


def _guard_enumeration(n: int, k: int, cap: int) -> int:
    count = k**n
    if count > cap:
        raise ValueError(f"{k}**{n} assignments exceed the enumeration cap of {cap}")
    return count


def _labelings(n: int, k: int, cap: int = ENUMERATION_CAP):
    """The ``k**n`` labelings in lexicographic order, ``_CHUNK`` rows at a time; a count
    above ``cap`` is refused at the call, before the caller builds anything."""
    count = _guard_enumeration(n, k, cap)
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    starts = range(0, count, _CHUNK)
    return ((np.arange(i, min(i + _CHUNK, count))[:, None] // powers) % k for i in starts)


def exact_log_likelihood(adj: AdjacencyMatrix, conn: ConnectivityMatrix, props: Proportions) -> float:
    """Exact marginal log-likelihood by summing over all hard assignments.

    Uses log-sum-exp over the k**n assignment vectors; refuses instances
    where that count exceeds 1e7.  ``adj`` and ``props`` may be raw arrays;
    ``conn`` goes to the Bernoulli loss's ``prepare_theta``, which clamps a
    ``ConnectivityMatrix`` and takes a raw array already inside (0, 1), so
    the edge terms stay finite.
    """
    # Imported here: scipy.special costs ~0.3 s to load and a plain fit never needs it.
    from scipy.special import logsumexp

    adj, props = _as(AdjacencyMatrix, adj), _as(Proportions, props)
    theta = make_loss("bernoulli_nll").prepare_theta(conn)
    n, k = adj.n, theta.shape[0]
    if props.k != k:
        raise ValueError("connectivity and proportions disagree on k")
    labelings = _labelings(n, k)
    logp1 = np.log(theta)
    logp0 = np.log1p(-theta)
    with np.errstate(divide="ignore"):
        logw = np.log(props.weights)
    iu, ju = np.triu_indices(n, 1)
    aij = adj.entries[iu, ju]
    parts = []
    for z in labelings:
        ll = logw[z].sum(axis=1)
        zi = z[:, iu]
        zj = z[:, ju]
        ll = ll + (aij * logp1[zi, zj] + (1.0 - aij) * logp0[zi, zj]).sum(axis=1)
        parts.append(logsumexp(ll))
    return float(logsumexp(parts))


def sup_log_likelihood(
    adj: AdjacencyMatrix,
    conn: ConnectivityMatrix,
    grid_size: int = 101,
) -> float:
    """Exact log-likelihood maximized over cluster proportions.

    Scans a simplex grid with ``grid_size`` points per edge (supported for
    up to three clusters), then refines with one golden-section search
    along the most promising vertex direction.  The result is a certified
    lower bound on the supremum that is tight to ~1e-6 for two clusters.
    ``adj`` and ``conn`` may be raw arrays, read as in :func:`exact_log_likelihood`.
    """
    adj, k = _as(AdjacencyMatrix, adj), _as(ConnectivityMatrix, conn).k
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    if k == 1:
        return exact_log_likelihood(adj, conn, Proportions(np.ones(1)))

    def value(weights: np.ndarray) -> float:
        return exact_log_likelihood(adj, conn, Proportions(weights))

    if k == 2:
        ts = np.linspace(0.0, 1.0, grid_size)
        vals = [value(np.array([t, 1.0 - t])) for t in ts]
        best = int(np.argmax(vals))
        lo = ts[max(best - 1, 0)]
        hi = ts[min(best + 1, grid_size - 1)]
        t_star, v_star = _golden_max(lambda t: value(np.array([t, 1.0 - t])), lo, hi)
        return max(v_star, float(vals[best]))
    if k == 3:
        g = grid_size - 1
        best_val = -np.inf
        best_w = None
        for i in range(g + 1):
            for j in range(g + 1 - i):
                w = np.array([i, j, g - i - j], dtype=np.float64) / g
                v = value(w)
                if v > best_val:
                    best_val = v
                    best_w = w
        step = 1.0 / g
        best_axis = None
        axis_val = best_val
        for axis in range(3):
            for t in (-step, step):
                w = _toward_vertex(best_w, axis, t)
                if w is None:
                    continue
                v = value(w)
                if v > axis_val:
                    axis_val = v
                    best_axis = (axis, t)
        if best_axis is None:
            return best_val
        axis, t = best_axis
        lo = min(0.0, 2.0 * t)
        hi = max(0.0, 2.0 * t)
        _, v_star = _golden_max(
            lambda s: -np.inf if _toward_vertex(best_w, axis, s) is None
            else value(_toward_vertex(best_w, axis, s)),
            lo,
            hi,
        )
        return max(best_val, v_star)
    raise ValueError("proportion search supports at most three clusters")


def _toward_vertex(w: np.ndarray, axis: int, t: float) -> np.ndarray | None:
    """Move a simplex point toward (t > 0) or away from (t < 0) a vertex."""
    vertex = np.zeros_like(w)
    vertex[axis] = 1.0
    out = (1.0 - t) * w + t * vertex
    if np.any(out < 0.0) or np.any(out > 1.0):
        return None
    return out / out.sum()


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization of a unimodal scalar function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITERS):
        if b - a < GOLDEN_TOL:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc > fd:
        return c, fc
    return d, fd


def brute_force_srgw(adj: AdjacencyMatrix, loss: CompositeLoss, conn) -> tuple[float, Labels]:
    """Global minimum of the objective over all hard assignment plans.

    Enumerates every labeling (guarded to k**n <= 1e7), evaluates the
    objective of its hard plan directly from the loss decomposition, and
    returns the smallest value with the lexicographically first labeling
    attaining it.  Soft plans can do no better, so this is the exact
    semi-relaxed Gromov-Wasserstein value whenever a hard minimizer exists.
    """
    adj = _as(AdjacencyMatrix, adj)
    n = adj.n
    theta = loss.prepare_theta(conn)
    k = theta.shape[0]
    labelings = _labelings(n, k)
    f2t = np.asarray(loss.f2(theta), dtype=np.float64)
    h2t = np.asarray(loss.h2(theta), dtype=np.float64)
    iu, ju = np.triu_indices(n, 1)
    aij = adj.entries[iu, ju]
    f1a = float(np.asarray(loss.f1(aij), dtype=np.float64).sum())
    best_val = np.inf
    best_z = None
    for z in labelings:
        zi = z[:, iu]
        zj = z[:, ju]
        pair = (f2t[zi, zj] - aij[None, :] * h2t[zi, zj]).sum(axis=1)
        vals = 2.0 * (f1a + pair) / n**2
        arg = int(np.argmin(vals))
        if vals[arg] < best_val:
            best_val = float(vals[arg])
            best_z = z[arg].copy()
    return best_val, Labels(best_z, k)


def restarted_fw_minimum(adj: AdjacencyMatrix, loss: CompositeLoss, conn) -> float:
    """Least objective :func:`gwsbm.solver.fw_solve` reaches from any hard plan (k**n starts).

    Refuses k**n above ``RESTART_CAP`` before any solve; :func:`brute_force_srgw`
    is the optimum it should reach.  Every start shares one cost kernel, and
    each result is checked as a plan and priced from its pair summaries.
    """
    adj = _as(AdjacencyMatrix, adj)
    n = adj.n
    theta = loss.prepare_theta(conn)
    k = theta.shape[0]
    labelings = _labelings(n, k, RESTART_CAP)
    kernel = CostKernel(adj, loss)
    best = np.inf
    for chunk in labelings:
        for z in chunk:
            t = _fw_core(kernel, theta, labels_to_plan(Labels(z, k)).matrix, np.zeros(k))
            best = min(best, kernel.objective(TransportPlan(t).matrix, theta))
    return best
