"""Independent reference implementations used to cross-check the package.

Everything here favors obviousness over speed: explicit quadruple loops,
scalar golden-section search, enumeration over all assignments.  None of
it shares code with the fast kernels under test.
"""

import itertools
import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import gwsbm
from gwsbm import AdjacencyMatrix, ConnectivityMatrix, TransportPlan


def quadruple_cost(a, t, theta, loss):
    """M[i, k] = sum over j != i and all l of loss(a[i,j], theta[k,l]) * t[j,l]."""
    n, k = t.shape
    m = np.zeros((n, k))
    for i in range(n):
        for kk in range(k):
            acc = 0.0
            for j in range(n):
                if j == i:
                    continue
                for ll in range(k):
                    acc += float(loss(a[i, j], theta[kk, ll])) * t[j, ll]
            m[i, kk] = acc
    return m


def quadruple_objective(a, t, theta, loss):
    """Plain-loop evaluation of the transport objective, diagonal excluded."""
    n, k = t.shape
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for kk in range(k):
                for ll in range(k):
                    acc += float(loss(a[i, j], theta[kk, ll])) * t[i, kk] * t[j, ll]
    return acc


def quadruple_magnitude(a, t, theta, loss):
    """:func:`quadruple_objective` with each loss term's parts in absolute value.

    The scale of the objective's rounding error: the terms f1, f2 and
    a * h2 can cancel (an exact squared-loss fit sums to ~0), so an
    objective is only as accurate as this, not as its own value.
    """

    def magnitude(x, b):
        return abs(loss.f1(x)) + abs(loss.f2(b)) + abs(x * loss.h2(b))

    return quadruple_objective(a, t, theta, magnitude)


def cost_magnitude(a, t, theta, loss):
    """:func:`quadruple_cost` with each loss term's parts in absolute value: its rounding scale."""

    def magnitude(x, b):
        return abs(loss.f1(x)) + abs(loss.f2(b)) + abs(x * loss.h2(b))

    return quadruple_cost(a, t, theta, magnitude)


def golden_min(f, lo, hi, iters=150):
    """Scalar golden-section minimizer of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return c if fc < fd else d


def central_gradient(f, t, step=1e-6):
    """Central finite-difference gradient of a scalar function of a matrix."""
    g = np.zeros_like(t)
    for idx in np.ndindex(*t.shape):
        up = t.copy()
        dn = t.copy()
        up[idx] += step
        dn[idx] -= step
        g[idx] = (f(up) - f(dn)) / (2.0 * step)
    return g


def likelihood_by_product(a, theta, alpha):
    """Marginal likelihood summed assignment by assignment, no log tricks.

    Only usable for a handful of nodes; every term is an explicit product
    of Bernoulli factors over the upper triangle.
    """
    n = a.shape[0]
    k = len(alpha)
    total = 0.0
    for z in itertools.product(range(k), repeat=n):
        term = 1.0
        for i in z:
            term *= alpha[i]
        for i in range(n):
            for j in range(i + 1, n):
                p = theta[z[i], z[j]]
                term *= p if a[i, j] == 1.0 else 1.0 - p
        total += term
    return total


def enumerate_hard_plans(n, k):
    """Yield (labels, plan) for every assignment of n nodes to k clusters."""
    for z in itertools.product(range(k), repeat=n):
        t = np.zeros((n, k))
        t[np.arange(n), z] = 1.0 / n
        yield np.array(z, dtype=np.int64), t


def lloyd_by_masks(points, centers, max_iters):
    """Lloyd iterations with one boolean mask per cluster and step.

    The reference for ``initplans._lloyd``: empty clusters are checked in
    cluster order, each stealing the point farthest from its center; a
    cluster still empty after that pass (a later steal took its only point)
    takes the farthest point among clusters with at least two members.
    Each center is the mean of its cluster's rows.  Returns (labels,
    centers, inertia_history); ``centers`` is updated in place.
    """
    n = points.shape[0]
    k = centers.shape[0]
    history = []
    labels = None
    sq = np.einsum("ij,ij->i", points, points)
    for _ in range(max_iters):
        d2 = sq[:, None] - 2.0 * points @ centers.T + np.einsum("ij,ij->i", centers, centers)[None, :]
        np.maximum(d2, 0.0, out=d2)
        new_labels = np.argmin(d2, axis=1)
        best = d2[np.arange(n), new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(best))
                new_labels[far] = c
                centers[c] = points[far]
                best[far] = 0.0
        for c in range(k):
            if not np.any(new_labels == c):
                shared = np.array([np.sum(new_labels == new_labels[i]) >= 2 for i in range(n)])
                far = int(np.argmax(np.where(shared, best, -np.inf)))
                new_labels[far] = c
                centers[c] = points[far]
                best[far] = 0.0
        history.append(float(best.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels, centers, history


def random_binary_graph(rng, n, p=0.4):
    upper = np.triu(rng.random((n, n)) < p, 1)
    return AdjacencyMatrix((upper | upper.T).astype(np.float64))


def random_count_graph(rng, n, high=4):
    """Symmetric nonnegative-integer matrix, zero diagonal (count data)."""
    upper = np.triu(rng.integers(0, high + 1, (n, n)).astype(np.float64), 1)
    return AdjacencyMatrix(upper + upper.T)


def random_positive_graph(rng, n, lo=0.2, hi=3.0):
    """Symmetric strictly-positive weights off the diagonal."""
    upper = np.triu(rng.uniform(lo, hi, (n, n)), 1)
    return AdjacencyMatrix(upper + upper.T)


def random_plan(rng, n, k):
    t = rng.random((n, k)) + 0.05
    t /= t.sum(axis=1, keepdims=True) * n
    return TransportPlan(t)


def random_theta(rng, k, lo=0.1, hi=0.9):
    vals = rng.uniform(lo, hi, (k, k))
    return ConnectivityMatrix(0.5 * (vals + vals.T))


def graph_for_loss(rng, n, kind):
    """A random graph whose entries live in the data domain of the loss."""
    if kind == "poisson_nll":
        return random_count_graph(rng, n)
    if kind == "exponential_nll":
        return random_positive_graph(rng, n)
    return random_binary_graph(rng, n)


@st.composite
def objective_instances(draw, max_n=8, max_k=3):
    """(loss, adjacency, plan, connectivity) for objective properties.

    The graph suits the loss; the plan is any nonnegative n x k array
    (rows need not carry 1/n; entries are 0 or at least 1e-2, so that a
    pair mass ``q_k q_l - sum_i t_ik t_il`` is at worst a hundredth of the
    products it is computed from); the connectivity is symmetric inside
    every loss domain.
    """
    kind = draw(st.sampled_from(gwsbm.LOSS_KINDS))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    entry = st.one_of(st.just(0.0), st.floats(1e-2, 1.0))
    t = np.array(draw(st.lists(entry, min_size=n * k, max_size=n * k))).reshape(n, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gwsbm.make_loss(kind), graph_for_loss(rng, n, kind), t, random_theta(rng, k)


@st.composite
def relabelings(draw, max_n=12, max_k=4):
    """(loss, adjacency, connectivity, label vectors) for the neighbour-label sums.

    The graph suits the loss, so it is 0/1, integer-count or real-weighted.
    After the first label vector, each next one keeps every label, moves
    every label (when k > 1), or is drawn afresh.
    """
    kind = draw(st.sampled_from(gwsbm.LOSS_KINDS))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    labels = [np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))]
    for step in draw(st.lists(st.sampled_from(["none", "all", "any"]), min_size=1, max_size=4)):
        if step == "none" or k == 1:
            labels.append(labels[-1].copy())
        elif step == "all":
            shift = np.array(draw(st.lists(st.integers(1, k - 1), min_size=n, max_size=n)))
            labels.append((labels[-1] + shift) % k)
        else:
            labels.append(np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gwsbm.make_loss(kind), graph_for_loss(rng, n, kind), random_theta(rng, k), labels


def theta_bracket(kind):
    """Search interval that safely contains the optimal cell value."""
    if kind == "squared":
        return -2.0, 6.0
    if kind == "bernoulli_nll":
        return 1e-6, 1.0 - 1e-6
    if kind == "poisson_nll":
        return 1e-6, 12.0
    return 1e-6, 50.0  # exponential rate data stays in [0.2, 3]


def cli_process_env():
    """Environment for a child ``python -m gwsbm.cli`` run of the package under test.

    The suite can import ``gwsbm`` straight from the source tree (pytest's
    ``pythonpath`` setting); a child interpreter does not inherit that, so
    the package's parent directory is put first on its ``PYTHONPATH``.
    """
    parts = [str(Path(gwsbm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in parts if p)}
