"""Starting plans for the solvers: spectral embedding plus k-means.

The embedding uses the top-k left singular vectors of the adjacency
matrix.  Because the matrix is symmetric these are its eigenvectors
ordered by absolute eigenvalue.  Small graphs (n < ``RANDOMIZED_CUTOFF``)
take exact eigenvectors from ARPACK's Lanczos iteration on the CSR array,
started from a seeded vector; a dense ``eigh`` is kept only as the
fallback where ARPACK cannot give a deterministic answer (k + 1 >= n - 1,
an ARPACK error, or tied |eigenvalues|).  Large graphs take a seeded
randomized subspace iteration on the CSR array.  Outside the fallback no
n x n array or full decomposition is formed.
"""

from __future__ import annotations

import numpy as np

from .losses import TransportPlan
from .sbm import AdjacencyMatrix, Labels, _as

#: Graphs at least this large use the randomized eigensolver.  Smaller ones
#: take exact eigenvectors (ARPACK Lanczos, dense ``eigh`` as its fallback):
#: the randomized solver there moves k_hat in 4 of the 192 cells of
#: ``perfbench/sweep_reference.json`` (all at p_in = 0.10).
RANDOMIZED_CUTOFF = 1000

#: Two of the k + 1 largest |eigenvalues| this close (relative) count as
#: tied.  Their eigenvectors are then not fixed by A, and ARPACK may restart
#: from its own process-wide random vector, so the start falls back to
#: ``eigh``.
_TIE_RTOL = 1e-9

#: Oversampling columns and power steps for the randomized solver.
OVERSAMPLE = 8
POWER_STEPS = 30

#: Uniform mass blended into hard starting plans to keep them interior.
BLEND_EPS = 1e-3

#: k-means restarts (best inertia wins) and the Lloyd step cap of each.
KMEANS_RESTARTS = 10
KMEANS_MAX_ITERS = 100


def labels_to_plan(labels: Labels, k: int | None = None) -> TransportPlan:
    """Hard assignment plan: row i puts its full 1/n mass on labels[i]."""
    if k is None:
        k = labels.k
    if k < labels.k:
        raise ValueError("target k smaller than the label range")
    n = labels.n
    t = np.zeros((n, k))
    t[np.arange(n), labels.values] = 1.0 / n
    return TransportPlan(t)


def uniform_plan(n: int, k: int) -> TransportPlan:
    """Plan spreading every row's mass evenly over all clusters."""
    if n < 1 or k < 1:
        raise ValueError(f"a plan needs n >= 1 and k >= 1, got n={n}, k={k}")
    return TransportPlan(np.full((n, k), 1.0 / (n * k)))


def blend_plan(plan: TransportPlan) -> TransportPlan:
    """Mix a plan with ``BLEND_EPS`` of the uniform plan; keeps rows feasible exactly."""
    plan = _as(TransportPlan, plan)
    n, k = plan.n, plan.k
    return TransportPlan((1.0 - BLEND_EPS) * plan.matrix + BLEND_EPS / (n * k))


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int):
    """Lloyd iterations from given centers.

    Returns (labels, centers, inertia_history).  A cluster that empties
    out steals the point currently farthest from its assigned center and
    relocates there, so the recorded inertia never increases; one emptied by
    a later steal then takes the farthest point of a cluster of two or more.
    """
    n, dim = points.shape
    k = centers.shape[0]
    rows = np.arange(n)
    history: list[float] = []
    labels = None
    sq = np.einsum("ij,ij->i", points, points)
    flat = points.ravel()
    columns = np.arange(dim)
    d2 = np.empty((n, k))
    for _ in range(max_iters):
        # |x|^2 - 2 x.c + |c|^2 in one buffer; scaling by -2 is exact, so this
        # is the three-temporary expression bit for bit
        np.matmul(points, centers.T, out=d2)
        d2 *= -2.0
        d2 += sq[:, None]
        d2 += np.einsum("ij,ij->i", centers, centers)
        np.maximum(d2, 0.0, out=d2)
        new_labels = np.argmin(d2, axis=1)
        best = d2[rows, new_labels]
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            # in cluster order, so a cluster a steal empties is caught if it comes
            # later; one it comes before is refilled from a cluster of two or more
            for refill in (False, True):
                for c in range(k):
                    if counts[c] == 0:
                        gap = np.where(counts[new_labels] > 1, best, -np.inf) if refill else best
                        far = int(np.argmax(gap))
                        counts[new_labels[far]] -= 1
                        counts[c] += 1
                        new_labels[far] = c
                        centers[c] = points[far]
                        best[far] = 0.0
        history.append(float(best.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        # one bin per (cluster, coordinate); bincount adds each bin's rows in
        # index order, as mean(axis=0) does
        bins = (labels[:, None] * dim + columns).ravel()
        sums = np.bincount(bins, weights=flat, minlength=k * dim).reshape(k, dim)
        np.divide(sums, counts[:, None], out=centers)
    return labels, centers, history


def _plusplus_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining points coincide with a center; pick uniformly
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def kmeans(points: np.ndarray, k: int, seed: int) -> Labels:
    """Best-of-``KMEANS_RESTARTS`` k-means clustering of the rows of ``points``."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a nonempty 2-d array")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    root = np.random.SeedSequence(seed)
    best_labels = None
    best_inertia = np.inf
    for child in root.spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        centers = _plusplus_centers(points, k, rng)
        labels, _, history = _lloyd(points, centers, KMEANS_MAX_ITERS)
        if history[-1] < best_inertia:
            best_inertia = history[-1]
            best_labels = labels
    return Labels(best_labels, k)


def _top_abs_eigvecs(a, k: int, seed: int) -> np.ndarray:
    """Top-k eigenvectors of a symmetric CSR matrix ordered by |eigenvalue|."""
    n = a.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5BEC]))
    if n < RANDOMIZED_CUTOFF:
        if k + 1 < n - 1:
            from scipy.sparse.linalg import ArpackError, eigsh

            try:
                w, v = eigsh(a, k=k + 1, which="LM", tol=0, v0=rng.standard_normal(n))
            except ArpackError:
                pass
            else:
                order = np.argsort(-np.abs(w))
                top = np.abs(w[order])
                if np.all(top[:-1] - top[1:] > _TIE_RTOL * top[:-1]):
                    return v[:, order[:k]]
        # ARPACK's size limit, a failure, or tied |eigenvalues|: the exact
        # decomposition, whose vectors do not depend on a restart vector
        w, v = np.linalg.eigh(a.toarray())
        order = np.argsort(-np.abs(w))
        return v[:, order[:k]]
    sketch = min(n, k + OVERSAMPLE)
    q, _ = np.linalg.qr(rng.standard_normal((n, sketch)))
    for _ in range(POWER_STEPS):
        q, _ = np.linalg.qr(a @ q)
    small = q.T @ (a @ q)
    w, v = np.linalg.eigh(0.5 * (small + small.T))
    order = np.argsort(-np.abs(w))
    return q @ v[:, order[:k]]


def spectral_init(adj: AdjacencyMatrix, k: int, seed: int) -> TransportPlan:
    """Spectral starting plan: embed, cluster, then soften.

    Nodes are embedded with the top-k singular vectors of the adjacency
    matrix (unscaled), clustered by k-means, and the resulting hard plan
    is blended with a small uniform component so every cluster keeps a
    strictly positive starting mass.
    """
    adj = _as(AdjacencyMatrix, adj)
    n = adj.n
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    vecs = _top_abs_eigvecs(adj.csr, k, seed)
    labels = kmeans(vecs, k, seed)
    return blend_plan(labels_to_plan(labels, k))
