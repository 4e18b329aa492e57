"""Evaluation metrics: adjusted Rand index, cluster counts, alignment errors."""

from __future__ import annotations

import itertools

import numpy as np

from .losses import _plan_matrix
from .sbm import ConnectivityMatrix, Labels

#: Clusters with mass above this threshold count as selected.
MASS_TOL = 1e-6

#: Connectivity alignment is exhaustive up to this many clusters.
EXHAUSTIVE_K = 8

#: Value used to pad connectivity matrices of unequal size before alignment.
PAD_VALUE = 0.5


def _label_values(labels) -> np.ndarray:
    if isinstance(labels, Labels):
        return labels.values
    arr = np.asarray(labels)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("labels must be a vector of integers")
    return arr.astype(np.int64)


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index between two partitions of the same nodes.

    Pair counts are accumulated in exact integer arithmetic.  The score is
    1 for identical partitions, has expectation 0 under independent random
    partitions, and can go negative for partitions that disagree more than
    chance would.
    """
    a = _label_values(labels_a)
    b = _label_values(labels_b)
    if a.shape != b.shape:
        raise ValueError("partitions must label the same nodes")
    n = int(a.size)
    if n == 0:
        raise ValueError("partitions must be nonempty")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka = int(ai.max()) + 1
    kb = int(bi.max()) + 1
    contingency = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(contingency, (ai, bi), 1)
    sum_cells = int(sum(_comb2(int(x)) for x in contingency.ravel()))
    sum_rows = int(sum(_comb2(int(x)) for x in contingency.sum(axis=1)))
    sum_cols = int(sum(_comb2(int(x)) for x in contingency.sum(axis=0)))
    total = _comb2(n)
    # exact integers: ari = (cells - rows*cols/total) / ((rows+cols)/2 - rows*cols/total)
    numerator = sum_cells * total - sum_rows * sum_cols
    denominator = (sum_rows + sum_cols) * total - 2 * sum_rows * sum_cols
    if denominator == 0:
        return 1.0
    return 2.0 * numerator / denominator


def hard_labels(plan) -> Labels:
    """Row-wise argmax labels of a plan; ties go to the lowest index."""
    t = _plan_matrix(plan)
    return Labels(np.argmax(t, axis=1), t.shape[1])


def selected_k(plan) -> int:
    """Number of clusters whose total mass exceeds ``MASS_TOL``."""
    return int(np.count_nonzero(_plan_matrix(plan).sum(axis=0) > MASS_TOL))


def label_accuracy(labels_hat, labels_star) -> float:
    """Fraction of nodes labeled correctly under the best cluster matching."""
    # Imported here: scipy.optimize costs ~0.2 s to load and a plain fit never needs it.
    from scipy.optimize import linear_sum_assignment

    a = _label_values(labels_hat)
    b = _label_values(labels_star)
    if a.shape != b.shape:
        raise ValueError("partitions must label the same nodes")
    k = int(max(a.max(), b.max())) + 1
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (a, b), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum()) / a.size


def _connectivity_values(conn) -> np.ndarray:
    if isinstance(conn, ConnectivityMatrix):
        return np.asarray(conn.raw, dtype=np.float64)
    return np.asarray(conn, dtype=np.float64)


def _pad(theta: np.ndarray, k: int) -> np.ndarray:
    if theta.shape[0] == k:
        return theta
    out = np.full((k, k), PAD_VALUE)
    m = theta.shape[0]
    out[:m, :m] = theta
    return out


def connectivity_error(conn_hat, conn_star, labels_hat, labels_star) -> float:
    """Frobenius error between connectivities after aligning cluster labels.

    Clusters that the fitted labels never use are dropped first, so a fit
    that selected fewer clusters than it searched is compared at its
    effective size.  The smaller matrix is padded to the larger with a
    neutral 0.5.  Up to 8 clusters the aligning permutation is found
    exhaustively; beyond that it comes from a maximum-agreement matching
    of the two label vectors.
    """
    theta_hat = _connectivity_values(conn_hat)
    theta_star = _connectivity_values(conn_star)
    z_hat = _label_values(labels_hat)
    z_star = _label_values(labels_star)
    if z_hat.shape != z_star.shape:
        raise ValueError("partitions must label the same nodes")
    active, z_hat = np.unique(z_hat, return_inverse=True)
    theta_hat = theta_hat[np.ix_(active, active)]
    k = max(theta_hat.shape[0], theta_star.shape[0])
    theta_hat = _pad(theta_hat, k)
    theta_star = _pad(theta_star, k)
    if k <= EXHAUSTIVE_K:
        best = np.inf
        for perm in itertools.permutations(range(k)):
            p = np.array(perm)
            err = float(np.linalg.norm(theta_hat[np.ix_(p, p)] - theta_star))
            best = min(best, err)
        return best
    # Imported here: scipy.optimize costs ~0.2 s to load and k <= 8 never needs it.
    from scipy.optimize import linear_sum_assignment

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (z_hat, z_star), 1)
    rows, cols = linear_sum_assignment(-confusion)
    sigma = np.empty(k, dtype=np.int64)
    sigma[cols] = rows
    aligned = theta_hat[np.ix_(sigma, sigma)]
    return float(np.linalg.norm(aligned - theta_star))


def aligned_plan_error(plan, labels_star) -> float:
    """L1 distance from a plan to the planted hard plan, up to relabeling.

    Compares against the plan that puts each node's 1/n mass on its
    planted cluster, minimized over cluster permutations.  The distance
    splits by column, so the best permutation solves a linear assignment
    on ``C[p, q] = sum_i |T[i, p] - target[i, q]|``, exactly for every k.
    """
    # Imported here: scipy.optimize costs ~0.2 s to load and a plain fit never needs it.
    from scipy.optimize import linear_sum_assignment

    t = _plan_matrix(plan)
    z = _label_values(labels_star)
    n, k = t.shape
    if z.size != n:
        raise ValueError("labels and plan disagree on n")
    if int(z.max()) >= k:
        raise ValueError("plan has fewer clusters than the labels use")
    target = np.zeros((n, k))
    target[np.arange(n), z] = 1.0 / n
    cost = np.abs(t[:, :, None] - target[:, None, :]).sum(axis=0)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())
