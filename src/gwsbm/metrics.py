"""Evaluation metrics: adjusted Rand index, cluster counts, alignment errors."""

from __future__ import annotations

import itertools

import numpy as np

from .initplans import labels_to_plan
from .losses import _plan_matrix
from .sbm import ConnectivityMatrix, Labels, _as

#: Clusters with mass above this threshold count as selected.
MASS_TOL = 1e-6

#: Connectivity alignment is exhaustive up to this many clusters.
EXHAUSTIVE_K = 8

#: Value used to pad connectivity matrices of unequal size before alignment.
PAD_VALUE = 0.5


def _partitions(labels_a, labels_b) -> tuple[np.ndarray, np.ndarray]:
    """The label values of two partitions, checked to label the same nonempty set of nodes."""
    a, b = _as(Labels, labels_a).values, _as(Labels, labels_b).values
    if a.shape != b.shape:
        raise ValueError("partitions must label the same nodes")
    if a.size == 0:
        raise ValueError("partitions must be nonempty")
    return a, b


def _best_matching(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """``match[p]``, the cluster of ``b`` paired with cluster ``p`` of ``a`` (both labeled
    below ``k``) by the one-to-one pairing under which most nodes agree."""
    # Imported here: scipy.optimize costs ~0.2 s to load and a plain fit never needs it.
    from scipy.optimize import linear_sum_assignment

    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (a, b), 1)
    return linear_sum_assignment(-confusion)[1]


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index between two partitions of the same nodes.

    Pair counts are accumulated in exact integer arithmetic.  The score is
    1 for identical partitions, has expectation 0 under independent random
    partitions, and can go negative for partitions that disagree more than
    chance would.
    """
    a, b = _partitions(labels_a, labels_b)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka = int(ai.max()) + 1
    kb = int(bi.max()) + 1
    contingency = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(contingency, (ai, bi), 1)
    sum_cells = int(sum(_comb2(int(x)) for x in contingency.ravel()))
    sum_rows = int(sum(_comb2(int(x)) for x in contingency.sum(axis=1)))
    sum_cols = int(sum(_comb2(int(x)) for x in contingency.sum(axis=0)))
    total = _comb2(a.size)
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
    a, b = _partitions(labels_hat, labels_star)
    match = _best_matching(a, b, int(max(a.max(), b.max())) + 1)
    return float(np.count_nonzero(match[a] == b)) / a.size


def _pad(theta: np.ndarray, k: int) -> np.ndarray:
    return np.pad(theta, (0, k - theta.shape[0]), constant_values=PAD_VALUE)


def connectivity_error(conn_hat, conn_star, labels_hat, labels_star) -> float:
    """Frobenius error between connectivities after aligning cluster labels.

    Clusters that the fitted labels never use are dropped first, so a fit
    that selected fewer clusters than it searched is compared at its
    effective size.  The smaller matrix is padded to the larger with a
    neutral 0.5.  Up to 8 clusters the aligning permutation is found
    exhaustively; beyond that it comes from a maximum-agreement matching
    of the two label vectors.
    """
    theta_hat = _as(ConnectivityMatrix, conn_hat).raw
    theta_star = _as(ConnectivityMatrix, conn_star).raw
    z_hat, z_star = _partitions(labels_hat, labels_star)
    for side, z, theta in (("labels_hat", z_hat, theta_hat), ("labels_star", z_star, theta_star)):
        if z.max() >= len(theta):
            raise ValueError(f"{side} uses cluster {z.max()} of a {len(theta)}-cluster connectivity")
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
    sigma = np.argsort(_best_matching(z_hat, z_star, k))  # fitted cluster of each planted one
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
    labels_star = _as(Labels, labels_star)
    n, k = t.shape
    if labels_star.n != n:
        raise ValueError("labels and plan disagree on n")
    target = labels_to_plan(labels_star, k).matrix
    cost = np.abs(t[:, :, None] - target[:, None, :]).sum(axis=0)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())
