"""Partition scores and connectivity-recovery error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwsbm import (
    ConnectivityMatrix,
    Labels,
    TransportPlan,
    aligned_plan_error,
    ari,
    connectivity_error,
    hard_labels,
    label_accuracy,
    labels_to_plan,
    selected_k,
    uniform_plan,
)


label_pairs = st.integers(2, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
    )
)


@pytest.mark.parametrize(
    "score, args, message",
    [
        (ari, (np.array([0.0, 1.0]), np.array([0, 1])), "labels must be integers"),
        (ari, (np.array([], dtype=np.int64), np.array([], dtype=np.int64)), "partitions must be nonempty"),
        (label_accuracy, (np.array([0, 1]), np.array([0, 1, 0])), "partitions must label the same nodes"),
        (connectivity_error, (np.eye(2), np.eye(2), np.array([0, 1]), np.array([0, 1, 1])),
         "partitions must label the same nodes"),
        (aligned_plan_error, (np.full((2, 2), 0.25), np.array([0, 1, 1])), "labels and plan disagree on n"),
        (aligned_plan_error, (labels_to_plan(Labels([0, 1, 2], 3)), np.array([2, 1, -1])),
         "labels must be nonnegative"),
        (aligned_plan_error, (uniform_plan(3, 2), Labels([0, 1, 2])), "labels use 3 clusters but the plan has 2"),
        (label_accuracy, (np.array([0, 1, 2]), np.array([2, 1, -1])), "labels must be nonnegative"),
        (ari, (np.array([0, 1, 2]), np.array([2, 1, -1])), "labels must be nonnegative"),
    ],
)
def test_scores_refuse_malformed_labels(score, args, message):
    with pytest.raises(ValueError, match=message):
        score(*args)


@pytest.mark.parametrize("score", [ari, label_accuracy, connectivity_error])
def test_scores_refuse_empty_partitions(score):
    """All three scores share one partition check; ``label_accuracy`` used to fail
    inside ``max()`` and ``connectivity_error`` to score no nodes at all."""
    empty = np.array([], dtype=np.int64)
    args = (np.eye(2), np.eye(2), empty, empty) if score is connectivity_error else (empty, empty)
    with pytest.raises(ValueError, match="partitions must be nonempty"):
        score(*args)


class TestAri:
    def test_identical_partitions(self):
        z = np.array([0, 1, 1, 2, 0])
        assert ari(z, z) == 1.0

    def test_relabeled_partition_still_perfect(self):
        assert ari(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])) == 1.0

    def test_crossed_partition_goes_negative(self):
        """Maximal disagreement on four points scores -1/2, below chance."""
        assert ari(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == -0.5

    def test_single_cluster_against_itself(self):
        assert ari(np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64)) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ari(np.array([0, 1]), np.array([0, 1, 0]))

    @given(pair=label_pairs)
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, pair):
        a = np.array(pair[0], dtype=np.int64)
        b = np.array(pair[1], dtype=np.int64)
        assert ari(a, b) == ari(b, a)

    @given(pair=label_pairs, salt=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabeling(self, pair, salt):
        a = np.array(pair[0], dtype=np.int64)
        b = np.array(pair[1], dtype=np.int64)
        perm = np.random.default_rng(salt).permutation(5)
        assert ari(perm[a], b) == pytest.approx(ari(a, b), abs=1e-15)
        assert ari(a, perm[a]) == 1.0


class TestPlanReadouts:
    def test_hard_labels_roundtrip_and_ties(self):
        z = np.array([1, 0, 2])
        plan = labels_to_plan(Labels(z, 3))
        assert np.array_equal(hard_labels(plan).values, z)
        n = 2
        tied = TransportPlan(np.full((n, 2), 1 / (2 * n)))
        assert np.array_equal(hard_labels(tied).values, [0, 0])
        skew = TransportPlan(np.array([[0.4, 0.6], [0.5, 0.5]]) / n)
        assert hard_labels(skew).values[0] == 1

    def test_selected_k_thresholding(self):
        t = np.zeros((5, 3))
        t[:3, 0] = 0.2
        t[3:, 1] = 0.2
        assert selected_k(TransportPlan(t)) == 2
        n, k = 4, 3
        assert selected_k(TransportPlan(np.full((n, k), 1 / (n * k)))) == k
        nearly = np.zeros((2, 2))
        nearly[:, 0] = 0.5 - 2.5e-7
        nearly[:, 1] = 2.5e-7
        assert selected_k(TransportPlan(nearly)) == 1

    def test_label_accuracy_best_matching(self):
        truth = np.array([0, 0, 1, 1])
        assert label_accuracy(np.array([1, 1, 0, 0]), truth) == 1.0
        assert label_accuracy(np.array([0, 1, 0, 1]), truth) == 0.5


class TestConnectivityError:
    def test_zero_for_permuted_truth(self):
        theta = np.array([[0.5, 0.1, 0.2], [0.1, 0.6, 0.1], [0.2, 0.1, 0.7]])
        perm = np.array([2, 0, 1])
        permuted = theta[np.ix_(perm, perm)]
        z = np.array([0, 1, 2, 0, 1, 2])
        err = connectivity_error(
            ConnectivityMatrix(permuted),
            ConnectivityMatrix(theta),
            perm[z],
            z,
        )
        assert err == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_shift_measured_after_alignment(self):
        theta = np.array([[0.5, 0.1], [0.1, 0.6]])
        shifted = theta + 0.01 * np.eye(2)
        z = np.array([0, 0, 1, 1])
        err = connectivity_error(
            ConnectivityMatrix(shifted), ConnectivityMatrix(theta), z, z
        )
        assert err == pytest.approx(0.01 * np.sqrt(2.0), abs=1e-12)
        assert connectivity_error(shifted, theta, z, z) == err  # plain arrays read alike

    def test_collapsed_fit_padded_with_neutral_value(self):
        """A fit that kept one cluster compares against truth padded at 0.5."""
        theta_star = np.array([[0.6, 0.1], [0.1, 0.6]])
        theta_hat = np.array([[0.3, 0.5], [0.5, 0.5]])  # effectively 1x1 + padding
        z_star = np.array([0, 0, 1, 1])
        z_hat = np.zeros(4, dtype=np.int64)
        err = connectivity_error(
            ConnectivityMatrix(np.array([[0.3]])),
            ConnectivityMatrix(theta_star),
            z_hat,
            z_star,
        )
        best = min(
            np.linalg.norm(theta_hat[np.ix_(p, p)] - theta_star)
            for p in ([0, 1], [1, 0])
        )
        assert err == pytest.approx(best, abs=1e-12)

    def test_exhaustive_and_matching_alignments_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta = rng.uniform(0.1, 0.9, (4, 4))
            theta = 0.5 * (theta + theta.T)
            perm = rng.permutation(4)
            z_star = np.repeat(np.arange(4), 6)
            z_hat = perm[z_star]
            permuted = theta[np.ix_(perm, perm)]
            exhaustive = connectivity_error(
                ConnectivityMatrix(permuted), ConnectivityMatrix(theta), z_hat, z_star
            )
            assert exhaustive == pytest.approx(0.0, abs=1e-13)

    def test_matching_alignment_beyond_eight_clusters(self):
        """k = 10 aligns by the maximum-agreement matching, not by enumeration: a
        truth permuted with its labels scores exactly 0.0, and a fit that leaves
        one of ten clusters empty is compared padded with 0.5."""
        rng = np.random.default_rng(10)
        theta = rng.uniform(0.1, 0.9, (10, 10))
        theta = 0.5 * (theta + theta.T)
        perm = rng.permutation(10)
        z_star = np.repeat(np.arange(10), 4)
        permuted = np.empty_like(theta)
        permuted[np.ix_(perm, perm)] = theta  # fitted cluster perm[c] is true cluster c
        err = connectivity_error(
            ConnectivityMatrix(permuted), ConnectivityMatrix(theta), perm[z_star], z_star
        )
        assert err == 0.0

        # true clusters 8 and 9 (4 and 2 nodes) share fitted cluster perm[8]; perm[9] stays empty
        z_star = np.repeat(np.arange(10), [4] * 9 + [2])
        z_hat = perm[np.minimum(z_star, 8)]
        theta_hat = rng.uniform(0.1, 0.9, (10, 10))
        theta_hat = 0.5 * (theta_hat + theta_hat.T)
        squares = 0.0
        for a in range(10):
            for b in range(10):
                aligned = theta_hat[perm[a], perm[b]] if max(a, b) < 9 else 0.5
                squares += (aligned - theta[a, b]) ** 2
        err = connectivity_error(
            ConnectivityMatrix(theta_hat), ConnectivityMatrix(theta), z_hat, z_star
        )
        assert err == pytest.approx(np.sqrt(squares), rel=1e-12)

    @pytest.mark.parametrize("k", [2, 10])
    def test_refuses_non_finite_connectivity(self, k):
        """A raw NaN connectivity is refused on either side, whether exhaustive
        (k <= 8) or matched alignment would score it; it used to score inf at
        k = 2 and nan at k = 10."""
        z, nan = np.arange(k), np.full((k, k), np.nan)
        for args in ((nan, np.eye(k)), (ConnectivityMatrix(np.eye(k)), nan)):
            with pytest.raises(ValueError, match="connectivity entries must be finite"):
                connectivity_error(*args, z, z)

    def test_refuses_asymmetric_raw_connectivity(self):
        z = np.array([0, 1])
        with pytest.raises(ValueError, match="connectivity must be symmetric"):
            connectivity_error(np.array([[0.5, 0.1], [0.2, 0.5]]), np.eye(2), z, z)

    @pytest.mark.parametrize("k", [2, 10])
    @pytest.mark.parametrize("side", ["labels_hat", "labels_star"])
    def test_refuses_labels_outside_their_connectivity(self, side, k):
        """A label k beside a k-cluster connectivity is refused naming its side,
        whether exhaustive (k <= 8) or matched alignment would score it; the fitted
        side raised IndexError, and the planted one scored 0.0 unread at k = 2."""
        theta, z = np.full((k, k), 0.3), np.arange(k)
        wide = np.append(z[:-1], k)
        labels = (wide, z) if side == "labels_hat" else (z, wide)
        with pytest.raises(ValueError, match=f"{side} uses cluster {k} of a {k}-cluster connectivity"):
            connectivity_error(theta, theta, *labels)

    def test_invariant_to_joint_relabeling(self):
        rng = np.random.default_rng(1)
        theta_star = rng.uniform(0.1, 0.9, (3, 3))
        theta_star = 0.5 * (theta_star + theta_star.T)
        theta_hat = np.clip(theta_star + rng.normal(0, 0.05, (3, 3)), 0.05, 0.95)
        theta_hat = 0.5 * (theta_hat + theta_hat.T)
        z = np.repeat(np.arange(3), 5)
        base = connectivity_error(
            ConnectivityMatrix(theta_hat), ConnectivityMatrix(theta_star), z, z
        )
        perm = np.array([1, 2, 0])
        moved = connectivity_error(
            ConnectivityMatrix(theta_hat[np.ix_(perm, perm)]),
            ConnectivityMatrix(theta_star),
            np.argsort(perm)[z],
            z,
        )
        assert moved == pytest.approx(base, abs=1e-12)


class TestAlignedPlanError:
    def test_zero_for_planted_plan_up_to_relabeling(self):
        z = np.array([0, 1, 2, 1, 0])
        plan = labels_to_plan(Labels(z, 3))
        assert aligned_plan_error(plan, z) == pytest.approx(0.0, abs=1e-15)
        perm = np.array([2, 0, 1])
        shuffled = TransportPlan(plan.matrix[:, perm])
        assert aligned_plan_error(shuffled, z) == pytest.approx(0.0, abs=1e-15)

    def test_large_cluster_count_uses_matching(self):
        """Past 8 clusters a relabeled planted plan still aligns to zero."""
        rng = np.random.default_rng(2)
        z = np.repeat(np.arange(9), 3)
        perm = rng.permutation(9)
        plan = labels_to_plan(Labels(perm[z], 9))
        assert aligned_plan_error(plan, z) == pytest.approx(0.0, abs=1e-15)

    def test_exact_beyond_eight_clusters(self):
        """At k = 9 the best relabeling never does worse than none at all.

        Cluster 0 leans by a hair towards column 1, which cluster 1 fills:
        matching the row argmaxes would swap the two columns, while the L1
        optimum keeps the identity.
        """
        z = np.concatenate([np.zeros(5), np.ones(4), np.repeat(np.arange(2, 9), 4)]).astype(np.int64)
        n = z.size
        rows = np.eye(9)[z]
        rows[:5] = 0.07
        rows[:5, 0], rows[:5, 1] = 0.25, 0.26
        t = rows / n
        identity_l1 = float(np.abs(t - np.eye(9)[z] / n).sum())
        err = aligned_plan_error(TransportPlan(t), z)
        assert err == pytest.approx(identity_l1, abs=1e-15)
        perm = np.random.default_rng(3).permutation(9)
        assert aligned_plan_error(TransportPlan(t[:, perm]), z) == pytest.approx(err, abs=1e-15)

    def test_mass_misplacement_measured_in_l1(self):
        z = np.array([0, 0, 1, 1])
        t = labels_to_plan(Labels(z, 2)).matrix.copy()
        t[0] = [0.125, 0.125]  # half of node 0's mass moved across
        err = aligned_plan_error(TransportPlan(t), z)
        assert err == pytest.approx(0.25, abs=1e-12)

    def test_label_range_validated(self):
        plan = labels_to_plan(Labels(np.array([0, 1]), 2))
        with pytest.raises(ValueError):
            aligned_plan_error(plan, np.array([0, 2]))
