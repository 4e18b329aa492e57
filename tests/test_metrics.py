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
)


label_pairs = st.integers(2, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
    )
)


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
