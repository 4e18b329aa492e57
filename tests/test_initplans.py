"""Starting-plan construction: k-means, spectral embedding, label plans."""

import numpy as np
import pytest
import scipy.sparse.linalg

import oracles
from gwsbm import (
    AdjacencyMatrix,
    Labels,
    ari,
    blend_plan,
    hard_labels,
    kmeans,
    labels_to_plan,
    spectral_init,
    uniform_plan,
)
from gwsbm.initplans import BLEND_EPS, _lloyd, _plusplus_centers, _top_abs_eigvecs
from gwsbm.sbm import (
    PROPORTION_KINDS,
    SCENARIO_KINDS,
    balanced_proportions,
    build_scenario,
    make_proportions,
    sample_graph,
)


def test_labels_to_plan_rows():
    plan = labels_to_plan(Labels(np.array([0, 1, 0]), 2))
    expected = np.array([[1 / 3, 0.0], [0.0, 1 / 3], [1 / 3, 0.0]])
    np.testing.assert_array_equal(plan.matrix, expected)


def test_labels_to_plan_wider_target():
    plan = labels_to_plan(Labels(np.zeros(4, dtype=np.int64), 1), k=3)
    np.testing.assert_allclose(plan.column_masses(), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        labels_to_plan(Labels(np.array([0, 2]), 3), k=2)


def test_hard_labels_roundtrip():
    z = np.array([3, 0, 2, 2, 1])
    plan = labels_to_plan(Labels(z, 4))
    assert np.array_equal(hard_labels(plan).values, z)


def test_uniform_plan_feasible():
    plan = uniform_plan(7, 3)
    np.testing.assert_allclose(plan.matrix.sum(axis=1), np.full(7, 1 / 7))


@pytest.mark.parametrize("n, k", [(0, 3), (3, 0), (0, 0), (-1, 2)])
def test_uniform_plan_refuses_an_empty_shape(n, k):
    """Both used to raise ZeroDivisionError, and n = -1 numpy's shape error."""
    with pytest.raises(ValueError, match="a plan needs n >= 1 and k >= 1"):
        uniform_plan(n, k)


def test_blend_plan_mixes_toward_uniform():
    plan = labels_to_plan(Labels(np.array([0, 0, 1]), 2))
    mixed = blend_plan(plan)
    assert mixed.matrix.min() == pytest.approx(BLEND_EPS / 6)
    np.testing.assert_allclose(mixed.matrix.sum(axis=1), np.full(3, 1 / 3), atol=1e-15)
    np.testing.assert_allclose(
        mixed.matrix, (1 - BLEND_EPS) * plan.matrix + BLEND_EPS / 6, atol=1e-15
    )


class TestKmeans:
    def test_separated_doubletons(self):
        points = np.array([[0.0], [0.0], [10.0], [10.0]])
        labels = kmeans(points, 2, seed=0)
        assert labels.values[0] == labels.values[1]
        assert labels.values[2] == labels.values[3]
        assert labels.values[0] != labels.values[2]

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(1)
        points = rng.random((6, 2))
        labels = kmeans(points, 6, seed=0)
        assert sorted(labels.values.tolist()) == list(range(6))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        points = rng.random((40, 3))
        a = kmeans(points, 4, seed=9)
        b = kmeans(points, 4, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_k_validated(self):
        points = np.zeros((3, 1))
        with pytest.raises(ValueError):
            kmeans(points, 0, seed=0)
        with pytest.raises(ValueError):
            kmeans(points, 4, seed=0)

    @pytest.mark.parametrize("points", [np.zeros(3), np.zeros((0, 2))])
    def test_points_validated(self, points):
        with pytest.raises(ValueError, match="points must be a nonempty 2-d array"):
            kmeans(points, 1, seed=0)

    def test_lloyd_inertia_never_increases(self):
        rng = np.random.default_rng(3)
        points = rng.random((60, 2))
        centers = _plusplus_centers(points, 5, rng)
        _, _, history = _lloyd(points, centers, max_iters=50)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-12)

    def assert_lloyd_matches_oracle(self, points, centers, max_iters=100):
        fast = _lloyd(points, centers.copy(), max_iters)
        slow = oracles.lloyd_by_masks(points, centers.copy(), max_iters)
        np.testing.assert_array_equal(fast[0], slow[0], strict=True)
        np.testing.assert_array_equal(fast[1], slow[1], strict=True)
        np.testing.assert_array_equal(fast[2], slow[2], strict=True)
        return fast

    @pytest.mark.parametrize("n, k", [(60, 3), (200, 10), (500, 6)])
    def test_lloyd_bit_identical_to_oracle_on_embeddings(self, n, k):
        conn = build_scenario("assortative", 3, 0.3, 0.05)
        for seed in range(3):
            adj, _ = sample_graph(conn, balanced_proportions(3), n, seed)
            points = _top_abs_eigvecs(adj.csr, k, seed)
            for child in np.random.SeedSequence(seed).spawn(4):
                centers = _plusplus_centers(points, k, np.random.default_rng(child))
                self.assert_lloyd_matches_oracle(points, centers)

    def test_lloyd_bit_identical_on_random_points(self):
        rng = np.random.default_rng(11)
        for dim, k in ((1, 4), (2, 5), (7, 7)):
            points = rng.standard_normal((150, dim))
            self.assert_lloyd_matches_oracle(points, _plusplus_centers(points, k, rng))

    def test_lloyd_forced_steals_match_oracle(self):
        points = np.array([[0.0], [0.0], [0.0], [0.0], [1.0]])
        # clusters 1 and 2 start empty: 1 steals the far point, 2 then steals index 0
        labels, _, _ = self.assert_lloyd_matches_oracle(points, np.array([[0.0], [5.0], [10.0]]), 1)
        assert labels.tolist() == [2, 0, 0, 0, 1]
        # cluster 0 steals the lone member of cluster 1, which is caught later in the pass
        points = np.array([[0.0], [0.0], [0.0], [10.5]])
        labels, _, _ = self.assert_lloyd_matches_oracle(points, np.array([[100.0], [10.0], [0.0]]), 1)
        assert labels.tolist() == [1, 2, 2, 0]

    def test_lloyd_steal_emptying_a_lower_cluster_matches_oracle(self):
        """Cluster 2 steals cluster 0's only point; 0 then takes a shared cluster's point."""
        points = np.array([[0.0], [0.0], [0.0], [10.5]])
        labels, centers, _ = self.assert_lloyd_matches_oracle(
            points, np.array([[10.0], [0.0], [100.0]]), 1
        )
        assert labels.tolist() == [0, 1, 1, 2]
        assert np.isfinite(centers).all()
        assert np.bincount(labels, minlength=3).all()

    def test_empty_cluster_repair(self):
        """Duplicated points force empty clusters; repair keeps k centers."""
        points = np.zeros((5, 1))
        points[4] = 1.0
        labels = kmeans(points, 3, seed=0)
        assert labels.k == 3
        assert labels.values.max() < 3


class TestSpectralInit:
    def test_disconnected_cliques_split_exactly(self):
        a = np.zeros((10, 10))
        a[:5, :5] = 1.0
        a[5:, 5:] = 1.0
        np.fill_diagonal(a, 0.0)
        plan = spectral_init(AdjacencyMatrix(a), 2, seed=0)
        truth = Labels(np.repeat([0, 1], 5), 2)
        assert ari(hard_labels(plan), truth) == 1.0

    def test_single_column(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        plan = spectral_init(AdjacencyMatrix(a), 1, seed=0)
        np.testing.assert_allclose(plan.matrix, np.full((4, 1), 0.25), atol=1e-15)

    def test_deterministic(self):
        conn = build_scenario("assortative", 3, 0.4, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(3), 90, seed=4)
        p1 = spectral_init(adj, 5, seed=21)
        p2 = spectral_init(adj, 5, seed=21)
        assert np.array_equal(p1.matrix, p2.matrix)

    def test_every_column_keeps_mass(self):
        conn = build_scenario("assortative", 2, 0.4, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(2), 50, seed=5)
        plan = spectral_init(adj, 6, seed=5)
        assert plan.column_masses().min() > 0.0

    def test_node_reordering_equivariance(self):
        conn = build_scenario("assortative", 2, 0.6, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(2), 40, seed=6)
        rng = np.random.default_rng(7)
        perm = rng.permutation(40)
        shuffled = AdjacencyMatrix(adj.entries[np.ix_(perm, perm)])
        base = hard_labels(spectral_init(adj, 2, seed=8))
        moved = hard_labels(spectral_init(shuffled, 2, seed=8))
        assert ari(Labels(base.values[perm], 2), moved) == 1.0

    def test_k_above_n_rejected(self):
        a = AdjacencyMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            spectral_init(a, 4, seed=0)


def dense_eigh_plan(adj, k, seed):
    """The spectral start computed from a full dense ``eigh``."""
    w, v = np.linalg.eigh(adj.entries)
    vecs = v[:, np.argsort(-np.abs(w))[:k]]
    return blend_plan(labels_to_plan(kmeans(vecs, k, seed), k)).matrix


def graph_from_blocks(n, block):
    """Disjoint cliques of ``block`` nodes each."""
    a = np.kron(np.eye(n // block), np.ones((block, block)))
    np.fill_diagonal(a, 0.0)
    return AdjacencyMatrix(a)


def star_graph(n):
    a = np.zeros((n, n))
    a[0, 1:] = a[1:, 0] = 1.0
    return AdjacencyMatrix(a)


class TestExactEigensolver:
    """Below the randomized cutoff the start is exact: the same plan as ``eigh``."""

    @staticmethod
    def counted_eigh(monkeypatch):
        """Count dense ``eigh`` calls from here on; the list fills as they happen."""
        calls = []
        dense = np.linalg.eigh

        def spy(x):
            calls.append(x.shape)
            return dense(x)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return calls

    @pytest.mark.parametrize("scenario", SCENARIO_KINDS)
    @pytest.mark.parametrize("proportions", PROPORTION_KINDS)
    def test_labels_equal_dense_eigh_labels(self, scenario, proportions, monkeypatch):
        conn = build_scenario(scenario, 3, 0.3, 0.08)
        cases = []
        for n in (60, 300):
            for seed in (0, 1):
                adj, _ = sample_graph(conn, make_proportions(proportions, 3), n, seed)
                cases += [(adj, k, seed, dense_eigh_plan(adj, k, seed)) for k in (3, 10)]
        calls = self.counted_eigh(monkeypatch)
        for adj, k, seed, want in cases:
            np.testing.assert_array_equal(spectral_init(adj, k, seed).matrix, want)
        assert calls == []  # every one of these took ARPACK, not the fallback

    def test_largest_exact_graph_equals_dense_eigh(self, monkeypatch):
        conn = build_scenario("assortative", 3, 0.10, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(3), 999, 3)
        want = dense_eigh_plan(adj, 10, 3)
        calls = self.counted_eigh(monkeypatch)
        np.testing.assert_array_equal(spectral_init(adj, 10, 3).matrix, want)
        assert calls == []

    @pytest.mark.parametrize("name, adj", [
        ("empty", AdjacencyMatrix(np.zeros((200, 200)))),
        ("star", star_graph(200)),
        ("complete", graph_from_blocks(60, 60)),
        ("cliques", graph_from_blocks(200, 20)),
    ])
    @pytest.mark.parametrize("k", [3, 10])
    def test_tied_or_empty_spectra_fall_back_and_repeat(self, name, adj, k, monkeypatch):
        want = dense_eigh_plan(adj, k, 4)
        calls = self.counted_eigh(monkeypatch)
        plans = [spectral_init(adj, k, 4).matrix for _ in range(3)]
        assert len(calls) == 3, name
        for plan in plans:
            np.testing.assert_array_equal(plan, want)

    def test_arpack_size_limit_takes_the_fallback(self, monkeypatch):
        adj, _ = sample_graph(build_scenario("assortative", 2, 0.6, 0.1),
                              balanced_proportions(2), 12, 0)
        arpack = scipy.sparse.linalg.eigsh
        used = []

        def spy(*args, **kwargs):
            used.append(kwargs["k"])
            return arpack(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
        for k in (10, 11, 12):  # k + 1 >= n - 1
            spectral_init(adj, k, 0)
        assert used == []
        spectral_init(adj, 9, 0)  # k + 1 = n - 2
        assert used == [10]

    def test_arpack_error_takes_the_fallback(self, monkeypatch):
        conn = build_scenario("assortative", 3, 0.3, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(3), 120, 2)
        want = dense_eigh_plan(adj, 5, 2)

        def fail(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", None, None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        np.testing.assert_array_equal(spectral_init(adj, 5, 2).matrix, want)
