"""Generator, scenario and plain-text I/O tests."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from gwsbm import (
    AdjacencyMatrix,
    ConnectivityMatrix,
    Labels,
    Proportions,
    balanced_proportions,
    block_densities,
    build_scenario,
    make_proportions,
    sample_graph,
    unbalanced_proportions,
)
from gwsbm import graphio
from gwsbm.initplans import spectral_init
from gwsbm.losses import make_loss
from gwsbm.sbm import adjacency_from_edges
from gwsbm.solver import bcd_fit


def test_assortative_scenario_matrix():
    conn = build_scenario("assortative", 2, 0.2, 0.03)
    np.testing.assert_allclose(conn.raw, [[0.2, 0.03], [0.03, 0.2]])


def test_disassortative_scenario_matrix():
    conn = build_scenario("disassortative", 2, 0.2, 0.03)
    np.testing.assert_allclose(conn.raw, [[0.03, 0.2], [0.2, 0.03]])


def test_hub_scenario_matrix():
    """The hub block row/column (including its diagonal cell) gets p_in."""
    conn = build_scenario("hub", 3, 0.2, 0.03)
    expected = [[0.2, 0.2, 0.2], [0.2, 0.2, 0.03], [0.2, 0.03, 0.2]]
    np.testing.assert_allclose(conn.raw, expected)


def test_hub_needs_two_clusters():
    with pytest.raises(ValueError):
        build_scenario("hub", 1, 0.2, 0.03)


def test_scenario_probability_range_checked():
    with pytest.raises(ValueError):
        build_scenario("assortative", 2, 1.2, 0.03)
    with pytest.raises(ValueError):
        build_scenario("assortative", 2, 0.03, 0.2)  # p_out above p_in
    with pytest.raises(ValueError):
        build_scenario("unknown", 2, 0.2, 0.03)


def test_distinct_profiles_flag():
    assert build_scenario("assortative", 3, 0.2, 0.03).has_distinct_profiles()
    # a 2-cluster hub makes both rows (p_in, p_in): indistinguishable
    assert not build_scenario("hub", 2, 0.2, 0.03).has_distinct_profiles()
    assert not ConnectivityMatrix(np.full((2, 2), 0.4)).has_distinct_profiles()
    # dead clusters: all-inactive rows hold the 0.5 placeholder and are ignored
    theta = np.full((4, 4), 0.5)
    theta[:2, :2] = [[0.3, 0.05], [0.05, 0.4]]
    dead = np.ones((4, 4), dtype=bool)
    dead[:2, :2] = False
    assert ConnectivityMatrix(theta, inactive=dead).has_distinct_profiles()
    # ...but two live clusters that tie still flag
    tied = theta.copy()
    tied[:2, :2] = 0.3
    assert not ConnectivityMatrix(tied, inactive=dead).has_distinct_profiles()
    # ties are exact: two live rows one ulp apart are distinct
    near = tied.copy()
    near[1, 1] = np.nextafter(0.3, 1.0)
    assert ConnectivityMatrix(near, inactive=dead).has_distinct_profiles()


def test_unbalanced_proportions_values():
    np.testing.assert_allclose(unbalanced_proportions(1).weights, [1.0])
    np.testing.assert_allclose(unbalanced_proportions(2).weights, [0.8, 0.2])
    np.testing.assert_allclose(
        unbalanced_proportions(3).weights, [36 / 49, 9 / 49, 4 / 49]
    )


def test_balanced_proportions_uniform():
    np.testing.assert_allclose(balanced_proportions(4).weights, np.full(4, 0.25))


def test_make_proportions_dispatch():
    np.testing.assert_allclose(
        make_proportions("inverse_square", 2).weights, [0.8, 0.2]
    )
    with pytest.raises(ValueError):
        make_proportions("zipf", 2)


def test_sure_edges_give_complete_graph():
    conn = ConnectivityMatrix(np.ones((2, 2)))
    adj, _ = sample_graph(conn, balanced_proportions(2), 4, seed=0)
    expected = np.ones((4, 4)) - np.eye(4)
    np.testing.assert_array_equal(adj.entries, expected)


def test_zero_probability_gives_empty_graph():
    conn = ConnectivityMatrix(np.zeros((2, 2)))
    adj, _ = sample_graph(conn, balanced_proportions(2), 6, seed=0)
    assert adj.edge_count() == 0


def test_sampling_deterministic_per_seed():
    conn = build_scenario("assortative", 3, 0.3, 0.05)
    props = unbalanced_proportions(3)
    a1, z1 = sample_graph(conn, props, 80, seed=11)
    a2, z2 = sample_graph(conn, props, 80, seed=11)
    a3, _ = sample_graph(conn, props, 80, seed=12)
    assert np.array_equal(a1.entries, a2.entries)
    assert np.array_equal(z1.values, z2.values)
    assert not np.array_equal(a1.entries, a3.entries)


def test_samples_symmetric_with_zero_diagonal():
    conn = build_scenario("hub", 3, 0.25, 0.05)
    props = balanced_proportions(3)
    for seed in range(4):
        adj, _ = sample_graph(conn, props, 50, seed=seed)
        assert np.array_equal(adj.entries, adj.entries.T)
        assert not np.any(np.diagonal(adj.entries))


def test_block_densities_concentrate_on_connectivity():
    """Empirical block densities land within 0.02 of the target at n=2000."""
    conn = build_scenario("assortative", 2, 0.2, 0.03)
    props = balanced_proportions(2)
    for seed in range(20):
        adj, labels = sample_graph(conn, props, 2000, seed=seed)
        dens = block_densities(adj, labels)
        assert np.max(np.abs(dens - conn.raw)) <= 0.02


def test_sample_graph_validates_shapes():
    conn = build_scenario("assortative", 2, 0.2, 0.03)
    with pytest.raises(ValueError):
        sample_graph(conn, balanced_proportions(3), 10, seed=0)
    with pytest.raises(ValueError):
        sample_graph(conn, balanced_proportions(2), 1, seed=0)


class TestTypeValidation:
    def test_adjacency_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_adjacency_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(np.eye(3))

    def test_adjacency_entries_read_only(self):
        adj = AdjacencyMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            adj.entries[0, 1] = 1.0

    def test_adjacency_copies_a_writeable_input(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        adj = AdjacencyMatrix(a)
        a[0, 1] = a[1, 0] = 0.0
        a[1, 2] = a[2, 1] = 1.0
        assert adj.entries[0, 1] == 1.0 and adj.entries[1, 2] == 0.0
        assert adj.edge_count() == 1

    def test_adjacency_copies_a_read_only_view(self):
        a = np.zeros((3, 3))
        view = a.view()
        view.setflags(write=False)
        adj = AdjacencyMatrix(view)
        a[0, 1] = a[1, 0] = 1.0
        assert adj.edge_count() == 0

    def test_adjacency_stores_one_read_only_csr(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 2.0
        adj = AdjacencyMatrix(a)
        assert list(vars(adj)) == ["csr"]
        assert adj.csr.format == "csr" and adj.csr.has_canonical_format
        for arr in (adj.csr.data, adj.csr.indices, adj.csr.indptr):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert np.array_equal(adj.entries, a)

    def test_sparse_adjacency_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            AdjacencyMatrix(sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]])))
        # same pattern, different values
        with pytest.raises(ValueError, match="symmetric"):
            AdjacencyMatrix(sparse.csr_array(np.array([[0.0, 1.0], [2.0, 0.0]])))

    def test_sparse_adjacency_rejects_stored_diagonal(self):
        a = sparse.coo_array(([1.0, 1.0, 3.0], ([0, 1, 2], [1, 0, 2])), shape=(3, 3))
        with pytest.raises(ValueError, match="diagonal"):
            AdjacencyMatrix(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sparse_adjacency_rejects_non_finite(self, bad):
        a = sparse.csr_array(([bad, bad], [1, 0], [0, 1, 2]), shape=(2, 2))
        with pytest.raises(ValueError, match="finite"):
            AdjacencyMatrix(a)

    def test_sparse_adjacency_drops_stored_zeros(self):
        # edge (0, 1) plus explicit zeros at (1, 2)/(2, 1) and a stored diagonal zero
        a = sparse.coo_array(
            ([1.0, 1.0, 0.0, 0.0, 0.0], ([0, 1, 1, 2, 0], [1, 0, 2, 1, 0])), shape=(3, 3)
        )
        adj = AdjacencyMatrix(a)
        assert adj.edge_count() == 1
        assert adj.csr.nnz == 2 and np.all(adj.csr.data != 0.0)

    def test_sparse_adjacency_copies_its_input(self):
        a = sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        adj = AdjacencyMatrix(a)
        a.data[:] = 5.0
        assert np.array_equal(adj.csr.data, [1.0, 1.0])
        assert not np.shares_memory(adj.csr.data, a.data)
        assert not np.shares_memory(adj.csr.indices, a.indices)

    def test_connectivity_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            ConnectivityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]]))

    def test_connectivity_clamps_entries_view(self):
        conn = ConnectivityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert conn.raw[0, 0] == 0.0
        assert conn.entries[0, 0] == pytest.approx(1e-6)
        assert conn.entries[0, 1] == pytest.approx(1.0 - 1e-6)

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Proportions(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            Proportions(np.array([-0.5, 1.5]))

    def test_labels_range_checked(self):
        with pytest.raises(ValueError):
            Labels(np.array([0, 2]), 2)
        with pytest.raises(ValueError):
            Labels(np.array([0.5, 1.0]), 2)
        assert Labels(np.array([0, 1]), 2).values.dtype == np.int64


class TestGraphIO:
    def test_edge_list_roundtrip(self, tmp_path):
        conn = build_scenario("assortative", 2, 0.5, 0.2)
        adj, _ = sample_graph(conn, balanced_proportions(2), 30, seed=3)
        path = tmp_path / "graph.txt"
        graphio.write_edge_list(adj, path)
        back = graphio.read_edge_list(path)
        assert np.array_equal(back.entries, adj.entries)

    def test_read_edge_list_entries_read_only(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("3\n0 1\n1 2\n")
        adj = graphio.read_edge_list(path)
        with pytest.raises(ValueError):
            adj.entries[0, 1] = 0.0

    @pytest.mark.parametrize("p_in", [0.0, 0.1, 0.6])
    def test_edge_count_and_writer_match_upper_triangle(self, tmp_path, p_in):
        """Both read the same edges as the upper triangle, in row-major order."""
        conn = ConnectivityMatrix(np.array([[p_in, p_in / 3], [p_in / 3, p_in]]))
        adj, _ = sample_graph(conn, balanced_proportions(2), 40, seed=5)
        upper = np.triu(adj.entries, 1)
        assert adj.edge_count() == np.count_nonzero(upper)
        path = tmp_path / "graph.txt"
        graphio.write_edge_list(adj, path)
        iu, ju = np.nonzero(upper)
        expected = [str(adj.n)] + [f"{i} {j}" for i, j in zip(iu.tolist(), ju.tolist())]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_edge_list_format(self, tmp_path):
        """First line is the node count; edges are '<i> <j>' with i < j."""
        a = np.zeros((3, 3))
        a[0, 2] = a[2, 0] = 1.0
        path = tmp_path / "tiny.txt"
        graphio.write_edge_list(AdjacencyMatrix(a), path)
        assert path.read_text() == "3\n0 2\n"

    def test_edge_list_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n2 1\n")
        with pytest.raises(ValueError):
            graphio.read_edge_list(path)
        path.write_text("")
        with pytest.raises(ValueError):
            graphio.read_edge_list(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("3\n0 1 2\n", "malformed edge line '0 1 2'"),
            ("3\n0\n", "malformed edge line '0'"),
            ("3\n0 x\n", "x"),
            ("3\n0 1.5\n", "1.5"),
            ("3\n2 2\n", r"edge \(2, 2\) violates i < j"),
            ("3\n2 1\n", r"edge \(2, 1\) violates i < j"),
            ("3\n0 3\n", r"edge \(0, 3\) out of range for n=3"),
            ("3\n-1 2\n", r"edge \(-1, 2\) out of range for n=3"),
            ("3\n0 99999999999999999999\n", "out of range for n=3"),
            ("3 4\n0 1\n", "3 4"),
            ("0\n", "node count must be positive"),
            ("-2\n", "node count must be positive"),
            ("", "empty edge-list file"),
            ("\n  \n\n", "empty edge-list file"),
            ("4\n0 1\n0 1 2\n5 6\n", "malformed edge line '0 1 2'"),
            ("4\n0 9\n0 1 2\n", r"edge \(0, 9\) out of range for n=4"),
            ("4\n0 0_2\n", "plain decimal integers"),
            ("\n3\n\n0 1\n  \n 1 2 \n\n", [(0, 1), (1, 2)]),
            ("3\n0 1\n0 1\n", [(0, 1)]),
            ("3\n", []),
            ("1\n", []),
            ("3\n1 1\n", r"edge \(1, 1\) violates i < j"),
            ("3\n0 1\n2 1\n", r"edge \(2, 1\) violates i < j"),
            ("3\n2 -1\n", r"edge \(2, -1\) out of range for n=3"),
        ],
    )
    def test_edge_list_parse_table(self, tmp_path, text, expected):
        """Blank lines are skipped, duplicate edges stored once, and every
        malformed input raises ValueError naming the file and its first
        faulty line in file order."""
        path = tmp_path / "edges.txt"
        path.write_text(text)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected) as err:
                graphio.read_edge_list(path)
            assert str(path) in str(err.value)
            return
        adj = graphio.read_edge_list(path)
        n = int(text.split()[0])
        want = np.zeros((n, n))
        for i, j in expected:
            want[i, j] = want[j, i] = 1.0
        assert np.array_equal(adj.entries, want)

    def test_labels_roundtrip(self, tmp_path):
        labels = Labels(np.array([2, 0, 1, 2]), 4)
        path = tmp_path / "labels.csv"
        graphio.write_labels(labels, path)
        back = graphio.read_labels(path, k=4)
        assert np.array_equal(back.values, labels.values)
        assert graphio.read_labels(path).k == 3  # inferred from the data

    def test_matrix_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.random((4, 3))
        path = tmp_path / "m.csv"
        graphio.write_matrix_csv(mat, path)
        assert np.array_equal(graphio.read_matrix_csv(path), mat)


class TestSingleRepresentation:
    def test_adjacency_from_edges_matches_dense_and_stores_repeats_once(self):
        i = np.array([1, 0, 0, 2, 0])
        j = np.array([3, 1, 2, 3, 1])
        adj = adjacency_from_edges(4, i, j)
        dense = np.zeros((4, 4))
        dense[i, j] = dense[j, i] = 1.0
        want = AdjacencyMatrix(dense).csr
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(adj.csr, name), getattr(want, name))
        assert adj.edge_count() == 4

    def test_fit_pipeline_never_builds_a_dense_graph(self, tmp_path, monkeypatch):
        """At n=1000 the reader, spectral start, solver, writer, edge count and
        block densities all run on the CSR: a dense copy of A raises, and the
        traced peak stays below one n x n float array."""
        n = 1000
        conn = build_scenario("assortative", 3, 0.12, 0.02)
        adj, labels = sample_graph(conn, balanced_proportions(3), n, seed=4)
        first = tmp_path / "first.txt"
        graphio.write_edge_list(adj, first)

        def refuse(self):
            raise AssertionError("dense adjacency built")

        monkeypatch.setattr(AdjacencyMatrix, "entries", property(refuse))
        monkeypatch.setattr(sparse.csr_array, "toarray", refuse)
        tracemalloc.start()
        try:
            back = graphio.read_edge_list(first)
            plan0 = spectral_init(back, 10, seed=4)
            result = bcd_fit(back, make_loss("bernoulli_nll"), plan0, sparsity=10 / (2 * n))
            second = tmp_path / "second.txt"
            graphio.write_edge_list(back, second)
            edges = back.edge_count()
            dens = block_densities(back, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n
        assert second.read_bytes() == first.read_bytes()
        assert edges == adj.edge_count() > 0
        assert result.k_hat == 3
        assert np.all((dens > 0.0) & (dens < 0.2))
