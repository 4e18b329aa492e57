"""Generator, scenario and plain-text I/O tests."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy import sparse

import oracles
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
from gwsbm import graphio, sbm
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
    # ties are exact: two rows one ulp apart are distinct
    near = np.full((2, 2), 0.4)
    near[1, 1] = np.nextafter(0.4, 1.0)
    assert ConnectivityMatrix(near).has_distinct_profiles()
    # every row counts, placeholder rows too: a fit leaves its dead clusters out itself
    theta = np.full((4, 4), 0.5)
    theta[:2, :2] = [[0.3, 0.05], [0.05, 0.4]]
    assert not ConnectivityMatrix(theta).has_distinct_profiles()
    assert ConnectivityMatrix(theta[:2, :2]).has_distinct_profiles()


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


def assert_same_csr(got, want):
    """Bit-identical CSR arrays, dtypes included, held canonical and read-only."""
    for name in ("indptr", "indices", "data"):
        mine, ref = getattr(got.csr, name), getattr(want.csr, name)
        assert mine.dtype == ref.dtype and np.array_equal(mine, ref), name
        assert not mine.flags.writeable
    assert got.csr.has_canonical_format


#: n=2 reads one uniform and n=3 three; 50, 365 and 512 skip and read rows of
#: many lengths; 800 and 1000 are the benchmark's sizes.
SAMPLER_SIZES = (2, 3, 50, 365, 512, 800, 1000)


@pytest.mark.parametrize("proportions", ["balanced", "inverse_square"])
@pytest.mark.parametrize("kind", ["assortative", "disassortative", "hub"])
def test_sampler_draws_the_dense_uniforms_graph(kind, proportions):
    """Reading only each row's uniforms right of the diagonal takes the stream
    of one n x n draw: labels and CSR arrays match the dense reference bit for
    bit."""
    conn = build_scenario(kind, 3, 0.3, 0.05)
    props = make_proportions(proportions, 3)
    for seed in range(3):
        for n in SAMPLER_SIZES:
            adj, labels = sample_graph(conn, props, n, seed)
            want, z = oracles.sample_by_dense_uniforms(conn, props, n, seed)
            assert np.array_equal(labels.values, z)
            assert_same_csr(adj, want)


def test_sampler_memory_stays_below_a_quarter_of_one_dense_array():
    """n=3000 at mean degree ~50: the traced peak is O(|E| + n), not n x n,
    and under two CSR sizes, the reader's bound."""
    n = 3000
    conn = build_scenario("assortative", 3, 1 / 30, 1 / 120)
    tracemalloc.start()
    try:
        adj, _ = sample_graph(conn, balanced_proportions(3), n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 40 < 2 * adj.edge_count() / n < 60
    assert peak < 8 * n * n / 4
    csr = adj.csr
    assert peak <= 2.0 * (csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes)


def test_sample_graph_validates_shapes():
    conn = build_scenario("assortative", 2, 0.2, 0.03)
    with pytest.raises(ValueError):
        sample_graph(conn, balanced_proportions(3), 10, seed=0)
    with pytest.raises(ValueError):
        sample_graph(conn, balanced_proportions(2), 1, seed=0)
    with pytest.raises(ValueError, match="edge probabilities must lie in"):
        sample_graph(ConnectivityMatrix([[1.5]]), balanced_proportions(1), 10, seed=0)


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
        assert list(vars(adj)) == ["indptr", "indices", "data"]
        for arr in (adj.data, adj.indices, adj.indptr):
            with pytest.raises(ValueError):
                arr[0] = 0
        # the scipy array is a view over the same arrays, built once on first use
        assert adj.csr is adj.csr
        assert list(vars(adj)) == ["indptr", "indices", "data", "csr"]
        assert adj.csr.format == "csr" and adj.csr.has_canonical_format
        for name in ("indptr", "indices", "data"):
            assert np.shares_memory(getattr(adj.csr, name), getattr(adj, name)), name
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
        """``raw`` keeps 0 and 1 as given; the Bernoulli loss clamps them where it reads them."""
        conn = ConnectivityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert conn.raw[0, 0] == 0.0 and conn.raw[0, 1] == 1.0
        theta = make_loss("bernoulli_nll").prepare_theta(conn)
        assert theta[0, 0] == pytest.approx(1e-6)
        assert theta[0, 1] == pytest.approx(1.0 - 1e-6)

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
        with pytest.raises(ValueError, match="labels must be a vector"):
            Labels(np.zeros((2, 2), dtype=np.int64), 2)
        with pytest.raises(ValueError, match="label range k must be an integer >= 1, got 0"):
            Labels(np.array([0]), 0)
        assert Labels(np.array([0, 1]), 2).values.dtype == np.int64

    @pytest.mark.parametrize("k", [2.5, 2.0, True, pytest.param(np.bool_(True), id="np.True_"), "2"])
    def test_label_range_must_be_an_integer(self, k):
        """``Labels([0, 1], 2.5)`` used to keep ``k = 2.5`` and a bool passed as 1."""
        with pytest.raises(ValueError, match="label range k must be an integer"):
            Labels(np.array([0, 0]), k)
        assert Labels(np.array([0, 1]), np.int64(2)).k == 2

    def test_labels_past_int64_are_refused(self):
        """A uint64 label of 2**63 or more wraps negative as int64, so the default
        range, taken from the values, cannot admit it."""
        with pytest.raises(ValueError, match="labels must be nonnegative"):
            Labels(np.array([0, 2**63], dtype=np.uint64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_labels_refuse_uncastable_floats_before_the_cast(self, bad):
        """The int64 cast warns on these; the check before it refuses them quietly."""
        with pytest.raises(ValueError, match="labels must be integers"):
            Labels(np.array([0.0, bad]), 2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: AdjacencyMatrix(np.zeros((2, 3))), "adjacency matrix must be square"),
            (lambda: AdjacencyMatrix(np.zeros((0, 0))), "adjacency matrix must be nonempty"),
            (lambda: adjacency_from_edges(0, [], []), "n must be an integer >= 1, got 0"),
            (lambda: ConnectivityMatrix(np.zeros((2, 3))), "must be square and nonempty"),
            (lambda: ConnectivityMatrix([[np.nan]]), "connectivity entries must be finite"),
            (lambda: Proportions(np.array([])), "proportions must be a nonempty vector"),
            (lambda: balanced_proportions(0), "k must be an integer >= 1, got 0"),
            (lambda: unbalanced_proportions(0), "k must be an integer >= 1, got 0"),
            (lambda: block_densities(AdjacencyMatrix(np.zeros((3, 3))), Labels(np.zeros(2, np.int64), 1)),
             "labels and adjacency disagree on n"),
        ],
    )
    def test_malformed_inputs_are_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


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

    @pytest.mark.parametrize("n, i, j", [
        (10_001, [0, 9, 99, 999, 9999], [1, 10, 100, 1000, 10000]),  # every digit boundary
        (7, [], []),  # no edges: the header alone
        (1, [], []),
    ], ids=["digit_boundaries", "edgeless", "one_node"])
    def test_writer_bytes_equal_the_per_edge_format(self, tmp_path, n, i, j):
        """The numpy formatter writes exactly what ``f"{i} {j}\\n"`` per upper-triangle
        pair writes, and the file reads back to the same CSR."""
        adj = adjacency_from_edges(n, i, j)
        path = tmp_path / "graph.txt"
        graphio.write_edge_list(adj, path)
        want = f"{n}\n" + "".join(f"{a} {b}\n" for a, b in zip(i, j))
        assert path.read_bytes() == want.encode("ascii")
        assert_same_csr(graphio.read_edge_list(path), adj)

    def test_edge_list_format(self, tmp_path):
        """First line is the node count; edges are '<i> <j>' with i < j."""
        a = np.zeros((3, 3))
        a[0, 2] = a[2, 0] = 1.0
        path = tmp_path / "tiny.txt"
        graphio.write_edge_list(AdjacencyMatrix(a), path)
        assert path.read_text() == "3\n0 2\n"

    def test_edge_list_writer_refuses_weighted_graphs(self, tmp_path):
        """The format has no weights: writing 2.5 as an edge read back as 1.0 would lose it."""
        a = np.array([[0.0, 2.5, 0.0], [2.5, 0.0, 1.0], [0.0, 1.0, 0.0]])
        path = tmp_path / "weighted.txt"
        with pytest.raises(ValueError, match="weighted"):
            graphio.write_edge_list(AdjacencyMatrix(a), path)
        assert list(tmp_path.iterdir()) == []

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
            ("4\n0 1\n\n 2 9 \n", r"edge \(2, 9\) out of range for n=4"),
            ("3\n\n  \n", []),
            ("3\n0 4294967296\n", r"edge \(0, 4294967296\) out of range for n=3"),
            ("1_0\n0 1\n", "1_0"),
            ("٣\n0 1\n", "٣"),
            ("+3\n0 1\n", [(0, 1)]),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_edge_list_parse_table(self, tmp_path, text, expected):
        """Blank lines are skipped, duplicate edges stored once, an edgeless body
        reads without a warning, and every malformed input raises ValueError
        naming the file and its first faulty line in file order."""
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

    def test_reader_memory_stays_below_two_csr_sizes(self, tmp_path):
        """n=3000 at mean degree ~50: the body streams into the parser, and the
        CSR is built from the parsed int32 pairs' two column views, so the
        traced peak stays near the pairs plus the CSR (1.33x its bytes),
        where holding an int64 parse, the keys and a COO copy beside the CSR
        peaked at 3.32x."""
        n = 3000
        adj, _ = sample_graph(build_scenario("assortative", 3, 1 / 30, 1 / 120),
                              balanced_proportions(3), n, seed=0)
        path = tmp_path / "graph.txt"
        graphio.write_edge_list(adj, path)
        tracemalloc.start()
        try:
            back = graphio.read_edge_list(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        csr = back.csr
        assert_same_csr(back, adj)
        assert peak <= 2.0 * (csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes)

    def test_shuffled_read_memory_stays_below_one_and_a_half_csr_sizes(self, tmp_path):
        """n=3000 at mean degree ~50, lines shuffled: the int32 parse goes to the
        builder, which sorts its own keys, so the traced peak stays near the
        parse plus the CSR (1.33x its bytes), where re-sorting the pairs
        before the build peaked at 1.66x."""
        adj, _ = sample_graph(build_scenario("assortative", 3, 1 / 30, 1 / 120),
                              balanced_proportions(3), 3000, seed=0)
        path = tmp_path / "graph.txt"
        graphio.write_edge_list(adj, path)
        head, *lines = path.read_text().splitlines()
        path.write_text("\n".join([head] + np.random.default_rng(0).permutation(lines).tolist()) + "\n")
        tracemalloc.start()
        try:
            back = graphio.read_edge_list(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_csr(back, adj)
        assert peak <= 1.5 * (adj.indptr.nbytes + adj.indices.nbytes + adj.data.nbytes)

    def test_writer_memory_stays_below_one_csr_size(self, tmp_path):
        """n=3000 at mean degree ~50, and the benchmark's sparse n=1000 graph:
        the text is formatted 2**13 CSR entries at a time, so the traced peak
        stays below the CSR's bytes (0.20x and 0.45x).  Formatting every edge
        with an f-string after building the whole graph's row indices peaked
        at 0.75x and 1.36x."""
        for n, p_in, p_out in ((3000, 1 / 30, 1 / 120), (1000, 0.12, 0.02)):
            adj, _ = sample_graph(build_scenario("assortative", 3, p_in, p_out),
                                  balanced_proportions(3), n, seed=0)
            path = tmp_path / f"graph{n}.txt"
            tracemalloc.start()
            try:
                graphio.write_edge_list(adj, path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.0 * (adj.indptr.nbytes + adj.indices.nbytes + adj.data.nbytes), n
            assert_same_csr(graphio.read_edge_list(path), adj)

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

    @pytest.mark.parametrize(
        "kind, text, expected",
        [
            ("labels", "0\n1_0\n2\n", "could not convert string '1_0'"),
            ("labels", "3.0\n", "could not convert string '3.0'"),
            ("labels", "0 1\n2 0\n", "2 values on one line"),
            ("labels", "0\n-1\n", "labels must be nonnegative"),
            ("labels", "\n 2\n  \n0\n", [2, 0]),
            ("matrix", "1_0,2\n", "could not convert string '1_0'"),
            ("matrix", "1,2\n3\n", "number of columns changed"),
            ("matrix", "3.0,1\n  \n2,4e-1\n", [[3.0, 1.0], [2.0, 0.4]]),
        ],
    )
    def test_label_and_matrix_parse_table(self, tmp_path, kind, text, expected):
        """Label and matrix files parse their numbers as edge lists do, so ``1_0``,
        which ``int()`` and ``float()`` read as 10, and a fractional label are
        refused; blank lines are skipped, and every error names the file."""
        path = tmp_path / f"{kind}.csv"
        path.write_text(text)
        read = graphio.read_labels if kind == "labels" else graphio.read_matrix_csv
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected) as err:
                read(path)
            assert str(path) in str(err.value)
            return
        got = read(path)
        assert np.array_equal(got.values if kind == "labels" else got, expected)

    def test_label_and_matrix_files_refuse_empty_or_flat_input(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n  \n")
        with pytest.raises(ValueError, match="empty labels file"):
            graphio.read_labels(path)
        with pytest.raises(ValueError, match="empty matrix file"):
            graphio.read_matrix_csv(path)
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            graphio.write_matrix_csv(np.zeros(3), path)


@given(case=oracles.edge_keys())
@example(case=(1, []))
@example(case=(2, []))
@example(case=(2, [1, 1]))
@settings(max_examples=200, deadline=None)
def test_csr_builder_matches_the_coo_round_trip(case):
    """``adjacency_from_edges`` on the sampler's pairs (distinct, in row-major
    order, in the index dtype) and on any int64 pairs, and the reader, build
    the COO to CSR pass's arrays, dtypes included: with no edges, on one or two nodes, for
    K_n, with isolated nodes and with repeated and shuffled pairs."""
    n, keys = case
    want = oracles.csr_by_coo(n, keys)
    keys = np.array(keys, dtype=np.int64)
    i, j = np.divmod(keys, n)
    unique = np.unique(keys)
    index = sbm._index_dtype(n, unique.size)
    iu, ju = (part.astype(index) for part in np.divmod(unique, n))
    built = [adjacency_from_edges(n, iu, ju), adjacency_from_edges(n, i, j)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.txt"
        path.write_text(f"{n}\n" + "".join(f"{a} {b}\n" for a, b in zip(i.tolist(), j.tolist())))
        built.append(graphio.read_edge_list(path))
    for adj in built:
        for name in ("indptr", "indices", "data"):
            mine, ref = getattr(adj.csr, name), getattr(want, name)
            assert mine.dtype == ref.dtype and np.array_equal(mine, ref), name
        assert adj.csr.has_canonical_format


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

    @pytest.mark.parametrize(
        "i, j",
        [
            ([], []),
            (np.array([1, 0, 0], np.int32), np.array([2, 1, 2], np.int64)),
            (np.array([1, 0, 0], np.uint64), np.array([2, 1, 2], np.int64)),
        ],
        ids=["empty_lists", "int32_with_int64", "uint64_with_int64"],
    )
    def test_adjacency_from_edges_takes_any_integer_pairs(self, i, j):
        """Plain empty lists (float64 to numpy) build the edgeless graph, and
        endpoints of two integer dtypes key as int64."""
        dense = np.zeros((3, 3))
        for a, b in zip(i, j):
            dense[a, b] = dense[b, a] = 1.0
        assert_same_csr(adjacency_from_edges(3, i, j), AdjacencyMatrix(dense))

    def test_reader_orders_and_dedupes_a_shuffled_edge_list(self, tmp_path):
        """Any order, repeats included, reads to the sorted list's canonical CSR."""
        conn = build_scenario("assortative", 2, 0.5, 0.2)
        adj, _ = sample_graph(conn, balanced_proportions(2), 40, seed=9)
        ordered = tmp_path / "ordered.txt"
        graphio.write_edge_list(adj, ordered)
        head, *lines = ordered.read_text().splitlines()
        rng = np.random.default_rng(0)
        repeated = lines + [lines[e] for e in rng.integers(len(lines), size=25)]
        shuffled = tmp_path / "shuffled.txt"
        shuffled.write_text("\n".join([head] + rng.permutation(repeated).tolist()) + "\n")
        assert_same_csr(graphio.read_edge_list(shuffled), graphio.read_edge_list(ordered))
        assert_same_csr(graphio.read_edge_list(ordered), adj)

    @pytest.mark.parametrize(
        "i, j",
        [([0, 1], [1, 1]), ([0, 2], [1, 1]), ([0], [4]), ([-1], [2]), ([0.0], [1.0]), ([0, 1], [2])],
        ids=["i_equals_j", "i_above_j", "j_out_of_range", "negative_i", "float_pairs", "lengths_differ"],
    )
    def test_adjacency_from_edges_refuses_bad_pairs(self, i, j):
        with pytest.raises(ValueError):
            adjacency_from_edges(4, np.array(i), np.array(j))

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
