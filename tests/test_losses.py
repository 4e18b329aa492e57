"""Loss decompositions, the fast cost kernel, and closed-form connectivity."""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from gwsbm import (
    AdjacencyMatrix,
    ConnectivityMatrix,
    CostKernel,
    LOSS_KINDS,
    TransportPlan,
    closed_form_connectivity,
    cost_application,
    make_loss,
    srgw_objective,
)
from gwsbm import losses
from gwsbm.losses import DENOMINATOR_FLOOR
from gwsbm.sbm import block_densities, build_scenario, balanced_proportions, sample_graph
from gwsbm.initplans import labels_to_plan
from gwsbm.baselines import restarted_fw_minimum
from gwsbm.solver import fw_solve, mm_solve, penalty_linearization


def test_frozen_loss_values():
    assert make_loss("squared")(0.5, 0.25) == pytest.approx(0.0625, abs=1e-15)
    assert make_loss("bernoulli_nll")(1.0, 0.5) == pytest.approx(np.log(2.0), abs=1e-12)
    assert make_loss("poisson_nll")(2.0, 1.0) == pytest.approx(1.0 + np.log(2.0), abs=1e-12)
    # rate parameterization: a*b - log b
    assert make_loss("exponential_nll")(2.0, 0.5) == pytest.approx(1.0 + np.log(2.0), abs=1e-12)


def test_unknown_loss_kind_rejected():
    with pytest.raises(ValueError):
        make_loss("huber")


def test_poisson_f1_is_log_factorial():
    loss = make_loss("poisson_nll")
    np.testing.assert_allclose(
        loss.f1(np.array([0.0, 1.0, 2.0, 5.0])),
        [0.0, 0.0, np.log(2.0), np.log(120.0)],
        atol=1e-12,
    )


def test_f1_vanishes_at_zero():
    """The kernel drops the diagonal f1 terms; that is exact only if f1(0) = 0."""
    for kind in LOSS_KINDS:
        assert np.array_equal(make_loss(kind).f1(np.zeros(3)), np.zeros(3))


def test_prepare_theta_clips_connectivity_into_the_clamp():
    """The clip is, per kind: raw values for squared, both margins for Bernoulli,
    the lower margin only for the Poisson and exponential rates."""
    vals = np.array([-1.0, 1e-9, 0.3, 1.0 - 1e-9, 2.0, 5e6])
    conn = ConnectivityMatrix(np.add.outer(vals, vals) / 2.0)
    raw = conn.raw
    per_kind = {
        "squared": raw,
        "bernoulli_nll": np.clip(raw, 1e-6, 1.0 - 1e-6),
        "poisson_nll": np.maximum(raw, 1e-6),
        "exponential_nll": np.maximum(raw, 1e-6),
    }
    for kind in LOSS_KINDS:
        assert np.array_equal(make_loss(kind).prepare_theta(conn), per_kind[kind])


def test_raw_adjacency_is_validated():
    """Raw arrays must be symmetric with a zero diagonal, as AdjacencyMatrix requires."""
    loss = make_loss("bernoulli_nll")
    plan = TransportPlan(np.full((3, 2), 1 / 6))
    theta = ConnectivityMatrix(np.full((2, 2), 0.5))
    looped = np.ones((3, 3))
    directed = np.zeros((3, 3))
    directed[0, 1] = 1.0
    for bad in (looped, directed):
        with pytest.raises(ValueError):
            cost_application(bad, plan, theta, loss)
        with pytest.raises(ValueError):
            closed_form_connectivity(bad, plan, loss)


@given(a=st.floats(0.05, 0.95))
@settings(max_examples=25, deadline=None)
def test_losses_minimized_at_matched_parameter(a):
    """argmin_b loss(a, b) sits exactly where the inverse map sends a."""
    for kind in LOSS_KINDS:
        loss = make_loss(kind)
        lo, hi = oracles.theta_bracket(kind)
        b_star = oracles.golden_min(lambda b: float(loss(a, b)), lo, hi)
        expected = float(loss.theta_inverse_map(np.float64(a)))
        assert b_star == pytest.approx(expected, abs=1e-5)


def test_cost_matches_quadruple_loop_all_kinds():
    rng = np.random.default_rng(7)
    for kind in LOSS_KINDS:
        loss = make_loss(kind)
        for n, k in ((3, 2), (7, 3), (12, 4)):
            adj = oracles.graph_for_loss(rng, n, kind)
            plan = oracles.random_plan(rng, n, k)
            theta = oracles.random_theta(rng, k)
            fast = cost_application(adj, plan, theta, loss)
            slow = oracles.quadruple_cost(adj.entries, plan.matrix, theta.raw, loss)
            np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_kernel_holds_a_and_f1_on_the_sparsity_pattern():
    """A and f1(A) are CSR arrays; f1 vanishes off the edges and, for the
    Bernoulli and exponential losses, everywhere."""
    rng = np.random.default_rng(37)
    for kind in LOSS_KINDS:
        loss = make_loss(kind)
        adj = oracles.graph_for_loss(rng, 12, kind)
        kernel = CostKernel(adj, loss)
        assert sparse.issparse(kernel.a) and kernel.a.format == "csr"
        assert sparse.issparse(kernel.fa) and kernel.fa.format == "csr"
        assert kernel.a.nnz == 2 * adj.edge_count()
        assert np.array_equal(kernel.a.toarray(), adj.entries)
        assert np.array_equal(kernel.fa.toarray(), loss.f1(adj.entries))
        assert np.all(kernel.fa.data != 0.0)
        if kind in ("bernoulli_nll", "exponential_nll"):
            assert kernel.fa.nnz == 0


def test_kernel_does_not_copy_a():
    """f1 is read off A's values one group of ``_SCATTER_ENTRIES`` at a time:
    building the kernel allocates one group's f1 values and O(n) row
    pointers, not an array as long as A's values (0.67x its CSR when f1 was
    evaluated on all of them at once, 0.23x now)."""
    adj = oracles.random_binary_graph(np.random.default_rng(43), 400, p=0.3)
    csr_bytes = sum(x.nbytes for x in (adj.csr.data, adj.csr.indices, adj.csr.indptr))
    for kind in ("bernoulli_nll", "exponential_nll"):
        loss = make_loss(kind)
        tracemalloc.start()
        try:
            kernel = CostKernel(adj, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kernel.a is adj.csr and kernel.fa.nnz == 0
        assert peak <= 8 * losses._SCATTER_ENTRIES + 4 * adj.indptr.nbytes, (kind, peak, csr_bytes)
        assert 8 * losses._SCATTER_ENTRIES < csr_bytes / 4


def test_kernel_f1_groups_build_the_one_pass_fa():
    """Counts of 1 have f1 = log 1! = 0: over a graph spanning several groups
    of ``_SCATTER_ENTRIES`` values, ``fa`` keeps exactly the other entries,
    bit for bit as f1 evaluated on all of A's values at once."""
    adj = oracles.random_count_graph(np.random.default_rng(44), 250)
    loss = make_loss("poisson_nll")
    assert adj.data.size > 2 * losses._SCATTER_ENTRIES and np.any(adj.data == 1.0)
    f1 = loss.f1(adj.data)
    kept = np.flatnonzero(f1)
    want = sparse.csr_array((f1[kept], adj.indices[kept], np.searchsorted(kept, adj.indptr)),
                            shape=adj.csr.shape)
    fa = CostKernel(adj, loss).fa
    assert 0 < fa.nnz < adj.data.size
    for name in ("indptr", "indices", "data"):
        mine, ref = getattr(fa, name), getattr(want, name)
        assert mine.dtype == ref.dtype and np.array_equal(mine, ref), name


class TestLineSearchAlgebra:
    """The closed-form Frank-Wolfe step relies on a linear, self-adjoint cost."""

    def instance(self, rng, kind, n=15, k=4):
        loss = make_loss(kind)
        kernel = CostKernel(oracles.graph_for_loss(rng, n, kind), loss)
        theta = loss.prepare_theta(oracles.random_theta(rng, k))
        return kernel, theta

    def test_cost_is_self_adjoint(self):
        rng = np.random.default_rng(41)
        for kind in LOSS_KINDS:
            kernel, theta = self.instance(rng, kind)
            u = oracles.random_plan(rng, 15, 4).matrix
            v = rng.standard_normal((15, 4))
            uv = float(np.vdot(kernel.cost(u, theta), v))
            vu = float(np.vdot(kernel.cost(v, theta), u))
            assert vu == pytest.approx(uv, rel=1e-12, abs=0.0)

    def test_segment_coefficients_match_the_objective(self):
        """f0 + b g + a g^2 with a = <mx - m, d>, b = 2<m, d> + <prices, column sums of d>."""
        rng = np.random.default_rng(43)
        n, k = 15, 4
        for kind in LOSS_KINDS:
            kernel, theta = self.instance(rng, kind, n, k)
            t = oracles.random_plan(rng, n, k).matrix
            x = np.zeros((n, k))
            x[np.arange(n), rng.integers(0, k, n)] = 1.0 / n
            d = x - t
            m, mx = kernel.cost(t, theta), kernel.cost(x, theta)
            for prices in (np.zeros(k), penalty_linearization(t, 0.05)):
                lin = np.broadcast_to(prices, (n, k))
                f0 = float(np.vdot(m, t)) + float(np.vdot(lin, t))
                a = float(np.vdot(mx - m, d))
                b = 2.0 * float(np.vdot(m, d)) + float(np.vdot(lin, d))
                for gamma in (0.5, 1.0):
                    tg = t + gamma * d
                    exact = kernel.objective(tg, theta) + float(np.vdot(lin, tg))
                    assert f0 + b * gamma + a * gamma**2 == pytest.approx(
                        exact, rel=1e-10, abs=0.0
                    )


@given(instance=oracles.objective_instances())
@settings(max_examples=200, deadline=None)
def test_objective_matches_quadruple_loop_for_any_nonnegative_plan(instance):
    """The summary formula prices every nonnegative plan, rows of any mass, to 1e-12
    of the magnitude of its terms (they can cancel, so not of its value)."""
    loss, adj, t, conn = instance
    expected = oracles.quadruple_objective(adj.entries, t, conn.raw, loss)
    scale = oracles.quadruple_magnitude(adj.entries, t, conn.raw, loss)
    got = CostKernel(adj, loss).objective(t, loss.prepare_theta(conn))
    assert abs(got - expected) <= 1e-12 * scale
    assert srgw_objective(adj, t, conn, loss) == got


@given(instance=oracles.relabelings())
@settings(max_examples=200, deadline=None)
def test_label_sums_track_relabelings_and_price_the_vertex(instance):
    """Updated neighbour-label sums equal a fresh ``A @ onehot``, bitwise on 0/1 and
    count graphs and to 1e-12 of each row's weight on real-weighted ones, whatever
    share of the rows moved, and the vertex cost built from them is ``cost(x)`` to
    1e-15 of the cost's magnitude."""
    loss, adj, conn, chain = instance
    kernel = CostKernel(adj, loss)
    theta = loss.prepare_theta(conn)
    n, k = adj.n, conn.k
    exact = np.array_equal(adj.entries, np.round(adj.entries))
    scale = np.abs(adj.entries).sum(axis=1, keepdims=True)
    sums = kernel.label_sums(chain[0], k)
    for old, labels in zip(chain, chain[1:]):
        sums = kernel.label_sums(labels, k, sums, old)
        onehot = np.eye(k)[labels]
        fresh = adj.entries @ onehot
        if exact:
            assert np.array_equal(sums, fresh)
        else:
            assert np.all(np.abs(sums - fresh) <= 1e-12 * scale)
    x = onehot / n
    vertex = kernel.cost(x, theta, (1.0 / n) * sums)
    bound = 1e-15 * oracles.cost_magnitude(adj.entries, x, theta, loss)
    assert np.all(np.abs(vertex - kernel.cost(x, theta)) <= bound)


@given(instance=oracles.relabelings(), budget=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_grouped_label_sums_apply_the_one_pass_sequence(instance, budget):
    """Moved in groups of 1 to 6 entries, so single rows longer than the budget
    form their own runs, every update equals the one-pass formula bit for bit
    on 0/1, count and real-weighted graphs: all subtractions still come before
    all additions."""
    _, adj, conn, chain = instance
    kernel, k = CostKernel(adj, make_loss("squared")), conn.k
    with mock.patch.object(losses, "_SCATTER_ENTRIES", budget):
        sums = kernel.label_sums(chain[0], k)
        want = sums.copy()
        for old, labels in zip(chain, chain[1:]):
            sums = kernel.label_sums(labels, k, sums, old)
            want = oracles.label_sums_in_one_pass(adj.csr, labels, k, want, old)
            assert np.array_equal(sums, want)


def test_label_sums_move_every_row_of_a_dense_graph_in_bounded_groups():
    """Dense n=1000 (37 % of pairs) with non-integer weights, every row relabelled:
    the update's traced peak stays under a bound in n and the group budget, not
    in nnz, where the one-pass formula's grows with the moved entries, and its
    W is that formula's bit for bit."""
    n, k = 1000, 10
    binary, _ = sample_graph(build_scenario("assortative", 3, 0.5, 0.3), balanced_proportions(3), n, seed=0)
    rng = np.random.default_rng(21)
    upper = sparse.triu(binary.csr, format="csr")
    upper.data = rng.uniform(0.2, 3.0, upper.nnz)
    adj = AdjacencyMatrix(upper + upper.T)
    kernel = CostKernel(adj, make_loss("exponential_nll"))
    old = rng.integers(0, k, n)
    labels = (old + rng.integers(1, k, n)) % k
    sums = kernel.label_sums(old, k)
    assert not np.array_equal(sums, np.round(sums)) and adj.csr.nnz > 8 * losses._SCATTER_ENTRIES

    def traced(update, start):
        tracemalloc.start()
        try:
            return update(labels, k, start, old), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    want, one_pass_peak = traced(functools.partial(oracles.label_sums_in_one_pass, adj.csr), sums.copy())
    got, peak = traced(kernel.label_sums, sums)
    bound = 64 * losses._SCATTER_ENTRIES + 128 * n
    assert peak < bound < one_pass_peak, (peak, bound, one_pass_peak)
    assert got is sums and np.array_equal(got, want)


def test_cost_zero_graph_zero_connectivity():
    adj = AdjacencyMatrix(np.zeros((4, 4)))
    plan = TransportPlan(np.full((4, 2), 1 / 8))
    theta = ConnectivityMatrix(np.zeros((2, 2)))
    m = cost_application(adj, plan, theta, make_loss("squared"))
    np.testing.assert_array_equal(m, np.zeros((4, 2)))


def test_cost_columns_tied_for_identical_profiles():
    rng = np.random.default_rng(3)
    adj = oracles.random_binary_graph(rng, 6)
    plan = oracles.random_plan(rng, 6, 3)
    theta = ConnectivityMatrix(
        np.array([[0.3, 0.3, 0.5], [0.3, 0.3, 0.5], [0.5, 0.5, 0.2]])
    )
    m = cost_application(adj, plan, theta, make_loss("bernoulli_nll"))
    np.testing.assert_allclose(m[:, 0], m[:, 1], atol=1e-14)


def test_cost_rejects_out_of_domain_connectivity():
    adj = AdjacencyMatrix(np.zeros((3, 3)))
    plan = TransportPlan(np.full((3, 2), 1 / 6))
    bad = np.array([[1.5, 0.2], [0.2, 0.5]])  # raw array, above the Bernoulli domain
    with pytest.raises(ValueError):
        cost_application(adj, plan, bad, make_loss("bernoulli_nll"))


def test_solvers_and_objective_refuse_asymmetric_connectivity():
    """Frank-Wolfe's gradient 2 cost and its line search hold for symmetric theta
    only: on this instance a plain solve once tracked 0.3458 for an iterate whose
    objective (quadruple loop) is 0.4820."""
    adj = oracles.random_binary_graph(np.random.default_rng(0), 6)
    loss = make_loss("bernoulli_nll")
    theta = np.array([[0.7, 0.1], [0.4, 0.6]])
    plan = TransportPlan(np.full((6, 2), 1 / 12))
    for call in (
        lambda: fw_solve(adj, loss, theta, plan),
        lambda: mm_solve(adj, loss, theta, plan, sparsity=0.1),
        lambda: restarted_fw_minimum(adj, loss, theta),
        lambda: srgw_objective(adj, plan, theta, loss),
    ):
        with pytest.raises(ValueError, match="connectivity must be symmetric"):
            call()


def test_objective_single_edge_uniform_plan():
    a = np.zeros((2, 2))
    a[0, 1] = a[1, 0] = 1.0
    plan = TransportPlan(np.full((2, 2), 0.25))
    theta = ConnectivityMatrix(np.full((2, 2), 0.5))
    value = srgw_objective(AdjacencyMatrix(a), plan, theta, make_loss("squared"))
    assert value == pytest.approx(0.125, abs=1e-15)


def test_objective_matches_quadruple_loop():
    rng = np.random.default_rng(11)
    for kind in LOSS_KINDS:
        loss = make_loss(kind)
        adj = oracles.graph_for_loss(rng, 6, kind)
        plan = oracles.random_plan(rng, 6, 3)
        theta = oracles.random_theta(rng, 3)
        fast = srgw_objective(adj, plan, theta, loss)
        slow = oracles.quadruple_objective(adj.entries, plan.matrix, theta.raw, loss)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_objective_invariant_under_relabeling():
    rng = np.random.default_rng(13)
    adj = oracles.random_binary_graph(rng, 8)
    plan = oracles.random_plan(rng, 8, 4)
    theta = oracles.random_theta(rng, 4)
    loss = make_loss("bernoulli_nll")
    base = srgw_objective(adj, plan, theta, loss)
    perm = np.array([2, 0, 3, 1])
    plan_p = TransportPlan(plan.matrix[:, perm])
    theta_p = ConnectivityMatrix(theta.raw[np.ix_(perm, perm)])
    assert srgw_objective(adj, plan_p, theta_p, loss) == pytest.approx(base, abs=1e-13)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_node_and_cluster_relabeling_invariance(kind):
    """Relabeling nodes (A' = P A P^T with plan P T) keeps the objective and the
    closed-form connectivity and permutes the cost's rows; permuting T's columns
    and theta's rows and columns keeps the objective and permutes the cost's
    columns and the connectivity's cells alike.  Both hold within 1e-12 relative
    for every loss, on an n=30, k=4 graph in its data domain."""
    rng = np.random.default_rng(29)
    loss = make_loss(kind)
    adj = oracles.graph_for_loss(rng, 30, kind)
    plan = oracles.random_plan(rng, 30, 4)
    theta = oracles.random_theta(rng, 4)
    nodes, clusters = rng.permutation(30), rng.permutation(4)
    objective = srgw_objective(adj, plan, theta, loss)
    cost = cost_application(adj, plan, theta, loss)
    conn = closed_form_connectivity(adj, plan, loss).raw
    relabeled = {
        "nodes": (AdjacencyMatrix(adj.entries[np.ix_(nodes, nodes)]), plan.matrix[nodes], theta.raw,
                  cost[nodes], conn),
        "clusters": (adj, plan.matrix[:, clusters], theta.raw[np.ix_(clusters, clusters)],
                     cost[:, clusters], conn[np.ix_(clusters, clusters)]),
    }
    close = functools.partial(np.testing.assert_allclose, rtol=1e-12, atol=0)
    for name, (adj_r, t_r, theta_r, cost_r, conn_r) in relabeled.items():
        plan_r, theta_r = TransportPlan(t_r), ConnectivityMatrix(theta_r)
        close(srgw_objective(adj_r, plan_r, theta_r, loss), objective, err_msg=name)
        close(cost_application(adj_r, plan_r, theta_r, loss), cost_r, err_msg=name)
        close(closed_form_connectivity(adj_r, plan_r, loss).raw, conn_r, err_msg=name)


class TestTransportPlan:
    def test_rejects_negative_entries(self):
        t = np.full((2, 2), 0.25)
        t[0, 0] = -0.1
        t[0, 1] = 0.6
        with pytest.raises(ValueError):
            TransportPlan(t)

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            TransportPlan(np.full((2, 2), 0.3))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((0, 2)), "plan must be a nonempty 2-d array"),
            (np.full(4, 0.25), "plan must be a nonempty 2-d array"),
            (np.full((2, 2), np.nan), "plan entries must be finite"),
            # every row within ROW_SUM_TOL of 1/20, the total 1.8e-9 over one
            (np.full((20, 1), 1 / 20 + 0.9e-10), "plan total mass must be 1"),
        ],
    )
    def test_rejects_malformed_matrices(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            TransportPlan(matrix)

    def test_matrix_read_only(self):
        plan = TransportPlan(np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            plan.matrix[0, 0] = 1.0

    def test_column_masses_form_probability_vector(self):
        rng = np.random.default_rng(5)
        plan = oracles.random_plan(rng, 9, 4)
        q = plan.column_masses()
        assert np.all(q >= 0.0)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)


class TestClosedFormConnectivity:
    def test_two_block_hand_example(self):
        """Four nodes in two blocks; the block means come out exactly."""
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0  # inside block 0
        a[0, 2] = a[2, 0] = 1.0  # across
        plan = np.zeros((4, 2))
        plan[:2, 0] = 0.25
        plan[2:, 1] = 0.25
        conn = closed_form_connectivity(AdjacencyMatrix(a), plan, make_loss("squared"))
        np.testing.assert_allclose(conn.raw, [[1.0, 0.25], [0.25, 0.0]], atol=1e-14)

    def test_bernoulli_clamps_extreme_cells(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[0, 2] = a[2, 0] = 1.0
        plan = np.zeros((4, 2))
        plan[:2, 0] = 0.25
        plan[2:, 1] = 0.25
        conn = closed_form_connectivity(AdjacencyMatrix(a), plan, make_loss("bernoulli_nll"))
        np.testing.assert_allclose(
            conn.raw, [[1.0 - 1e-6, 0.25], [0.25, 1e-6]], atol=1e-14
        )

    def test_hard_plan_recovers_block_densities(self):
        conn_star = build_scenario("assortative", 3, 0.4, 0.1)
        adj, labels = sample_graph(conn_star, balanced_proportions(3), 60, seed=2)
        plan = labels_to_plan(labels)
        conn = closed_form_connectivity(adj, plan, make_loss("squared"))
        np.testing.assert_allclose(conn.raw, block_densities(adj, labels), atol=1e-12)

    def test_matches_scalar_search_per_cell(self):
        rng = np.random.default_rng(17)
        for kind in LOSS_KINDS:
            loss = make_loss(kind)
            adj = oracles.graph_for_loss(rng, 9, kind)
            plan = oracles.random_plan(rng, 9, 3)
            conn = closed_form_connectivity(adj, plan, loss)
            lo, hi = oracles.theta_bracket(kind)
            for kk in range(3):
                for ll in range(kk, 3):
                    def cell_objective(b):
                        theta = np.array(conn.raw)
                        theta[kk, ll] = theta[ll, kk] = b
                        return oracles.quadruple_objective(
                            adj.entries, plan.matrix, theta, loss
                        )

                    b_star = oracles.golden_min(cell_objective, lo, hi)
                    assert conn.raw[kk, ll] == pytest.approx(b_star, abs=1e-6)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(19)
        for kind in LOSS_KINDS:
            loss = make_loss(kind)
            adj = oracles.graph_for_loss(rng, 8, kind)
            plan = oracles.random_plan(rng, 8, 3)
            best = closed_form_connectivity(adj, plan, loss)
            value_at_best = srgw_objective(adj, plan, best, loss)
            for _ in range(5):
                other = oracles.random_theta(rng, 3)
                assert value_at_best <= srgw_objective(adj, plan, other, loss) + 1e-12

    def test_dead_column_cells_hold_the_placeholder(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        plan = np.zeros((4, 3))
        plan[:, 0] = 0.25  # column 1 and 2 carry no mass
        conn = closed_form_connectivity(AdjacencyMatrix(a), plan, make_loss("squared"))
        assert conn.raw[0, 0] == pytest.approx(1 / 6)
        assert np.all(conn.raw[1:] == 0.5) and np.all(conn.raw[:, 1:] == 0.5)

    def test_kernel_connectivity_is_the_same_formula(self):
        """The kernel gives exactly the module function's result."""
        rng = np.random.default_rng(23)
        for kind in LOSS_KINDS:
            loss = make_loss(kind)
            adj = oracles.graph_for_loss(rng, 9, kind)
            t = oracles.random_plan(rng, 9, 4).matrix.copy()
            t[:, 3] = 0.0  # a dead column exercises the unsupported cells
            t[:, 0] += 1.0 / 9 - t.sum(axis=1)
            expected = closed_form_connectivity(adj, t, loss)
            got = CostKernel(adj, loss).connectivity(t)
            assert np.array_equal(got.raw, expected.raw)
            assert np.all(expected.raw[3] == 0.5) and np.all(expected.raw[:, 3] == 0.5)

    def test_always_symmetric(self):
        rng = np.random.default_rng(29)
        for kind in LOSS_KINDS:
            loss = make_loss(kind)
            adj = oracles.graph_for_loss(rng, 10, kind)
            plan = oracles.random_plan(rng, 10, 4)
            conn = closed_form_connectivity(adj, plan, loss)
            assert np.array_equal(conn.raw, conn.raw.T)
            assert np.all(conn.raw >= min(loss.theta_clamp[0], 0.5))
            assert conn.raw.max() <= max(loss.theta_clamp[1], 0.5) + DENOMINATOR_FLOOR
