"""Loss decompositions, the fast cost kernel, and closed-form connectivity."""

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
from gwsbm.solver import penalty_linearization


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
    """f1 is read off A's values: building the kernel allocates less than A's CSR."""
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
        assert peak < csr_bytes, (kind, peak, csr_bytes)


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
        """f0 + b g + a g^2 with a = <mx - m, d>, b = 2<m, d> (+ <linear, d>)."""
        rng = np.random.default_rng(43)
        n, k = 15, 4
        for kind in LOSS_KINDS:
            kernel, theta = self.instance(rng, kind, n, k)
            t = oracles.random_plan(rng, n, k).matrix
            x = np.zeros((n, k))
            x[np.arange(n), rng.integers(0, k, n)] = 1.0 / n
            d = x - t
            m, mx = kernel.cost(t, theta), kernel.cost(x, theta)
            for linear in (None, penalty_linearization(t, 0.05)):
                lin = np.zeros((n, k)) if linear is None else linear
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


@given(instance=oracles.relabelings(), always_update=st.booleans())
@settings(max_examples=200, deadline=None)
def test_label_sums_track_relabelings_and_price_the_vertex(instance, always_update):
    """Updated neighbour-label sums equal a fresh ``A @ onehot``, bitwise on 0/1 and
    count graphs and to 1e-12 of each row's weight on real-weighted ones, and the
    vertex cost built from them is ``cost(x)`` to 1e-15 of the cost's magnitude."""
    loss, adj, conn, chain = instance
    kernel = CostKernel(adj, loss)
    theta = loss.prepare_theta(conn)
    n, k = adj.n, conn.k
    exact = np.array_equal(adj.entries, np.round(adj.entries))
    scale = np.abs(adj.entries).sum(axis=1, keepdims=True)
    share = 1.0 if always_update else losses._UPDATE_ROWS  # 1.0: never rebuild
    with mock.patch.object(losses, "_UPDATE_ROWS", share):
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
    vertex = kernel.assemble_cost(x, (1.0 / n) * sums, theta)
    bound = 1e-15 * oracles.cost_magnitude(adj.entries, x, theta, loss)
    assert np.all(np.abs(vertex - kernel.cost(x, theta)) <= bound)


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

    def test_dead_column_cells_neutral_and_flagged(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        plan = np.zeros((4, 3))
        plan[:, 0] = 0.25  # column 1 and 2 carry no mass
        conn = closed_form_connectivity(AdjacencyMatrix(a), plan, make_loss("squared"))
        assert conn.inactive is not None
        assert not conn.inactive[0, 0]
        assert conn.inactive[1, 1] and conn.inactive[0, 1] and conn.inactive[2, 2]
        assert conn.raw[1, 1] == 0.5 and conn.raw[0, 2] == 0.5

    def test_kernel_connectivity_is_the_same_formula(self):
        """The kernel gives exactly the module function's result."""
        rng = np.random.default_rng(23)
        for kind in LOSS_KINDS:
            loss = make_loss(kind)
            adj = oracles.graph_for_loss(rng, 9, kind)
            t = oracles.random_plan(rng, 9, 4).matrix.copy()
            t[:, 3] = 0.0  # a dead column exercises the inactive cells
            t[:, 0] += 1.0 / 9 - t.sum(axis=1)
            expected = closed_form_connectivity(adj, t, loss)
            got = CostKernel(adj, loss).connectivity(t)
            assert np.array_equal(got.raw, expected.raw)
            assert np.array_equal(got.inactive, expected.inactive)
            assert expected.inactive[3].all()

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
