"""Plan solvers: descent, penalty handling, merges, and bound evaluators."""

import itertools
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

import oracles
from gwsbm import (
    AdjacencyMatrix,
    ConnectivityMatrix,
    Proportions,
    TransportPlan,
    auto_sparsity,
    bcd_fit,
    closed_form_connectivity,
    column_mass_penalty,
    cost_application,
    elbo_value,
    entropic_objective,
    exact_log_likelihood,
    fw_solve,
    hard_labels,
    labels_to_plan,
    make_loss,
    mm_solve,
    penalty_linearization,
    selected_k,
    spectral_init,
    sup_log_likelihood,
    srgw_objective,
    uniform_plan,
)
from gwsbm import solver
from gwsbm.losses import CostKernel, summary_objective, theta_from_summaries
from gwsbm.metrics import ari
from gwsbm.sbm import Labels, adjacency_from_edges, balanced_proportions, build_scenario, sample_graph
from gwsbm.solver import _merge_rowcol, _merge_step


def one_edge_instance():
    a = np.zeros((2, 2))
    a[0, 1] = a[1, 0] = 1.0
    theta = ConnectivityMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
    return AdjacencyMatrix(a), theta


def test_penalty_values():
    assert column_mass_penalty(labels_to_plan(Labels(np.array([0, 1]), 2))) == pytest.approx(np.sqrt(2.0))
    assert column_mass_penalty(labels_to_plan(Labels(np.zeros(3, dtype=np.int64), 1), k=2)) == pytest.approx(1.0)
    for k in (2, 3, 7):
        assert column_mass_penalty(uniform_plan(10, k)) == pytest.approx(np.sqrt(k))


def test_penalty_linearization_frozen():
    t = np.zeros((4, 2))
    t[0, 0] = 0.25
    t[1:, 1] = 0.25  # masses (0.25, 0.75)
    r = penalty_linearization(TransportPlan(t), 1.0)
    assert r.shape == (2,)
    np.testing.assert_allclose(r[0], 1.0, atol=1e-12)
    np.testing.assert_allclose(r[1], 0.57735027, atol=1e-8)


def test_penalty_linearization_matches_finite_difference():
    rng = np.random.default_rng(0)
    plan = oracles.random_plan(rng, 6, 3)
    lam = 0.7
    r = penalty_linearization(plan, lam)
    g = oracles.central_gradient(
        lambda t: lam * float(np.sqrt(t.sum(axis=0)).sum()), plan.matrix.copy(), step=1e-7
    )
    np.testing.assert_allclose(np.broadcast_to(r, g.shape), g, atol=1e-4)


def test_penalty_linearization_edge_cases():
    plan = uniform_plan(4, 2)
    assert not penalty_linearization(plan, 0.0).any()
    with pytest.raises(ValueError):
        penalty_linearization(plan, -1.0)
    dead = labels_to_plan(Labels(np.zeros(4, dtype=np.int64), 1), k=2)
    r = penalty_linearization(dead, 2.0)
    assert r[1] == pytest.approx(2.0 / (2.0 * 1e-8))  # floored at 1e-16 mass


@pytest.mark.parametrize("bad", ["0.05", True, np.True_, -1.0, np.nan, np.inf, None])
def test_sparsity_must_be_a_finite_nonnegative_real(bad):
    """Text and booleans are refused, not read through ``float``."""
    adj, _ = one_edge_instance()
    with pytest.raises(ValueError, match="sparsity must be a finite nonnegative number"):
        bcd_fit(adj, make_loss("bernoulli_nll"), uniform_plan(2, 2), sparsity=bad)


@pytest.mark.parametrize(
    "solve",
    [
        lambda adj, loss, theta, t: fw_solve(adj, loss, theta, t).matrix,
        lambda adj, loss, theta, t: mm_solve(adj, loss, theta, t, sparsity=0.1).matrix,
        lambda adj, loss, theta, t: bcd_fit(adj, loss, t).plan.matrix,
    ],
    ids=["fw_solve", "mm_solve", "bcd_fit"],
)
def test_solvers_refuse_an_infeasible_start(solve):
    """A raw start passes the ``TransportPlan`` checks: rows summing to 2 are
    refused, and a feasible array solves as its plan does."""
    adj, theta = one_edge_instance()
    loss = make_loss("bernoulli_nll")
    with pytest.raises(ValueError, match="plan rows must each sum to 1/n"):
        solve(adj, loss, theta, np.ones((2, 2)))
    raw = np.array([[0.5, 0.0], [0.25, 0.25]])
    assert np.array_equal(solve(adj, loss, theta, raw), solve(adj, loss, theta, TransportPlan(raw)))


class TestFrankWolfe:
    def test_single_column_is_fixed_point(self):
        rng = np.random.default_rng(1)
        adj = oracles.random_binary_graph(rng, 6)
        theta = ConnectivityMatrix(np.array([[0.4]]))
        out = fw_solve(adj, make_loss("bernoulli_nll"), theta, uniform_plan(6, 1))
        np.testing.assert_allclose(out.matrix, np.full((6, 1), 1 / 6), atol=1e-15)

    def test_one_edge_graph_collapses_to_common_cluster(self):
        adj, theta = one_edge_instance()
        loss = make_loss("bernoulli_nll")
        out = fw_solve(adj, loss, theta, uniform_plan(2, 2))
        labels = hard_labels(out)
        assert labels.values[0] == labels.values[1]
        value = srgw_objective(adj, out, theta, loss)
        assert value == pytest.approx(-np.log(0.9) / 2.0, abs=1e-9)
        assert value == pytest.approx(0.052680, abs=1e-6)

    def test_beats_or_matches_every_vertex(self):
        """Restarting from each hard plan reaches the enumerated optimum."""
        rng = np.random.default_rng(2)
        loss = make_loss("bernoulli_nll")
        for n in (4, 5, 6):
            adj = oracles.random_binary_graph(rng, n)
            theta = oracles.random_theta(rng, 2)
            oracle_best = min(
                srgw_objective(adj, TransportPlan(t), theta, loss)
                for _, t in oracles.enumerate_hard_plans(n, 2)
            )
            solver_best = min(
                srgw_objective(adj, fw_solve(adj, loss, theta, TransportPlan(t)), theta, loss)
                for _, t in oracles.enumerate_hard_plans(n, 2)
            )
            assert solver_best <= oracle_best + 1e-9

    def test_objective_monotone_and_iterates_feasible(self, monkeypatch):
        """Iterate i is what ``fw_solve`` returns with its cap at i: a feasible plan
        (``TransportPlan`` checks its rows), and the objective never rises from one
        iterate to the next up to the full solve."""
        rng = np.random.default_rng(3)
        adj = oracles.random_binary_graph(rng, 30)
        theta = oracles.random_theta(rng, 4)
        loss, plan0 = make_loss("bernoulli_nll"), uniform_plan(30, 4)
        full = fw_solve(adj, loss, theta, plan0)
        seen = []
        for cap in range(solver.FW_MAX_ITERS + 1):
            monkeypatch.setattr(solver, "FW_MAX_ITERS", cap)
            t = fw_solve(adj, loss, theta, plan0)
            assert isinstance(t, TransportPlan)
            seen.append(srgw_objective(adj, t, theta, loss))
            if np.array_equal(t.matrix, full.matrix):
                break
        assert np.array_equal(t.matrix, full.matrix)
        assert len(seen) >= 3
        assert np.all(np.diff(seen) <= 1e-12)

    def test_column_relabeling_equivariance(self):
        rng = np.random.default_rng(4)
        adj = oracles.random_binary_graph(rng, 8)
        theta = oracles.random_theta(rng, 3)
        plan0 = oracles.random_plan(rng, 8, 3)
        loss = make_loss("bernoulli_nll")
        perm = np.array([2, 0, 1])
        base = fw_solve(adj, loss, theta, plan0)
        moved = fw_solve(
            adj,
            loss,
            ConnectivityMatrix(theta.raw[np.ix_(perm, perm)]),
            TransportPlan(plan0.matrix[:, perm]),
        )
        np.testing.assert_allclose(moved.matrix, base.matrix[:, perm], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        adj, theta = one_edge_instance()
        with pytest.raises(ValueError, match="disagree on n"):
            fw_solve(adj, make_loss("bernoulli_nll"), theta, uniform_plan(3, 2))
        with pytest.raises(ValueError, match="disagree on k"):
            fw_solve(adj, make_loss("bernoulli_nll"), theta, uniform_plan(2, 3))

    def test_one_cost_application_per_iteration(self, monkeypatch):
        """On the README quick-start fit, each Frank-Wolfe run applies the plain cost
        once, to its start plan, and then per iteration updates the neighbour-label
        sums once and prices their vertex once, in closed form; nothing evaluates
        the objective.  Each start plan's ``A @ t`` is the one its pair summaries
        formed, so the sparse products with an n x k operand are the pair
        summaries' plus one label-sum build per run."""
        conn = build_scenario("assortative", 3, 0.2, 0.03)
        adj, _ = sample_graph(conn, balanced_proportions(3), 600, seed=0)
        plan0, n = spectral_init(adj, 10, seed=0), adj.n
        counts = dict.fromkeys(("products", "summaries", "objective"), 0)
        stack, runs = [], []
        real_cost, real_sums, real_price = CostKernel.cost, CostKernel.label_sums, CostKernel._vertex_cost
        real_summaries, real_objective, real_core = CostKernel.pair_summaries, CostKernel.objective, solver._fw_core
        real_matmul = type(adj.csr).__matmul__

        def note(call):
            if stack:
                stack[-1].append(call)

        def matmul(self, other):
            counts["products"] += np.ndim(other) == 2 and np.shape(other)[0] == n
            return real_matmul(self, other)

        def cost(self, t, theta, at=None):
            note("cost")
            return real_cost(self, t, theta, at)

        def label_sums(self, labels, k, sums=None, old=None):
            note("build" if sums is None else "update")
            return real_sums(self, labels, k, sums, old)

        def vertex_cost(self, theta):
            price = real_price(self, theta)

            def counted(*args):
                note("price")
                return price(*args)

            return counted

        def pair_summaries(self, t):
            counts["summaries"] += 1
            return real_summaries(self, t)

        def objective(self, t, theta):
            counts["objective"] += 1
            return real_objective(self, t, theta)

        def fw_core(kernel, theta, t0, prices):
            stack.append([])
            try:
                return real_core(kernel, theta, t0, prices)
            finally:
                runs.append(stack.pop())

        monkeypatch.setattr(type(adj.csr), "__matmul__", matmul)
        for name, fn in (("cost", cost), ("label_sums", label_sums), ("_vertex_cost", vertex_cost),
                         ("pair_summaries", pair_summaries), ("objective", objective)):
            monkeypatch.setattr(CostKernel, name, fn)
        monkeypatch.setattr(solver, "_fw_core", fw_core)
        bcd_fit(adj, make_loss("bernoulli_nll"), plan0, sparsity=10 / 1200)

        assert len(runs) > 1 and counts["objective"] == 0
        for calls in runs:
            iterations = calls.count("price")
            assert calls == ["cost", "build", "price"] + ["update", "price"] * (iterations - 1)
        assert counts["products"] == counts["summaries"] + len(runs)

    def test_label_sums_are_built_once_per_run(self, monkeypatch):
        """From a random hard start, Frank-Wolfe's first steps relabel a third or
        more of the rows; A still meets an n x k operand only twice in the run:
        the start plan's cost and the first vertex's neighbour-label sums."""
        conn = build_scenario("assortative", 3, 0.2, 0.03)
        adj, _ = sample_graph(conn, balanced_proportions(3), 200, seed=0)
        loss = make_loss("bernoulli_nll")
        kernel = CostKernel(adj, loss)
        n, k = adj.n, 3
        t0 = labels_to_plan(Labels(np.random.default_rng(0).integers(0, k, n), k)).matrix
        products, shares = [], []
        real_matmul, real_sums = type(kernel.a).__matmul__, CostKernel.label_sums

        def matmul(self, other):
            if np.shape(other) == (n, k):
                products.append(np.array(other))
            return real_matmul(self, other)

        def label_sums(self, labels, k, sums=None, old=None):
            if sums is not None:
                shares.append(np.mean(labels != old))
            return real_sums(self, labels, k, sums, old)

        monkeypatch.setattr(type(kernel.a), "__matmul__", matmul)
        monkeypatch.setattr(CostKernel, "label_sums", label_sums)
        t = solver._fw_core(kernel, loss.prepare_theta(conn), t0, np.zeros(k))
        assert max(shares) > 0.3
        assert len(products) == 2
        assert np.array_equal(products[0], t0)
        assert np.array_equal(np.count_nonzero(products[1], axis=1), np.ones(n))
        assert not np.array_equal(t, t0)

    def test_one_run_peaks_below_ten_plan_sized_arrays(self):
        """One run at n=3000, K=10 from the spectral start, whose pair summaries are
        taken first as in ``bcd_fit``, under tracemalloc: the step writes into
        buffers allocated once per run and the vertex is never formed, so the run
        peaks at 9.44 n x k float64 arrays (pinned at 9.8), about three of them
        ``label_sums``' scatter runs of at most ``_SCATTER_ENTRIES`` entries.  A
        loop that forms x and fresh temporaries every step peaked at 11.4."""
        n, k = 3000, 10
        adj, _ = sample_graph(build_scenario("assortative", 3, 0.05, 0.0125), balanced_proportions(3), n, seed=0)
        loss = make_loss("bernoulli_nll")
        kernel = CostKernel(adj, loss)
        t0 = spectral_init(adj, k, seed=0).matrix
        theta = loss.prepare_theta(closed_form_connectivity(adj, t0, loss))
        prices = penalty_linearization(t0, auto_sparsity(k, n))
        kernel.pair_summaries(t0)
        tracemalloc.start()
        try:
            t = solver._fw_core(kernel, theta, t0, prices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.8 * n * k * 8
        assert t is not t0 and not t.flags.writeable

    def test_start_objective_adds_the_prices(self, monkeypatch):
        """Restarted from its own stall point with every cluster priced at the start
        cost ``c = <cost(t1), t1>``, Frank-Wolfe starts at objective ``2c``, so the
        relative stall test stops it after one step; a start objective that
        subtracted the prices would sit near zero and run on."""
        adj, _ = sample_graph(build_scenario("assortative", 3, 0.3, 0.08), balanced_proportions(3), 60, seed=25)
        loss = make_loss("bernoulli_nll")
        kernel = CostKernel(adj, loss)
        theta = loss.prepare_theta(build_scenario("assortative", 4, 0.25, 0.07))
        t1 = solver._fw_core(kernel, theta, spectral_init(adj, 4, 25).matrix, np.zeros(4))
        # t1 ended on a stall, not a fixed point: unpriced, the run still moves it
        assert not np.array_equal(solver._fw_core(kernel, theta, t1, np.zeros(4)), t1)
        prices = np.full(4, np.vdot(kernel.cost(t1, theta), t1))
        got = solver._fw_core(kernel, theta, t1, prices)
        monkeypatch.setattr(solver, "FW_MAX_ITERS", 1)
        one_step = solver._fw_core(kernel, theta, t1, prices)
        assert not np.array_equal(one_step, t1)
        assert np.array_equal(got, one_step)

    def test_every_run_takes_one_price_per_cluster(self, monkeypatch):
        """Frank-Wolfe's linear term is k cluster prices: zeros in ``fw_solve``, and in
        each majorize-minimize round the penalty's tangent at that round's start."""
        conn = build_scenario("assortative", 3, 0.2, 0.03)
        adj, _ = sample_graph(conn, balanced_proportions(3), 200, seed=0)
        loss = make_loss("bernoulli_nll")
        k, lam = 6, 6 / 400
        plan0 = spectral_init(adj, k, seed=0)
        calls, real_core = [], solver._fw_core

        def fw_core(kernel, theta, t0, prices):
            calls.append((np.array(t0), prices))
            return real_core(kernel, theta, t0, prices)

        def check_prices(prices):
            assert isinstance(prices, np.ndarray)
            assert prices.dtype == np.float64 and prices.shape == (k,)

        monkeypatch.setattr(solver, "_fw_core", fw_core)
        bcd_fit(adj, loss, plan0, sparsity=lam)
        assert len(calls) > 1
        for t0, prices in calls:
            check_prices(prices)
            assert np.array_equal(prices, penalty_linearization(t0, lam))
        calls.clear()
        fw_solve(adj, loss, closed_form_connectivity(adj, plan0, loss), plan0)
        (_, prices), = calls
        check_prices(prices)
        assert not prices.any()


class TestMajorizeMinimize:
    def test_zero_penalty_equals_plain_solve(self):
        rng = np.random.default_rng(5)
        adj = oracles.random_binary_graph(rng, 20)
        theta = oracles.random_theta(rng, 3)
        plan0 = oracles.random_plan(rng, 20, 3)
        loss = make_loss("bernoulli_nll")
        a = mm_solve(adj, loss, theta, plan0, sparsity=0.0)
        b = fw_solve(adj, loss, theta, plan0)
        assert np.array_equal(a.matrix, b.matrix)

    def test_plain_solve_reads_no_pair_summaries(self, monkeypatch):
        """``fw_solve``, and ``mm_solve`` without penalty, is one Frank-Wolfe run:
        it prices no plan from its summaries."""
        calls, real = [], CostKernel.pair_summaries

        def counting(kernel, t):
            calls.append(t)
            return real(kernel, t)

        monkeypatch.setattr(CostKernel, "pair_summaries", counting)
        conn = build_scenario("assortative", 3, 0.2, 0.03)
        adj, _ = sample_graph(conn, balanced_proportions(3), 200, seed=0)
        loss, plan0 = make_loss("bernoulli_nll"), spectral_init(adj, 3, seed=0)
        out = fw_solve(adj, loss, conn, plan0)
        assert calls == []
        assert not np.array_equal(out.matrix, plan0.matrix)
        assert np.array_equal(mm_solve(adj, loss, conn, plan0, sparsity=0.0).matrix, out.matrix)
        assert calls == []

    def test_dominant_penalty_leaves_one_cluster(self):
        conn = build_scenario("assortative", 4, 0.3, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(4), 40, seed=6)
        plan0 = spectral_init(adj, 4, seed=6)
        out = mm_solve(adj, make_loss("bernoulli_nll"), conn, plan0, sparsity=10.0)
        q = np.sort(out.column_masses())
        assert q[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(q[:-1] <= 1e-12)

    def test_penalized_objective_monotone_across_snapshots(self, monkeypatch):
        scenario = build_scenario("assortative", 3, 0.35, 0.05)
        adj, _ = sample_graph(scenario, balanced_proportions(3), 50, seed=7)
        loss = make_loss("bernoulli_nll")
        plan0 = spectral_init(adj, 6, seed=7)
        conn = closed_form_connectivity(adj, plan0, loss)
        lam = 0.05

        def snapshots(cap_name):
            """The penalized objective of ``mm_solve`` with the cap ``cap_name`` at
            0, 1, ... until it returns the plan it returns under the module's cap."""
            full_cap = getattr(solver, cap_name)
            full = mm_solve(adj, loss, conn, plan0, sparsity=lam).matrix
            values = []
            for cap in range(full_cap + 1):
                monkeypatch.setattr(solver, cap_name, cap)
                t = mm_solve(adj, loss, conn, plan0, sparsity=lam).matrix
                values.append(srgw_objective(adj, t, conn, loss) + lam * column_mass_penalty(t))
                if np.array_equal(t, full):
                    break
            monkeypatch.setattr(solver, cap_name, full_cap)
            assert np.array_equal(t, full)
            return values

        rounds = snapshots("MM_MAX_ITERS")
        monkeypatch.setattr(solver, "MM_MAX_ITERS", 1)
        first_round = snapshots("FW_MAX_ITERS")
        assert len(rounds) >= 2 and len(first_round) >= 3
        for values in (rounds, first_round):
            assert np.all(np.diff(values) <= 1e-10)


class TestClusterMerges:
    def make_split_state(self):
        """An easy two-block graph whose plan splits block 0 in half."""
        conn = build_scenario("assortative", 2, 0.5, 0.05)
        adj, labels = sample_graph(conn, balanced_proportions(2), 60, seed=8)
        z = labels.values.copy()
        first = np.flatnonzero(z == 0)
        z[first[: first.size // 2]] = 2  # artificial split of cluster 0
        t = labels_to_plan(Labels(z, 3)).matrix.copy()
        return adj, t

    @given(instance=oracles.objective_instances(), lam=st.floats(0.0, 0.1))
    @settings(max_examples=100, deadline=None)
    def test_score_at_closed_form_equals_penalized_objective(self, instance, lam):
        """The solver's score is the objective at the refit connectivity plus the penalty."""
        loss, adj, t, _ = instance
        kernel = CostKernel(adj, loss)
        summ = kernel.pair_summaries(t)
        conn = ConnectivityMatrix(theta_from_summaries(summ, loss))
        score = summary_objective(summ, loss.prepare_theta(conn), loss, lam)
        closed = closed_form_connectivity(adj, t, loss)
        assert np.array_equal(conn.raw, closed.raw)
        assert score == srgw_objective(adj, t, closed, loss) + lam * column_mass_penalty(t)
        penalty = lam * float(np.sum(np.sqrt(t.sum(axis=0))))
        expected = oracles.quadruple_objective(adj.entries, t, closed.raw, loss) + penalty
        scale = oracles.quadruple_magnitude(adj.entries, t, closed.raw, loss) + penalty
        assert abs(score - expected) <= 1e-12 * scale

    def test_pair_summaries_additive_under_merges(self):
        rng = np.random.default_rng(10)
        adj = oracles.random_binary_graph(rng, 10)
        kernel = CostKernel(adj, make_loss("bernoulli_nll"))
        t = oracles.random_plan(rng, 10, 4).matrix
        s, d, q, f1 = kernel.pair_summaries(t)
        merged = t.copy()
        merged[:, 1] += merged[:, 3]
        merged = np.delete(merged, 3, axis=1)
        s2, d2, q2, f1_merged = kernel.pair_summaries(merged)
        np.testing.assert_allclose(_merge_rowcol(s, 1, 3), s2, atol=1e-12)
        np.testing.assert_allclose(_merge_rowcol(d, 1, 3), d2, atol=1e-12)
        np.testing.assert_allclose(np.delete(q + (np.arange(4) == 1) * q[3], 3), q2, atol=1e-14)
        assert f1_merged == pytest.approx(f1, rel=1e-14)

    def test_merge_rejoins_artificial_split(self):
        adj, t = self.make_split_state()
        loss = make_loss("bernoulli_nll")
        kernel = CostKernel(adj, loss)
        lam = 3 / 120
        conn = closed_form_connectivity(adj, t, loss)
        before = srgw_objective(adj, t, conn, loss) + lam * column_mass_penalty(t)
        summ = kernel.pair_summaries(t)
        out, out_summ, out_conn, out_pen = _merge_step(
            kernel, t, summ, conn, before, sparsity=lam
        )
        assert selected_k(TransportPlan(out)) == 2
        conn2 = closed_form_connectivity(adj, out, loss)
        after = srgw_objective(adj, out, conn2, loss) + lam * column_mass_penalty(out)
        assert after < before
        # the returned summaries, connectivity and score are those of the returned plan
        for got, want in zip(out_summ, kernel.pair_summaries(out)):
            assert np.array_equal(got, want)
        assert np.array_equal(out_conn.raw, conn2.raw)
        assert out_pen == pytest.approx(after, abs=1e-12)

    def test_merge_refused_when_fresh_summaries_do_not_beat_the_score(self, monkeypatch):
        """The best candidate is formed as a plan and re-scored from its own
        summaries; when those do not strictly beat ``pen`` (here they are the
        start's, scoring ``pen`` exactly), the step returns its own four inputs."""
        adj, t = self.make_split_state()
        loss = make_loss("bernoulli_nll")
        kernel = CostKernel(adj, loss)
        lam = 3 / 120
        summ = kernel.pair_summaries(t)
        conn, pen = solver._refit(summ, loss, lam)
        formed = []

        def rescore(merged):
            assert not formed, "a refused merge was formed again"
            formed.append(merged)
            return summ

        monkeypatch.setattr(kernel, "pair_summaries", rescore)
        out, out_summ, out_conn, out_pen = _merge_step(kernel, t, summ, conn, pen, sparsity=lam)
        assert len(formed) == 1 and selected_k(TransportPlan(formed[0])) == 2
        assert out is t and out_summ is summ and out_conn is conn and out_pen == pen

    def test_merge_is_noop_without_penalty(self):
        adj, t = self.make_split_state()
        loss = make_loss("bernoulli_nll")
        kernel = CostKernel(adj, loss)
        conn = closed_form_connectivity(adj, t, loss)
        pen = srgw_objective(adj, t, conn, loss)
        summ = kernel.pair_summaries(t)
        out, out_summ, out_conn, out_pen = _merge_step(kernel, t, summ, conn, pen, sparsity=0.0)
        assert np.array_equal(out, t)
        assert out_summ is summ and out_conn is conn and out_pen == pen


class TestAlternatingFit:
    @pytest.mark.parametrize("rounds", [1, solver.BCD_MAX_ITERS])
    def test_pair_summaries_once_per_distinct_plan(self, monkeypatch, rounds):
        """Connectivity refits, penalized objectives and merges share each plan's summaries."""
        real_summaries, real_merge = CostKernel.pair_summaries, solver._merge_step
        plans, merges = [], []

        def counting(kernel, t):
            plans.append((t.shape, t.tobytes()))
            return real_summaries(kernel, t)

        def merge_step(kernel, t, *args, **kwargs):
            out = real_merge(kernel, t, *args, **kwargs)
            merges.append(np.count_nonzero(t.sum(axis=0)) - np.count_nonzero(out[0].sum(axis=0)))
            return out

        monkeypatch.setattr(CostKernel, "pair_summaries", counting)
        monkeypatch.setattr(solver, "_merge_step", merge_step)
        monkeypatch.setattr(solver, "BCD_MAX_ITERS", rounds)
        conn = build_scenario("assortative", 3, 0.35, 0.05)
        for seed in range(3):
            plans.clear()
            merges.clear()
            adj, _ = sample_graph(conn, balanced_proportions(3), 90, seed=seed)
            result = bcd_fit(adj, make_loss("bernoulli_nll"), spectral_init(adj, 8, seed=seed),
                             sparsity=8 / 180)
            assert merges[0] > 0 and len(merges) == len(result.loss_history) <= rounds
            assert len(plans) == len(set(plans))

    def test_easy_graph_recovers_partition(self):
        conn = build_scenario("assortative", 2, 0.3, 0.03)
        scores = []
        for seed in range(5):
            adj, truth = sample_graph(conn, balanced_proportions(2), 200, seed=seed)
            plan0 = spectral_init(adj, 2, seed=seed)
            result = bcd_fit(adj, make_loss("bernoulli_nll"), plan0, sparsity=2 / 400)
            scores.append(ari(result.labels, truth))
            assert np.all(np.diff(result.loss_history) <= 1e-10)
            assert result.k_hat == selected_k(result.plan)
            assert np.array_equal(result.labels.values, hard_labels(result.plan).values)
            assert not result.degenerate
        assert sum(s == 1.0 for s in scores) >= 4

    def test_loss_history_non_increasing_across_losses(self):
        rng = np.random.default_rng(11)
        # Poisson on a count graph and exponential on a strictly positive one
        for kind in ("bernoulli_nll", "squared", "poisson_nll", "exponential_nll"):
            adj = oracles.graph_for_loss(rng, 50, kind)
            result = bcd_fit(
                adj,
                make_loss(kind),
                spectral_init(adj, 5, seed=12),
                sparsity=0.02,
            )
            assert np.all(np.isfinite(result.loss_history)), kind
            assert np.all(np.diff(result.loss_history) <= 1e-10), kind

    def test_empty_graph_flags_degenerate(self):
        adj = AdjacencyMatrix(np.zeros((12, 12)))
        result = bcd_fit(adj, make_loss("bernoulli_nll"), uniform_plan(12, 3), sparsity=0.01)
        assert result.degenerate

    @staticmethod
    def fit_two_of_four_columns(pairs, weight=lambda i, j: 1.0):
        """Squared-loss fit at zero sparsity of a 6-node graph from the hard plan
        {0, 1, 2} | {3, 4, 5} on four columns, the last two empty."""
        a = np.zeros((6, 6))
        for i, j in pairs:
            a[i, j] = a[j, i] = weight(i, j)
        plan0 = labels_to_plan(Labels(np.array([0, 0, 0, 1, 1, 1]), 4))
        return bcd_fit(AdjacencyMatrix(a), make_loss("squared"), plan0)

    def test_dead_clusters_never_tie_a_fit(self):
        """Two disjoint triangles: the empty columns' rows tie at the 0.5 placeholder,
        but they hold no mass, so the fit is not degenerate."""
        triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        result = self.fit_two_of_four_columns(triangles)
        theta = result.connectivity.raw
        assert result.k_hat == 2 and np.array_equal(theta[2], theta[3])
        assert not result.degenerate

    def test_live_clusters_that_tie_flag_degenerate(self):
        """In K6 both live clusters read connectivity 1 to everyone."""
        complete = list(itertools.combinations(range(6), 2))
        result = self.fit_two_of_four_columns(complete)
        assert result.k_hat == 2 and np.array_equal(*result.connectivity.raw[:2])
        assert result.degenerate

    def test_live_clusters_one_ulp_apart_stay_distinct(self):
        """Ties are exact: weighting one cluster's edges an ulp above 1 splits the rows."""
        complete = list(itertools.combinations(range(6), 2))
        up = np.nextafter(1.0, 2.0)
        result = self.fit_two_of_four_columns(complete, lambda i, j: up if i >= 3 else 1.0)
        row0, row1 = result.connectivity.raw[:2]
        assert result.k_hat == 2 and not np.array_equal(row0, row1)
        assert np.abs(row0 - row1).max() <= np.spacing(1.0)
        assert not result.degenerate


class TestNonFiniteGuards:
    """The squared loss on one edge of weight 1e200 overflows ``f1(a) = a**2``."""

    @pytest.fixture
    def overflow(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1e200
        theta = ConnectivityMatrix(np.array([[0.5, 0.1], [0.1, 0.5]]))
        with np.errstate(over="ignore", invalid="ignore"):
            yield AdjacencyMatrix(a), make_loss("squared"), theta, uniform_plan(4, 2)

    def test_evaluators_raise_floating_point_error(self, overflow):
        adj, loss, theta, plan = overflow
        with pytest.raises(FloatingPointError, match="non-finite objective"):
            srgw_objective(adj, plan, theta, loss)
        with pytest.raises(FloatingPointError, match="non-finite cost"):
            cost_application(adj, plan, theta, loss)

    @pytest.mark.parametrize("call, phase", [
        ("fw_solve", "a Frank-Wolfe step"),
        ("mm_solve", "a majorize-minimize round"),
        ("bcd_fit", "a majorize-minimize round"),
        ("penalized bcd_fit", "a majorize-minimize round"),
    ])
    def test_solvers_raise_solver_error_naming_the_phase(self, overflow, call, phase):
        """The message names the loop that met the value, not a public function."""
        adj, loss, theta, plan = overflow
        solve = {
            "fw_solve": lambda: fw_solve(adj, loss, theta, plan),
            "mm_solve": lambda: mm_solve(adj, loss, theta, plan, sparsity=0.1),
            "bcd_fit": lambda: bcd_fit(adj, loss, plan),
            "penalized bcd_fit": lambda: bcd_fit(adj, loss, plan, sparsity=0.1),
        }[call]
        with pytest.raises(solver.SolverError, match=f"non-finite objective in {phase};"):
            solve()

    def test_elbo_raises_floating_point_error(self):
        """A weight of 1e308 overflows the Bernoulli pair sums behind the bound."""
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1e308
        theta = ConnectivityMatrix(np.array([[0.5, 0.1], [0.1, 0.5]]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite objective"):
            elbo_value(np.full((4, 2), 0.5), AdjacencyMatrix(a), theta, Proportions([0.5, 0.5]))


class TestBoundEvaluators:
    @pytest.mark.parametrize("resp, k, weights, message", [
        (np.full(4, 0.5), 2, [0.5, 0.5], "must be 2-d"),
        (np.array([[1.5, -0.5]] * 4), 2, [0.5, 0.5], "probability vectors"),
        (np.full((4, 2), 0.4), 2, [0.5, 0.5], "probability vectors"),
        (np.full((4, 2), 0.5), 3, [0.5, 0.5], "disagree on k"),
        (np.full((4, 2), 0.5), 2, [0.5, 0.5, 0.0], "disagree on k"),
        (np.full((4, 2), 0.5), 2, [1.0, 0.0], "zero prior mass"),
    ])
    def test_elbo_refuses_inconsistent_inputs(self, resp, k, weights, message):
        adj = oracles.random_binary_graph(np.random.default_rng(19), 4)
        conn = ConnectivityMatrix(np.full((k, k), 0.3))
        with pytest.raises(ValueError, match=message):
            elbo_value(resp, adj, conn, Proportions(np.array(weights)))

    def test_elbo_accepts_an_empty_cluster_without_prior_mass(self):
        """A cluster with zero prior weight and no responsibility changes nothing."""
        rng = np.random.default_rng(18)
        adj = oracles.random_binary_graph(rng, 8)
        resp = rng.random((8, 2)) + 0.1
        resp /= resp.sum(axis=1, keepdims=True)
        conn = oracles.random_theta(rng, 3)
        truncated = elbo_value(
            resp, adj, ConnectivityMatrix(conn.raw[:2, :2]), Proportions(np.array([0.4, 0.6]))
        )
        padded = elbo_value(
            np.hstack([resp, np.zeros((8, 1))]), adj, conn, Proportions(np.array([0.4, 0.6, 0.0]))
        )
        assert padded == truncated

    def test_elbo_single_cluster_formula(self):
        rng = np.random.default_rng(14)
        adj = oracles.random_binary_graph(rng, 9)
        conn = ConnectivityMatrix(np.array([[0.3]]))
        resp = np.ones((9, 1))
        expected = 0.5 * sum(
            np.log(0.3) if adj.entries[i, j] else np.log(0.7)
            for i in range(9)
            for j in range(9)
            if i != j
        )
        assert elbo_value(resp, adj, conn, Proportions(np.ones(1))) == pytest.approx(expected, abs=1e-10)

    def test_elbo_entropic_identity(self):
        """The bound is an affine function of the entropy-corrected objective."""
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(5, 25))
            k = int(rng.integers(2, 5))
            adj = oracles.random_binary_graph(rng, n)
            resp = rng.random((n, k)) + 0.1
            resp /= resp.sum(axis=1, keepdims=True)
            conn = oracles.random_theta(rng, k)
            props = Proportions(resp.mean(axis=0))
            elbo = elbo_value(resp, adj, conn, props)
            rhs = -(n**2 / 2.0) * entropic_objective(resp / n, adj, conn) - n * np.log(n)
            assert abs(elbo - rhs) / (1.0 + abs(elbo)) <= 1e-8

    def test_entropic_hard_plan_entropy_terms(self):
        z = Labels(np.array([0, 0, 1, 1, 1]), 2)
        plan = labels_to_plan(z)
        adj = AdjacencyMatrix(np.zeros((5, 5)))
        conn = ConnectivityMatrix(np.full((2, 2), 0.4))
        lp = srgw_objective(adj, plan, conn, make_loss("bernoulli_nll"))
        q = plan.column_masses()
        h_mass = -float(xlogy(q, q).sum())
        expected = lp - (2 / 5) * (np.log(5) - h_mass)
        assert entropic_objective(plan, adj, conn) == pytest.approx(expected, abs=1e-12)

    def test_entropic_uniform_plan_entropy_terms(self):
        plan = uniform_plan(6, 3)
        adj = AdjacencyMatrix(np.zeros((6, 6)))
        conn = ConnectivityMatrix(np.full((3, 3), 0.4))
        lp = srgw_objective(adj, plan, conn, make_loss("bernoulli_nll"))
        expected = lp - (2 / 6) * (np.log(18) - np.log(3))
        assert entropic_objective(plan, adj, conn) == pytest.approx(expected, abs=1e-12)

    def test_elbo_never_exceeds_exact_likelihood(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            adj = oracles.random_binary_graph(rng, n)
            conn = oracles.random_theta(rng, 2)
            resp = rng.random((n, 2)) + 0.1
            resp /= resp.sum(axis=1, keepdims=True)
            props = Proportions(resp.mean(axis=0))
            assert elbo_value(resp, adj, conn, props) <= exact_log_likelihood(adj, conn, props) + 1e-10

    def test_solver_plans_respect_likelihood_sandwich(self):
        """Negated objective minus log(K)/N stays under the scaled best likelihood."""
        rng = np.random.default_rng(17)
        loss = make_loss("bernoulli_nll")
        for _ in range(10):
            n = int(rng.integers(5, 10))
            adj = oracles.random_binary_graph(rng, n)
            theta = oracles.random_theta(rng, 2)
            plan = fw_solve(adj, loss, theta, uniform_plan(n, 2))
            lhs = -srgw_objective(adj, plan, theta, loss) - np.log(2.0) / n
            rhs = sup_log_likelihood(adj, theta) / n**2
            assert lhs <= rhs + 1e-6


@pytest.mark.parametrize("n, p_in, seed", [(300, 0.3, 0), (400, 0.25, 1), (600, 0.2, 2), (600, 0.15, 3)])
def test_bcd_fit_under_node_and_cluster_relabeling(n, p_in, seed):
    """Relabeling the nodes (A' = P A P^T from the start P T0) gives the permuted
    plan bit for bit; permuting T0's columns gives the same loss history and
    partition.  The merge step pours cluster j into i < j, so which column a
    merged cluster keeps may differ, and the partitions are compared by ARI."""
    conn = build_scenario("assortative", 3, p_in, 0.05)
    adj, _ = sample_graph(conn, balanced_proportions(3), n, seed)
    plan0 = spectral_init(adj, 10, seed)
    loss, sparsity = make_loss("bernoulli_nll"), 10 / (2.0 * n)  # lambda = auto
    base = bcd_fit(adj, loss, plan0, sparsity=sparsity)

    perm = np.random.default_rng(seed).permutation(n)
    inv = np.argsort(perm)  # node perm[r] of A is node r of A'
    upper = adj.csr.tocoo()
    i, j = inv[upper.row], inv[upper.col]
    keep = i < j
    moved = bcd_fit(adjacency_from_edges(n, i[keep], j[keep]), loss,
                    TransportPlan(plan0.matrix[perm]), sparsity=sparsity)
    assert np.array_equal(moved.plan.matrix, base.plan.matrix[perm])
    assert moved.k_hat == base.k_hat
    np.testing.assert_allclose(moved.loss_history, base.loss_history, rtol=1e-12, atol=0)

    columns = np.random.default_rng(seed).permutation(10)
    swapped = bcd_fit(adj, loss, TransportPlan(plan0.matrix[:, columns]), sparsity=sparsity)
    np.testing.assert_allclose(swapped.loss_history, base.loss_history, rtol=1e-12, atol=0)
    assert ari(swapped.labels, base.labels) == 1.0


BLAS_CHILD = """
import hashlib, json
import numpy as np
from gwsbm import auto_sparsity, bcd_fit, build_scenario, make_loss, make_proportions, sample_graph, spectral_init

def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

adj, _ = sample_graph(build_scenario("assortative", 3, 0.15, 0.05), make_proportions("balanced", 3), 800, 17)
plan0 = spectral_init(adj, 10, 17)
result = bcd_fit(adj, make_loss("bernoulli_nll"), plan0, sparsity=auto_sparsity(10, 800))
print(json.dumps({"start": digest(plan0.matrix), "plan": digest(result.plan.matrix),
                  "theta": digest(result.connectivity.raw), "history": digest(np.array(result.loss_history))}))
"""


def test_fit_is_bit_identical_under_one_and_two_blas_threads():
    """The spectral start (a dense ``eigh`` at n=800), the plan, the connectivity and
    the loss history of one sweep-shaped fit hash the same with OpenBLAS on one and
    on two threads, each in its own interpreter, since the thread count is read at
    load time."""
    seen = []
    for threads in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-c", BLAS_CHILD],
            capture_output=True,
            text=True,
            timeout=120,
            env={**oracles.cli_process_env(), "OPENBLAS_NUM_THREADS": threads},
        )
        assert run.returncode == 0, run.stderr
        seen.append(json.loads(run.stdout))
    assert seen[0] == seen[1]
