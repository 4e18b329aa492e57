"""Plan solvers: descent, penalty handling, merges, and bound evaluators."""

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
    bcd_fit,
    closed_form_connectivity,
    column_mass_penalty,
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
from gwsbm.sbm import Labels, balanced_proportions, build_scenario, sample_graph
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
    np.testing.assert_allclose(r[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(r[:, 1], 0.57735027, atol=1e-8)


def test_penalty_linearization_matches_finite_difference():
    rng = np.random.default_rng(0)
    plan = oracles.random_plan(rng, 6, 3)
    lam = 0.7
    r = penalty_linearization(plan, lam)
    g = oracles.central_gradient(
        lambda t: lam * float(np.sqrt(t.sum(axis=0)).sum()), plan.matrix.copy(), step=1e-7
    )
    np.testing.assert_allclose(r, g, atol=1e-4)


def test_penalty_linearization_edge_cases():
    plan = uniform_plan(4, 2)
    assert not penalty_linearization(plan, 0.0).any()
    with pytest.raises(ValueError):
        penalty_linearization(plan, -1.0)
    dead = labels_to_plan(Labels(np.zeros(4, dtype=np.int64), 1), k=2)
    r = penalty_linearization(dead, 2.0)
    assert r[0, 1] == pytest.approx(2.0 / (2.0 * 1e-8))  # floored at 1e-16 mass


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

    def test_objective_monotone_and_iterates_feasible(self):
        rng = np.random.default_rng(3)
        adj = oracles.random_binary_graph(rng, 30)
        theta = oracles.random_theta(rng, 4)
        seen = []

        def watch(t, obj):
            n = t.shape[0]
            assert np.all(t >= -1e-15)
            np.testing.assert_allclose(t.sum(axis=1), np.full(n, 1 / n), atol=1e-10)
            seen.append(obj)

        mm_solve(adj, make_loss("bernoulli_nll"), theta, uniform_plan(30, 4), on_iterate=watch)
        assert len(seen) >= 2
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
        with pytest.raises(ValueError):
            fw_solve(adj, make_loss("bernoulli_nll"), theta, uniform_plan(3, 2))

    def test_one_cost_application_per_iteration(self, monkeypatch):
        """On the README quick-start fit, each Frank-Wolfe run applies the
        cost to its start plan and then, through the neighbour-label sums,
        once per oracle vertex, and never evaluates the objective for a
        line search."""
        conn = build_scenario("assortative", 3, 0.2, 0.03)
        adj, _ = sample_graph(conn, balanced_proportions(3), 600, seed=0)
        stack, runs = [], []
        real_cost, real_assemble = CostKernel.cost, CostKernel.assemble_cost
        real_sums, real_objective = CostKernel.label_sums, CostKernel.objective
        real_core = solver._fw_core

        def cost(self, t, theta):
            if not stack:
                return real_cost(self, t, theta)
            stack[-1]["calls"].append(("cost", np.array(t)))
            stack[-1]["in_cost"] = True
            try:
                return real_cost(self, t, theta)
            finally:
                stack[-1]["in_cost"] = False

        def assemble_cost(self, t, at, theta):
            if stack and not stack[-1]["in_cost"]:
                # a vertex cost: A @ x from the label sums is the sparse product up to
                # the rounding of a sum of deg(i) terms, plus one for scaling the sums
                assert stack[-1]["calls"][-1][0] == "sums"
                terms = np.diff(self.a.indptr)[:, None] + 1
                bound = terms * np.finfo(float).eps * (abs(self.a) @ t)
                assert np.all(np.abs(at - self.a @ t) <= bound)
                stack[-1]["calls"].append(("vertex", np.array(t)))
            return real_assemble(self, t, at, theta)

        def label_sums(self, labels, k, sums=None, old=None):
            if stack:
                stack[-1]["calls"].append(("sums", None))
            return real_sums(self, labels, k, sums, old)

        def objective(self, t, theta):
            if stack:
                stack[-1]["calls"].append(("objective", None))
            return real_objective(self, t, theta)

        def fw_core(kernel, theta, t0, linear, on_iterate=None):
            run = {"t0": np.array(t0), "calls": [], "steps": 0, "in_cost": False}

            def count_step(t, obj):
                run["steps"] += 1

            stack.append(run)
            try:
                return real_core(kernel, theta, t0, linear, count_step)
            finally:
                runs.append(stack.pop())

        monkeypatch.setattr(CostKernel, "cost", cost)
        monkeypatch.setattr(CostKernel, "assemble_cost", assemble_cost)
        monkeypatch.setattr(CostKernel, "label_sums", label_sums)
        monkeypatch.setattr(CostKernel, "objective", objective)
        monkeypatch.setattr(solver, "_fw_core", fw_core)
        bcd_fit(adj, make_loss("bernoulli_nll"), spectral_init(adj, 10, seed=0), sparsity=10 / 1200)

        n = adj.n
        assert runs
        for run in runs:
            kinds = [kind for kind, _ in run["calls"]]
            assert "objective" not in kinds
            (start_kind, start), *steps = run["calls"]
            assert start_kind == "cost" and np.array_equal(start, run["t0"])
            vertices = [x for kind, x in steps if kind == "vertex"]
            assert kinds[1:] == ["sums", "vertex"] * len(vertices)
            for x in vertices:
                assert np.array_equal(np.count_nonzero(x, axis=1), np.ones(n))
                assert np.all(x.sum(axis=1) == 1.0 / n)
            iterations = len(vertices)
            # on_iterate fires for the start and each accepted step; at most
            # the last iteration is a rejected (zero) step
            assert run["steps"] - 1 <= iterations <= run["steps"]


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

    def test_dominant_penalty_leaves_one_cluster(self):
        conn = build_scenario("assortative", 4, 0.3, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(4), 40, seed=6)
        plan0 = spectral_init(adj, 4, seed=6)
        out = mm_solve(adj, make_loss("bernoulli_nll"), conn, plan0, sparsity=10.0)
        q = np.sort(out.column_masses())
        assert q[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(q[:-1] <= 1e-12)

    def test_penalized_objective_monotone_across_snapshots(self):
        scenario = build_scenario("assortative", 3, 0.35, 0.05)
        adj, _ = sample_graph(scenario, balanced_proportions(3), 50, seed=7)
        loss = make_loss("bernoulli_nll")
        plan0 = spectral_init(adj, 6, seed=7)
        conn = closed_form_connectivity(adj, plan0, loss)
        lam = 0.05
        values = []

        def watch(t, _obj):
            assert np.all(t >= -1e-15)
            np.testing.assert_allclose(t.sum(axis=1), np.full(50, 1 / 50), atol=1e-10)
            pen = srgw_objective(adj, t, conn, loss) + lam * column_mass_penalty(t)
            values.append(pen)

        mm_solve(adj, loss, conn, plan0, sparsity=lam, on_iterate=watch)
        assert len(values) >= 2
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
        conn = ConnectivityMatrix(*theta_from_summaries(summ, loss))
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


class TestBoundEvaluators:
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
