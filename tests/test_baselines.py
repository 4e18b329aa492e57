"""Variational EM baseline and the exhaustive tiny-scale oracles."""

import numpy as np
import pytest

import oracles
from gwsbm import (
    AdjacencyMatrix,
    ConnectivityMatrix,
    Labels,
    Proportions,
    TransportPlan,
    ari,
    brute_force_srgw,
    closed_form_connectivity,
    elbo_value,
    exact_log_likelihood,
    fw_solve,
    labels_to_plan,
    make_loss,
    spectral_init,
    srgw_objective,
    sup_log_likelihood,
    vem_fit,
)
from gwsbm import baselines
from gwsbm.baselines import ENUMERATION_CAP, RESTART_CAP, _m_step, restarted_fw_minimum
from gwsbm.losses import CostKernel
from gwsbm.sbm import balanced_proportions, build_scenario, sample_graph


def one_edge_pair():
    a = np.zeros((2, 2))
    a[0, 1] = a[1, 0] = 1.0
    return AdjacencyMatrix(a)


class TestVariationalEm:
    def test_m_step_matches_closed_form_connectivity(self):
        """With hard responsibilities both estimators average the same pairs."""
        conn = build_scenario("assortative", 2, 0.4, 0.1)
        adj, labels = sample_graph(conn, balanced_proportions(2), 40, seed=0)
        resp = np.zeros((40, 2))
        resp[np.arange(40), labels.values] = 1.0
        loss = make_loss("bernoulli_nll")
        _, got, _ = _m_step(CostKernel(adj, loss), resp)
        reference = closed_form_connectivity(adj, resp / 40, loss)
        np.testing.assert_allclose(got.raw, reference.raw, atol=1e-12)

    def test_easy_graph_recovers_partition(self):
        conn = build_scenario("assortative", 2, 0.3, 0.03)
        hits = 0
        for seed in range(5):
            adj, truth = sample_graph(conn, balanced_proportions(2), 200, seed=seed)
            resp = spectral_init(adj, 2, seed=seed).matrix * 200
            state = vem_fit(adj, 2, resp)
            z_hat = Labels(np.argmax(state.resp, axis=1), 2)
            hits += ari(z_hat, truth) == 1.0
        assert hits >= 4

    def test_elbo_monotone_and_below_exact_likelihood(self):
        rng = np.random.default_rng(1)
        adj = oracles.random_binary_graph(rng, 9, p=0.5)
        resp = rng.random((9, 2)) + 0.1
        resp /= resp.sum(axis=1, keepdims=True)
        state = vem_fit(adj, 2, resp)
        diffs = np.diff(state.elbo_history)
        assert np.all(diffs >= -1e-8)
        # priced on vem_fit's own kernel, the bound is elbo_value's to the bit
        assert state.elbo == elbo_value(state.resp, adj, state.connectivity, state.proportions)
        exact = exact_log_likelihood(adj, state.connectivity, state.proportions)
        assert state.elbo <= exact + 1e-8

    def test_one_pair_summary_pass_per_m_step(self, monkeypatch):
        """Each M-step, the start's included, reads its responsibilities' pair
        summaries once: θ and the bound's quadratic term share one ``A @ resp``."""
        calls, real = [], CostKernel.pair_summaries

        def counting(kernel, t):
            calls.append(t)
            return real(kernel, t)

        monkeypatch.setattr(CostKernel, "pair_summaries", counting)
        conn = build_scenario("assortative", 3, 0.3, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(3), 90, seed=4)
        state = vem_fit(adj, 3, spectral_init(adj, 3, seed=4).matrix * 90)
        assert len(state.elbo_history) > 2
        assert len(calls) == len(state.elbo_history)

    def test_bad_responsibilities_rejected(self):
        adj = one_edge_pair()
        with pytest.raises(ValueError):
            vem_fit(adj, 2, np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            vem_fit(adj, 3, np.full((2, 2), 0.5))


class TestExactLikelihood:
    def test_single_cluster_single_edge(self):
        adj = one_edge_pair()
        conn = ConnectivityMatrix(np.array([[0.7]]))
        value = exact_log_likelihood(adj, conn, Proportions(np.ones(1)))
        assert value == pytest.approx(np.log(0.7), abs=1e-12)

    def test_two_cluster_single_edge_by_hand(self):
        adj = one_edge_pair()
        conn = ConnectivityMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        value = exact_log_likelihood(adj, conn, Proportions(np.array([0.5, 0.5])))
        assert value == pytest.approx(np.log(0.5), abs=1e-12)

    def test_matches_direct_product_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, 4))
            adj = oracles.random_binary_graph(rng, n, p=0.5)
            theta = oracles.random_theta(rng, k)
            alpha = rng.random(k) + 0.2
            alpha /= alpha.sum()
            fast = exact_log_likelihood(adj, theta, Proportions(alpha))
            direct = np.log(oracles.likelihood_by_product(adj.entries, theta.raw, alpha))
            assert fast == pytest.approx(direct, rel=1e-10)

    def test_invariant_under_joint_relabeling(self):
        rng = np.random.default_rng(3)
        adj = oracles.random_binary_graph(rng, 6, p=0.5)
        theta = oracles.random_theta(rng, 3)
        alpha = np.array([0.5, 0.3, 0.2])
        perm = np.array([2, 0, 1])
        base = exact_log_likelihood(adj, theta, Proportions(alpha))
        moved = exact_log_likelihood(
            adj,
            ConnectivityMatrix(theta.raw[np.ix_(perm, perm)]),
            Proportions(alpha[perm]),
        )
        assert moved == pytest.approx(base, abs=1e-10)

    def test_enumeration_cap_enforced(self):
        rng = np.random.default_rng(4)
        adj = oracles.random_binary_graph(rng, 9)
        theta = oracles.random_theta(rng, 10)
        with pytest.raises(ValueError):
            exact_log_likelihood(adj, theta, Proportions(np.full(10, 0.1)))

    def test_proportions_must_match_connectivity(self):
        rng = np.random.default_rng(4)
        adj = oracles.random_binary_graph(rng, 4)
        with pytest.raises(ValueError, match="connectivity and proportions disagree on k"):
            exact_log_likelihood(adj, oracles.random_theta(rng, 2), Proportions(np.full(3, 1 / 3)))


class TestSupLikelihood:
    def test_single_cluster_trivial(self):
        adj = one_edge_pair()
        conn = ConnectivityMatrix(np.array([[0.7]]))
        assert sup_log_likelihood(adj, conn) == pytest.approx(np.log(0.7), abs=1e-12)

    def test_dominates_uniform_proportions(self):
        rng = np.random.default_rng(5)
        for k in (2, 3):
            adj = oracles.random_binary_graph(rng, 7, p=0.5)
            theta = oracles.random_theta(rng, k)
            sup = sup_log_likelihood(adj, theta)
            at_uniform = exact_log_likelihood(adj, theta, Proportions(np.full(k, 1 / k)))
            assert sup >= at_uniform - 1e-12

    def test_refinement_tightens_k2_grid(self):
        """The golden-section pass finds maxima between grid points."""
        rng = np.random.default_rng(6)
        adj = oracles.random_binary_graph(rng, 6, p=0.5)
        theta = oracles.random_theta(rng, 2)
        coarse = sup_log_likelihood(adj, theta, grid_size=5)
        fine = sup_log_likelihood(adj, theta, grid_size=401)
        assert coarse >= fine - 1e-6

    def test_k3_search_from_a_simplex_vertex(self, monkeypatch):
        """K_5 is explained best by the dense cluster alone: the grid's best
        point is the vertex (1, 0, 0), two of the six steps off it leave the
        simplex and are skipped, none of the others improves, and the result
        is at least that point's value."""
        adj = AdjacencyMatrix(np.ones((5, 5)) - np.eye(5))
        theta = ConnectivityMatrix(np.array([[0.9, 0.1, 0.1], [0.1, 0.2, 0.1], [0.1, 0.1, 0.2]]))
        toward_vertex = baselines._toward_vertex
        steps = []

        def recorded(w, axis, t):
            out = toward_vertex(w, axis, t)
            steps.append(out)
            return out

        monkeypatch.setattr(baselines, "_toward_vertex", recorded)
        grid = [np.array([i, j, 2 - i - j]) / 2 for i in range(3) for j in range(3 - i)]
        best = max(exact_log_likelihood(adj, theta, Proportions(w)) for w in grid)
        assert best == exact_log_likelihood(adj, theta, Proportions(np.array([1.0, 0.0, 0.0])))
        assert sup_log_likelihood(adj, theta, grid_size=3) >= best
        assert sum(w is None for w in steps[:6]) == 2

    def test_many_clusters_unsupported(self):
        rng = np.random.default_rng(7)
        adj = oracles.random_binary_graph(rng, 5)
        theta = oracles.random_theta(rng, 4)
        with pytest.raises(ValueError):
            sup_log_likelihood(adj, theta)

    def test_grid_needs_three_points(self):
        rng = np.random.default_rng(7)
        adj = oracles.random_binary_graph(rng, 4)
        with pytest.raises(ValueError, match=r"grid_size must be an integer >= 3, got 2"):
            sup_log_likelihood(adj, oracles.random_theta(rng, 2), grid_size=2)


class TestVertexEnumeration:
    def test_one_edge_frozen_value_and_labels(self):
        adj = one_edge_pair()
        theta = ConnectivityMatrix(np.array([[0.9, 0.1], [0.1, 0.9]]))
        value, labels = brute_force_srgw(adj, make_loss("bernoulli_nll"), theta)
        assert value == pytest.approx(2 * -np.log(0.9) / 4, abs=1e-12)
        assert np.array_equal(labels.values, [0, 0])

    def test_constant_connectivity_collapses(self):
        rng = np.random.default_rng(8)
        adj = oracles.random_binary_graph(rng, 5, p=0.5)
        loss = make_loss("bernoulli_nll")
        theta = ConnectivityMatrix(np.full((2, 2), 0.4))
        value, labels = brute_force_srgw(adj, loss, theta)
        a = adj.entries
        expected = sum(
            float(loss(a[i, j], 0.4)) for i in range(5) for j in range(5) if i != j
        ) / 25.0
        assert value == pytest.approx(expected, abs=1e-12)
        assert np.array_equal(labels.values, np.zeros(5))  # lowest assignment wins ties

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(9)
        loss = make_loss("bernoulli_nll")
        for _ in range(5):
            n = int(rng.integers(3, 7))
            adj = oracles.random_binary_graph(rng, n, p=0.5)
            theta = oracles.random_theta(rng, 2)
            value, labels = brute_force_srgw(adj, loss, theta)
            best = min(
                srgw_objective(adj, TransportPlan(t), theta, loss)
                for _, t in oracles.enumerate_hard_plans(n, 2)
            )
            assert value == pytest.approx(best, abs=1e-12)
            plan = labels_to_plan(labels)
            assert srgw_objective(adj, plan, theta, loss) == pytest.approx(value, abs=1e-12)

    def test_enumeration_cap_enforced(self):
        rng = np.random.default_rng(10)
        adj = oracles.random_binary_graph(rng, 30)
        theta = oracles.random_theta(rng, 2)
        with pytest.raises(ValueError):
            brute_force_srgw(adj, make_loss("bernoulli_nll"), theta)


class TestChunkedEnumeration:
    def test_small_chunks_give_the_unchunked_results(self, monkeypatch):
        """Chunks of 7 labelings split the 3**6 = 729 labelings into 104 full
        chunks and a last one of 1, and the best labeling lies past the first
        chunk.  The exhaustive minimum, its labels and the restarted minimum
        stay bit for bit those of one chunk; the likelihood, whose per-chunk
        log-sum-exp regroups the sum, stays within 1e-12 relative."""
        rng = np.random.default_rng(16)
        adj = oracles.random_binary_graph(rng, 6, p=0.5)
        theta = oracles.random_theta(rng, 3)
        props = Proportions(np.array([0.5, 0.3, 0.2]))
        loss = make_loss("bernoulli_nll")

        def run():
            value, labels = brute_force_srgw(adj, loss, theta)
            restarted = restarted_fw_minimum(adj, loss, theta)
            return value, labels.values, restarted, exact_log_likelihood(adj, theta, props)

        value, labels, restarted, likelihood = run()
        assert int(np.dot(labels, 3 ** np.arange(5, -1, -1))) >= 7
        monkeypatch.setattr(baselines, "_CHUNK", 7)
        value7, labels7, restarted7, likelihood7 = run()
        assert value7 == value
        assert np.array_equal(labels7, labels)
        assert restarted7 == restarted
        assert likelihood7 == pytest.approx(likelihood, rel=1e-12, abs=0.0)


class TestRestartedSolver:
    def test_minimum_over_every_hard_start(self):
        rng = np.random.default_rng(12)
        loss = make_loss("bernoulli_nll")
        for _ in range(3):
            n = int(rng.integers(3, 6))
            adj = oracles.random_binary_graph(rng, n, p=0.5)
            theta = oracles.random_theta(rng, 2)
            expected = min(
                srgw_objective(adj, fw_solve(adj, loss, theta, TransportPlan(t)), theta, loss)
                for _, t in oracles.enumerate_hard_plans(n, 2)
            )
            value = restarted_fw_minimum(adj, loss, theta)
            assert value == expected
            assert value >= brute_force_srgw(adj, loss, theta)[0] - 1e-12

    def test_one_kernel_and_one_summary_per_start(self, monkeypatch):
        """All k**n starts share one cost kernel, and each result is summarized once."""
        counts = {"kernels": 0, "summaries": 0}
        real_init, real_summaries = CostKernel.__init__, CostKernel.pair_summaries

        def init(self, adj, loss):
            counts["kernels"] += 1
            real_init(self, adj, loss)

        def pair_summaries(self, t):
            counts["summaries"] += 1
            return real_summaries(self, t)

        monkeypatch.setattr(CostKernel, "__init__", init)
        monkeypatch.setattr(CostKernel, "pair_summaries", pair_summaries)
        rng = np.random.default_rng(15)
        adj = oracles.random_binary_graph(rng, 6, p=0.5)
        restarted_fw_minimum(adj, make_loss("bernoulli_nll"), oracles.random_theta(rng, 2))
        assert counts == {"kernels": 1, "summaries": 2**6}

    def test_enumeration_cap_enforced(self):
        rng = np.random.default_rng(13)
        adj = oracles.random_binary_graph(rng, 30)
        with pytest.raises(ValueError):
            restarted_fw_minimum(adj, make_loss("bernoulli_nll"), oracles.random_theta(rng, 2))

    def test_restart_cap_refuses_before_any_solve(self, monkeypatch):
        """2**20 starts pass the enumeration cap but not the restarts' own, lower one."""

        def never(*args, **kwargs):
            raise AssertionError("solved past the cap")

        monkeypatch.setattr(baselines, "_fw_core", never)
        assert RESTART_CAP < 2**20 <= ENUMERATION_CAP
        rng = np.random.default_rng(14)
        adj = oracles.random_binary_graph(rng, 20)
        with pytest.raises(ValueError, match=f"cap of {RESTART_CAP}"):
            restarted_fw_minimum(adj, make_loss("bernoulli_nll"), oracles.random_theta(rng, 2))
