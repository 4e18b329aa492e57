"""End-to-end acceptance gate.

Each test certifies one numbered criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or on failure) so the whole gate can be
audited at a glance; a helper that a criterion relies on gets its own
small test beside it.  Tolerances are part of the contract and must not
be loosened.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from gwsbm import (
    ExperimentConfig,
    Proportions,
    TransportPlan,
    aligned_plan_error,
    ari,
    bcd_fit,
    brute_force_srgw,
    closed_form_connectivity,
    connectivity_error,
    cost_application,
    elbo_value,
    entropic_objective,
    fw_solve,
    make_loss,
    run_ari_sweep,
    spectral_init,
    srgw_objective,
    sup_log_likelihood,
)
from gwsbm.losses import LOSS_KINDS
from gwsbm.sbm import balanced_proportions, build_scenario, sample_graph


def report(num, name, ok, detail):
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_solver_reaches_enumerated_optimum():
    """Restarted first-order solves never trail the exhaustive vertex search."""
    rng = np.random.default_rng(101)
    loss = make_loss("bernoulli_nll")
    worst = -np.inf
    for trial in range(50):
        n = 4 + trial % 5
        adj = oracles.random_binary_graph(rng, n, p=0.45)
        theta = oracles.random_theta(rng, 2)
        oracle_value, _ = brute_force_srgw(adj, loss, theta)
        best = min(
            srgw_objective(adj, fw_solve(adj, loss, theta, TransportPlan(t)), theta, loss)
            for _, t in oracles.enumerate_hard_plans(n, 2)
        )
        worst = max(worst, best - oracle_value)
    report(1, "vertex-restart optimality", worst <= 1e-9, f"max gap {worst:.3e}")


def test_criterion_02_elbo_matches_entropic_objective():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 31))
        k = int(rng.integers(1, 6))
        adj = oracles.random_binary_graph(rng, n, p=0.4)
        resp = rng.random((n, k)) + 0.05
        resp /= resp.sum(axis=1, keepdims=True)
        conn = oracles.random_theta(rng, k)
        props = Proportions(resp.mean(axis=0))
        elbo = elbo_value(resp, adj, conn, props)
        rhs = -(n**2 / 2.0) * entropic_objective(resp / n, adj, conn) - n * np.log(n)
        worst = max(worst, abs(elbo - rhs) / (1.0 + abs(elbo)))
    report(2, "ELBO / entropic identity", worst <= 1e-8, f"max rel dev {worst:.3e}")


def test_criterion_03_likelihood_sandwich_lower_bound():
    rng = np.random.default_rng(103)
    loss = make_loss("bernoulli_nll")
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(5, 11))
        adj = oracles.random_binary_graph(rng, n, p=0.45)
        theta = oracles.random_theta(rng, 2)
        plan = fw_solve(adj, loss, theta, spectral_init(adj, 2, seed=int(rng.integers(10**6))))
        lhs = -srgw_objective(adj, plan, theta, loss) - np.log(2.0) / n
        rhs = sup_log_likelihood(adj, theta) / n**2
        worst = max(worst, lhs - rhs)
    report(3, "likelihood sandwich", worst <= 1e-6, f"max violation {worst:.3e}")


def test_criterion_04_closed_form_connectivity_is_optimal():
    rng = np.random.default_rng(104)
    worst = 0.0
    for kind in LOSS_KINDS:
        loss = make_loss(kind)
        lo, hi = oracles.theta_bracket(kind)
        for _ in range(20):
            n = int(rng.integers(5, 11))
            k = int(rng.integers(2, 4))
            adj = oracles.graph_for_loss(rng, n, kind)
            plan = oracles.random_plan(rng, n, k)
            conn = closed_form_connectivity(adj, plan, loss)
            for kk in range(k):
                for ll in range(kk, k):
                    def cell(b, kk=kk, ll=ll):
                        theta = np.array(conn.raw)
                        theta[kk, ll] = theta[ll, kk] = b
                        return srgw_objective(adj, plan, theta, loss)

                    b_star = oracles.golden_min(cell, lo, hi)
                    worst = max(worst, abs(conn.raw[kk, ll] - b_star))
    report(4, "closed-form connectivity", worst <= 1e-6, f"max cell dev {worst:.3e}")


def test_criterion_05_gradient_is_twice_the_cost():
    rng = np.random.default_rng(105)
    worst = 0.0
    for kind in LOSS_KINDS:
        loss = make_loss(kind)
        for n, k in ((6, 2), (9, 3), (12, 4)):
            adj = oracles.graph_for_loss(rng, n, kind)
            plan = oracles.random_plan(rng, n, k)
            theta = oracles.random_theta(rng, k)
            analytic = 2.0 * cost_application(adj, plan, theta, loss)
            numeric = oracles.central_gradient(
                lambda t: srgw_objective(adj, t, theta, loss),
                plan.matrix.copy(),
                step=1e-6,
            )
            rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1.0))
            worst = max(worst, rel)
    report(5, "objective gradient", worst <= 1e-5, f"max rel dev {worst:.3e}")


def test_criterion_06_monotone_descent_across_scenarios():
    runs = []
    for scenario in ("assortative", "hub", "disassortative"):
        for seed in range(4):
            runs.append((scenario, 80 + 40 * (seed % 2), "bernoulli_nll", seed))
    for seed in range(4):
        runs.append(("assortative", 100, "squared", seed))
    for seed in range(4):
        runs.append(("disassortative", 90, "bernoulli_nll", 10 + seed))
    assert len(runs) == 20
    worst = -np.inf
    for scenario, n, kind, seed in runs:
        conn = build_scenario(scenario, 3, 0.3, 0.05)
        adj, _ = sample_graph(conn, balanced_proportions(3), n, seed=seed)
        result = bcd_fit(
            adj,
            make_loss(kind),
            spectral_init(adj, 6, seed=seed),
            sparsity=6 / (2 * n),
        )
        if len(result.loss_history) > 1:
            worst = max(worst, float(np.max(np.diff(result.loss_history))))
    report(6, "penalized-objective descent", worst <= 1e-10, f"max increase {worst:.3e}")


def test_criterion_07_partition_recovery_at_two_scales():
    three_block = build_scenario("assortative", 3, 0.2, 0.03)
    mid_scores = []
    for seed in range(5):
        adj, truth = sample_graph(three_block, balanced_proportions(3), 600, seed=seed)
        result = bcd_fit(
            adj,
            make_loss("bernoulli_nll"),
            spectral_init(adj, 10, seed=seed),
            sparsity=10 / 1200,
        )
        mid_scores.append(ari(result.labels, truth))
    mid_mean = float(np.mean(mid_scores))

    five_block = build_scenario("assortative", 5, 0.2, 0.03)
    large_scores, large_hits = [], 0
    for seed in range(5):
        adj, truth = sample_graph(five_block, balanced_proportions(5), 1000, seed=seed)
        result = bcd_fit(
            adj,
            make_loss("bernoulli_nll"),
            spectral_init(adj, 20, seed=seed),
            sparsity=20 / 2000,
        )
        large_scores.append(ari(result.labels, truth))
        large_hits += result.k_hat == 5
    large_mean = float(np.mean(large_scores))
    ok = mid_mean >= 0.95 and large_mean >= 0.9 and large_hits >= 3
    report(
        7,
        "partition recovery",
        ok,
        f"n=600 mean ARI {mid_mean:.3f}, n=1000 mean ARI {large_mean:.3f}, "
        f"n=1000 k_hat=5 in {large_hits}/5",
    )


def test_criterion_08_model_selection_plateau_and_endpoints():
    conn = build_scenario("assortative", 3, 0.2, 0.03)
    n, k_search = 600, 10
    graphs = [sample_graph(conn, balanced_proportions(3), n, seed=s) for s in range(5)]
    inits = [spectral_init(adj, k_search, seed=s) for s, (adj, _) in enumerate(graphs)]

    def k_hats(lam):
        out = []
        for (adj, _), plan0 in zip(graphs, inits):
            result = bcd_fit(adj, make_loss("bernoulli_nll"), plan0, sparsity=lam)
            out.append(result.k_hat)
        return out

    plateau_ok = True
    detail = []
    for lam in (k_search / (4 * n), k_search / (2 * n), k_search / n):
        ks = k_hats(lam)
        hits = sum(k == 3 for k in ks)
        plateau_ok = plateau_ok and hits >= 4
        detail.append(f"lam={lam:.5g}: {hits}/5 at K*")
    free = k_hats(0.0)
    crushed = k_hats(10.0)
    endpoints_ok = all(k == k_search for k in free) and all(k == 1 for k in crushed)
    detail.append(f"lam=0 -> {free}, lam=10 -> {crushed}")
    report(8, "selection plateau", plateau_ok and endpoints_ok, "; ".join(detail))


def test_criterion_09_error_shrinks_with_graph_size():
    conn_star = build_scenario("assortative", 3, 0.2, 0.03)
    loss = make_loss("bernoulli_nll")
    plan_medians, theta_medians = [], []
    for n in (100, 400, 1600):
        plan_errs, theta_errs = [], []
        for seed in range(5):
            adj, truth = sample_graph(conn_star, balanced_proportions(3), n, seed=seed)
            plan0 = spectral_init(adj, 3, seed=seed)
            plan_hat = fw_solve(adj, loss, conn_star, plan0)
            plan_errs.append(aligned_plan_error(plan_hat, truth))
            result = bcd_fit(adj, loss, plan0, sparsity=0.0)
            theta_errs.append(
                connectivity_error(result.connectivity, conn_star, result.labels, truth)
            )
        plan_medians.append(float(np.median(plan_errs)))
        theta_medians.append(float(np.median(theta_errs)))
    ok = _shrinks_to_floor(plan_medians) and all(np.diff(theta_medians) < 0)
    detail = (
        "plan medians ["
        + ", ".join(f"{v:.3e}" for v in plan_medians)
        + "], theta medians ["
        + ", ".join(f"{v:.3e}" for v in theta_medians)
        + "]"
    )
    report(9, "consistency ladders", ok, detail)


def _shrinks_to_floor(medians):
    """True if an error ladder falls strictly until it reaches exact zero.

    Each rung must lie strictly below the one before it, except that two
    consecutive rungs may both sit at 0.0, the floor of an L1 distance
    (exact recovery).  At least one rung must fall, so a ladder that is
    flat at the floor shows nothing and is rejected.
    """
    pairs = list(zip(medians, medians[1:]))
    falls = [later < earlier for earlier, later in pairs]
    at_floor = [earlier == later == 0.0 for earlier, later in pairs]
    return any(falls) and all(f or z for f, z in zip(falls, at_floor))


def test_shrinks_to_floor_rejects_stalls_rises_and_flat_ladders():
    assert _shrinks_to_floor([0.02, 0.0, 0.0])
    assert _shrinks_to_floor([3e-2, 1e-2, 2e-3])
    assert not _shrinks_to_floor([0.02, 0.02, 0.0])
    assert not _shrinks_to_floor([0.02, 0.03, 0.01])
    assert not _shrinks_to_floor([0.02, 0.0, 1e-3])
    assert not _shrinks_to_floor([0.0, 0.0, 0.0])


def test_criterion_10_ari_unit_vector():
    ok = ari(np.array([0, 1, 1, 2]), np.array([0, 1, 1, 2])) == 1.0
    ok = ok and ari(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == -0.5
    rng = np.random.default_rng(110)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        x = rng.integers(0, 4, n)
        y = rng.integers(0, 4, n)
        perm = rng.permutation(4)
        ok = ok and ari(perm[x], y) == ari(x, y) and ari(x, perm[x]) == 1.0
    report(10, "adjusted Rand values", ok, "identical, crossed, 100 relabelings")


def test_criterion_11_best_objective_monotone_in_cluster_budget():
    loss = make_loss("bernoulli_nll")
    conn = build_scenario("assortative", 3, 0.3, 0.05)
    worst = -np.inf
    for seed in range(5):
        adj, _ = sample_graph(conn, balanced_proportions(3), 80, seed=seed)
        best_by_k = []
        for k in (2, 3, 4, 5):
            best = min(
                bcd_fit(
                    adj,
                    loss,
                    spectral_init(adj, k, seed=restart),
                    sparsity=0.0,
                ).loss_history[-1]
                for restart in range(10)
            )
            best_by_k.append(best)
        worst = max(worst, float(np.max(np.diff(best_by_k))))
    report(11, "objective monotone in K", worst <= 1e-10, f"max increase {worst:.3e}")


def test_criterion_12_bitwise_determinism(tmp_path):
    runs = [
        subprocess.run(
            [sys.executable, "-m", "gwsbm.cli", "selftest"],
            capture_output=True,
            text=True,
            timeout=300,
            env=oracles.cli_process_env(),
        )
        for _ in range(2)
    ]
    selftest_ok = (
        all(r.returncode == 0 for r in runs) and runs[0].stdout == runs[1].stdout
    )

    def run_cell(name):
        config = ExperimentConfig(
            scenario="assortative",
            n=150,
            k_true=2,
            k_search=5,
            p_out=0.05,
            p_in_grid=[0.3],
            seeds=[0, 1, 2],
            loss="bernoulli_nll",
            method="srgw_nll",
            output_path=str(tmp_path / f"{name}.csv"),
            sparsity="auto",
        )
        run_ari_sweep(config)
        lines = Path(config.output_path).read_text().strip().split("\n")
        return [
            line if line.startswith("#") else ",".join(line.split(",")[:-1])
            for line in lines
        ]

    sweep_ok = run_cell("first") == run_cell("second")
    report(
        12,
        "bitwise determinism",
        selftest_ok and sweep_ok,
        f"selftest identical: {selftest_ok}, sweep cell identical: {sweep_ok}",
    )
