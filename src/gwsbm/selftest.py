"""Built-in invariant suite behind the ``selftest`` CLI command.

Every check is tiny, seeded and free of timing output, so two runs print
byte-identical text.  The suite certifies the fast code paths against
naive reference computations written inline.
"""

from __future__ import annotations

import numpy as np

from .baselines import _golden_max, brute_force_srgw, restarted_fw_minimum
from .initplans import labels_to_plan, spectral_init, uniform_plan
from .losses import (
    TransportPlan,
    closed_form_connectivity,
    column_mass_penalty,
    cost_application,
    make_loss,
    srgw_objective,
)
from .metrics import ari
from .sbm import (
    AdjacencyMatrix,
    ConnectivityMatrix,
    Labels,
    Proportions,
    build_scenario,
    sample_graph,
    unbalanced_proportions,
)
from .solver import (
    bcd_fit,
    elbo_value,
    entropic_objective,
    mm_solve,
)


def _naive_cost(a, t, theta, loss):
    n, k = t.shape
    m = np.zeros((n, k))
    for i in range(n):
        for kk in range(k):
            acc = 0.0
            for j in range(n):
                if j == i:
                    continue
                for ll in range(k):
                    acc += float(loss(a[i, j], theta[kk, ll])) * t[j, ll]
            m[i, kk] = acc
    return m


def _random_instance(rng, n, k):
    a = (rng.random((n, n)) < 0.4).astype(np.float64)
    a = np.triu(a, 1)
    a = a + a.T
    t = rng.random((n, k)) + 0.1
    t /= t.sum(axis=1, keepdims=True) * n
    theta = rng.uniform(0.1, 0.9, (k, k))
    theta = 0.5 * (theta + theta.T)
    return AdjacencyMatrix(a), TransportPlan(t), ConnectivityMatrix(theta)


def _checks():
    rng = np.random.default_rng(20240901)
    loss = make_loss("bernoulli_nll")

    # sampling determinism and graph shape
    conn = build_scenario("assortative", 3, 0.3, 0.05)
    props = unbalanced_proportions(3)
    a1, z1 = sample_graph(conn, props, 60, seed=7)
    a2, z2 = sample_graph(conn, props, 60, seed=7)
    yield (
        "sampling is deterministic and symmetric with a zero diagonal",
        np.array_equal(a1.entries, a2.entries)
        and np.array_equal(z1.values, z2.values)
        and np.array_equal(a1.entries, a1.entries.T)
        and not np.any(np.diagonal(a1.entries)),
    )

    # factored cost equals the quadruple loop
    adj, plan, theta = _random_instance(rng, 7, 3)
    ok = True
    for kind in ("squared", "bernoulli_nll", "poisson_nll", "exponential_nll"):
        candidate = make_loss(kind)
        fast = cost_application(adj, plan, theta, candidate)
        slow = _naive_cost(adj.entries, plan.matrix, theta.raw, candidate)
        ok = ok and np.max(np.abs(fast - slow)) < 1e-12
    yield ("factored cost matches the naive quadruple loop", ok)

    # gradient of the objective is twice the cost application
    adj, plan, theta = _random_instance(rng, 6, 2)
    grad = 2.0 * cost_application(adj, plan, theta, loss)
    t = plan.matrix.copy()
    step = 1e-6
    ok = True
    for i, kk in ((0, 0), (3, 1), (5, 0)):
        up = t.copy()
        up[i, kk] += step
        down = t.copy()
        down[i, kk] -= step
        fd = (
            srgw_objective(adj, up, theta, loss) - srgw_objective(adj, down, theta, loss)
        ) / (2 * step)
        ok = ok and abs(fd - grad[i, kk]) <= 1e-5 * max(1.0, abs(grad[i, kk]))
    yield ("objective gradient equals twice the cost application", ok)

    # closed-form connectivity beats a scalar search per cell
    adj, plan, _ = _random_instance(rng, 8, 2)
    fitted = closed_form_connectivity(adj, plan, loss)
    ok = True
    for kk in range(2):
        for ll in range(kk, 2):
            def cell_obj(b, kk=kk, ll=ll):
                trial = fitted.raw.copy()
                trial[kk, ll] = trial[ll, kk] = b
                return srgw_objective(adj, plan, ConnectivityMatrix(trial), loss)

            found, _ = _golden_max(lambda b: -cell_obj(b), 1e-6, 1 - 1e-6)
            ok = ok and abs(found - fitted.raw[kk, ll]) < 1e-6
    yield ("closed-form connectivity matches per-cell search", ok)

    # the penalized plan solve stays feasible and descends from its start
    adj, _ = sample_graph(build_scenario("assortative", 2, 0.4, 0.05), Proportions([0.5, 0.5]), 40, seed=3)
    theta = build_scenario("assortative", 3, 0.35, 0.06)
    plan0 = spectral_init(adj, 3, seed=1)
    plan = mm_solve(adj, loss, theta, plan0, sparsity=0.02)
    pen = [srgw_objective(adj, p, theta, loss) + 0.02 * column_mass_penalty(p) for p in (plan0, plan)]
    rows_ok = np.max(np.abs(plan.matrix.sum(axis=1) - 1.0 / adj.n)) <= 1e-10
    yield ("penalized plan solve stays feasible and descends", rows_ok and pen[1] <= pen[0])

    result = bcd_fit(adj, loss, plan0, sparsity=3 / 80)
    hist = result.loss_history
    mono = all(hist[i + 1] <= hist[i] + 1e-10 for i in range(len(hist) - 1))
    yield ("alternating fit has a non-increasing penalized objective", mono)

    # tiny-scale solver value matches exhaustive enumeration
    rng2 = np.random.default_rng(5)
    adj_small, _, theta_small = _random_instance(rng2, 5, 2)
    best, _ = brute_force_srgw(adj_small, loss, theta_small)
    yield (
        "restarted solver reaches the exhaustive optimum",
        restarted_fw_minimum(adj_small, loss, theta_small) <= best + 1e-9,
    )

    # evidence bound identity against the entropy-corrected objective
    rng3 = np.random.default_rng(11)
    adj3, _, theta3 = _random_instance(rng3, 9, 3)
    resp = rng3.random((9, 3)) + 0.05
    resp /= resp.sum(axis=1, keepdims=True)
    col = resp.sum(axis=0)
    props3 = Proportions(col / col.sum())
    n3 = 9
    lhs = elbo_value(resp, adj3, theta3, props3)
    rhs = -(n3**2) / 2.0 * entropic_objective(resp / n3, adj3, theta3) - n3 * np.log(n3)
    yield (
        "evidence bound equals the entropy-corrected objective transform",
        abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs)),
    )

    # adjusted Rand index reference points
    yield (
        "adjusted Rand index hits its reference points",
        ari(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])) == 1.0
        and abs(ari(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) + 0.5) < 1e-15,
    )

    # penalty bounds
    u = uniform_plan(30, 4)
    h = labels_to_plan(Labels(np.zeros(30, dtype=np.int64), 4))
    yield (
        "mass penalty spans [1, sqrt(k)]",
        abs(column_mass_penalty(h) - 1.0) < 1e-12
        and abs(column_mass_penalty(u) - 2.0) < 1e-12,
    )


def run_selftest() -> bool:
    """Run every invariant check, print one line each, return overall pass."""
    all_ok = True
    for name, ok in _checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        all_ok = all_ok and ok
    print(f"selftest: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return all_ok
