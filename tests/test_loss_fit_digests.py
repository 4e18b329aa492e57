"""Fits under the three losses besides Bernoulli reproduce their committed digests bit for bit.

``data/fit_digests.json`` pins ``bernoulli_nll`` fits only.  This file pins
``squared`` on a 0/1 graph, ``poisson_nll`` on integer edge weights and
``exponential_nll`` on real ones, so a change to the solver that moves the
last bits of any loss's cost, line search or merge shows here.  Each case is
a planted ``assortative`` graph (n=400, k=3) whose edges get the case's
weights, fitted from the spectral start with K=8 and ``lambda=auto``.
Regenerate with ``PYTHONPATH=src python tests/test_loss_fit_digests.py`` only
under the rules that govern ``desk_golden.csv`` (discrete fields identical,
floats within 1e-12 relative, the regeneration logged in CHANGES.md).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from gwsbm import (
    AdjacencyMatrix,
    auto_sparsity,
    bcd_fit,
    build_scenario,
    hard_labels,
    make_loss,
    make_proportions,
    sample_graph,
    spectral_init,
)

DIGESTS = Path(__file__).parent / "data" / "loss_fit_digests.json"

N, K_TRUE, K_SEARCH, P_IN, P_OUT = 400, 3, 8, 0.15, 0.04
#: (loss, edge weights, seeds)
CASES = [
    (kind, weights, seed)
    for kind, weights in (("squared", "binary"), ("poisson_nll", "integer"), ("exponential_nll", "real"))
    for seed in (0, 1)
]


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def weighted_graph(weights: str, seed: int) -> AdjacencyMatrix:
    """The planted graph of ``seed`` with 0/1, integer (1 to 4) or real (0.2 to 3) edge weights."""
    conn = build_scenario("assortative", K_TRUE, P_IN, P_OUT)
    adj, _ = sample_graph(conn, make_proportions("balanced", K_TRUE), N, seed)
    if weights == "binary":
        return adj
    rng = np.random.default_rng(seed)
    upper = sparse.triu(adj.csr, format="csr")
    if weights == "integer":
        upper.data = rng.integers(1, 5, upper.nnz).astype(np.float64)
    else:
        upper.data = rng.uniform(0.2, 3.0, upper.nnz)
    return AdjacencyMatrix(upper + upper.T)


def fit_digest(kind: str, weights: str, seed: int) -> dict:
    adj = weighted_graph(weights, seed)
    plan0 = spectral_init(adj, K_SEARCH, seed)
    result = bcd_fit(adj, make_loss(kind), plan0, sparsity=auto_sparsity(K_SEARCH, N))
    csr = adj.csr
    return {
        "csr_sha256": _sha256(csr.indptr, csr.indices, csr.data),
        "start_labels_sha256": _sha256(hard_labels(plan0).values),
        "k_hat": result.k_hat,
        "loss_history_sha256": _sha256(np.array(result.loss_history)),
        "plan_sha256": _sha256(result.plan.matrix),
        "theta_sha256": _sha256(result.connectivity.raw),
        "final_loss": result.loss_history[-1],
    }


def _key(kind: str, weights: str, seed: int) -> str:
    return f"{kind} weights={weights} seed={seed}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_digests_cover_every_case(recorded):
    assert sorted(recorded) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[_key(*case) for case in CASES])
def test_fit_reproduces_recorded_digest(case, recorded):
    assert fit_digest(*case) == recorded[_key(*case)]


if __name__ == "__main__":
    table = {_key(*case): fit_digest(*case) for case in CASES}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}: {len(table)} fits")
