"""Fits shaped like the benchmark workloads reproduce their committed digests bit for bit.

``data/fit_digests.json`` records, for each fit, the sampled graph's CSR, the
spectral start's labels, ``k_hat``, the ``loss_history`` length, the final
plan and connectivity (as sha256 digests) and ``final_loss``.  Regenerate it
with ``PYTHONPATH=src python tests/test_fit_digests.py`` only under the rules
that govern ``desk_golden.csv``: discrete fields identical, floats within
1e-12 relative, and the regeneration logged in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gwsbm import (
    auto_sparsity,
    bcd_fit,
    build_scenario,
    hard_labels,
    make_loss,
    make_proportions,
    sample_graph,
    spectral_init,
)

DIGESTS = Path(__file__).parent / "data" / "fit_digests.json"

#: (n, p_in, p_out, seeds): both n=1000 fit densities and the n=800 sweep's p_in grid.
SHAPES = (
    (1000, 0.12, 0.02, (1, 2)),
    (1000, 0.5, 0.3, (1, 2)),
    (800, 0.10, 0.05, (0, 1, 2)),
    (800, 0.15, 0.05, (0, 1, 2)),
    (800, 0.25, 0.05, (0, 1)),
)
K_TRUE, K_SEARCH = 3, 10


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def fit_digest(n: int, p_in: float, p_out: float, seed: int) -> dict:
    """One ``assortative`` fit as ``gwsbm fit`` runs it, with ``lambda=auto``."""
    conn = build_scenario("assortative", K_TRUE, p_in, p_out)
    adj, _ = sample_graph(conn, make_proportions("balanced", K_TRUE), n, seed)
    plan0 = spectral_init(adj, K_SEARCH, seed)
    result = bcd_fit(adj, make_loss("bernoulli_nll"), plan0, sparsity=auto_sparsity(K_SEARCH, n))
    csr = adj.csr
    return {
        "csr_sha256": _sha256(csr.indptr, csr.indices, csr.data),
        "start_labels_sha256": _sha256(hard_labels(plan0).values),
        "k_hat": result.k_hat,
        "loss_history_len": len(result.loss_history),
        "plan_sha256": _sha256(result.plan.matrix),
        "theta_sha256": _sha256(result.connectivity.raw),
        "final_loss": result.loss_history[-1],
    }


def _key(n: int, p_in: float, p_out: float, seed: int) -> str:
    return f"n={n} p_in={p_in} p_out={p_out} seed={seed}"


CASES = [(n, p_in, p_out, seed) for n, p_in, p_out, seeds in SHAPES for seed in seeds]


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
