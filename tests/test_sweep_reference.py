"""Cells of the ``sweep_n800`` benchmark reproduce the recorded ``k_hat``.

``perfbench/sweep_reference.json`` holds ``k_hat`` for every (p_in, seed)
cell of that workload's seed pool, and the benchmark refuses a sweep that
departs from it.  This runs 24 of those cells through
:func:`gwsbm.run_ari_sweep`, as ``gwsbm experiment ari-sweep`` does, and
only reads the reference.  The seeds leave out those that
``test_fit_digests.py`` already fits, and at p_in = 0.10, where the
reference ``k_hat`` varies, they include cells recorded at 1, 2 and 3.
"""

import json
from pathlib import Path

import pytest

from gwsbm import ExperimentConfig, run_ari_sweep

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "sweep_reference.json"

#: p_in -> seeds; at 0.10 the reference k_hat of these is 1, 1, 3, 2, 3, 2, 2, 3.
SEEDS = {
    0.10: [3, 4, 13, 14, 18, 20, 25, 50],
    0.15: [3, 4, 5, 6, 7, 8, 9, 10],
    0.25: [3, 4, 5, 6, 7, 8, 9, 10],
}


@pytest.mark.parametrize("p_in", sorted(SEEDS))
def test_sweep_cells_match_reference_k_hat(tmp_path, p_in):
    reference = json.loads(REFERENCE.read_text())
    assert reference["workload"] == "sweep_n800"
    config = ExperimentConfig(
        scenario="assortative",
        n=800,
        k_true=3,
        k_search=10,
        p_out=0.05,
        p_in_grid=[p_in],
        seeds=SEEDS[p_in],
        loss="bernoulli_nll",
        method="srgw_nll",
        output_path=str(tmp_path / "sweep.csv"),
        sparsity="auto",
    )
    rows = run_ari_sweep(config, jobs=1)
    expected = [reference["k_hat"][repr(p_in)][seed] for seed in SEEDS[p_in]]
    assert [(row.seed, row.k_hat) for row in rows] == list(zip(SEEDS[p_in], expected))
