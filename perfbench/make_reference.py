"""Regenerate ``perfbench/sweep_reference.json``.

The reference holds ``k_hat`` for every cell of the ``sweep_n800`` workload
(each ``p_in`` of its grid, each seed of the pool the runner draws sweep
seeds from), as the program computes it today.  The runner fails a sweep
whose ``k_hat`` differs, because a changed discrete result is a behaviour
change, not a speed-up.  It also holds, per cell, the connectivity error of
the planted-label block densities of the sampled graph, the denominator of
the ``theta_error_ratio`` metric.  Regenerate only on purpose, and say why.

Usage, from the repository root::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

import numpy as np


def oracle_error(wl: dict, p_in: float, seed: int) -> float:
    """Planted-label block-density error of the graph the harness samples."""
    from gwsbm.sbm import build_scenario, make_proportions, sample_graph

    conn = build_scenario(wl["scenario"], wl["k_true"], p_in, wl["p_out"])
    adj, labels = sample_graph(conn, make_proportions("balanced", wl["k_true"]), wl["n"], seed)
    edges = np.argwhere(np.triu(adj.entries, 1) != 0)
    return run.oracle_theta_error(edges, labels.values.tolist(), conn)


def main() -> int:
    run.load_program()
    wl = run.WORKLOADS["sweep_n800"]
    seeds = list(range(run.SWEEP_POOL))
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config, csv = work / "pool.json", work / "pool.csv"
        config.write_text(json.dumps(run.sweep_config(wl, seeds, csv)))
        args = ["experiment", "ari-sweep", "--config", config, "--jobs", "2"]
        child = run.run_child(run.gwsbm_argv(args), work / "pool.log", timeout=1800)
        errors, rows = run.check_sweep(child, csv, wl, seeds, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    k_hat = {
        repr(p): [int(r["k_hat"]) for r in rows if float(r["p_in"]) == p] for p in wl["p_in_grid"]
    }
    oracle = {repr(p): [oracle_error(wl, p, seed) for seed in seeds] for p in wl["p_in_grid"]}
    reference = {"workload": "sweep_n800", "k_hat": k_hat, "oracle_theta_error": oracle}
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)} in {child.wall_s:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
