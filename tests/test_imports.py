"""What importing the package loads.

``scipy.special`` and ``scipy.optimize`` take about half a second to
import together, and a plain Bernoulli fit uses neither, so the modules
that need them import them inside the functions that call them.
``scipy.sparse.linalg`` (ARPACK) is loaded only by a spectral start below
``RANDOMIZED_CUTOFF``; larger graphs never need it.  ``scipy.sparse`` itself
is loaded by the first product with A (a spectral start or a ``CostKernel``):
importing the package, sampling a graph, writing and reading an edge list and
loading a config run on numpy alone.  The checks run in fresh interpreters
because the test process has long since loaded all of scipy.
"""

import json
import math
import subprocess
import sys

import pytest

import oracles

LAZY = ("scipy.special", "scipy.optimize")
ARPACK = "scipy.sparse.linalg"

CHILD = f"""
import json, sys
import numpy as np
import gwsbm.cli, gwsbm.solver

lazy = {LAZY!r}
at_import = [m for m in lazy + ({ARPACK!r},) if m in sys.modules]

from gwsbm import Labels, aligned_plan_error, labels_to_plan, make_loss, spectral_init
from gwsbm.initplans import RANDOMIZED_CUTOFF
from gwsbm.sbm import balanced_proportions, build_scenario, sample_graph

# before the calls below: scipy.optimize imports scipy.sparse.linalg
conn = build_scenario("assortative", 3, 0.02, 0.005)
arpack = []
for n in (RANDOMIZED_CUTOFF, RANDOMIZED_CUTOFF - 1):
    adj, _ = sample_graph(conn, balanced_proportions(3), n, 0)
    spectral_init(adj, 4, 0)
    arpack.append({ARPACK!r} in sys.modules)

f1 = make_loss("poisson_nll").f1([0, 1, 3])
z = np.array([0, 1, 2, 1, 0])
plan_error = aligned_plan_error(labels_to_plan(Labels(z, 3)), z)
after_calls = [m for m in lazy if m in sys.modules]

print(json.dumps({{
    "at_import": at_import,
    "f1": f1.tolist(),
    "plan_error": plan_error,
    "after_calls": after_calls,
    "arpack_after_large_then_small_start": arpack,
}}))
"""


@pytest.fixture(scope="module")
def child():
    """What the child interpreter saw, run once for the tests below."""
    run = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=120,
        env=oracles.cli_process_env(),
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_cli_import_leaves_scipy_special_and_optimize_unloaded(child):
    assert child["at_import"] == []
    # The functions that need them still work, loading them on first use.
    assert child["f1"][:2] == [0.0, 0.0]
    assert math.isclose(child["f1"][2], math.log(6.0), rel_tol=1e-15)
    assert child["plan_error"] == 0.0
    assert child["after_calls"] == list(LAZY)


def test_arpack_loads_only_for_a_start_below_the_randomized_cutoff(child):
    assert ARPACK not in child["at_import"]
    assert child["arpack_after_large_then_small_start"] == [False, True]


NUMPY_ONLY = """
import contextlib, io, json, os, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import gwsbm.cli
seen = {"import": scipy_modules()}
from gwsbm.cli import cli_dispatch
from gwsbm.graphio import read_edge_list
from gwsbm.harness import ExperimentConfig

with tempfile.TemporaryDirectory() as tmp:
    graph, labels, config = (os.path.join(tmp, name) for name in ("g.txt", "z.txt", "c.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_dispatch(["sample", "--n", "60", "--k", "2", "--p-in", "0.3", "--p-out", "0.05",
                             "--seed", "1", "--out", graph, "--labels-out", labels])
    seen["sample"] = scipy_modules()
    adj = read_edge_list(graph)
    seen["read"] = scipy_modules()
    with open(config, "w") as fh:
        json.dump({"scenario": "assortative", "n": 60, "k_true": 2, "k_search": 3, "p_out": 0.05,
                   "p_in_grid": [0.3], "seeds": [0], "loss": "bernoulli_nll", "method": "srgw_nll",
                   "lambda": 0.0, "output_path": os.path.join(tmp, "out.csv")}, fh)
    ExperimentConfig.from_json(config)
    seen["config"] = scipy_modules()

if sys.argv[1] == "spectral_init":
    from gwsbm import spectral_init
    spectral_init(adj, 2, 0)
else:
    from gwsbm import CostKernel, make_loss
    CostKernel(adj, make_loss("bernoulli_nll"))
print(json.dumps({"code": code, "edges": adj.edge_count(), "seen": seen,
                  "sparse_after_first_product": "scipy.sparse" in sys.modules}))
"""


@pytest.mark.parametrize("first_product", ["spectral_init", "CostKernel"])
def test_sample_read_and_config_run_on_numpy_alone(first_product):
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, first_product],
        capture_output=True,
        text=True,
        timeout=120,
        env=oracles.cli_process_env(),
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["code"] == 0 and got["edges"] > 0
    assert got["seen"] == {"import": [], "sample": [], "read": [], "config": []}
    assert got["sparse_after_first_product"]
