"""What importing the package loads.

``scipy.special`` and ``scipy.optimize`` take about half a second to
import together, and a plain Bernoulli fit uses neither, so the modules
that need them import them inside the functions that call them.  The
check runs in a fresh interpreter because the test process has long since
loaded both.
"""

import json
import math
import subprocess
import sys

import oracles

LAZY = ("scipy.special", "scipy.optimize")

CHILD = f"""
import json, sys
import numpy as np
import gwsbm.cli, gwsbm.solver

lazy = {LAZY!r}
at_import = [m for m in lazy if m in sys.modules]

from gwsbm import Labels, aligned_plan_error, labels_to_plan, make_loss

f1 = make_loss("poisson_nll").f1([0, 1, 3])
z = np.array([0, 1, 2, 1, 0])
plan_error = aligned_plan_error(labels_to_plan(Labels(z, 3)), z)
print(json.dumps({{
    "at_import": at_import,
    "f1": f1.tolist(),
    "plan_error": plan_error,
    "after_calls": [m for m in lazy if m in sys.modules],
}}))
"""


def test_cli_import_leaves_scipy_special_and_optimize_unloaded():
    run = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=120,
        env=oracles.cli_process_env(),
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["at_import"] == []
    # The functions that need them still work, loading them on first use.
    assert out["f1"][:2] == [0.0, 0.0]
    assert math.isclose(out["f1"][2], math.log(6.0), rel_tol=1e-15)
    assert out["plan_error"] == 0.0
    assert out["after_calls"] == list(LAZY)
