"""gwsbm benchmark runner.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload is single-process and closed-loop: the runner makes one
input from ``--seed`` (the first few in a fresh interpreter, timed as
``setup_s``), runs the timed operation in a fresh process through the
program's public entry point (``gwsbm fit`` or ``gwsbm experiment ari-sweep
--jobs 1``), checks its outputs, and only then starts the next input.  It
stops starting inputs once the next one would end more than half an input
after ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every input
twice, once untraced and once under ``perfbench/traced.py`` (alternating which
goes first), and reports the per-layer metrics derived from the recorded
spans together with the tracing overhead (traced minus untraced wall time).
End-to-end numbers only ever come from untraced processes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(per-input samples, checks, machine notes) is written to
``perfbench/results/``.  See ``perfbench/NOTES.md`` for the workloads, the
metric definitions and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import os

#: BLAS threads of every process the benchmark starts, set before numpy loads.
#: Pinned: on a two-core machine the same dense fit spread 5.1-6.7 s with two
#: threads and stayed within 2 % with one.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "sweep_reference.json"

#: A child process still running after this long is killed and counted failed
#: (a fit here takes seconds, a sweep under 20 s); two such hangs in one input
#: still let a run end within three minutes.
CHILD_TIMEOUT_S = 60

#: Inputs of an untraced run set up in a fresh interpreter, timed as
#: ``setup_s``; later inputs are made by the same calls in the runner's own
#: process, so the run's time goes to timed operations.
FRESH_SETUPS = 4

#: Sweep seeds are drawn from range(SWEEP_POOL), the seeds the reference covers.
SWEEP_POOL = 64

#: The sweep CSV's schema v1, spelled out here so a changed schema fails the check.
SCHEMA_LINE = "# schema_version: 1"
SWEEP_HEADER = (
    "scenario,method,n,k_true,k_search,p_in,p_out,lambda,seed,"
    "ari,k_hat,theta_error,final_loss,runtime_ms"
)

#: Why each workload was chosen, and what it should and should not move, is
#: in NOTES.md and in each workload's ``why`` in BENCHMARK.json.
WORKLOADS = {
    "fit_sparse_n1000": {
        "kind": "fit", "scenario": "assortative", "n": 1000, "k_true": 3,
        "p_in": 0.12, "p_out": 0.02, "k_search": 10, "loss": "bernoulli_nll",
        "lambda": "auto",
    },
    "fit_dense_n1000": {
        "kind": "fit", "scenario": "assortative", "n": 1000, "k_true": 3,
        "p_in": 0.5, "p_out": 0.3, "k_search": 10, "loss": "bernoulli_nll",
        "lambda": "auto",
    },
    "sweep_n800": {
        "kind": "sweep", "scenario": "assortative", "n": 800, "k_true": 3,
        "k_search": 10, "p_out": 0.05, "p_in_grid": [0.10, 0.15, 0.25],
        "seeds_per_sweep": 4, "loss": "bernoulli_nll", "method": "srgw_nll",
        "lambda": "auto",
    },
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ari", "1"),
    ("k_hat_exact_frac", "1"),
    ("final_loss", "1"),
    ("theta_error_ratio", "1"),
    ("ok_frac", "1"),
)

PER_LAYER = (
    ("sbm.sample_graph_s", "s"),
    ("sbm.edges", "count"),
    ("sbm.adjacency_bytes", "bytes"),
    ("sbm.self_s", "s"),
    ("graphio.write_edge_list_s", "s"),
    ("graphio.read_edge_list_s", "s"),
    ("graphio.edge_list_bytes", "bytes"),
    ("graphio.self_s", "s"),
    ("initplans.spectral_init_s", "s"),
    ("initplans.eigvecs_s", "s"),
    ("initplans.kmeans_s", "s"),
    ("initplans.self_s", "s"),
    ("losses.cost_calls", "count"),
    ("losses.cost_s", "s"),
    ("losses.cost_flops", "flop"),
    ("losses.cost_bytes", "bytes"),
    ("losses.cost_share_of_bcd_fit", "1"),
    ("losses.objective_calls", "count"),
    ("losses.closed_form_connectivity_calls", "count"),
    ("losses.closed_form_connectivity_s", "s"),
    ("losses.kernel_init_s", "s"),
    ("losses.self_s", "s"),
    ("solver.bcd_fit_s", "s"),
    ("solver.bcd_rounds", "count"),
    ("solver.mm_rounds", "count"),
    ("solver.fw_iters", "count"),
    ("solver.fw_line_search_calls", "count"),
    ("solver.merge_s", "s"),
    ("solver.merge_passes", "count"),
    ("solver.merge_candidates", "count"),
    ("solver.merges_accepted", "count"),
    ("solver.merge_accept_ratio", "1"),
    ("solver.self_s", "s"),
    ("harness.fits", "count"),
    ("harness.self_s", "s"),
    ("metrics.eval_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "1"),
    ("trace.spans", "count"),
)


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/gwsbm`` to benchmark."""


def load_program() -> None:
    """Import gwsbm from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "gwsbm" / "__init__.py").is_file():
        raise SourceMissing(f"no gwsbm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gwsbm

    if Path(gwsbm.__file__).resolve().parent != (SRC / "gwsbm").resolve():
        raise SourceMissing(f"imported gwsbm from {gwsbm.__file__}, not from {SRC}")
    # users run from compiled bytecode; compile once so no timed process does
    compileall.compile_dir(str(SRC / "gwsbm"), quiet=1)


def child_env() -> dict:
    """The runner's environment (BLAS threads included), with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the harness reads this to override jobs; the sweep must stay at one process
    env.pop("SRGW_SBM_JOBS", None)
    return env


def machine_notes() -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "cache_bytes": caches,
        "loadavg": os.getloadavg(),
    }


class Child:
    """Outcome of one child process: exit code, wall time, peak RSS."""

    def __init__(self, code, start_ns, end_ns, rss_mb, log):
        self.code = code
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.wall_s = (end_ns - start_ns) * 1e-9
        self.rss_mb = rss_mb
        self.log = log


#: Starts the measured process from a small interpreter and reports its own
#: rusage.  Linux carries the spawning process's peak RSS into a child's
#: ``ru_maxrss``, so the runner, which holds numpy, scipy and graphs, must not
#: be the direct parent of what it measures.
LAUNCHER = """
import json, os, sys, time
start = time.monotonic_ns()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
end = time.monotonic_ns()
with open(sys.argv[1], "w") as fh:
    json.dump([start, end, usage.ru_maxrss], fh)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_child(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one process to completion; wall time and peak RSS are its own."""
    usage_file = log.with_suffix(".usage")
    launcher = [sys.executable, "-S", "-c", LAUNCHER, str(usage_file)] + argv
    with open(log, "w") as out:
        proc = subprocess.Popen(launcher, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except BaseException:
            # the measured process is the launcher's child: end the whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(sys.exc_info()[1], subprocess.TimeoutExpired):
                raise
            code = -signal.SIGKILL
    try:
        start, end, maxrss_kb = json.loads(usage_file.read_text())
    except (OSError, ValueError):
        start = end = time.monotonic_ns()
        maxrss_kb = 0
        code = code or 1
    return Child(code, start, end, maxrss_kb / 1024.0, log)


def gwsbm_argv(args: list) -> list[str]:
    return [sys.executable, "-m", "gwsbm.cli"] + [str(a) for a in args]


def traced_argv(spans_out: Path, root_layer: str, args: list) -> list[str]:
    return [sys.executable, str(BENCH / "traced.py"), str(spans_out), root_layer, "--"] + [
        str(a) for a in args
    ]


def _log_tail(child: Child) -> str:
    try:
        return child.log.read_text()[-400:].strip()
    except OSError:
        return ""


def _add_trace(rec: dict, child: Child, spans_out: Path, phase: str) -> None:
    """Attach a traced process's spans to its input, checking what they carry."""
    try:
        payload = json.loads(spans_out.read_text())
    except (OSError, ValueError) as exc:
        rec["errors"].append(f"traced {phase}: no span file ({exc})")
        return
    for hist in payload.get("loss_histories", []):
        if any(b > a for a, b in zip(hist, hist[1:])):
            rec["errors"].append(f"traced {phase}: loss_history increases: {hist}")
    rec["traces"].append(
        {"phase": phase, "start_ns": child.start_ns, "end_ns": child.end_ns, "payload": payload}
    )


def _run_order(idx: int, trace: bool) -> list[bool]:
    """Which runs of an input are traced; a traced run goes first on odd inputs,
    so the overhead estimate carries no order bias."""
    if not trace:
        return [False]
    return [True, False] if idx % 2 else [False, True]


# ---------------------------------------------------------------- fit inputs


def check_fit(child: Child, out: Path, n: int, k: int) -> tuple[list, dict | None, list | None]:
    """Output checks of one ``gwsbm fit``; returns (errors, report, labels)."""
    if child.code != 0:
        return [f"fit exit code {child.code}: {_log_tail(child)}"], None, None
    errors = []
    try:
        report = json.loads((out / "report.json").read_text())
        float(report["final_loss"]), int(report["k_hat"]), bool(report["degenerate"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report.json unreadable: {exc!r}"], None, None
    try:
        labels = [int(line) for line in (out / "labels.csv").read_text().split()]
    except (OSError, ValueError) as exc:
        return [f"labels.csv unreadable: {exc!r}"], None, None
    if len(labels) != n or not all(0 <= v < k for v in labels):
        errors.append(f"labels.csv has {len(labels)} rows (want {n}) or labels outside [0, {k})")
    try:
        theta = np.loadtxt(out / "theta.csv", delimiter=",", ndmin=2)
        if theta.shape != (k, k) or not np.array_equal(theta, theta.T):
            errors.append(f"theta.csv is {theta.shape}, not a symmetric {k}x{k} matrix")
    except (OSError, ValueError) as exc:
        errors.append(f"theta.csv unreadable: {exc!r}")
        theta = None
    report["theta"] = theta
    return errors, report, labels


def oracle_theta_error(edges: np.ndarray, labels_star: list, conn_star) -> float:
    """Aligned error of the block densities under the planted labels.

    The best connectivity estimate the graph allows: a fit that recovers
    the planted partition exactly scores the same, so ``theta_error_ratio``
    divides this sampling error out.  ``edges`` is an (m, 2) array of i < j.
    """
    from gwsbm.metrics import connectivity_error

    z = np.asarray(labels_star, dtype=np.int64)
    k = int(conn_star.k)
    counts = np.zeros((k, k))
    np.add.at(counts, (z[edges[:, 0]], z[edges[:, 1]]), 1.0)
    counts += counts.T
    sizes = np.bincount(z, minlength=k).astype(np.float64)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    return connectivity_error(counts / pairs, conn_star, z, z)


def read_edges(graph: Path) -> np.ndarray:
    tokens = np.array(graph.read_text().split(), dtype=np.int64)
    return tokens[1:].reshape(-1, 2)


def fit_quality(wl: dict, report: dict, labels_hat: list, labels_star: list,
                graph: Path) -> dict:
    from gwsbm.metrics import ari, connectivity_error
    from gwsbm.sbm import build_scenario

    conn_star = build_scenario(wl["scenario"], wl["k_true"], wl["p_in"], wl["p_out"])
    return {
        "ari": ari(labels_hat, labels_star),
        "k_hat": int(report["k_hat"]),
        "theta_error": connectivity_error(report["theta"], conn_star, labels_hat, labels_star),
        "oracle_theta_error": oracle_theta_error(read_edges(graph), labels_star, conn_star),
        "final_loss": float(report["final_loss"]),
        "degenerate": bool(report["degenerate"]),
    }


def make_graph(wl: dict, gseed: int, graph: Path, truth: Path) -> None:
    """What ``gwsbm sample`` does, in this process: same calls, same files."""
    from gwsbm import graphio
    from gwsbm.sbm import build_scenario, make_proportions, sample_graph

    conn = build_scenario(wl["scenario"], wl["k_true"], wl["p_in"], wl["p_out"])
    adj, labels = sample_graph(conn, make_proportions("balanced", wl["k_true"]), wl["n"], gseed)
    graphio.write_edge_list(adj, graph)
    graphio.write_labels(labels, truth)


def fit_input(wl: dict, idx: int, gseed: int, work: Path, trace: bool,
              fresh_setup: bool) -> dict:
    graph, truth = work / f"graph{idx}.txt", work / f"truth{idx}.txt"
    sample = [
        "sample", "--scenario", wl["scenario"], "--n", wl["n"], "--k", wl["k_true"],
        "--p-in", wl["p_in"], "--p-out", wl["p_out"], "--seed", gseed,
        "--out", graph, "--labels-out", truth,
    ]
    rec: dict = {"seed": gseed, "errors": [], "traces": []}
    if trace:
        spans = work / f"setup{idx}.spans.json"
        setup = run_child(traced_argv(spans, "setup", sample), work / f"setup{idx}.log")
        _add_trace(rec, setup, spans, "setup")
    elif fresh_setup:
        setup = run_child(gwsbm_argv(sample), work / f"setup{idx}.log")
    else:
        setup = None
        make_graph(wl, gseed, graph, truth)
    if setup is not None:
        rec["setup_s"] = setup.wall_s
        if setup.code != 0:
            rec["errors"].append(f"sample exit code {setup.code}: {_log_tail(setup)}")
            return rec
    labels_star = [int(v) for v in truth.read_text().split()]

    def fit(tag: str, traced: bool):
        out = work / f"fit{idx}{tag}"
        args = [
            "fit", "--graph", graph, "--k", wl["k_search"], "--loss", wl["loss"],
            "--lambda", wl["lambda"], "--seed", gseed, "--out", out,
        ]
        if traced:
            spans = work / f"fit{idx}.spans.json"
            child = run_child(traced_argv(spans, "cli", args), work / f"fit{idx}{tag}.log")
        else:
            child = run_child(gwsbm_argv(args), work / f"fit{idx}{tag}.log")
        errors, report, labels = check_fit(child, out, wl["n"], wl["k_search"])
        rec["errors"].extend(errors)
        if traced and child.code == 0:
            _add_trace(rec, child, spans, "op")
        return child, report, labels

    for traced in _run_order(idx, trace):
        child, report, labels = fit("t" if traced else "", traced)
        if traced:
            rec["traced_wall_s"] = child.wall_s
            continue
        rec["wall_s"], rec["rss_mb"] = child.wall_s, child.rss_mb
        if report is not None and labels is not None and not rec["errors"]:
            rec.update(fit_quality(wl, report, labels, labels_star, graph))
    return rec


# -------------------------------------------------------------- sweep inputs

SETUP_SWEEP = "import sys, gwsbm.harness as h; h.ExperimentConfig.from_json(sys.argv[1])"


def sweep_config(wl: dict, seeds: list[int], output: Path) -> dict:
    return {
        "scenario": wl["scenario"], "n": wl["n"], "k_true": wl["k_true"],
        "k_search": wl["k_search"], "p_out": wl["p_out"], "p_in_grid": wl["p_in_grid"],
        "seeds": seeds, "loss": wl["loss"], "method": wl["method"],
        "lambda": wl["lambda"], "output_path": str(output),
    }


def sweep_cells(wl: dict, seeds: list[int]) -> list[tuple[float, int]]:
    """(p_in, seed) of each CSV row, in the order the harness writes them."""
    return [(p, s) for p in wl["p_in_grid"] for s in seeds]


def check_sweep(child: Child, csv: Path, wl: dict, seeds: list[int], reference: dict | None):
    """Output checks of one sweep; returns (errors, rows as dicts)."""
    if child.code != 0:
        return [f"sweep exit code {child.code}: {_log_tail(child)}"], []
    try:
        lines = csv.read_text().strip().split("\n")
    except OSError as exc:
        return [f"sweep CSV unreadable: {exc!r}"], []
    if lines[:2] != [SCHEMA_LINE, SWEEP_HEADER]:
        return [f"sweep CSV header is {lines[:2]!r}, not schema v1"], []
    columns = SWEEP_HEADER.split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
    expected = sweep_cells(wl, seeds)
    if len(rows) != len(expected) or any(len(r) != len(columns) for r in rows):
        return [f"sweep CSV has {len(rows)} rows, want {len(expected)}"], []
    errors = []
    lam = wl["k_search"] / (2.0 * wl["n"])
    for row, (p_in, seed) in zip(rows, expected):
        want = {
            "scenario": wl["scenario"], "method": wl["method"], "n": str(wl["n"]),
            "k_true": str(wl["k_true"]), "k_search": str(wl["k_search"]), "seed": str(seed),
        }
        got = {key: row[key] for key in want}
        floats = (float(row["p_in"]), float(row["p_out"]), float(row["lambda"]))
        if got != want or floats != (p_in, wl["p_out"], lam):
            errors.append(f"sweep row {row} does not match its config cell ({p_in}, {seed})")
        elif reference is not None:
            ref_k = reference["k_hat"][repr(p_in)][seed]
            if int(row["k_hat"]) != ref_k:
                errors.append(f"k_hat {row['k_hat']} at p_in={p_in} seed={seed}, reference {ref_k}")
    return errors, rows


def sweep_input(wl: dict, idx: int, seeds: list[int], work: Path, trace: bool,
                fresh_setup: bool, reference: dict) -> dict:
    rec: dict = {"seeds": seeds, "errors": [], "traces": []}

    def config(tag: str) -> Path:
        # every sweep gets a fresh output path: the harness skips cell shards
        # that already exist, and would then time only the CSV merge
        path = work / f"sweep{idx}{tag}.json"
        path.write_text(json.dumps(sweep_config(wl, seeds, work / f"sweep{idx}{tag}.csv")))
        return path

    def sweep(tag: str, traced: bool):
        args = ["experiment", "ari-sweep", "--config", config(tag), "--jobs", "1"]
        log = work / f"sweep{idx}{tag}.log"
        if traced:
            spans = work / f"sweep{idx}.spans.json"
            child = run_child(traced_argv(spans, "cli", args), log)
        else:
            child = run_child(gwsbm_argv(args), log)
        errors, rows = check_sweep(child, work / f"sweep{idx}{tag}.csv", wl, seeds, reference)
        rec["errors"].extend(errors)
        if traced and child.code == 0:
            _add_trace(rec, child, spans, "op")
        return child, rows if not errors else []

    if fresh_setup:
        setup = run_child([sys.executable, "-c", SETUP_SWEEP, str(config(""))],
                          work / f"setup{idx}.log")
        rec["setup_s"] = setup.wall_s
        if setup.code != 0:
            rec["errors"].append(f"sweep config rejected: {_log_tail(setup)}")
            return rec
    for traced in _run_order(idx, trace):
        child, rows = sweep("t" if traced else "", traced)
        if traced:
            rec["traced_wall_s"] = child.wall_s
            continue
        rec["wall_s"], rec["rss_mb"] = child.wall_s, child.rss_mb
        oracle = reference["oracle_theta_error"]
        rec["rows"] = [
            {
                "ari": float(r["ari"]), "k_hat": int(r["k_hat"]),
                "theta_error": float(r["theta_error"]), "final_loss": float(r["final_loss"]),
                "oracle_theta_error": oracle[repr(p_in)][seed],
            }
            for r, (p_in, seed) in zip(rows, sweep_cells(wl, seeds))
        ]
    return rec


# ------------------------------------------------------------------- metrics


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def theta_ratio(fits: list[dict]) -> float:
    oracle = sum(f["oracle_theta_error"] for f in fits)
    return sum(f["theta_error"] for f in fits) / oracle if oracle > 0 else 0.0


def end_to_end(wl: dict, records: list[dict]) -> tuple[dict, dict]:
    """(metrics, details) over the inputs that passed every check."""
    ok = [r for r in records if not r["errors"] and "wall_s" in r]
    fits = [row for r in ok for row in r.get("rows", [r])]
    k_true = wl["k_true"]
    # collapsed fits already count in ari and k_hat_exact_frac; their theta
    # error (an order of magnitude above the rest) would only echo how many
    # collapsed, so theta is scored where the cluster count is right
    right_k = [f for f in fits if f["k_hat"] == k_true]
    walls = sorted(r["wall_s"] for r in ok)
    values = {
        "wall_s": _mean(walls),
        "setup_s": _median(r["setup_s"] for r in records if "setup_s" in r),
        "peak_rss_mb": _median(r["rss_mb"] for r in ok),
        "ari": _mean(f["ari"] for f in fits),
        "k_hat_exact_frac": _mean(float(f["k_hat"] == k_true) for f in fits),
        "final_loss": _mean(f["final_loss"] for f in fits),
        "theta_error_ratio": theta_ratio(right_k or fits),
        "ok_frac": len(ok) / max(len(records), 1),
    }
    details = {
        "ops": len(walls),
        "fits": len(fits),
        "wall_s_samples": walls,
        "wall_s_median": _median(walls),
        "theta_error": _mean(f["theta_error"] for f in fits),
        "theta_error_ratio_all_fits": theta_ratio(fits),
        "k_hat_err": _mean(abs(f["k_hat"] - k_true) for f in fits),
        "fail_frac": 1.0 - values["ok_frac"],
        "degenerate_frac": _mean(float(r["degenerate"]) for r in ok if "degenerate" in r),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, details


def _span_table(traces: list[dict]) -> list[dict]:
    """Flatten traces into spans with self time; each gets a process root."""
    out = []
    for trace in traces:
        base = len(out)
        phase = trace["phase"]
        out.append({
            "id": base, "parent": -1, "layer": "cli" if phase == "op" else "setup",
            "name": "process", "dur": (trace["end_ns"] - trace["start_ns"]) * 1e-9,
            "note": None, "phase": phase,
        })
        for sid, parent, layer, name, start, end, note in trace["payload"]["spans"]:
            out.append({
                "id": base + 1 + sid, "parent": base if parent < 0 else base + 1 + parent,
                "layer": layer, "name": name, "dur": (end - start) * 1e-9, "note": note,
                "phase": phase,
            })
    covered = defaultdict(float)
    for s in out:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["dur"]
    for s in out:
        s["self"] = s["dur"] - covered[s["id"]]
    return out


def per_layer(records: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics, per input (one fit, or one whole sweep)."""
    traces = [t for r in records for t in r["traces"]]
    inputs = max(sum(1 for r in records if any(t["phase"] == "op" for t in r["traces"])), 1)
    spans = _span_table(traces)
    by_id = {s["id"]: s for s in spans}

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] >= 0 else None

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["dur"] for s in named(name)) / inputs

    def count(name, parent=None):
        return sum(1 for s in named(name) if parent is None or parent_name(s) == parent) / inputs

    def note_sum(name, key):
        return sum((s["note"] or {}).get(key, 0) for s in named(name)) / inputs

    def note_max(name, key):
        return max([(s["note"] or {}).get(key, 0) for s in named(name)] or [0])

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s["layer"]] += s["self"]
    direct_costs = defaultdict(int)
    for s in named("cost"):
        if parent_name(s) == "fw":
            direct_costs[s["parent"]] += 1
    fw_iters = sum(max(direct_costs[s["id"]] - 1, 0) for s in named("fw")) / inputs
    graphs = named("sample_graph")
    passes = count("merge_pass", "merge")
    accepted = note_sum("merge", "accepted")
    untraced = [r["wall_s"] for r in records if "traced_wall_s" in r and "wall_s" in r]
    traced = [r["traced_wall_s"] for r in records if "traced_wall_s" in r and "wall_s" in r]
    overhead = _median(t - u for t, u in zip(traced, untraced))
    bcd_s = total("bcd_fit")
    values = {
        "sbm.sample_graph_s": total("sample_graph"),
        "sbm.edges": _mean((s["note"] or {}).get("edges", 0) for s in graphs),
        "sbm.adjacency_bytes": note_max("sample_graph", "bytes"),
        "graphio.write_edge_list_s": total("write_edge_list"),
        "graphio.read_edge_list_s": total("read_edge_list"),
        "graphio.edge_list_bytes": max(note_max("read_edge_list", "bytes"),
                                       note_max("write_edge_list", "bytes")),
        "initplans.spectral_init_s": total("spectral_init"),
        "initplans.eigvecs_s": total("eigvecs"),
        "initplans.kmeans_s": total("kmeans"),
        "losses.cost_calls": count("cost"),
        "losses.cost_s": total("cost"),
        "losses.cost_flops": note_sum("cost", "flops"),
        "losses.cost_bytes": note_sum("cost", "bytes"),
        "losses.cost_share_of_bcd_fit": total("cost") / bcd_s if bcd_s > 0 else 0.0,
        "losses.objective_calls": count("objective"),
        "losses.closed_form_connectivity_calls": count("closed_form_connectivity"),
        "losses.closed_form_connectivity_s": total("closed_form_connectivity"),
        "losses.kernel_init_s": total("kernel_init"),
        "solver.bcd_fit_s": bcd_s,
        "solver.bcd_rounds": count("mm", "bcd_fit"),
        "solver.mm_rounds": count("fw", "mm"),
        "solver.fw_iters": fw_iters,
        "solver.fw_line_search_calls": count("objective", "fw"),
        "solver.merge_s": total("merge"),
        "solver.merge_passes": passes,
        "solver.merge_candidates": count("merge_candidate"),
        "solver.merges_accepted": accepted,
        "solver.merge_accept_ratio": accepted / passes if passes > 0 else 0.0,
        "harness.fits": count("fit_one_seed"),
        "metrics.eval_s": sum(s["dur"] for s in spans if s["layer"] == "metrics") / inputs,
        "trace.wall_s": _median(traced),
        "trace.untraced_wall_s": _median(untraced),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / _median(untraced) if untraced else 0.0,
        "trace.spans": sum(1 for s in spans if s["phase"] == "op") / inputs,
    }
    for layer in ("sbm", "graphio", "initplans", "losses", "solver", "harness", "cli"):
        values[f"{layer}.self_s"] = layer_self[layer] / inputs
    # names the program no longer has: the metrics they fed read 0
    missing = sorted({m for t in traces for m in t["payload"].get("missing", [])})
    details = {"traced_inputs": inputs, "setup_self_s": layer_self["setup"] / inputs,
               "unwrapped_names": missing}
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}, details


# ---------------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    reference = json.loads(REFERENCE.read_text()) if wl["kind"] == "sweep" else None
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    notes = machine_notes()
    records: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            idx = len(records)
            fresh = idx < FRESH_SETUPS and not trace
            if wl["kind"] == "fit":
                gseed = int(rng.integers(0, 2**31 - 1))
                rec = fit_input(wl, idx, gseed, work, trace, fresh)
            else:
                seeds = [int(s) for s in rng.choice(SWEEP_POOL, wl["seeds_per_sweep"], replace=False)]
                rec = sweep_input(wl, idx, seeds, work, trace, fresh, reference)
            records.append(rec)
            elapsed = time.monotonic() - start
            # start another input only if it should end by half an input past the budget
            if elapsed + 0.5 * elapsed / len(records) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in records if r["errors"])
    if trace:
        metrics, details = per_layer(records)
    else:
        metrics, details = end_to_end(wl, records)
    result = {
        "correct": failed == 0 and len(records) > 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    full = dict(result, workload=name, params=wl, seed=seed, seconds=seconds, trace=int(trace),
                measured_s=time.monotonic() - start, details=details, machine=notes,
                errors=[e for r in records for e in r["errors"]],
                inputs=[{k: v for k, v in r.items() if k not in ("traces", "rows")} for r in records])
    if trace:
        full["spans"] = _span_table([t for r in records for t in r["traces"]])
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(full, indent=1, default=str) + "\n")
    for metric, entry in metrics.items():
        print(f"{name:18s} {metric:38s} {entry['value']:>16.6g} {entry['unit']}")
    for error in full["errors"]:
        print(f"{name:18s} FAILED CHECK: {error}")
    print(f"{name:18s} {len(records)} inputs, {failed} failed; details {json.dumps(details)}")
    print(f"{name:18s} full record: {out.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
