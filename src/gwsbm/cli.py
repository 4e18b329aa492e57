"""Command-line interface.

Subcommands: ``sample`` (draw a block-model graph), ``fit`` (cluster a
graph from an edge list), ``oracle`` (tiny-scale solver certification),
``experiment`` (config-driven sweeps) and ``selftest``.

Exit codes: 0 on success, 1 for invalid arguments or configs, 2 for
runtime failures (including selftest failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import graphio
from .baselines import RESTART_CAP, _guard_enumeration, brute_force_srgw, restarted_fw_minimum
from .harness import (
    ExperimentConfig,
    auto_sparsity,
    run_ari_sweep,
    run_consistency,
    run_lambda_sweep,
)
from .initplans import spectral_init
from .losses import LOSS_KINDS, make_loss
from .sbm import (
    PROPORTION_KINDS,
    SCENARIO_KINDS,
    build_scenario,
    make_proportions,
    sample_graph,
)
from .selftest import run_selftest
from .solver import _check_sparsity, bcd_fit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwsbm",
        description="Block-model clustering by sparse semi-relaxed Gromov-Wasserstein projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample a block-model graph to an edge list")
    p_sample.add_argument("--scenario", choices=SCENARIO_KINDS, default="assortative")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--k", type=int, required=True)
    p_sample.add_argument("--p-in", type=float, required=True)
    p_sample.add_argument("--p-out", type=float, required=True)
    p_sample.add_argument("--proportions", choices=PROPORTION_KINDS, default="balanced")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True, help="edge-list output path")
    p_sample.add_argument("--labels-out", help="optional planted-labels output path")

    p_fit = sub.add_parser("fit", help="cluster a graph given as an edge list")
    p_fit.add_argument("--graph", required=True, help="edge-list input path")
    p_fit.add_argument("--k", type=int, required=True, help="clusters to search over")
    p_fit.add_argument("--loss", choices=LOSS_KINDS, default="bernoulli_nll")
    p_fit.add_argument(
        "--lambda",
        dest="sparsity",
        default="auto",
        help="penalty strength; a number or 'auto' for k/(2n)",
    )
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", default=".", help="output directory")

    p_oracle = sub.add_parser("oracle", help="certify the solver on a tiny instance")
    p_oracle.add_argument("--n", type=int, default=6)
    p_oracle.add_argument("--k", type=int, default=2)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--p-in", type=float, default=0.7)
    p_oracle.add_argument("--p-out", type=float, default=0.1)

    p_exp = sub.add_parser("experiment", help="run a config-driven experiment")
    p_exp.add_argument("kind", choices=("ari-sweep", "lambda-sweep", "consistency"))
    p_exp.add_argument("--config", required=True, help="JSON config path")
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiment cells (sweep grid values or ladder rungs)",
    )

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


def _cmd_sample(args) -> int:
    conn = build_scenario(args.scenario, args.k, args.p_in, args.p_out)
    props = make_proportions(args.proportions, args.k)
    adj, labels = sample_graph(conn, props, args.n, args.seed)
    graphio.write_edge_list(adj, args.out)
    if args.labels_out:
        graphio.write_labels(labels, args.labels_out)
    print(f"wrote {args.out}: n={adj.n} edges={adj.edge_count()}")
    return 0


def _cmd_fit(args) -> int:
    # a bad --lambda is refused before the graph is read
    sparsity = args.sparsity
    if sparsity != "auto":
        try:
            sparsity = float(sparsity)
        except ValueError:
            pass  # text that is no number is refused as text
        sparsity = _check_sparsity(sparsity, "lambda")
    adj = graphio.read_edge_list(args.graph)
    if sparsity == "auto":
        sparsity = auto_sparsity(args.k, adj.n)
    loss = make_loss(args.loss)
    plan0 = spectral_init(adj, args.k, args.seed)
    result = bcd_fit(adj, loss, plan0, sparsity=sparsity)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graphio.write_labels(result.labels, out / "labels.csv")
    graphio.write_matrix_csv(result.connectivity.raw, out / "theta.csv")
    report = {
        "graph": str(args.graph),
        "n": adj.n,
        "k_search": args.k,
        "loss": args.loss,
        "lambda": sparsity,
        "seed": args.seed,
        "k_hat": result.k_hat,
        "final_loss": result.loss_history[-1],
        "iterations": len(result.loss_history),
        "degenerate": result.degenerate,
        "runtime_ms": result.runtime_ms,
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    graphio._atomic_write_text(out / "report.json", text)
    print(f"fit: k_hat={result.k_hat} final_loss={result.loss_history[-1]:.6g} -> {out}")
    return 0


def _cmd_oracle(args) -> int:
    # the restarts' own cap, checked before the graph is sampled
    _guard_enumeration(args.n, args.k, RESTART_CAP)
    conn = build_scenario("assortative", args.k, args.p_in, args.p_out)
    props = make_proportions("balanced", args.k)
    adj, _ = sample_graph(conn, props, args.n, args.seed)
    loss = make_loss("bernoulli_nll")
    solver_best = restarted_fw_minimum(adj, loss, conn)
    best, _ = brute_force_srgw(adj, loss, conn)
    gap = solver_best - best
    # the two values sum in different orders, so equal optima differ by an ulp or two
    if abs(gap) <= 1e-12 * max(1.0, abs(best)):
        gap = 0.0
    print(f"exhaustive optimum: {best:.12f}")
    print(f"best restarted solver value: {solver_best:.12f}")
    print(f"gap: {gap:.3e}")
    print(f"oracle check {'passed' if gap <= 1e-9 else 'FAILED'}")
    return 0 if gap <= 1e-9 else 2


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    run = {
        "ari-sweep": run_ari_sweep,
        "lambda-sweep": run_lambda_sweep,
        "consistency": run_consistency,
    }[args.kind]
    rows = run(config, jobs=args.jobs)
    print(f"wrote {config.output_path}: {len(rows)} rows")
    return 0


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "sample": _cmd_sample,
        "fit": _cmd_fit,
        "oracle": _cmd_oracle,
        "experiment": _cmd_experiment,
        "selftest": lambda _: 0 if run_selftest() else 2,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError, TypeError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, FileExistsError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
