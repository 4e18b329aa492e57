"""Run one ``gwsbm`` CLI command with spans recorded at each module boundary.

Usage::

    python3 perfbench/traced.py SPANS_OUT ROOT_LAYER -- <gwsbm cli arguments>

The wrappers live here, in the benchmark, not in the program: each one is
installed on the name the *calling* module looks up (``cli``, ``harness``
and ``solver`` import their callees by name), so patching
``gwsbm.cli.spectral_init`` is what times the CLI's spectral start.

Spans are kept in memory and written once, at exit, as JSON:
``{"exit_code", "import_s", "spans", "loss_histories", "missing"}``.  A span
is ``[id, parent, layer, name, start_ns, end_ns, note]`` with times from
``time.monotonic_ns`` (CLOCK_MONOTONIC), the clock the runner uses for the
process span that encloses them.  ``note`` holds counts taken where the work
happens (edges, bytes, flops, accepted merges) or ``None``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

#: Plan columns lighter than this are dead; matches the merge step's cut.
LIVE_MASS = 1e-12


def _held_bytes(x) -> int:
    """Bytes stored by a dense or scipy-sparse array (0 for anything else)."""
    if hasattr(x, "indptr"):
        return int(x.data.nbytes + x.indices.nbytes + x.indptr.nbytes)
    return int(getattr(x, "nbytes", 0) or 0)


def _stored_entries(x) -> int:
    if hasattr(x, "nnz"):
        return int(x.nnz)
    return int(getattr(x, "size", 0) or 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.loss_histories: list[list[float]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, layer: str, name: str | None = None, note=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        A name the program no longer has is recorded in ``missing`` rather
        than failing the run, so the metrics it fed read as zero.
        """
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        name = name or attr
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, layer, name, time.monotonic_ns(), 0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.monotonic_ns()
                stack.pop()
            if note is not None:
                try:
                    span[6] = note(args, result)
                except Exception as exc:  # a count must never fail the traced run
                    span[6] = {"note_error": repr(exc)}
            return result

        setattr(owner, attr, traced)


def _note_graph(args, result):
    adj = result[0]
    return {"edges": int(adj.edge_count()), "bytes": sum(_held_bytes(v) for v in vars(adj).values())}


def _note_file(index):
    def note(args, result):
        return {"bytes": os.path.getsize(args[index])}
    return note


def _note_cost(args, result):
    """Computed work of one cost application, as the seed's dense formula does it.

    flops: 2 per stored entry of ``fa`` (times the row-sum vector) and of
    ``ha`` (times the k plan columns), plus ``6 n k^2`` for the k x k products
    and the diagonal fix.  bytes: ``fa`` and ``ha`` read once each, plus five
    n x k passes.  A kernel that no longer holds one of them reads 0 for it.
    """
    kernel, t = args[0], args[1]
    n, k = t.shape
    flops = 6 * n * k * k
    nbytes = 5 * 8 * n * k
    for name, columns in (("fa", 1), ("ha", k)):
        arr = getattr(kernel, name, None)
        flops += 2 * _stored_entries(arr) * columns
        nbytes += _held_bytes(arr)
    return {"flops": flops, "bytes": nbytes}


def _note_merge(args, result):
    import numpy as np

    t_in = next(a for a in args if isinstance(a, np.ndarray) and a.shape == result.shape)
    live_in = int(np.count_nonzero(t_in.sum(axis=0) > LIVE_MASS))
    live_out = int(np.count_nonzero(result.sum(axis=0) > LIVE_MASS))
    return {"accepted": live_in - live_out}


def install(tracer: Tracer) -> None:
    import gwsbm.cli
    import gwsbm.graphio
    import gwsbm.harness
    import gwsbm.initplans
    import gwsbm.losses
    import gwsbm.solver

    cli, graphio, harness = gwsbm.cli, gwsbm.graphio, gwsbm.harness
    initplans, losses, solver = gwsbm.initplans, gwsbm.losses, gwsbm.solver

    def keep_history(args, result):
        tracer.loss_histories.append([float(x) for x in result.loss_history])
        return {"k_hat": int(result.k_hat), "rounds": len(result.loss_history)}

    for mod in (cli, harness):
        tracer.wrap(mod, "sample_graph", "sbm", note=_note_graph)
        tracer.wrap(mod, "spectral_init", "initplans")
        tracer.wrap(mod, "bcd_fit", "solver", note=keep_history)
    tracer.wrap(graphio, "write_edge_list", "graphio", note=_note_file(1))
    tracer.wrap(graphio, "read_edge_list", "graphio", note=_note_file(0))
    tracer.wrap(initplans, "_top_abs_eigvecs", "initplans", name="eigvecs")
    tracer.wrap(initplans, "kmeans", "initplans")
    tracer.wrap(losses.CostKernel, "__init__", "losses", name="kernel_init")
    tracer.wrap(losses.CostKernel, "cost", "losses", note=_note_cost)
    tracer.wrap(losses.CostKernel, "objective", "losses")
    tracer.wrap(solver, "closed_form_connectivity", "losses")
    tracer.wrap(solver, "_mm_core", "solver", name="mm")
    tracer.wrap(solver, "_fw_core", "solver", name="fw")
    tracer.wrap(solver, "_merge_step", "solver", name="merge", note=_note_merge)
    tracer.wrap(solver, "_pair_summaries", "solver", name="merge_pass")
    tracer.wrap(solver, "_summary_score", "solver", name="merge_candidate")
    for name in ("hard_labels", "selected_k"):
        tracer.wrap(solver, name, "metrics")
    for name in ("ari", "connectivity_error", "label_accuracy"):
        tracer.wrap(harness, name, "metrics")
    tracer.wrap(cli, "run_ari_sweep", "harness")
    tracer.wrap(harness, "_fit_one_seed", "harness", name="fit_one_seed")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, root_layer, cli_args = argv[0], argv[1], argv[3:]
    start = time.monotonic_ns()
    import gwsbm.cli

    tracer = Tracer()
    root = [0, -1, root_layer, "import", start, time.monotonic_ns(), None]
    tracer.spans.append(root)
    install(tracer)
    tracer.wrap(gwsbm.cli, "cli_dispatch", root_layer)
    code = gwsbm.cli.cli_dispatch(cli_args)
    payload = {
        "exit_code": code,
        "import_s": (root[5] - root[4]) * 1e-9,
        "spans": tracer.spans,
        "loss_histories": tracer.loss_histories,
        "missing": tracer.missing,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
