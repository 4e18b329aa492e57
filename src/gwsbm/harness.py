"""Experiment harness: config-driven sweeps written to CSV.

Each sweep cell (one grid value) is computed independently, written
atomically to its own shard, and merged into the final CSV; interrupted
runs resume by skipping shards that already exist.  Everything except
the recorded wall-clock times is deterministic for a fixed config.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from pathlib import Path

from . import graphio
from .initplans import spectral_init
from .losses import LOSS_KINDS, TransportPlan, make_loss
from .metrics import aligned_plan_error, ari, connectivity_error, hard_labels, selected_k
from .sbm import PROPORTION_KINDS, SCENARIO_KINDS, build_scenario, make_proportions, sample_graph
from .solver import _check_sparsity, bcd_fit, fw_solve
from .baselines import vem_fit

SCHEMA_VERSION = 1

METHODS = ("srgw_nll", "srgw_l2", "vem", "spectral_only")

RESULT_COLUMNS = (
    "scenario",
    "method",
    "n",
    "k_true",
    "k_search",
    "p_in",
    "p_out",
    "lambda",
    "seed",
    "ari",
    "k_hat",
    "theta_error",
    "final_loss",
    "runtime_ms",
)

CONSISTENCY_COLUMNS = (
    "scenario",
    "n",
    "k",
    "p_in",
    "p_out",
    "seed",
    "plan_l1_error",
    "theta_error",
    "runtime_ms",
)


def auto_sparsity(k_search: int, n: int) -> float:
    """Default penalty strength: half the searched width per node pair."""
    return k_search / (2.0 * n)


@dataclass
class ExperimentConfig:
    """Declarative description of one sweep.

    ``sparsity`` may be the string ``"auto"`` (resolved to
    ``k_search / (2 n)``), a number, or ``None`` when ``sparsity_grid``
    drives a penalty sweep.  ``n_grid`` is only read by the consistency
    experiment.  The JSON spelling of the two penalty fields is
    ``lambda`` / ``lambda_grid``.
    """

    scenario: str
    n: int
    k_true: int
    k_search: int
    p_out: float
    p_in_grid: list[float]
    seeds: list[int]
    loss: str
    method: str
    output_path: str
    sparsity: float | str | None = None
    sparsity_grid: list[float] | None = None
    proportions: str = "balanced"
    n_grid: list[int] | None = None
    persist_plans: bool = False

    def validate(self) -> None:
        for name, kinds in (("method", METHODS), ("loss", LOSS_KINDS),
                            ("scenario", SCENARIO_KINDS), ("proportions", PROPORTION_KINDS)):
            if getattr(self, name) not in kinds:
                raise ValueError(f"unknown {name}: {getattr(self, name)!r}")
        if self.n < 2 or self.k_true < 1 or self.k_search < 1:
            raise ValueError("n, k_true and k_search must be positive (n >= 2)")
        if not self.p_in_grid:
            raise ValueError("p_in_grid must be nonempty")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.sparsity_grid is not None:
            grid = [_check_sparsity(x) for x in self.sparsity_grid]
            if grid != sorted(grid):
                raise ValueError("sparsity grid must be ascending")
        if isinstance(self.sparsity, str):
            if self.sparsity != "auto":
                raise ValueError("sparsity must be a number, 'auto', or null")
        elif self.sparsity is not None:
            _check_sparsity(self.sparsity)

    def resolved_sparsity(self, n: int | None = None) -> float:
        if self.sparsity == "auto":
            return auto_sparsity(self.k_search, n or self.n)
        return float(self.sparsity or 0.0)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        if "lambda" in data:
            data["sparsity"] = data.pop("lambda")
        if "lambda_grid" in data:
            data["sparsity_grid"] = data.pop("lambda_grid")
        config = cls(**data)
        config.validate()
        return config

    def to_dict(self) -> dict:
        data = asdict(self)
        data["lambda"] = data.pop("sparsity")
        data["lambda_grid"] = data.pop("sparsity_grid")
        return data


@dataclass
class ResultRow:
    """One fitted seed inside one sweep cell."""

    scenario: str
    method: str
    n: int
    k_true: int
    k_search: int
    p_in: float
    p_out: float
    sparsity: float
    seed: int
    ari: float
    k_hat: int
    theta_error: float
    final_loss: float
    runtime_ms: float

    def as_csv(self) -> str:
        values = (
            self.scenario,
            self.method,
            self.n,
            self.k_true,
            self.k_search,
            repr(float(self.p_in)),
            repr(float(self.p_out)),
            repr(float(self.sparsity)),
            self.seed,
            repr(float(self.ari)),
            self.k_hat,
            repr(float(self.theta_error)),
            repr(float(self.final_loss)),
            repr(float(self.runtime_ms)),
        )
        return ",".join(str(v) for v in values)


def _fit_one_seed(
    config: ExperimentConfig,
    p_in: float,
    sparsity: float,
    seed: int,
    n: int | None = None,
) -> tuple[ResultRow, TransportPlan | None]:
    n = n or config.n
    conn_star = build_scenario(config.scenario, config.k_true, p_in, config.p_out)
    props = make_proportions(config.proportions, config.k_true)
    adj, labels_star = sample_graph(conn_star, props, n, seed)
    plan0 = spectral_init(adj, config.k_search, seed)
    plan = None
    if config.method in ("srgw_nll", "srgw_l2"):
        loss = make_loss("bernoulli_nll" if config.method == "srgw_nll" else "squared")
        result = bcd_fit(adj, loss, plan0, sparsity=sparsity)
        plan = result.plan
        labels_hat = result.labels
        k_hat = result.k_hat
        theta_hat = result.connectivity
        final_loss = result.loss_history[-1]
        runtime_ms = result.runtime_ms
    elif config.method == "vem":
        start = time.perf_counter()
        state = vem_fit(adj, config.k_search, plan0.matrix * n)
        runtime_ms = (time.perf_counter() - start) * 1e3
        plan = TransportPlan(state.resp / n)
        labels_hat = hard_labels(plan)
        k_hat = selected_k(plan)
        theta_hat = state.connectivity
        final_loss = -state.elbo
    else:  # spectral_only
        start = time.perf_counter()
        plan = plan0
        runtime_ms = (time.perf_counter() - start) * 1e3
        labels_hat = hard_labels(plan)
        k_hat = selected_k(plan)
        theta_hat = None
        final_loss = float("nan")
    theta_err = (
        float("nan")
        if theta_hat is None
        else connectivity_error(theta_hat, conn_star, labels_hat, labels_star)
    )
    row = ResultRow(
        scenario=config.scenario,
        method=config.method,
        n=n,
        k_true=config.k_true,
        k_search=config.k_search,
        p_in=p_in,
        p_out=config.p_out,
        sparsity=sparsity,
        seed=seed,
        ari=ari(labels_hat, labels_star),
        k_hat=k_hat,
        theta_error=theta_err,
        final_loss=final_loss,
        runtime_ms=runtime_ms,
    )
    return row, (plan if config.persist_plans else None)


def _cells_dir(output_path: str | Path) -> Path:
    return Path(str(output_path) + ".cells")


def _compute_cell(args) -> tuple[str, list[str]]:
    config_data, key, p_in, sparsity = args
    config = ExperimentConfig.from_dict(config_data)
    lines = []
    for seed in config.seeds:
        row, plan = _fit_one_seed(config, p_in, sparsity, seed)
        lines.append(row.as_csv())
        if plan is not None:
            plan_path = _cells_dir(config.output_path) / f"plan_{key}_seed{seed}.csv"
            graphio.write_matrix_csv(plan.matrix, plan_path)
    return key, lines


def _run_cells(config: ExperimentConfig, cells: list[tuple[str, float, float]], jobs: int | None):
    """Compute missing cells (optionally in parallel) and merge shards."""
    cells_dir = _cells_dir(config.output_path)
    cells_dir.mkdir(parents=True, exist_ok=True)
    pending = []
    for key, p_in, sparsity in cells:
        if not (cells_dir / f"{key}.csv").exists():
            pending.append((config.to_dict(), key, p_in, sparsity))
    n_jobs = max(1, jobs or 1)
    with ExitStack() as stack:
        mapper = map
        if pending and n_jobs > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=n_jobs)).map
        for key, lines in mapper(_compute_cell, pending):
            graphio._atomic_write_text(cells_dir / f"{key}.csv", "\n".join(lines) + "\n")
    body = [f"# schema_version: {SCHEMA_VERSION}", ",".join(RESULT_COLUMNS)]
    for key, _, _ in cells:
        body.extend((cells_dir / f"{key}.csv").read_text().strip().split("\n"))
    graphio._atomic_write_text(config.output_path, "\n".join(body) + "\n")


def _parse_rows(csv_path: str | Path) -> list[ResultRow]:
    rows = []
    with open(csv_path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith(RESULT_COLUMNS[0] + ","):
                continue
            parts = line.split(",")
            rows.append(
                ResultRow(
                    scenario=parts[0],
                    method=parts[1],
                    n=int(parts[2]),
                    k_true=int(parts[3]),
                    k_search=int(parts[4]),
                    p_in=float(parts[5]),
                    p_out=float(parts[6]),
                    sparsity=float(parts[7]),
                    seed=int(parts[8]),
                    ari=float(parts[9]),
                    k_hat=int(parts[10]),
                    theta_error=float(parts[11]),
                    final_loss=float(parts[12]),
                    runtime_ms=float(parts[13]),
                )
            )
    return rows


def run_ari_sweep(config: ExperimentConfig, jobs: int | None = None) -> list[ResultRow]:
    """Sweep the within-cluster rate grid and fit every seed of every cell."""
    config.validate()
    cells = []
    for p_in in config.p_in_grid:
        sparsity = config.resolved_sparsity()
        key = f"ari_{config.method}_pin{p_in:.8g}"
        cells.append((key, float(p_in), sparsity))
    _run_cells(config, cells, jobs)
    return _parse_rows(config.output_path)


def run_lambda_sweep(config: ExperimentConfig, jobs: int | None = None) -> list[ResultRow]:
    """Sweep penalty strengths at a fixed within-cluster rate."""
    config.validate()
    if not config.sparsity_grid:
        raise ValueError("penalty sweep needs a sparsity grid")
    p_in = config.p_in_grid[0]
    cells = []
    for sparsity in config.sparsity_grid:
        key = f"lam_{config.method}_lam{sparsity:.8g}"
        cells.append((key, float(p_in), float(sparsity)))
    _run_cells(config, cells, jobs)
    return _parse_rows(config.output_path)


def run_consistency(config: ExperimentConfig) -> list[dict]:
    """Estimation error ladder over growing graphs.

    For each size in ``n_grid`` and each seed: (a) solve the plan at the
    true connectivity from a spectral start and record the L1 distance to
    the planted hard plan (up to relabeling); (b) run the full alternating
    fit without penalty and record the aligned connectivity error.  The
    ladder runs in one process.
    """
    config.validate()
    if not config.n_grid:
        raise ValueError("consistency experiment needs n_grid")
    p_in = config.p_in_grid[0]
    loss = make_loss(config.loss)
    records = []
    for n in config.n_grid:
        for seed in config.seeds:
            conn_star = build_scenario(config.scenario, config.k_true, p_in, config.p_out)
            props = make_proportions(config.proportions, config.k_true)
            adj, labels_star = sample_graph(conn_star, props, n, seed)
            plan0 = spectral_init(adj, config.k_true, seed)
            start = time.perf_counter()
            plan_hat = fw_solve(adj, loss, conn_star, plan0)
            plan_err = aligned_plan_error(plan_hat, labels_star)
            result = bcd_fit(adj, loss, plan0)
            theta_err = connectivity_error(
                result.connectivity, conn_star, result.labels, labels_star
            )
            runtime_ms = (time.perf_counter() - start) * 1e3
            records.append(
                {
                    "scenario": config.scenario,
                    "n": n,
                    "k": config.k_true,
                    "p_in": p_in,
                    "p_out": config.p_out,
                    "seed": seed,
                    "plan_l1_error": plan_err,
                    "theta_error": theta_err,
                    "runtime_ms": runtime_ms,
                }
            )
    lines = [f"# schema_version: {SCHEMA_VERSION}", ",".join(CONSISTENCY_COLUMNS)]
    for rec in records:
        lines.append(
            ",".join(
                str(rec[c]) if c in ("scenario", "n", "k", "seed") else repr(float(rec[c]))
                for c in CONSISTENCY_COLUMNS
            )
        )
    graphio._atomic_write_text(config.output_path, "\n".join(lines) + "\n")
    return records
