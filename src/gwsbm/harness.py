"""Experiment harness: config-driven experiments written to CSV.

Every experiment kind is a list of cells (one grid value each), and all
of them run through :func:`_run_cells`: each cell is computed
independently, written atomically to its own shard, and merged into the
final CSV.  Interrupted runs resume by skipping shards that already
exist; a rerun with a different config is refused rather than mixed
with the old shards.  One codec, driven by the fields of the row
dataclasses, writes and reads both result schemas.  Everything except
the recorded wall-clock times is deterministic for a fixed config.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

from . import graphio
from .initplans import spectral_init
from .losses import LOSS_KINDS, TransportPlan, make_loss
from .metrics import aligned_plan_error, ari, connectivity_error, hard_labels, selected_k
from .sbm import PROPORTION_KINDS, SCENARIO_KINDS, build_scenario, make_proportions, sample_graph
from .solver import _check_sparsity, bcd_fit, fw_solve
from .baselines import vem_fit

SCHEMA_VERSION = 1

METHODS = ("srgw_nll", "srgw_l2", "vem", "spectral_only")

#: The loss each fitting method minimizes; a config must name the same one.
#: ``spectral_only`` fits nothing, so it takes any loss.
METHOD_LOSS = {"srgw_nll": "bernoulli_nll", "srgw_l2": "squared", "vem": "bernoulli_nll"}

#: Outside Python (JSON configs, CSV headers) the penalty is spelled lambda.
_EXTERNAL_NAMES = {"sparsity": "lambda", "sparsity_grid": "lambda_grid"}


def auto_sparsity(k_search: int, n: int) -> float:
    """Default penalty strength: half the searched width per node pair."""
    return k_search / (2.0 * n)


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment.

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
        if METHOD_LOSS.get(self.method, self.loss) != self.loss:
            raise ValueError(
                f"method {self.method!r} fits loss {METHOD_LOSS[self.method]!r}, not {self.loss!r}"
            )
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

    def resolved_sparsity(self) -> float:
        if self.sparsity == "auto":
            return auto_sparsity(self.k_search, self.n)
        return float(self.sparsity or 0.0)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        for name, external in _EXTERNAL_NAMES.items():
            if external in data:
                data[name] = data.pop(external)
        config = cls(**data)
        config.validate()
        return config

    def to_dict(self) -> dict:
        return {_EXTERNAL_NAMES.get(k, k): v for k, v in asdict(self).items()}


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


@dataclass
class ConsistencyRow:
    """One seed on one rung (graph size) of the consistency ladder."""

    scenario: str
    n: int
    k: int
    p_in: float
    p_out: float
    seed: int
    plan_l1_error: float
    theta_error: float
    runtime_ms: float


def _columns(row_type: type) -> tuple[str, ...]:
    return tuple(_EXTERNAL_NAMES.get(f.name, f.name) for f in fields(row_type))


RESULT_COLUMNS = _columns(ResultRow)
CONSISTENCY_COLUMNS = _columns(ConsistencyRow)


def _schema(row_type: type) -> list[tuple[str, type]]:
    """(attribute, annotated type) of each CSV column of a row dataclass."""
    hints = get_type_hints(row_type)
    return [(f.name, hints[f.name]) for f in fields(row_type)]


def _format_row(row) -> str:
    """One CSV line: floats at full precision, everything else as ``str``."""
    return ",".join(
        repr(float(getattr(row, name))) if kind is float else str(getattr(row, name))
        for name, kind in _schema(type(row))
    )


def _parse_rows(csv_path: str | Path, row_type: type = ResultRow) -> list:
    """Read a result CSV back, converting each column to its annotated type."""
    schema = _schema(row_type)
    header = ",".join(_columns(row_type))
    rows = []
    for line in Path(csv_path).read_text().split("\n"):
        if line and not line.startswith("#") and line != header:
            values = line.split(",")
            rows.append(row_type(**{name: kind(v) for (name, kind), v in zip(schema, values)}))
    return rows


def _fit_one_seed(
    config: ExperimentConfig,
    p_in: float,
    sparsity: float,
    seed: int,
) -> tuple[ResultRow, TransportPlan | None]:
    n = config.n
    conn_star = build_scenario(config.scenario, config.k_true, p_in, config.p_out)
    props = make_proportions(config.proportions, config.k_true)
    adj, labels_star = sample_graph(conn_star, props, n, seed)
    plan0 = spectral_init(adj, config.k_search, seed)
    start = time.perf_counter()
    if config.method == "vem":
        state = vem_fit(adj, config.k_search, plan0.matrix * n)
        plan, theta_hat, final_loss = TransportPlan(state.resp / n), state.connectivity, -state.elbo
    elif config.method == "spectral_only":
        plan, theta_hat, final_loss = plan0, None, float("nan")
    else:
        result = bcd_fit(adj, make_loss(config.loss), plan0, sparsity=sparsity)
        plan, theta_hat, final_loss = result.plan, result.connectivity, result.loss_history[-1]
    runtime_ms = (time.perf_counter() - start) * 1e3
    labels_hat = hard_labels(plan)
    theta_err = (
        float("nan")
        if theta_hat is None
        else connectivity_error(theta_hat, conn_star, labels_hat, labels_star)
    )
    row = ResultRow(
        scenario=config.scenario, method=config.method, n=n, k_true=config.k_true,
        k_search=config.k_search, p_in=p_in, p_out=config.p_out, sparsity=sparsity, seed=seed,
        ari=ari(labels_hat, labels_star), k_hat=selected_k(plan), theta_error=theta_err,
        final_loss=final_loss, runtime_ms=runtime_ms,
    )
    return row, (plan if config.persist_plans else None)


def _sweep_cell(
    config: ExperimentConfig, key: str, p_in: float, sparsity: float
) -> list[ResultRow]:
    """Every seed of one sweep cell; persisted plans go beside its shard."""
    rows = []
    for seed in config.seeds:
        row, plan = _fit_one_seed(config, p_in, sparsity, seed)
        rows.append(row)
        if plan is not None:
            plan_path = _cells_dir(config.output_path) / f"plan_{key}_seed{seed}.csv"
            graphio.write_matrix_csv(plan.matrix, plan_path)
    return rows


def _ladder_cell(config: ExperimentConfig, key: str, n: int) -> list[ConsistencyRow]:
    """Every seed of one consistency rung (graph size ``n``).

    Per seed: (a) solve the plan at the true connectivity from a spectral
    start and record the L1 distance to the planted hard plan (up to
    relabeling); (b) run the full alternating fit without penalty and
    record the aligned connectivity error.
    """
    p_in = config.p_in_grid[0]
    loss = make_loss(config.loss)
    conn_star = build_scenario(config.scenario, config.k_true, p_in, config.p_out)
    props = make_proportions(config.proportions, config.k_true)
    rows = []
    for seed in config.seeds:
        adj, labels_star = sample_graph(conn_star, props, n, seed)
        plan0 = spectral_init(adj, config.k_true, seed)
        start = time.perf_counter()
        plan_err = aligned_plan_error(fw_solve(adj, loss, conn_star, plan0), labels_star)
        result = bcd_fit(adj, loss, plan0)
        theta_err = connectivity_error(result.connectivity, conn_star, result.labels, labels_star)
        runtime_ms = (time.perf_counter() - start) * 1e3
        rows.append(ConsistencyRow(
            scenario=config.scenario, n=n, k=config.k_true, p_in=p_in, p_out=config.p_out,
            seed=seed, plan_l1_error=plan_err, theta_error=theta_err, runtime_ms=runtime_ms,
        ))
    return rows


def _cells_dir(output_path: str | Path) -> Path:
    return Path(str(output_path) + ".cells")


def _claim_cells_dir(config: ExperimentConfig) -> Path:
    """Create the shard directory, or check that its shards are this config's.

    The config (less ``output_path``) is recorded in ``config.json`` before
    any shard is written.  Shards computed under another config, or under
    one never recorded, would silently mix into the merged CSV, so they
    are an error.
    """
    cells_dir = _cells_dir(config.output_path)
    recorded = {k: v for k, v in config.to_dict().items() if k != "output_path"}
    text = json.dumps(recorded, indent=2, sort_keys=True) + "\n"
    stamp = cells_dir / "config.json"
    if stamp.exists() and stamp.read_text() == text:
        return cells_dir
    if stamp.exists() or any(cells_dir.glob("*.csv")):
        raise ValueError(
            f"{cells_dir} holds cells of another config; "
            "remove it or choose another output_path"
        )
    cells_dir.mkdir(parents=True, exist_ok=True)
    graphio._atomic_write_text(stamp, text)
    return cells_dir


def _compute_cell(job) -> tuple[str, str]:
    cell_fn, config, key, params = job
    return key, "".join(_format_row(row) + "\n" for row in cell_fn(config, key, *params))


def _run_cells(config: ExperimentConfig, row_type: type, cells: list, jobs: int | None) -> list:
    """Compute the missing cells (optionally in parallel), merge, parse back.

    Each cell is ``(key, cell function, params)``; the function is called
    as ``cell_fn(config, key, *params)`` and returns the cell's rows.
    """
    cells_dir = _claim_cells_dir(config)
    pending = [
        (cell_fn, config, key, params)
        for key, cell_fn, params in cells
        if not (cells_dir / f"{key}.csv").exists()
    ]
    n_jobs = max(1, jobs or 1)
    with ExitStack() as stack:
        mapper = map
        if pending and n_jobs > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=n_jobs)).map
        for key, text in mapper(_compute_cell, pending):
            graphio._atomic_write_text(cells_dir / f"{key}.csv", text)
    header = f"# schema_version: {SCHEMA_VERSION}\n" + ",".join(_columns(row_type)) + "\n"
    body = "".join((cells_dir / f"{key}.csv").read_text() for key, _, _ in cells)
    graphio._atomic_write_text(config.output_path, header + body)
    return _parse_rows(config.output_path, row_type)


def run_ari_sweep(config: ExperimentConfig, jobs: int | None = None) -> list[ResultRow]:
    """Sweep the within-cluster rate grid and fit every seed of every cell."""
    config.validate()
    sparsity = config.resolved_sparsity()
    cells = [
        (f"ari_{config.method}_pin{p_in:.8g}", _sweep_cell, (float(p_in), sparsity))
        for p_in in config.p_in_grid
    ]
    return _run_cells(config, ResultRow, cells, jobs)


def run_lambda_sweep(config: ExperimentConfig, jobs: int | None = None) -> list[ResultRow]:
    """Sweep penalty strengths at a fixed within-cluster rate."""
    config.validate()
    if not config.sparsity_grid:
        raise ValueError("penalty sweep needs a sparsity grid")
    p_in = float(config.p_in_grid[0])
    cells = [
        (f"lam_{config.method}_lam{sparsity:.8g}", _sweep_cell, (p_in, float(sparsity)))
        for sparsity in config.sparsity_grid
    ]
    return _run_cells(config, ResultRow, cells, jobs)


def run_consistency(config: ExperimentConfig, jobs: int | None = None) -> list[ConsistencyRow]:
    """Estimation error ladder over growing graphs, one cell per size in ``n_grid``.

    See :func:`_ladder_cell` for what each seed records.
    """
    config.validate()
    if not config.n_grid:
        raise ValueError("consistency experiment needs n_grid")
    cells = [(f"ladder_n{n}", _ladder_cell, (int(n),)) for n in config.n_grid]
    return _run_cells(config, ConsistencyRow, cells, jobs)
