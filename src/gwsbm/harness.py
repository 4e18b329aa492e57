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
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

from . import graphio
from .initplans import spectral_init
from .losses import LOSS_KINDS, TransportPlan, make_loss
from .metrics import aligned_plan_error, ari, connectivity_error, hard_labels, selected_k
from .sbm import (
    PROPORTION_KINDS, SCENARIO_KINDS, _count, build_scenario, make_proportions, sample_graph,
)
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
    return _count(k_search, "k_search") / (2.0 * _count(n, "n"))


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment.

    ``sparsity`` may be the string ``"auto"`` (resolved to
    ``k_search / (2 n)``), a number, or ``None`` when ``sparsity_grid``
    drives a penalty sweep, which like the consistency ladder (the only
    reader of ``n_grid``) needs exactly one ``p_in_grid`` value.  The JSON
    spelling of the two penalty fields is ``lambda`` / ``lambda_grid``.
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
        # held as plain ints, so a numpy integer count still writes to JSON
        self.n, self.k_true = _count(self.n, "n", 2), _count(self.k_true, "k_true")
        self.k_search = _count(self.k_search, "k_search")
        self.seeds = [_count(v, f"seeds[{i}]", 0) for i, v in enumerate(self.seeds)]
        if self.n_grid is not None:
            self.n_grid = [_count(v, f"n_grid[{i}]", 2) for i, v in enumerate(self.n_grid)]
        if not isinstance(self.persist_plans, bool):
            raise ValueError(f"persist_plans must be true or false, got {self.persist_plans!r}")
        if not self.p_in_grid:
            raise ValueError("p_in_grid must be nonempty")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds repeat: {self.seeds}")
        for i, p_in in enumerate(self.p_in_grid):
            try:
                build_scenario(self.scenario, self.k_true, p_in, self.p_out)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"p_in_grid[{i}] = {p_in!r} with p_out {self.p_out!r}: {exc}")
        if self.sparsity_grid is not None:
            grid = [_check_sparsity(x, f"lambda_grid[{i}]")
                    for i, x in enumerate(self.sparsity_grid)]
            if grid != sorted(grid):
                raise ValueError("lambda_grid must be ascending")
        if isinstance(self.sparsity, str):
            if self.sparsity != "auto":
                raise ValueError("lambda must be a number, 'auto', or null")
        elif self.sparsity is not None:
            _check_sparsity(self.sparsity, "lambda")

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


def _planted(config: ExperimentConfig, p_in: float, n: int, seed: int, k: int):
    """One seed's planted connectivity, ``n``-node graph, planted labels and ``k``-cluster start."""
    conn_star = build_scenario(config.scenario, config.k_true, p_in, config.p_out)
    props = make_proportions(config.proportions, config.k_true)
    adj, labels_star = sample_graph(conn_star, props, n, seed)
    return conn_star, adj, labels_star, spectral_init(adj, k, seed)


def _fit_one_seed(
    config: ExperimentConfig,
    p_in: float,
    sparsity: float,
    seed: int,
) -> tuple[ResultRow, TransportPlan | None]:
    n = config.n
    conn_star, adj, labels_star, plan0 = _planted(config, p_in, n, seed, config.k_search)
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


def _ladder_cell(config: ExperimentConfig, key: str, n: int, p_in: float) -> list[ConsistencyRow]:
    """Every seed of one consistency rung (graph size ``n``).

    Per seed: (a) solve the plan at the true connectivity from a spectral
    start and record the L1 distance to the planted hard plan (up to
    relabeling); (b) run the full alternating fit without penalty and
    record the aligned connectivity error.
    """
    loss = make_loss(config.loss)
    rows = []
    for seed in config.seeds:
        conn_star, adj, labels_star, plan0 = _planted(config, p_in, n, seed, config.k_true)
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


def _single_p_in(config: ExperimentConfig, kind: str) -> float:
    if len(config.p_in_grid) != 1:
        raise ValueError(f"a {kind} runs at one p_in, not the {len(config.p_in_grid)} in p_in_grid")
    return float(config.p_in_grid[0])


def _cells_dir(output_path: str | Path) -> Path:
    return Path(str(output_path) + ".cells")


def _claim_cells_dir(config: ExperimentConfig) -> Path:
    """Create the shard directory, or check that its shards are this config's.

    A directory ``output_path`` is refused before anything is created.
    The config (less ``output_path``) is recorded in ``config.json`` before
    any shard is written.  Shards computed under another config, or under
    one never recorded, would silently mix into the merged CSV, so they
    are an error.
    """
    if Path(config.output_path).is_dir():
        raise IsADirectoryError(f"output_path {config.output_path} is a directory")
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


def _run_cells(config: ExperimentConfig, row_type: type, cells: list, jobs: int) -> list:
    """Compute the missing cells (optionally in parallel), merge, parse back.

    Each cell is ``(key, cell function, params)``; the function is called
    as ``cell_fn(config, key, *params)`` and returns the cell's rows.  Two
    cells with one key (a repeated grid value, or two that agree in the
    key's 8 significant digits) would share one shard, so they are an error.
    ``jobs`` is the worker-process count, an integer of at least 1; at 1 the
    cells run in this process.
    """
    jobs = _count(jobs, "jobs")
    keys = [key for key, _, _ in cells]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ValueError(f"grid values give repeated cells: {', '.join(repeated)}")
    cells_dir = _claim_cells_dir(config)
    pending = [
        (cell_fn, config, key, params)
        for key, cell_fn, params in cells
        if not (cells_dir / f"{key}.csv").exists()
    ]
    # the pool starts all its workers at once, so it gets no more than there are cells
    n_jobs = min(jobs, len(pending))
    with ExitStack() as stack:
        mapper = map
        if n_jobs > 1:
            # imported here: the pool's modules (multiprocessing) load only for a parallel run
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=n_jobs)).map
        for key, text in mapper(_compute_cell, pending):
            graphio._atomic_write_text(cells_dir / f"{key}.csv", text)
    header = f"# schema_version: {SCHEMA_VERSION}\n" + ",".join(_columns(row_type)) + "\n"
    body = "".join((cells_dir / f"{key}.csv").read_text() for key, _, _ in cells)
    graphio._atomic_write_text(config.output_path, header + body)
    return _parse_rows(config.output_path, row_type)


def run_ari_sweep(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Sweep the within-cluster rate grid and fit every seed of every cell."""
    config.validate()
    if config.k_search > config.n:
        raise ValueError(f"k_search must be at most n = {config.n}, got {config.k_search}")
    sparsity = config.resolved_sparsity()
    cells = [
        (f"ari_{config.method}_pin{p_in:.8g}", _sweep_cell, (float(p_in), sparsity))
        for p_in in config.p_in_grid
    ]
    return _run_cells(config, ResultRow, cells, jobs)


def run_lambda_sweep(config: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Sweep penalty strengths at a fixed within-cluster rate."""
    config.validate()
    if not config.sparsity_grid:
        raise ValueError("penalty sweep needs a lambda_grid")
    if config.k_search > config.n:
        raise ValueError(f"k_search must be at most n = {config.n}, got {config.k_search}")
    p_in = _single_p_in(config, "penalty sweep")
    cells = [
        (f"lam_{config.method}_lam{sparsity:.8g}", _sweep_cell, (p_in, float(sparsity)))
        for sparsity in config.sparsity_grid
    ]
    return _run_cells(config, ResultRow, cells, jobs)


def run_consistency(config: ExperimentConfig, jobs: int = 1) -> list[ConsistencyRow]:
    """Estimation error ladder over growing graphs, one cell per size in ``n_grid``.

    See :func:`_ladder_cell` for what each seed records.
    """
    config.validate()
    if not config.n_grid:
        raise ValueError("consistency experiment needs n_grid")
    if min(config.n_grid) < max(2, config.k_true):
        raise ValueError(f"n_grid sizes must be at least max(2, k_true), got {config.n_grid}")
    p_in = _single_p_in(config, "consistency ladder")
    cells = [(f"ladder_n{n}", _ladder_cell, (n, p_in)) for n in config.n_grid]
    return _run_cells(config, ConsistencyRow, cells, jobs)
