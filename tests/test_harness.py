"""Experiment driver, CSV plumbing, and the command-line interface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gwsbm import (
    LOSS_KINDS,
    ExperimentConfig,
    ari,
    auto_sparsity,
    read_edge_list,
    read_labels,
    read_matrix_csv,
    run_ari_sweep,
    run_consistency,
    run_lambda_sweep,
    selected_k,
)
from gwsbm import cli, graphio, harness
from gwsbm.cli import cli_dispatch
from gwsbm.harness import (
    CONSISTENCY_COLUMNS,
    RESULT_COLUMNS,
    ConsistencyRow,
    ResultRow,
    _parse_rows,
    _run_cells,
)
from gwsbm.baselines import vem_fit
from gwsbm.initplans import spectral_init
from gwsbm.losses import TransportPlan
from gwsbm.sbm import (
    PROPORTION_KINDS,
    SCENARIO_KINDS,
    balanced_proportions,
    build_scenario,
    sample_graph,
)

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


def tiny_config(tmp_path, **overrides):
    base = dict(
        scenario="assortative",
        n=60,
        k_true=2,
        k_search=4,
        p_out=0.05,
        p_in_grid=[0.3],
        seeds=[0, 1],
        loss="bernoulli_nll",
        method="srgw_nll",
        output_path=str(tmp_path / "out.csv"),
        sparsity="auto",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_runtime(csv_path):
    """CSV text with the trailing runtime column removed from data rows."""
    lines = Path(csv_path).read_text().strip().split("\n")
    return [
        line if line.startswith("#") else ",".join(line.split(",")[:-1])
        for line in lines
    ]


def test_auto_sparsity_rule():
    assert auto_sparsity(20, 1000) == pytest.approx(0.01)
    assert auto_sparsity(10, 600) == pytest.approx(1 / 120)


class TestConfig:
    def test_json_spelling_uses_lambda(self, tmp_path):
        config = tiny_config(tmp_path, sparsity=0.25)
        data = config.to_dict()
        assert data["lambda"] == 0.25
        assert "sparsity" not in data
        again = ExperimentConfig.from_dict(data)
        assert again.sparsity == 0.25

    def test_from_json_roundtrip(self, tmp_path):
        config = tiny_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == config

    def test_validation_rejects_bad_fields(self, tmp_path):
        for bad in (
            dict(method="louvain"),
            dict(p_in_grid=[]),
            dict(seeds=[]),
            dict(sparsity_grid=[0.1, 0.01]),  # grids must ascend
            dict(sparsity="half"),
            dict(sparsity=float("nan")),
            dict(sparsity=float("inf")),
            dict(sparsity=-1.0),
            dict(sparsity=None, sparsity_grid=[0.0, float("nan")]),
            dict(sparsity=None, sparsity_grid=[0.0, float("inf")]),
            dict(sparsity=None, sparsity_grid=[-1.0, 0.0]),
            dict(n=1),
            dict(loss="no_such_loss"),
            dict(scenario="no_such_scenario"),
            dict(proportions="no_such_proportions"),
            # each fitting method names the loss it minimizes
            dict(method="srgw_nll", loss="squared"),
            dict(method="srgw_nll", loss="poisson_nll"),
            dict(method="srgw_l2", loss="bernoulli_nll"),
            dict(method="vem", loss="squared"),
            dict(method="vem", loss="exponential_nll"),
        ):
            with pytest.raises(ValueError):
                tiny_config(tmp_path, **bad).validate()

    @pytest.mark.parametrize(
        "kind, field, value, name",
        [
            ("ari-sweep", "n", 12.0, "n"),
            ("ari-sweep", "n", "12", "n"),
            ("ari-sweep", "k_true", True, "k_true"),
            ("ari-sweep", "k_search", 3.0, "k_search"),
            ("ari-sweep", "seeds", [True], "seeds[0]"),
            ("ari-sweep", "seeds", [0, 1.0], "seeds[1]"),
            ("consistency", "n_grid", [12, 16.0], "n_grid[1]"),
            ("consistency", "n_grid", [False], "n_grid[0]"),
        ],
    )
    def test_count_fields_must_be_integers(self, tmp_path, capsys, kind, field, value, name):
        """A float or boolean count is refused with exit 1 before any shard or stamp is
        written (a float ``k_search`` used to reach ARPACK, a ``true`` seed the CSV)."""
        config = tiny_config(tmp_path, n=12, k_search=3, p_in_grid=[0.6], p_out=0.1,
                             seeds=[0], n_grid=[12])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config.to_dict(), field: value}))
        assert cli_dispatch(["experiment", kind, "--config", str(path)]) == 1
        assert f"error: {name} must be an integer" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_persist_plans_must_be_a_bool(self, tmp_path, capsys, value):
        """A non-bool ``persist_plans`` exits 1 before anything is written; the
        string ``"no"`` used to turn plan persistence on, being truthy."""
        config = tiny_config(tmp_path, n=12, k_search=3, p_in_grid=[0.6], p_out=0.1, seeds=[0])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config.to_dict(), "persist_plans": value}))
        assert cli_dispatch(["experiment", "ari-sweep", "--config", str(path)]) == 1
        assert "error: persist_plans must be true or false" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "kind, field, value, name",
        [
            ("ari-sweep", "p_in_grid", [0.6, 1.5], "p_in_grid[1]"),
            ("ari-sweep", "p_in_grid", [0.6, 0.05], "p_in_grid[1]"),
            ("consistency", "n_grid", [12, 1], "n_grid"),
            ("ari-sweep", "k_search", 20, "k_search"),
            ("lambda-sweep", "k_search", 20, "k_search"),
            ("ari-sweep", "seeds", [0, -1], "seeds"),
            ("ari-sweep", "output_path", "a directory", "output_path"),
            ("ari-sweep", "lambda", True, "lambda"),
            ("lambda-sweep", "lambda_grid", [True, 2], "lambda_grid"),
            ("lambda-sweep", "lambda_grid", ["0.1", "0.2"], "lambda_grid[0]"),
        ],
    )
    def test_config_is_refused_before_any_cell_runs(self, tmp_path, capsys, kind, field, value,
                                                    name):
        """A config some cell cannot run exits 1 naming the field, and leaves no
        shard directory behind that a corrected rerun would be refused over."""
        if value == "a directory":
            (tmp_path / "out.csv").mkdir()
            value = str(tmp_path / "out.csv")
        config = tiny_config(tmp_path, n=12, k_search=3, p_in_grid=[0.6], p_out=0.1,
                             seeds=[0], n_grid=[12], sparsity_grid=[0.0, 0.1])
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config.to_dict(), field: value}))
        assert cli_dispatch(["experiment", kind, "--config", str(path)]) == 1
        assert f"error: {name}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv.cells").exists()

    @pytest.mark.parametrize(
        "kind, run", [("lambda-sweep", run_lambda_sweep), ("consistency", run_consistency)]
    )
    def test_single_rate_experiments_refuse_extra_p_in_values(self, tmp_path, capsys, kind,
                                                              run):
        """Penalty sweeps and ladders run at one p_in, so a second value, which no
        row would report, is refused by the API and by the CLI (exit 1) before
        ``<output_path>.cells/`` is created."""
        config = tiny_config(tmp_path, n=12, k_search=3, p_in_grid=[0.4, 0.6], p_out=0.1,
                             seeds=[0], n_grid=[12], sparsity_grid=[0.0, 0.1])
        with pytest.raises(ValueError, match="runs at one p_in, not the 2 in p_in_grid"):
            run(config)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert cli_dispatch(["experiment", kind, "--config", str(path)]) == 1
        assert "runs at one p_in, not the 2 in p_in_grid" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_validation_accepts_method_loss_pairs(self, tmp_path):
        for method, loss in (("srgw_nll", "bernoulli_nll"), ("srgw_l2", "squared"),
                             ("vem", "bernoulli_nll"), ("spectral_only", "poisson_nll")):
            tiny_config(tmp_path, method=method, loss=loss).validate()

    def test_resolved_sparsity(self, tmp_path):
        assert tiny_config(tmp_path).resolved_sparsity() == pytest.approx(4 / 120)
        assert tiny_config(tmp_path, sparsity=0.2).resolved_sparsity() == 0.2
        assert tiny_config(tmp_path, sparsity=None).resolved_sparsity() == 0.0


class TestSweeps:
    def test_ari_sweep_writes_versioned_csv(self, tmp_path):
        config = tiny_config(tmp_path)
        rows = run_ari_sweep(config)
        assert len(rows) == 2
        text = Path(config.output_path).read_text()
        assert text.startswith("# schema_version: 1\n")
        assert "scenario,method," in text.split("\n")[1]
        parsed = _parse_rows(config.output_path)
        assert [r.seed for r in parsed] == [0, 1]
        assert all(np.isfinite(r.ari) for r in parsed)

    def test_vem_and_spectral_only_sweeps(self, tmp_path):
        """``vem`` rows carry the negated final bound of the fit they report;
        ``spectral_only`` fits nothing, so its loss and θ error are NaN."""
        common = dict(n=120, k_search=6, p_in_grid=[0.5], seeds=[0])
        vem = run_ari_sweep(tiny_config(tmp_path, method="vem", **common))
        spectral = run_ari_sweep(tiny_config(
            tmp_path, method="spectral_only", output_path=str(tmp_path / "s.csv"), **common
        ))
        (row,) = vem
        adj, _ = sample_graph(build_scenario("assortative", 2, 0.5, 0.05),
                              balanced_proportions(2), 120, 0)
        plan0 = spectral_init(adj, 6, 0)
        assert row.final_loss == -vem_fit(adj, 6, plan0.matrix * 120).elbo
        assert np.isfinite(row.theta_error) and 0.0 <= row.ari <= 1.0
        (row,) = spectral
        assert math.isnan(row.theta_error) and math.isnan(row.final_loss)
        assert row.k_hat == selected_k(plan0) and 0.0 <= row.ari <= 1.0

    def test_sweep_deterministic_modulo_runtime(self, tmp_path):
        a = tiny_config(tmp_path, output_path=str(tmp_path / "a.csv"))
        b = tiny_config(tmp_path, output_path=str(tmp_path / "b.csv"))
        run_ari_sweep(a)
        run_ari_sweep(b)
        assert strip_runtime(a.output_path) == strip_runtime(b.output_path)

    def test_interrupted_sweep_resumes_from_cells(self, tmp_path):
        config = tiny_config(tmp_path)
        run_ari_sweep(config)
        first = strip_runtime(config.output_path)
        cell_files = sorted((tmp_path / "out.csv.cells").iterdir())
        assert cell_files
        Path(config.output_path).unlink()
        stamps = {p: p.stat().st_mtime for p in cell_files}
        run_ari_sweep(config)  # must reuse the finished cells untouched
        assert strip_runtime(config.output_path) == first
        assert {p: p.stat().st_mtime for p in cell_files} == stamps

    def test_rerun_with_changed_config_is_refused(self, tmp_path):
        run_ari_sweep(tiny_config(tmp_path))
        changed = tiny_config(tmp_path, seeds=[0, 1, 2], n=80)
        with pytest.raises(ValueError, match="out.csv.cells"):
            run_ari_sweep(changed)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(changed.to_dict()))
        assert cli_dispatch(["experiment", "ari-sweep", "--config", str(path)]) == 1
        fresh = tiny_config(tmp_path, seeds=[0, 1, 2], n=80,
                            output_path=str(tmp_path / "fresh.csv"))
        rows = run_ari_sweep(fresh)
        assert [(r.n, r.seed) for r in rows] == [(80, 0), (80, 1), (80, 2)]
        (tmp_path / "fresh.csv.cells" / "config.json").unlink()
        with pytest.raises(ValueError, match="fresh.csv.cells"):
            run_ari_sweep(fresh)  # shards whose config was never recorded

    @pytest.mark.parametrize("run, overrides", [
        (run_ari_sweep, dict(p_in_grid=[0.3, 0.300000001])),  # one 8-digit key
        (run_ari_sweep, dict(p_in_grid=[0.3, 0.2, 0.3])),
        (run_lambda_sweep, dict(sparsity=None, sparsity_grid=[0.0, 0.1, 0.1])),
        (run_consistency, dict(k_search=2, sparsity=None, n_grid=[30, 60, 30])),
        (run_ari_sweep, dict(seeds=[0, 1, 0])),
    ])
    def test_repeated_cells_are_refused_before_any_fit(self, tmp_path, run, overrides):
        config = tiny_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match="repeat"):
            run(config)
        assert not (tmp_path / "out.csv.cells").exists()
        assert not (tmp_path / "out.csv").exists()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        kind = {run_ari_sweep: "ari-sweep", run_lambda_sweep: "lambda-sweep",
                run_consistency: "consistency"}[run]
        assert cli_dispatch(["experiment", kind, "--config", str(path)]) == 1
        assert not (tmp_path / "out.csv.cells").exists()

    def test_persisted_plans_agree_with_k_hat(self, tmp_path):
        config = tiny_config(tmp_path, persist_plans=True)
        rows = run_ari_sweep(config)
        for row in rows:
            plans = list((tmp_path / "out.csv.cells").glob(f"plan_*seed{row.seed}.csv"))
            assert len(plans) == 1
            plan = TransportPlan(read_matrix_csv(plans[0]))
            assert selected_k(plan) == row.k_hat

    def test_no_signal_means_no_agreement(self, tmp_path):
        config = tiny_config(
            tmp_path,
            n=100,
            p_in_grid=[0.1],
            p_out=0.1,
            seeds=[0, 1, 2, 3, 4],
        )
        rows = run_ari_sweep(config)
        assert abs(np.mean([r.ari for r in rows])) <= 0.05

    def test_lambda_sweep_endpoint_cells(self, tmp_path):
        config = tiny_config(
            tmp_path,
            sparsity=None,
            sparsity_grid=[0.0, 10.0],
            seeds=[0, 1, 2],
        )
        rows = run_lambda_sweep(config)
        by_lambda = {}
        for row in rows:
            by_lambda.setdefault(row.sparsity, []).append(row.k_hat)
        assert by_lambda[0.0] == [4, 4, 4]  # nothing dies without the penalty
        assert by_lambda[10.0] == [1, 1, 1]  # everything but one cluster dies

    def test_lambda_sweep_requires_grid(self, tmp_path):
        with pytest.raises(ValueError):
            run_lambda_sweep(tiny_config(tmp_path, sparsity_grid=None))

    def test_consistency_records_and_csv(self, tmp_path):
        config = tiny_config(
            tmp_path,
            k_search=2,
            n_grid=[30, 60],
            seeds=[0, 1],
            sparsity=None,
        )
        records = run_consistency(config)
        assert len(records) == 4
        assert {r.n for r in records} == {30, 60}
        for record in records:
            assert record.plan_l1_error >= 0.0
            assert record.theta_error >= 0.0
        header = Path(config.output_path).read_text().split("\n")[1]
        assert header.startswith("scenario,n,k,")

    def test_consistency_requires_n_grid(self, tmp_path):
        with pytest.raises(ValueError):
            run_consistency(tiny_config(tmp_path))

    def test_consistency_ladder_resumes_from_cells(self, tmp_path):
        config = tiny_config(tmp_path, k_search=2, n_grid=[30, 60], sparsity=None)
        first = run_consistency(config)
        text = strip_runtime(config.output_path)
        cells = tmp_path / "out.csv.cells"
        kept, dropped = cells / "ladder_n30.csv", cells / "ladder_n60.csv"
        stamp = kept.stat().st_mtime
        Path(config.output_path).unlink()
        dropped.unlink()
        again = run_consistency(config, jobs=2)  # recomputes only the dropped rung
        assert strip_runtime(config.output_path) == text
        assert kept.stat().st_mtime == stamp and dropped.exists()
        assert [(r.n, r.seed, r.plan_l1_error) for r in again] == [
            (r.n, r.seed, r.plan_l1_error) for r in first
        ]

    def test_pool_gets_no_more_workers_than_pending_cells(self, tmp_path, monkeypatch):
        """A pool starts all its workers at once, so ``jobs`` above the cells left to
        compute asks for one worker per pending cell, and a single pending cell
        runs without a pool."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # the pool is looked up in concurrent.futures when a run needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        config = tiny_config(tmp_path, p_in_grid=[0.3, 0.4, 0.5], seeds=[0])
        run_ari_sweep(config, jobs=5000)
        assert pools == [3]
        (tmp_path / "out.csv.cells" / "ari_srgw_nll_pin0.4.csv").unlink()
        run_ari_sweep(config, jobs=5000)
        assert pools == [3]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_non_positive_jobs_are_refused(self, tmp_path, jobs, capsys):
        """``jobs`` counts worker processes, so zero or fewer is an error from every
        ``run_*`` and from ``--jobs`` (exit 1), before any cell is computed."""
        config = tiny_config(tmp_path, p_in_grid=[0.3], seeds=[0], n_grid=[20],
                             sparsity_grid=[0.0])
        for run in (run_ari_sweep, run_lambda_sweep, run_consistency):
            with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, got {jobs}"):
                run(config, jobs=jobs)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        argv = ["experiment", "ari-sweep", "--config", str(path), "--jobs", str(jobs)]
        assert cli_dispatch(argv) == 1
        assert f"got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv.cells").exists()
        assert not Path(config.output_path).exists()

    def test_parallel_cells_match_serial_ones(self, tmp_path):
        """Two worker processes write the same rows as one process does."""
        serial = tiny_config(tmp_path / "serial", p_in_grid=[0.3, 0.4], seeds=[0])
        parallel = tiny_config(tmp_path / "parallel", p_in_grid=[0.3, 0.4], seeds=[0])
        for config, jobs in ((serial, 1), (parallel, 2)):
            Path(config.output_path).parent.mkdir()
            run_ari_sweep(config, jobs=jobs)
        assert strip_runtime(parallel.output_path) == strip_runtime(serial.output_path)


class TestCsvCodec:
    def roundtrip(self, tmp_path, rows):
        config = tiny_config(tmp_path)
        return _run_cells(config, type(rows[0]), [("cell", lambda config, key: rows, ())], 1)

    def assert_same(self, got, want):
        assert type(got) is type(want)
        for name, value in vars(want).items():
            other = getattr(got, name)
            assert type(other) is type(value), name
            assert other == value or (math.isnan(other) and math.isnan(value)), name

    def test_result_rows_roundtrip(self, tmp_path):
        rows = [
            ResultRow("assortative", "spectral_only", 60, 2, 4, 0.1 + 0.2, 0.05, 1 / 30, 0,
                      1.0, 2, float("nan"), float("nan"), 0.0),
            ResultRow("assortative", "srgw_nll", 60, 2, 4, 0.3, 1e-300, 0.0, 7,
                      -0.0125, 3, 2.5e-17, 123456.789, 1.5),
        ]
        parsed = self.roundtrip(tmp_path, rows)
        assert len(parsed) == len(rows)
        for got, want in zip(parsed, rows):
            self.assert_same(got, want)

    def test_consistency_rows_roundtrip(self, tmp_path):
        rows = [ConsistencyRow("disassortative", 30, 2, 0.1 + 0.2, 0.05, 3,
                               0.0, float("nan"), 12.25)]
        parsed = self.roundtrip(tmp_path, rows)
        assert len(parsed) == 1
        self.assert_same(parsed[0], rows[0])
        header = Path(tmp_path / "out.csv").read_text().split("\n")[1]
        assert header == ",".join(CONSISTENCY_COLUMNS)

    def test_readme_lists_the_result_columns(self):
        lines = [line for line in README.read_text().split("\n") if line.startswith("scenario,")]
        assert lines == [",".join(RESULT_COLUMNS), ",".join(CONSISTENCY_COLUMNS)]


class TestModelSelectionPlateau:
    def test_five_block_plateau_cell(self, tmp_path):
        """Penalties from a quarter to three quarters of width/n keep K at 5."""
        n, k_search = 600, 15
        config = tiny_config(
            tmp_path,
            scenario="assortative",
            n=n,
            k_true=5,
            k_search=k_search,
            p_in_grid=[0.2],
            p_out=0.03,
            seeds=[0, 1, 2, 3, 4],
            sparsity=None,
            sparsity_grid=[
                k_search / (4 * n),
                k_search / (2 * n),
                3 * k_search / (4 * n),
            ],
        )
        rows = run_lambda_sweep(config)
        by_lambda = {}
        for row in rows:
            by_lambda.setdefault(row.sparsity, []).append(row.k_hat)
        for lam, k_hats in by_lambda.items():
            assert sum(k == 5 for k in k_hats) >= 4, (lam, k_hats)


class TestGoldenFile:
    def test_desk_cell_reproduces_golden_csv(self, tmp_path):
        """Same numbers, bit for bit, as the committed calibration run."""
        config = ExperimentConfig(
            scenario="assortative",
            n=300,
            k_true=3,
            k_search=10,
            p_out=0.03,
            p_in_grid=[0.25],
            seeds=[0, 1, 2, 3, 4],
            loss="bernoulli_nll",
            method="srgw_nll",
            output_path=str(tmp_path / "desk.csv"),
            sparsity="auto",
        )
        rows = run_ari_sweep(config)
        assert strip_runtime(config.output_path) == strip_runtime(DATA / "desk_golden.csv")
        assert np.mean([r.ari for r in rows]) >= 0.95


class TestCli:
    def test_sample_and_fit_roundtrip(self, tmp_path):
        graph = tmp_path / "graph.txt"
        labels = tmp_path / "labels_true.csv"
        code = cli_dispatch(
            [
                "sample",
                "--scenario",
                "assortative",
                "--n",
                "120",
                "--k",
                "2",
                "--p-in",
                "0.35",
                "--p-out",
                "0.05",
                "--seed",
                "1",
                "--out",
                str(graph),
                "--labels-out",
                str(labels),
            ]
        )
        assert code == 0
        assert graph.read_text().startswith("120\n")

        outdir = tmp_path / "fit"
        code = cli_dispatch(
            [
                "fit",
                "--graph",
                str(graph),
                "--k",
                "6",
                "--loss",
                "bernoulli_nll",
                "--lambda",
                "auto",
                "--seed",
                "7",
                "--out",
                str(outdir),
            ]
        )
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["lambda"] == pytest.approx(6 / 240)
        assert report["k_hat"] == 2
        theta = read_matrix_csv(outdir / "theta.csv")
        assert theta.shape == (6, 6)
        z_hat = read_labels(outdir / "labels.csv", k=6)
        z_true = read_labels(labels, k=2)
        assert ari(z_hat, z_true) == 1.0

    def test_readme_quick_start_fit_is_not_degenerate(self, tmp_path):
        """The pruned clusters of a clean 3-block fit must not tie it as degenerate."""
        graph = tmp_path / "graph.txt"
        sample = ["sample", "--scenario", "assortative", "--n", "300", "--k", "3",
                  "--p-in", "0.25", "--p-out", "0.03", "--seed", "0", "--out", str(graph)]
        assert cli_dispatch(sample) == 0
        outdir = tmp_path / "fit"
        fit = ["fit", "--graph", str(graph), "--k", "10", "--loss", "bernoulli_nll",
               "--lambda", "auto", "--seed", "0", "--out", str(outdir)]
        assert cli_dispatch(fit) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["k_hat"] == 3
        assert report["degenerate"] is False

    def test_fit_rejects_negative_penalty(self, tmp_path, monkeypatch, capsys):
        """A penalty that is not a finite nonnegative number exits 1 naming ``lambda``,
        before the graph is read."""

        def never(path):
            raise AssertionError("read the graph")

        monkeypatch.setattr(graphio, "read_edge_list", never)
        for bad in ("-1", "nan", "inf", "abc"):
            code = cli_dispatch(
                ["fit", "--graph", "g.txt", "--k", "2", "--lambda", bad, "--out", str(tmp_path)]
            )
            assert code == 1, bad
            assert capsys.readouterr().err.startswith("error: lambda must be"), bad

    def test_fit_missing_graph_fails_cleanly(self, tmp_path):
        code = cli_dispatch(
            ["fit", "--graph", str(tmp_path / "nope.txt"), "--k", "2", "--out", str(tmp_path)]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1 1", "edge (1, 1) violates i < j"),
            ("2 1", "edge (2, 1) violates i < j"),
            ("1 3", "edge (1, 3) out of range for n=3"),
        ],
    )
    def test_fit_names_the_faulty_edge(self, tmp_path, capsys, line, message):
        """In-range indices out of order name the violated i < j; others stay out of range."""
        graph = tmp_path / "g.txt"
        graph.write_text(f"3\n0 1\n{line}\n")
        assert cli_dispatch(["fit", "--graph", str(graph), "--k", "2", "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    STAR6 = "6\n0 1\n0 2\n0 3\n0 4\n0 5\n"

    @pytest.mark.parametrize(
        "graph, k, code, k_hat, degenerate",
        [
            ("5\n", 2, 0, 1, True),  # no edges: one cluster, flagged degenerate
            (STAR6, 3, 0, 2, False),  # the hub and its leaves
            ("6\n0 1\n0 2\n1 2\n", 3, 0, 2, False),  # a triangle and three isolated nodes
            ("1\n", 1, 0, 1, True),
            ("2\n0 1\n", 1, 0, 1, False),
            (STAR6, 6, 0, 2, False),  # k = n
            (STAR6, 7, 1, None, None),  # k = n + 1
            ("1\n", 2, 1, None, None),
        ],
        ids=["empty", "star", "isolated", "n=1", "n=2", "k=n", "k=n+1", "n=1 k=2"],
    )
    def test_fit_edge_inputs(self, tmp_path, capsys, graph, k, code, k_hat, degenerate):
        """Tiny and degenerate graphs end in a documented report or in exit code 1."""
        path = tmp_path / "g.txt"
        path.write_text(graph)
        outdir = tmp_path / "fit"
        argv = ["fit", "--graph", str(path), "--k", str(k), "--out", str(outdir)]
        assert cli_dispatch(argv) == code
        if code != 0:
            assert "k must be an integer in [1, " in capsys.readouterr().err
            assert not outdir.exists()
            return
        report = json.loads((outdir / "report.json").read_text())
        assert (report["k_hat"], report["degenerate"]) == (k_hat, degenerate)
        assert math.isfinite(report["final_loss"])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fit_on_any_tiny_graph_reports_or_refuses_k(self, data):
        """Random tiny graphs (n 1-7, empty, star, complete, random or with isolated
        nodes), any --k in 0..n+1, every loss and seed 0-4: ``gwsbm fit`` writes a
        consistent report exactly when 1 <= k <= n, else exits 1; it never exits 2."""
        n = data.draw(st.integers(1, 7), label="n")
        kind = data.draw(st.sampled_from(["empty", "star", "complete", "random", "isolated"]))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if kind == "star":
            pairs = [(0, j) for j in range(1, n)]
        elif kind in ("random", "isolated"):
            # "isolated": edges only among the first m nodes, the rest stay alone
            m = data.draw(st.integers(1, n), label="m") if kind == "isolated" else n
            pairs = [p for p in pairs if p[1] < m and data.draw(st.booleans())]
        elif kind == "empty":
            pairs = []
        k = data.draw(st.integers(0, n + 1), label="k")
        loss = data.draw(st.sampled_from(LOSS_KINDS), label="loss")
        seed = data.draw(st.integers(0, 4), label="seed")
        with tempfile.TemporaryDirectory() as tmp:
            graph, outdir = Path(tmp) / "g.txt", Path(tmp) / "fit"
            graph.write_text("\n".join([str(n)] + [f"{i} {j}" for i, j in pairs]) + "\n")
            argv = ["fit", "--graph", str(graph), "--k", str(k), "--loss", loss,
                    "--seed", str(seed), "--out", str(outdir)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli_dispatch(argv)
            if not 1 <= k <= n:
                assert code == 1
                assert f"k must be an integer in [1, {n}], got {k}" in err.getvalue()
                return
            assert code == 0, err.getvalue()
            report = json.loads((outdir / "report.json").read_text())
            assert 1 <= report["k_hat"] <= k
            if not pairs:
                assert report["degenerate"]
            assert len((outdir / "labels.csv").read_text().splitlines()) == n
            assert read_matrix_csv(outdir / "theta.csv").shape == (k, k)

    def test_fit_failed_report_write_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys):
        """A report write that fails midway leaves no report.json and no temp file."""
        graph = tmp_path / "g.txt"
        graph.write_text(self.STAR6)
        outdir = tmp_path / "fit"
        real_fdopen = os.fdopen

        class FailingFile:
            """Writes half the text to the temp file, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        def fdopen(fd, *args, **kwargs):
            fh = real_fdopen(fd, *args, **kwargs)
            temps = [p.name for p in outdir.glob("*.tmp")]
            return FailingFile(fh) if any(n.startswith("report.json") for n in temps) else fh

        monkeypatch.setattr(os, "fdopen", fdopen)
        argv = ["fit", "--graph", str(graph), "--k", "3", "--out", str(outdir)]
        assert cli_dispatch(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(p.name for p in outdir.iterdir()) == ["labels.csv", "theta.csv"]

    @pytest.mark.parametrize("case", [
        "sample to a directory", "sample under a file", "fit a directory",
        "fit into a file", "config is a directory", "output_path is a directory",
    ])
    def test_unusable_paths_exit_1(self, tmp_path, capsys, case):
        """A directory where a file goes, or a file where a directory goes, is invalid
        input (exit 1), like a missing path, not a runtime failure."""
        graph, afile, adir = tmp_path / "g.txt", tmp_path / "file", tmp_path / "dir"
        graph.write_text(self.STAR6)
        afile.write_text("")
        adir.mkdir()
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            tiny_config(tmp_path, n=12, seeds=[0], output_path=str(adir)).to_dict()
        ))
        sample = ["sample", "--n", "6", "--k", "2", "--p-in", "0.5", "--p-out", "0.1", "--out"]
        argv = {
            "sample to a directory": sample + [str(adir)],
            "sample under a file": sample + [str(afile / "g.txt")],
            "fit a directory": ["fit", "--graph", str(adir), "--k", "2", "--out", str(tmp_path)],
            "fit into a file": ["fit", "--graph", str(graph), "--k", "2", "--out", str(afile)],
            "config is a directory": ["experiment", "ari-sweep", "--config", str(adir)],
            "output_path is a directory": ["experiment", "ari-sweep", "--config", str(config)],
        }[case]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "dir.cells").exists()

    @pytest.mark.parametrize("case", ["read the graph", "write the output", "read the config"])
    def test_paths_not_permitted_exit_1(self, tmp_path, monkeypatch, capsys, case):
        """A path the process may not open is invalid input (exit 1), like a missing one."""

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        graph = tmp_path / "g.txt"
        graph.write_text(self.STAR6)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_config(tmp_path).to_dict()))
        fit = ["fit", "--graph", str(graph), "--k", "2", "--out", str(tmp_path / "fit")]
        module, name, argv = {
            "read the graph": (graphio, "open", fit),
            "write the output": (tempfile, "mkstemp", fit),
            "read the config": (harness, "open", ["experiment", "ari-sweep", "--config",
                                                  str(config)]),
        }[case]
        monkeypatch.setattr(module, name, denied, raising=False)
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err == "error: [Errno 13] Permission denied\n"

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_sample_writes_a_consistent_graph_or_nothing(self, data):
        """Any n in -1..8, k in -1..10, rates valid or not (0, 1, nan, inf, negative,
        subnormal-sized, not a number), every scenario and proportion kind, seeds
        0-4: ``gwsbm sample`` writes a graph and labels that agree with its own
        report (exit 0) or writes nothing (exit 1); it never exits 2."""
        rates = ["0", "1", "0.5", "0.1", "nan", "inf", "-0.2", "1e-300", "0.999999", "abc"]
        n = data.draw(st.integers(-1, 8), label="n")
        k = data.draw(st.integers(-1, 10), label="k")
        argv = [
            "sample", "--n", str(n), "--k", str(k),
            "--p-in", data.draw(st.sampled_from(rates), label="p_in"),
            "--p-out", data.draw(st.sampled_from(rates), label="p_out"),
            "--scenario", data.draw(st.sampled_from(SCENARIO_KINDS), label="scenario"),
            "--proportions", data.draw(st.sampled_from(PROPORTION_KINDS), label="proportions"),
            "--seed", str(data.draw(st.integers(0, 4), label="seed")),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            graph, truth = Path(tmp) / "g.txt", Path(tmp) / "truth.csv"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_dispatch(argv + ["--out", str(graph), "--labels-out", str(truth)])
            if code == 1:
                assert os.listdir(tmp) == []
                return
            assert code == 0, err.getvalue()
            adj = read_edge_list(graph)
            assert adj.n == n
            assert out.getvalue() == f"wrote {graph}: n={n} edges={adj.edge_count()}\n"
            labels = read_labels(truth).values
            assert labels.shape == (n,)
            assert labels.min() >= 0 and labels.max() < k

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_experiment_on_any_mutated_config_writes_a_csv_or_refuses(self, data):
        """One to three fields of a tiny valid config set to bad values (wrong types,
        empty or repeated grids, out-of-range rates, unknown kinds), for every
        experiment kind: the run writes an ``out.csv`` that reads back (exit 0) or
        refuses the config (exit 1); it never exits 2."""
        kind = data.draw(st.sampled_from(["ari-sweep", "lambda-sweep", "consistency"]))
        bad = {
            "scenario": ["no_such_scenario", 3, None],
            "n": [-1, 0, 1, 2.0, True, "12", None],
            "k_true": [-1, 0, 13, 2.0, False, "2"],
            "k_search": [-1, 0, 13, 3.0, True, "3"],
            "p_out": [-0.2, 0.0, 0.7, 1.0, float("nan"), "0.1", None],
            "p_in_grid": [[], [0.6, 0.6], [1.5], [0.0], ["0.6"], 0.6, "abc"],
            "seeds": [[], [0, 0], [-1], [0.5], [True], 0, "ab"],
            "loss": ["no_such_loss", "squared", None],
            "method": ["no_such_method", "srgw_l2", "spectral_only", 1],
            "lambda": [-1.0, float("inf"), "half", [0.1], True],
            "lambda_grid": [[], [0.1, 0.1], [0.1, 0.0], [-1.0], ["x"], ["0.1"], 0.1],
            "proportions": ["no_such_proportions", 0],
            "n_grid": [[], [12, 12], [1], [12.0], [True], 12],
            "no_such_field": [1],
        }
        fields = data.draw(st.lists(st.sampled_from(sorted(bad)), min_size=1, max_size=3,
                                    unique=True), label="fields")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            config = {
                "scenario": "assortative", "n": 12, "k_true": 2, "k_search": 3,
                "p_out": 0.1, "p_in_grid": [0.6], "seeds": [0], "loss": "bernoulli_nll",
                "method": "srgw_nll", "output_path": str(out), "lambda": "auto",
                "lambda_grid": [0.0, 0.1], "n_grid": [12],
            }
            for field in fields:
                config[field] = data.draw(st.sampled_from(bad[field]), label=field)
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli_dispatch(["experiment", kind, "--config", str(path)])
            assert code in (0, 1), err.getvalue()
            if code == 1:
                assert not Path(f"{out}.cells").exists(), err.getvalue()
            if code == 0:
                row_type = ConsistencyRow if kind == "consistency" else ResultRow
                assert _parse_rows(out, row_type)

    def test_oracle_certifies_tiny_instance(self, capsys):
        assert cli_dispatch(["oracle", "--n", "6", "--k", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "oracle check passed" in out

    @pytest.mark.parametrize(
        "args", [[], ["--n", "7", "--seed", "3"], ["--n", "7", "--seed", "1"]]
    )
    def test_oracle_gap_is_not_rounding_noise_below_zero(self, capsys, args):
        """Equal optima summed in different orders print a zero gap, never a negative one.

        At ``--n 7 --seed 1`` the restarts end on a soft plan tied with the
        optimum, which prices an ulp below it.
        """
        assert cli_dispatch(["oracle", *args]) == 0
        out = capsys.readouterr().out
        gap = next(line for line in out.splitlines() if line.startswith("gap:"))
        assert gap == "gap: 0.000e+00"

    def test_oracle_refuses_too_many_restarts_before_enumerating(self, monkeypatch, capsys):
        """2**20 hard plans exceed the restarts' cap of 1e6: exit 1 before any sampling or search."""

        def never(*args, **kwargs):
            raise AssertionError("ran past the cap")

        for name in ("sample_graph", "brute_force_srgw", "restarted_fw_minimum"):
            monkeypatch.setattr(cli, name, never)
        assert cli_dispatch(["oracle", "--n", "20", "--k", "2"]) == 1
        assert "exceed the enumeration cap of 1000000" in capsys.readouterr().err

    def test_experiment_subcommand(self, tmp_path):
        config = tiny_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        code = cli_dispatch(["experiment", "ari-sweep", "--config", str(path)])
        assert code == 0
        assert Path(config.output_path).exists()
        for bad in (float("nan"), float("inf"), -1.0):
            path.write_text(json.dumps({**config.to_dict(), "lambda": bad}))
            assert cli_dispatch(["experiment", "ari-sweep", "--config", str(path)]) == 1, bad
        Path(config.output_path).unlink()
        for field, bad in (("loss", "no_such_loss"), ("scenario", "no_such_scenario"),
                           ("proportions", "no_such_proportions"),
                           ("loss", "squared"), ("method", "srgw_l2")):
            path.write_text(json.dumps({**config.to_dict(), field: bad}))
            assert cli_dispatch(["experiment", "ari-sweep", "--config", str(path)]) == 1, field
            assert not Path(config.output_path).exists(), field

    def test_unknown_subcommand_exit_code(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        capsys.readouterr()

    def test_console_script_is_main(self, monkeypatch, capsys):
        """pyproject's ``gwsbm`` script names ``cli.main``, which exits with the
        dispatch code of ``sys.argv``."""
        pyproject = (README.parent / "pyproject.toml").read_text()
        assert re.search(r'^gwsbm = "gwsbm\.cli:main"$', pyproject, re.MULTILINE)
        monkeypatch.setattr(sys, "argv", ["gwsbm", "selftest"])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_selftest_passes_and_prints_stably(self):
        """Two interpreter runs must emit byte-identical reports."""
        runs = [
            subprocess.run(
                [sys.executable, "-m", "gwsbm.cli", "selftest"],
                capture_output=True,
                text=True,
                timeout=600,
                env=oracles.cli_process_env(),
            )
            for _ in range(2)
        ]
        assert all(r.returncode == 0 for r in runs)
        assert runs[0].stdout == runs[1].stdout
        assert "all checks passed" in runs[0].stdout
