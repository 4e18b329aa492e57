"""Experiment driver, CSV plumbing, and the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from gwsbm import (
    ExperimentConfig,
    ari,
    auto_sparsity,
    read_labels,
    read_matrix_csv,
    run_ari_sweep,
    run_consistency,
    run_lambda_sweep,
    selected_k,
)
from gwsbm import cli
from gwsbm.cli import cli_dispatch
from gwsbm.harness import (
    CONSISTENCY_COLUMNS,
    RESULT_COLUMNS,
    ConsistencyRow,
    ResultRow,
    _parse_rows,
    _run_cells,
)
from gwsbm.losses import TransportPlan

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


class TestCsvCodec:
    def roundtrip(self, tmp_path, rows):
        config = tiny_config(tmp_path)
        return _run_cells(config, type(rows[0]), [("cell", lambda config, key: rows, ())], None)

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

    def test_fit_rejects_negative_penalty(self, tmp_path):
        graph = tmp_path / "g.txt"
        cli_dispatch(
            ["sample", "--n", "20", "--k", "2", "--p-in", "0.3", "--p-out", "0.1",
             "--out", str(graph)]
        )
        for bad in ("-1", "nan", "inf"):
            code = cli_dispatch(
                ["fit", "--graph", str(graph), "--k", "2", "--lambda", bad, "--out", str(tmp_path)]
            )
            assert code == 1, bad

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
            assert "k must satisfy 1 <= k <= n" in capsys.readouterr().err
            assert not outdir.exists()
            return
        report = json.loads((outdir / "report.json").read_text())
        assert (report["k_hat"], report["degenerate"]) == (k_hat, degenerate)
        assert math.isfinite(report["final_loss"])

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
