"""Command-line surface: files, schemas, embedded configs, exit codes.

Every command must write reproducible artifacts: CSVs carry the resolved
config in a leading comment line, JSON reports embed it under "config", and
rerunning from that embedded config yields identical bytes apart from
wall-clock columns. A bad config exits 2 before any work starts.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import MISSING, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from flatmin import cli, errors, shiftbench
from flatmin.cli import CONFIG_EXIT, NUMERIC_EXIT, _build_objective, main
from flatmin.errors import ConfigError
from flatmin.objectives import Dataset, eval_loss, save_dataset
from flatmin.optimizers import LOG_COLUMNS, MIN_CONVERGENCE_STEPS, OptimizerConfig, run_training


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*args):
    return main(list(args))


def train_doc(**overrides):
    doc = {
        "seed": 3,
        "run_id": "demo",
        "iterations": 40,
        "objective": {"kind": "quadratic", "diag": [2.0, 8.0]},
        "optimizer": {"method": "sgd", "eta0": 0.05},
    }
    doc.update(overrides)
    return doc


def data_block():
    return {
        "spec": {"n_domains": 3, "per_domain_n": 30, "num_classes": 3, "noise": 0.3},
        "seed": 5,
    }


def mlp_train_doc(**overrides):
    doc = train_doc(
        objective={"kind": "mlp", "hidden_units": 8},
        optimizer={"method": "fad", "eta0": 0.2, "rho0": 0.1, "batch_size": 8},
        data=data_block(),
        iterations=20,
    )
    doc.update(overrides)
    return doc


def converge_doc(**overrides):
    doc = {
        "seed": 0,
        "iterations": 120,
        "objective": {"kind": "quadratic", "diag": [2.0, 8.0]},
        "optimizer": {"method": "fad", "eta0": 0.05, "rho0": 0.1, "schedule": "inverse_sqrt"},
    }
    doc.update(overrides)
    return doc


def flatness_doc(objective, **overrides):
    doc = {
        "seed": 1,
        "objective": objective,
        "rho": 0.1,
        "n_probes": 4,
        "k_eigs": 1,
        "budget": {"n_random": 2, "n_ascent_steps": 5},
    }
    doc.update(overrides)
    return doc


def bench_doc(**overrides):
    doc = {
        "seed": 2,
        "data": data_block(),
        "methods": ["sgd"],
        "protocol": {
            "n_hparam_trials": 2,
            "seeds_per_trial": 2,
            "iterations": 25,
            "report_probes": 4,
            "report_k_eigs": 1,
            "report_restarts": 2,
            "report_ascent_steps": 5,
        },
    }
    doc.update(overrides)
    return doc


def sweep_doc(**overrides):
    doc = {
        "seed": 4,
        "data": data_block(),
        "iterations": 30,
        "optimizer": {"method": "fad", "eta0": 0.1, "rho0": 0.1, "batch_size": 8},
        "grid": {"param": "fad_ratio", "values": [0.0, 1.0]},
    }
    doc.update(overrides)
    return doc


def dataset_text(inputs="[[0, 1], [1, 0], [1, 1]]", labels="[0, 1, 2]", domain_ids="[0, 0, 0]"):
    return f'{{"inputs": {inputs}, "labels": {labels}, "domain_ids": {domain_ids}}}'


def strip_wall_ms(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[1].split(",")
    keep = [i for i, col in enumerate(header) if col != "wall_ms"]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        out.append(",".join(cells[i] for i in keep))
    return "\n".join(out)


def table_test(harness, rows):
    """A test that runs ``harness`` on one row, or on each row of a dict of rows by id."""
    if not isinstance(rows, dict):
        return lambda tmp_path, monkeypatch, capsys: harness(rows, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("row", rows.values(), ids=rows.keys())
    def test(row, tmp_path, monkeypatch, capsys):
        harness(row, tmp_path, monkeypatch, capsys)

    return test


# -------------------------------------------------------------------- train


def test_train_writes_csv_and_flatness_report(tmp_path):
    cfg = write_config(tmp_path, train_doc())
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    csv_text = (tmp_path / "demo.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("# config: ")
    embedded = json.loads(lines[0][len("# config: "):])
    assert embedded["seed"] == 3
    assert embedded["optimizer"]["method"] == "sgd"
    assert lines[1] == ",".join(LOG_COLUMNS)
    assert len(lines) == 2 + 40
    report = json.loads((tmp_path / "demo_flatness.json").read_text())
    assert report["config"] == embedded
    assert report["lambda_max"] == pytest.approx(8.0, rel=1e-4)
    assert report["final_loss"] is not None


def test_train_final_loss_is_the_full_data_loss_at_the_final_point(tmp_path):
    cfg = write_config(tmp_path, mlp_train_doc())
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "demo_flatness.json").read_text())
    parsed = cli._parse(cli.TrainConfig, report["config"], "train config")
    obj, _ = _build_objective(parsed.objective, parsed.data)
    record = run_training(
        obj, np.asarray(parsed.theta0), parsed.optimizer, parsed.iterations, seed=parsed.seed
    )
    assert report["final_loss"] == eval_loss(obj, record.theta_final)


def test_train_on_generated_data(tmp_path):
    cfg = write_config(tmp_path, mlp_train_doc())
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    embedded = json.loads((tmp_path / "demo.csv").read_text().split("\n")[0][10:])
    assert embedded["objective"]["layer_sizes"] == [2, 8, 3]
    assert embedded["data"]["seed"] == 5


def test_diverging_training_exits_3_and_keeps_partial_log(tmp_path):
    doc = train_doc(optimizer={"method": "sgd", "eta0": 1.0}, iterations=500)
    cfg = write_config(tmp_path, doc)
    # the run overflows on purpose, and numpy warns of it before the exit
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == NUMERIC_EXIT
    lines = (tmp_path / "demo.csv").read_text().strip().split("\n")
    assert 2 < len(lines) < 502  # config line + header + partial rows


def test_overflowing_hessian_products_exit_3_and_say_so(tmp_path, capsys):
    # each product is finite, about 7e199 per entry, but its norm overflows
    doc = {"objective": {"kind": "quadratic", "diag": [1e200, 1.0]}, "rho": 0.1}
    cfg = write_config(tmp_path, doc)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("flatness", "--config", cfg, "--out-dir", str(tmp_path / "out"))
    assert code == NUMERIC_EXIT
    assert "Hessian-vector products overflow float64" in capsys.readouterr().err


# --------------------------------------------------------------- exit codes


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli("train", "--config", str(tmp_path / "nope.json")) == CONFIG_EXIT


def test_unreadable_config_path_exits_2(tmp_path):
    assert run_cli("train", "--config", str(tmp_path)) == CONFIG_EXIT

ERROR_EXITS = {
    errors.ConfigError: CONFIG_EXIT,
    errors.DimensionError: CONFIG_EXIT,
    errors.BatchSizeError: CONFIG_EXIT,
    errors.BudgetError: CONFIG_EXIT,
    errors.InsufficientDataError: CONFIG_EXIT,
    errors.NumericalError: NUMERIC_EXIT,
    errors.DegenerateDirectionError: NUMERIC_EXIT,
    errors.ProtocolError: NUMERIC_EXIT,
}


@pytest.mark.parametrize("error", ERROR_EXITS, ids=[e.__name__ for e in ERROR_EXITS])
def test_each_error_type_maps_to_its_exit_code(tmp_path, monkeypatch, error):
    def fail(cfg, out_dir):
        raise error("raised by the command")

    monkeypatch.setitem(cli._COMMANDS, "flatness", (cli.FlatnessConfig, fail))
    doc = {"objective": {"kind": "quadratic", "diag": [2.0, 8.0]}, "rho": 0.1}
    cfg = write_config(tmp_path, doc)
    assert run_cli("flatness", "--config", cfg, "--out-dir", str(tmp_path)) == ERROR_EXITS[error]

# ----------------------------------------------------------------- converge


def test_converge_writes_report(tmp_path):
    cfg = write_config(tmp_path, converge_doc())
    assert run_cli("converge", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "convergence.json").read_text())
    assert report["schedule_ok"] is True
    assert report["n_steps"] == 120
    assert report["config"]["optimizer"]["schedule"] == "inverse_sqrt"


# ----------------------------------------------------------------- flatness


def test_flatness_report_with_cross_check(tmp_path):
    doc = {
        "seed": 1,
        "objective": {"kind": "quadratic", "diag": [2.0, 8.0]},
        "theta": [0.0, 0.0],
        "rho": 0.1,
        "alpha": 0.5,
    }
    cfg = write_config(tmp_path, doc)
    assert run_cli("flatness", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "flatness.json").read_text())
    assert report["lambda_max"] == pytest.approx(8.0, rel=1e-4)
    # the regularizer-based read-off independently recovers the curvature
    assert report["lambda_max_from_fad"] == pytest.approx(8.0, rel=1e-3)
    assert report["config"]["theta"] == [0.0, 0.0]
    assert report["r0"] == pytest.approx(0.04, abs=1e-5)
    assert report["r1"] == pytest.approx(0.08, abs=1e-4)

# --------------------------------------------------------------- objectives


def test_build_objective_each_kind(tmp_path):
    def build(doc):
        return _build_objective(doc, None)[0]

    assert build({"kind": "quadratic", "diag": [2.0, 8.0]}).dim == 2
    assert build({"kind": "quadratic", "matrix": [[2.0, 0.5], [0.5, 3.0]]}).dim == 2
    assert build({"kind": "rosenbrock", "dim": 4}).dim == 4
    assert build({"kind": "rosenbrock"}).dim == 2
    assert build({"kind": "double_well"}).dim == 1
    spec = {"kind": "quadratic", "random_spd": {"dim": 5, "seed": 3}}
    a, b = build(spec), build(spec)
    assert a.dim == 5
    np.testing.assert_array_equal(a.hessian(), b.hessian())
    path = tmp_path / "data.json"
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((12, 2)), rng.integers(3, size=12), np.zeros(12))
    save_dataset(data, path)
    assert build({"kind": "mlp", "layer_sizes": [2, 4, 3], "dataset": str(path)}).dim == 27


def test_build_objective_rejects_bad_blocks():
    for doc in (
        {"kind": "quadratic", "diag": [1.0], "extra": 1},
        {"kind": "quadratic", "random_spd": {"dim": 3, "seeds": 1}},
        {"kind": "rosenbrock", "dims": 3},
        {"kind": "nope"},
        {"diag": [1.0]},
        {"kind": "quadratic", "diag": [1.0], "matrix": [[1.0]]},
        {"kind": "quadratic"},
        {"kind": "double_well", "centers": [0.0, 1.0, 2.0]},
    ):
        with pytest.raises(ConfigError):
            _build_objective(doc, None)


def test_build_objective_pools_the_listed_train_domains():
    doc = {"kind": "mlp", "hidden_units": 4, "train_domains": [2, 0]}
    obj, resolved = _build_objective(doc, cli.DataConfig(shiftbench.DomainSpec(per_domain_n=30)))
    assert set(np.unique(obj.dataset.domain_ids).tolist()) == {0, 2}
    assert resolved["train_domains"] == (2, 0)

# -------------------------------------------------------------------- bench


BENCH_FILES = ("bench.json", "bench_table.csv", "bench_hparams.json")


def test_bench_outputs_and_byte_identical_rerun(tmp_path):
    cfg = write_config(tmp_path, bench_doc())
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    assert run_cli("bench", "--config", cfg, "--out-dir", str(dir_a)) == 0
    assert run_cli("bench", "--config", cfg, "--out-dir", str(dir_b)) == 0
    for name in BENCH_FILES:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    table = (dir_a / "bench_table.csv").read_text().strip().split("\n")
    assert table[0].startswith("# config: ")
    assert table[1] == "domain_out,sgd"
    assert len(table) == 2 + 3
    result = json.loads((dir_a / "bench.json").read_text())
    assert len(result["cells"]) == 3


def test_two_method_bench_table_has_one_column_per_method(tmp_path):
    cfg = write_config(tmp_path, bench_doc(methods=["sgd", "fad"]))
    assert run_cli("bench", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    lines = (tmp_path / "bench_table.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert lines[1] == "domain_out,sgd,fad"
    assert [line.split(",")[0] for line in lines[2:]] == ["domain0", "domain1", "domain2"]
    cells = json.loads((tmp_path / "bench.json").read_text())["cells"]
    by_key = {(c["method"], c["test_domain"]): c for c in cells}
    for d, line in enumerate(lines[2:]):
        for method, entry in zip(("sgd", "fad"), line.split(",")[1:]):
            c = by_key[method, d]
            assert entry == f"{c['mean_accuracy']:.4f}±{c['std_accuracy']:.4f}"


def test_seed_override_lands_in_embedded_config(tmp_path):
    cfg = write_config(tmp_path, train_doc())
    out = tmp_path / "o"
    out.mkdir()
    assert run_cli("train", "--config", cfg, "--seed", "9", "--out-dir", str(out)) == 0
    embedded = json.loads((out / "demo.csv").read_text().split("\n")[0][10:])
    assert embedded["seed"] == 9

# -------------------------------------------------------------------- sweep


def test_sweep_schema(tmp_path):
    cfg = write_config(tmp_path, sweep_doc())
    assert run_cli("sweep", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert lines[1] == "value,test_accuracy,lambda_max,wall_ms,status"
    assert len(lines) == 2 + 2
    for line in lines[2:]:
        assert line.endswith(",ok")


def test_sweep_marks_failed_rows(tmp_path):
    doc = sweep_doc(
        optimizer={
            "method": "fad",
            "eta0": 0.1,
            "rho0": 0.1,
            "batch_size": 8,
            "weight_decay": 1e300,
        }
    )
    cfg = write_config(tmp_path, doc)
    # every point's decay overflows on purpose, and numpy warns of it
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("sweep", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    for line in (tmp_path / "sweep.csv").read_text().strip().split("\n")[2:]:
        assert line.endswith(",error:NumericalError")
        assert ",nan," in line


def test_sweep_interleaves_timing_repeats(tmp_path, monkeypatch):
    order = []
    train = cli.run_training

    def recorded(obj, theta0, config, iterations, seed):
        order.append(config.fad_ratio)
        return train(obj, theta0, config, iterations, seed=seed)

    monkeypatch.setattr(cli, "run_training", recorded)
    doc = sweep_doc(timing_repeats=3, grid={"param": "fad_ratio", "values": [0.0, 0.5, 1.0]})
    cfg = write_config(tmp_path, doc)
    assert run_cli("sweep", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    assert order == [0.0, 0.5, 1.0] * 3


def sweep_statuses(out_dir):
    lines = (out_dir / "sweep.csv").read_text().strip().split("\n")[2:]
    return [line.rsplit(",", 1)[1] for line in lines]


def test_sweep_does_not_rerun_a_failed_point(tmp_path, monkeypatch):
    order = []
    train = cli.run_training

    def failing(obj, theta0, config, iterations, seed):
        order.append(config.fad_ratio)
        if config.fad_ratio == 0.5:
            raise errors.NumericalError("diverged")
        return train(obj, theta0, config, iterations, seed=seed)

    monkeypatch.setattr(cli, "run_training", failing)
    doc = sweep_doc(timing_repeats=3, grid={"param": "fad_ratio", "values": [0.0, 0.5, 1.0]})
    cfg = write_config(tmp_path, doc)
    assert run_cli("sweep", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    assert order == [0.0, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert sweep_statuses(tmp_path) == ["ok", "error:NumericalError", "ok"]


def test_sweep_marks_a_point_whose_evaluation_fails(tmp_path, monkeypatch):
    solve = cli.power_iteration_lambda_max
    solves = []

    def failing_first(*args, **kwargs):
        solves.append(args)
        if len(solves) == 1:
            raise errors.DegenerateDirectionError("no direction")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "power_iteration_lambda_max", failing_first)
    cfg = write_config(tmp_path, sweep_doc())
    assert run_cli("sweep", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    assert sweep_statuses(tmp_path) == ["error:DegenerateDirectionError", "ok"]
    first = (tmp_path / "sweep.csv").read_text().split("\n")[2]
    assert first == "0.0,nan,nan,nan,error:DegenerateDirectionError"


def test_sweep_repeats_change_only_wall_ms(tmp_path):
    tables = []
    for repeats in (1, 3):
        cfg = write_config(tmp_path, sweep_doc(timing_repeats=repeats), name=f"{repeats}.json")
        out = tmp_path / str(repeats)
        assert run_cli("sweep", "--config", cfg, "--out-dir", str(out)) == 0
        # the config line differs in timing_repeats; every table cell but wall_ms must not
        tables.append(strip_wall_ms((out / "sweep.csv").read_text()).split("\n")[1:])
    assert tables[0] == tables[1]


# ------------------------------------------------------ bad input exits 2

# the names a command calls once its config has passed every check
WORK = ("run_training", "run_protocol", "build_flatness_report", "power_iteration_lambda_max")


class Bad(NamedTuple):
    """A config (a document or raw text) that must exit 2 with ``message``."""

    command: str
    config: dict | str
    message: str
    files: dict = {}  # input files written beside the config, by name
    out_dir: str = "out"
    overflows: bool = False  # numpy warns of a float64 overflow on the way to the check


def tree(root):
    """Every path under ``root``, with its bytes or None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def work_started(name):
    def started(*args, **kwargs):
        raise AssertionError(f"cli.{name} ran on a config that must exit 2 first")

    return started


def exits_2_before_any_work(row, tmp_path, monkeypatch, capsys):
    """Exit 2, ``row.message`` on stderr, no file made or changed, no work started."""
    monkeypatch.chdir(tmp_path)
    config = row.config if isinstance(row.config, str) else json.dumps(row.config)
    for name, text in {**row.files, "config.json": config}.items():
        (tmp_path / name).write_text(text)
    for name in WORK:
        monkeypatch.setattr(cli, name, work_started(name))
    before = tree(tmp_path)
    quiet = np.errstate(over="ignore", invalid="ignore") if row.overflows else nullcontext()
    with quiet:
        code = run_cli(row.command, "--config", "config.json", "--out-dir", row.out_dir)
    assert code == CONFIG_EXIT
    assert row.message in capsys.readouterr().err
    assert tree(tmp_path) == before


def with_beta(number):
    text = json.dumps(train_doc(optimizer={"method": "fad", "eta0": 0.05, "rho0": 0.1}))
    return text.replace('"rho0": 0.1', f'"rho0": 0.1, "beta": {number}')


DATASET_FILE = {"data.json": dataset_text()}
FILE_MLP = {"kind": "mlp", "layer_sizes": [2, 4, 3], "dataset": "data.json"}
UNREADABLE = "cannot read dataset file data.json: "

# Each group keeps the name of the test that first held its cases, so every
# case keeps its test ID; a new row joins the first group.
BAD_INPUTS = {
    "test_bad_config_exits_2_and_writes_nothing": {
        "root_not_object": Bad(
            "train", json.dumps([train_doc()]), "config root must be a JSON object"
        ),
        "not_a_list": Bad(
            "train",
            train_doc(objective={"kind": "quadratic", "diag": 3}),
            "objective.diag must be a list",
        ),
        "block_not_object": Bad("train", train_doc(optimizer=3), "optimizer must be a JSON object"),
        "empty_grid": Bad(
            "sweep", sweep_doc(grid={"param": "rho", "values": []}), "grid.values is empty"
        ),
        "test_domain_out_of_range": Bad(
            "sweep", sweep_doc(test_domain=3), "test_domain 3 out of range"
        ),
        "dataset_without_layer_sizes": Bad(
            "flatness",
            {"objective": {"kind": "mlp", "dataset": "data.json"}, "rho": 0.1},
            "needs layer_sizes",
        ),
        "mlp_without_rows": Bad(
            "flatness",
            {"objective": {"kind": "mlp"}, "rho": 0.1},
            "either a 'dataset' path or a 'data'",
        ),
        # json alone would keep the last value of a repeated key
        "repeated_key": Bad(
            "train",
            json.dumps(train_doc())[:-1] + ', "optimizer": {"method": "sgd", "eta0": 0.5}}',
            "repeats the key 'optimizer'",
        ),
        "repeated_nested_key": Bad(
            "train",
            json.dumps(train_doc()).replace('"eta0": 0.05', '"eta0": 0.05, "eta0": 0.5'),
            "repeats the key 'eta0'",
        ),
        # finite specs whose rows or curvature float64 cannot hold
        "overflowing_rows": Bad(
            "flatness",
            {"objective": {"kind": "mlp"}, "data": {"spec": {"noise": 1e308}}, "rho": 0.1},
            "domain 0's rows are not finite",
            overflows=True,
        ),
        "overflowing_bench_rows": Bad(
            "bench",
            {"data": {"spec": {"noise": 1e308}}, "methods": ["sgd"]},
            "domain 0's rows are not finite",
            overflows=True,
        ),
        "overflowing_translation": Bad(
            "flatness",
            {
                "objective": {"kind": "mlp"},
                "data": {"spec": {"transform": "translation", "translation_step": 1e308}},
                "rho": 0.1,
            },
            "domain 2's rows are not finite",
        ),
        "overflowing_curvature": Bad(
            "flatness",
            flatness_doc({"kind": "quadratic", "random_spd": {"dim": 3, "min_top_gap": 1e308}}),
            "quadratic curvature holds a non-finite number",
            overflows=True,
        ),
        # a ragged matrix reaches numpy, whose error main reports as a malformed value
        "ragged_matrix": Bad(
            "flatness",
            {"objective": {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0]]}, "rho": 0.1},
            "malformed config value: setting an array element with a sequence",
        ),
        "out_dir_is_a_file": Bad(
            "train", train_doc(), "afile is not a directory", {"afile": ""}, out_dir="afile"
        ),
        "out_dir_below_a_file": Bad(
            "bench", bench_doc(), "afile is not a directory", {"afile": ""}, out_dir="afile/sub"
        ),
        "zero_iterations": Bad("train", train_doc(iterations=0), "iterations must be >= 1, got 0"),
        "batch_above_rows": Bad(
            "train",
            mlp_train_doc(optimizer={"method": "sgd", "eta0": 0.1, "batch_size": 500}),
            "optimizer.batch_size 500 exceeds the 90 training rows",
        ),
        "converge_batch_above_rows": Bad(
            "converge",
            converge_doc(
                objective={"kind": "mlp", "hidden_units": 4},
                data=data_block(),
                optimizer={**converge_doc()["optimizer"], "batch_size": 91},
            ),
            "optimizer.batch_size 91 exceeds the 90 training rows",
        ),
        "theta0_length": Bad(
            "train",
            train_doc(theta0=[0.0, 0.0, 0.0]),
            "theta0 has 3 entries; the quadratic objective has dim 2",
        ),
        "converge_theta0_length": Bad(
            "converge", converge_doc(theta0=[1.0]), "theta0 has 1 entries; the quadratic"
        ),
        "theta_length": Bad(
            "flatness",
            flatness_doc({"kind": "rosenbrock", "dim": 3}, theta=[0.0, 0.0]),
            "theta has 2 entries; the rosenbrock objective has dim 3",
        ),
        # every field named seed, at any depth
        "negative_seed": Bad("train", train_doc(seed=-1), "train config.seed must be >= 0, got -1"),
        "negative_converge_seed": Bad(
            "converge", converge_doc(seed=-1), "converge config.seed must be >= 0"
        ),
        "negative_flatness_seed": Bad(
            "flatness", flatness_doc({"kind": "rosenbrock"}, seed=-1), "flatness config.seed must"
        ),
        "negative_bench_seed": Bad("bench", bench_doc(seed=-1), "bench config.seed must be >= 0"),
        "negative_sweep_seed": Bad("sweep", sweep_doc(seed=-1), "sweep config.seed must be >= 0"),
        "negative_data_seed": Bad(
            "flatness",
            flatness_doc({"kind": "mlp"}, data={**data_block(), "seed": -1}),
            "flatness config.data.seed must be >= 0",
        ),
        "negative_random_spd_seed": Bad(
            "flatness",
            flatness_doc({"kind": "quadratic", "random_spd": {"dim": 3, "seed": -1}}),
            "objective.random_spd.seed must be >= 0",
        ),
    },
    "test_bad_flatness_block_exits_2_before_training": {
        "rho": Bad("train", train_doc(flatness={"rho": -1}), "rho must be positive"),
        "budget": Bad(
            "train", train_doc(flatness={"budget": {"n_random": 0}}), "n_random must be >= 1"
        ),
        "k_eigs": Bad("train", train_doc(flatness={"k_eigs": 0}), "k_eigs must be >= 1"),
        "n_probes": Bad("train", train_doc(flatness={"n_probes": 1}), "n_probes must be >= 2"),
        "alpha": Bad("train", train_doc(flatness={"alpha": 2.0}), "alpha must be in [0, 1]"),
    },
    "test_non_finite_number_exits_2_before_training": {
        "NaN": Bad("train", with_beta("NaN"), "non-finite number NaN"),
        "Infinity": Bad("train", with_beta("Infinity"), "non-finite number Infinity"),
        "1e999": Bad("train", with_beta("1e999"), "non-finite number 1e999"),
        "1e400": Bad("train", with_beta("1" + "0" * 400), "optimizer.beta must be float"),
    },
    "test_run_id_outside_the_out_dir_exits_2_before_training": {
        run_id: Bad("train", train_doc(run_id=run_id), "run_id must name a file inside --out-dir")
        for run_id in ("../escaped", "a/b", "", "..")
    },
    "test_unknown_config_key_exits_2": Bad(
        "train", train_doc(typo_key=1), "unknown keys in train config: ['typo_key']"
    ),
    "test_unknown_optimizer_key_exits_2": Bad(
        "train",
        train_doc(optimizer={"method": "sgd", "eta0": 0.1, "lr": 0.1}),
        "unknown keys in train config.optimizer: ['lr']",
    ),
    "test_missing_required_key_exits_2": Bad(
        "train",
        {k: v for k, v in train_doc().items() if k != "iterations"},
        "train config is missing required key 'iterations'",
    ),
    "test_malformed_json_exits_2": Bad("train", "{not json", "cannot read config file config.json"),
    "test_malformed_value_exits_2": Bad(
        "train",
        train_doc(optimizer={"method": "sgd", "eta0": "fast"}),
        "optimizer.eta0 must be float, got 'fast'",
    ),
    "test_converge_rejects_constant_schedule": Bad(
        "converge",
        converge_doc(optimizer={"method": "fad", "eta0": 0.05, "rho0": 0.1}),
        "converge requires schedule 'inverse_sqrt'",
    ),
    "test_converge_rejects_a_short_run_before_training": Bad(
        "converge",
        converge_doc(iterations=MIN_CONVERGENCE_STEPS - 1),
        f"converge needs iterations >= {MIN_CONVERGENCE_STEPS}",
    ),
    # such a run would take full-data steps yet embed the batch size it never used
    "test_batch_size_on_an_objective_without_rows_exits_2": {
        f"{command}-{objective['kind']}": Bad(
            command,
            converge_doc(
                iterations=40,
                objective=objective,
                optimizer={**converge_doc()["optimizer"], "batch_size": 4},
            ),
            f"optimizer.batch_size needs data rows; a {objective['kind']} objective has none",
        )
        for command in ("train", "converge")
        for objective in (
            {"kind": "quadratic", "diag": [2.0]}, {"kind": "rosenbrock"}, {"kind": "double_well"}
        )
    },
    # the step is fixed, so the key itself is unknown, at its old default too
    "test_bad_fd_step_exits_2_before_any_report": {
        case: Bad(
            "flatness",
            {"objective": {"kind": "rosenbrock"}, "rho": 0.1, "fd_step": fd_step},
            "unknown keys in flatness config: ['fd_step']",
        )
        for case, fd_step in (("zero", 0.0), ("negative", -1e-4), ("old_default", 1e-4))
    },
    # Adam's moment decays and denominator guard are constants, so their old keys are unknown
    "test_adam_eps_key_exits_2_before_any_training": Bad(
        "train",
        train_doc(optimizer={"method": "adam", "eta0": 0.05, "adam_eps": 1e-8}),
        "unknown keys in train config.optimizer: ['adam_eps']",
    ),
    "test_flatness_requires_rho": Bad(
        "flatness",
        {"objective": {"kind": "quadratic", "diag": [2.0, 8.0]}},
        "flatness config is missing required key 'rho'",
    ),
    "test_bad_train_domains_exit_2_before_training": {
        case: Bad(
            "train",
            mlp_train_doc(objective={"kind": "mlp", "hidden_units": 4, "train_domains": domains}),
            f"train_domains needs distinct indices in [0, 3), got {domains}",
        )
        for case, domains in (
            ("out_of_range", [5]), ("negative", [-1]), ("repeated", [0, 0]), ("empty", [])
        )
    },
    "test_mistyped_objective_value_exits_2": {
        "string_dim": Bad(
            "flatness", flatness_doc({"kind": "rosenbrock", "dim": "3"}), "objective.dim must be"
        ),
        "fractional_dim": Bad(
            "flatness",
            flatness_doc({"kind": "quadratic", "random_spd": {"dim": 3.7}}),
            "objective.random_spd.dim must be int",
        ),
        "string_curvature": Bad(
            "flatness",
            flatness_doc({"kind": "double_well", "curvatures": [8.0, "0.5"]}),
            "objective.curvatures[1] must be float",
        ),
    },
    "test_train_domains_with_a_dataset_file_exits_2_before_training": Bad(
        "train",
        train_doc(objective={**FILE_MLP, "train_domains": [0]}),
        "train_domains picks domains of a 'data' block",
        DATASET_FILE,
    ),
    "test_missing_dataset_file_exits_2": Bad(
        "train", train_doc(objective=FILE_MLP), UNREADABLE + "[Errno 2] No such file"
    ),
    "test_data_block_with_a_dataset_file_exits_2_before_training": Bad(
        "train",
        train_doc(objective=FILE_MLP, data=data_block()),
        "a 'data' block generates the mlp's rows",
        DATASET_FILE,
    ),
    # dataset files as JSON text: json.load reads NaN, Infinity and 1e999 as floats
    "test_bad_number_in_a_dataset_file_exits_2_before_any_report": {
        case: Bad("flatness", flatness_doc(FILE_MLP), message, {"data.json": text})
        for case, text, message in (
            (
                "nan_input",
                dataset_text(inputs="[[0, 1], [NaN, 0], [1, 1]]"),
                UNREADABLE + "non-finite number NaN",
            ),
            (
                "infinite_input",
                dataset_text(inputs="[[0, 1], [Infinity, 0], [1, 1]]"),
                UNREADABLE + "non-finite number Infinity",
            ),
            (
                "overflowing_input",
                dataset_text(inputs="[[0, 1], [1e999, 0], [1, 1]]"),
                UNREADABLE + "non-finite number 1e999",
            ),
            (
                "fractional_labels",
                dataset_text(labels="[0.9, 1.5, 2.2]"),
                "dataset labels must be integers",
            ),
            (
                "fractional_domain_ids",
                dataset_text(domain_ids="[0, 0.5, 1]"),
                "dataset domain_ids must be integers",
            ),
            # a repeated key and a cut-off document are config errors too
            (
                "repeated_labels",
                dataset_text(labels='[0, 1, 2], "labels": [2, 1, 0]'),
                UNREADABLE + "JSON object repeats the key 'labels'",
            ),
            ("invalid_json", dataset_text()[:-1], UNREADABLE + "Expecting ',' delimiter"),
        )
    },
    "test_bench_rejects_unknown_method": Bad(
        "bench", bench_doc(methods=["sgd", "lion"]), "unknown method 'lion' in bench config"
    ),
    "test_bad_methods_exit_2_before_training": {
        case: Bad("bench", bench_doc(methods=methods), "methods must be non-empty and distinct")
        for case, methods in (("repeated", ["sgd", "sgd"]), ("empty", []))
    },
    "test_bad_search_space_exits_2_before_training": {
        case: Bad(
            "bench",
            bench_doc(
                methods=["sgd", "sam"], protocol={**bench_doc()["protocol"], "search": search}
            ),
            message,
        )
        for case, search, message in (
            ("empty_set", {"sam_rho": []}, "sam_rho is empty"),
            ("zero_rho", {"sam_rho": [0.0]}, "rho values must be > 0"),
            ("lr_overflow", {"log10_lr": [400, 401]}, "end 400.0 gives no finite positive"),
            ("batch_below_1", {"log2_batch": [-3, -2]}, "log2_batch ends must be >= 0"),
            ("momentum_one", {"log10_momentum": [0, 0]}, "first end gives momentum 1"),
        )
    },
    "test_sweep_rejects_invalid_grid_value": Bad(
        "sweep",
        sweep_doc(grid={"param": "rho", "values": [0.1, -1.0]}),
        "rho0 must be nonnegative, got -1.0",
    ),
    "test_sweep_rejects_unknown_grid_param": Bad(
        "sweep", sweep_doc(grid={"param": "eta0", "values": [0.1]}), "grid param must be one of"
    ),
    "test_sweep_config_problem_exits_2_without_a_table": {
        "zero_iterations": Bad("sweep", sweep_doc(iterations=0), "iterations must be >= 1, got 0"),
        # the training pool holds 60 rows
        "batch_larger_than_pool": Bad(
            "sweep",
            sweep_doc(optimizer={"method": "fad", "eta0": 0.1, "rho0": 0.1, "batch_size": 500}),
            "optimizer.batch_size 500 exceeds the 60 training rows",
        ),
    },
}

globals().update({name: table_test(exits_2_before_any_work, r) for name, r in BAD_INPUTS.items()})


# ------------------------------------------- rerun from the embedded config


class Rerun(NamedTuple):
    """A config whose outputs must rerun to the same bytes from their embedded config."""

    command: str
    config: dict
    embeds: dict = {}  # dotted key of the embedded config -> the value it must hold
    files: dict = {}  # input files written beside the config, by name


def embedded_config(path):
    text = path.read_text()
    if path.suffix == ".csv":
        return json.loads(text.split("\n", 1)[0].removeprefix("# config: "))
    return json.loads(text)["config"]


def comparable(path):
    return strip_wall_ms(path.read_text()) if path.suffix == ".csv" else path.read_bytes()


def reruns_from_its_embedded_config(row, tmp_path, monkeypatch, capsys):
    """Every output embeds one config, and a rerun from it gives the same bytes but wall_ms."""
    monkeypatch.chdir(tmp_path)
    for name, text in {**row.files, "config.json": json.dumps(row.config)}.items():
        (tmp_path / name).write_text(text)
    assert run_cli(row.command, "--config", "config.json", "--out-dir", "a") == 0
    outputs = sorted(os.listdir("a"))
    configs = [embedded_config(Path("a", name)) for name in outputs]
    assert configs and all(config == configs[0] for config in configs)
    for key, value in row.embeds.items():
        block = configs[0]
        for part in key.split("."):
            block = block[part]
        assert block == value, key
    (tmp_path / "embedded.json").write_text(json.dumps(configs[0]))
    assert run_cli(row.command, "--config", "embedded.json", "--out-dir", "b") == 0
    assert sorted(os.listdir("b")) == outputs
    for name in outputs:
        assert comparable(Path("a", name)) == comparable(Path("b", name)), name


# objective blocks as given and as embedded, every default filled in
OBJECTIVES = {
    "diag": (
        {"kind": "quadratic", "diag": [2.0, 8.0]},
        {"kind": "quadratic", "diag": [2.0, 8.0], "matrix": None, "random_spd": None},
    ),
    "matrix": (
        {"kind": "quadratic", "matrix": [[2, 0.5], [0.5, 3]]},
        {"kind": "quadratic", "diag": None, "matrix": [[2.0, 0.5], [0.5, 3.0]], "random_spd": None},
    ),
    "random_spd": (
        {"kind": "quadratic", "random_spd": {"dim": 3}},
        {
            "kind": "quadratic",
            "diag": None,
            "matrix": None,
            "random_spd": {
                "dim": 3, "seed": 0, "eig_low": 0.5, "eig_high": 10.0, "min_top_gap": 1.0
            },
        },
    ),
    "rosenbrock": ({"kind": "rosenbrock"}, {"kind": "rosenbrock", "dim": 2}),
    "double_well": (
        {"kind": "double_well", "offsets": [0, 0.3]},
        {
            "kind": "double_well",
            "centers": [-1.0, 1.0],
            "curvatures": [8.0, 0.5],
            "offsets": [0.0, 0.3],
        },
    ),
}

# grouped like BAD_INPUTS: a new row joins the last group
RERUNS = {
    "test_train_rerun_is_identical_apart_from_wall_ms": Rerun("train", train_doc()),
    "test_train_embeds_the_flatness_budget_and_reruns_from_its_report": Rerun(
        "train",
        train_doc(flatness={"rho": 0.2, "budget": {"n_random": 3, "n_ascent_steps": 7}}),
        {"flatness.budget": {"n_random": 3, "n_ascent_steps": 7}},
    ),
    "test_flatness_embeds_the_full_objective_and_reruns_from_it": {
        name: Rerun("flatness", flatness_doc(given), {"objective": embedded})
        for name, (given, embedded) in OBJECTIVES.items()
    },
    "test_bench_rerun_from_embedded_config": Rerun("bench", bench_doc()),
    "test_rerun_from_the_embedded_config_gives_the_same_bytes": {
        "train_mlp": Rerun("train", mlp_train_doc(), {"objective.layer_sizes": [2, 8, 3]}),
        "flatness_mlp_data": Rerun(
            "flatness",
            flatness_doc({"kind": "mlp", "hidden_units": 4}, data=data_block()),
            {"objective.train_domains": [0, 1, 2]},
        ),
        "flatness_mlp_dataset_file": Rerun(
            "flatness", flatness_doc(FILE_MLP), {"objective.dataset": "data.json"}, DATASET_FILE
        ),
        "converge_mlp": Rerun(
            "converge",
            converge_doc(
                iterations=30,
                objective={"kind": "mlp", "hidden_units": 4},
                data=data_block(),
                optimizer={**converge_doc()["optimizer"], "batch_size": 8},
            ),
            {"optimizer.batch_size": 8},
        ),
        "sweep": Rerun("sweep", sweep_doc(), {"test_domain": 2}),
    },
}

globals().update(
    {name: table_test(reruns_from_its_embedded_config, r) for name, r in RERUNS.items()}
)


# ------------------------------------------------------------------ hygiene


def test_no_temp_files_left_behind(tmp_path):
    cfg = write_config(tmp_path, train_doc())
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_module_entrypoint_smoke(tmp_path):
    cfg = write_config(tmp_path, train_doc(iterations=5))
    # pytest's ``pythonpath`` setting reaches this process only; the child
    # finds the package through PYTHONPATH, as from a checkout without the install
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "flatmin", "train", "--config", cfg, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "demo.csv").exists()


# ------------------------------------------------------------------- README


def readme_config_blocks():
    """(command, JSON document) for each whole config block under a command heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = []
    for section in readme.split("\n### ")[1:]:
        command = section.split("\n", 1)[0].strip()
        for block in re.findall(r"```json\n(.*?)```", section, re.DOTALL):
            if command in cli._COMMANDS and block.lstrip().startswith("{"):
                blocks.append((command, json.loads(block)))
    return blocks


def test_readme_layout_names_resolve():
    # every bare backticked name with an underscore or in CamelCase in a
    # ``flatmin.X`` row of the Layout table is one that module holds
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `flatmin\.(\w+)` \|(.*)$", readme, re.MULTILINE)
    assert len(rows) == 5
    for module, contents in rows:
        mod = importlib.import_module(f"flatmin.{module}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            named = "_" in name or re.fullmatch(r"[A-Z]\w*[a-z]\w*", name)
            assert not named or hasattr(mod, name), f"flatmin.{module}.{name}"


def readme_table(heading):
    """(key, default) of each row of the table under the README's ``### heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(f"### {heading}\n", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.MULTILINE)
    return [(name, default.strip().strip("`")) for name, default in rows]


def fields_with_defaults(cls):
    return [
        (f.name, "required" if f.default is MISSING else json.dumps(f.default))
        for f in fields(cls)
    ]


def test_readme_optimizer_table_names_every_field_with_its_default():
    assert readme_table("optimizer block") == fields_with_defaults(OptimizerConfig)


def test_readme_data_spec_table_names_every_field_with_its_default():
    assert readme_table("data block") == fields_with_defaults(shiftbench.DomainSpec)


def test_readme_config_examples_parse():
    blocks = readme_config_blocks()
    assert sorted(command for command, _ in blocks) == ["bench", "flatness", "sweep", "train"]
    for command, doc in blocks:
        cls, _ = cli._COMMANDS[command]
        cfg = cli._parse(cls, doc, f"README {command} config")
        if "objective" in doc:
            _build_objective(cfg.objective, cfg.data)
