"""Command-line surface: files, schemas, embedded configs, exit codes.

Every command must write reproducible artifacts: CSVs carry the resolved
config in a leading comment line, JSON reports embed it under "config", and
rerunning with the same inputs yields identical bytes apart from wall-clock
columns.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

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
    with np.errstate(over="ignore", invalid="ignore"):
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


def strip_wall_ms(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[1].split(",")
    keep = [i for i, col in enumerate(header) if col != "wall_ms"]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        out.append(",".join(cells[i] for i in keep))
    return "\n".join(out)


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
    doc = train_doc(
        objective={"kind": "mlp", "hidden_units": 8},
        optimizer={"method": "fad", "eta0": 0.2, "rho0": 0.1, "batch_size": 8},
        data=data_block(),
        iterations=20,
    )
    cfg = write_config(tmp_path, doc)
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "demo_flatness.json").read_text())
    parsed = cli._parse(cli.TrainConfig, report["config"], "train config")
    obj, _ = _build_objective(parsed.objective, parsed.data)
    record = run_training(
        obj, np.asarray(parsed.theta0), parsed.optimizer, parsed.iterations, seed=parsed.seed
    )
    assert report["final_loss"] == eval_loss(obj, record.theta_final)


def test_train_rerun_is_identical_apart_from_wall_ms(tmp_path):
    cfg = write_config(tmp_path, train_doc())
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    assert run_cli("train", "--config", cfg, "--out-dir", str(dir_a)) == 0
    assert run_cli("train", "--config", cfg, "--out-dir", str(dir_b)) == 0
    a = strip_wall_ms((dir_a / "demo.csv").read_text())
    b = strip_wall_ms((dir_b / "demo.csv").read_text())
    assert a == b
    assert (dir_a / "demo_flatness.json").read_bytes() == (
        dir_b / "demo_flatness.json"
    ).read_bytes()


def test_train_on_generated_data(tmp_path):
    doc = train_doc(
        objective={"kind": "mlp", "hidden_units": 8},
        optimizer={"method": "fad", "eta0": 0.2, "rho0": 0.1, "batch_size": 8},
        data=data_block(),
        iterations=20,
    )
    cfg = write_config(tmp_path, doc)
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    embedded = json.loads((tmp_path / "demo.csv").read_text().split("\n")[0][10:])
    assert embedded["objective"]["layer_sizes"] == [2, 8, 3]
    assert embedded["data"]["seed"] == 5


def test_diverging_training_exits_3_and_keeps_partial_log(tmp_path):
    doc = train_doc(optimizer={"method": "sgd", "eta0": 1.0}, iterations=500)
    cfg = write_config(tmp_path, doc)
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == NUMERIC_EXIT
    lines = (tmp_path / "demo.csv").read_text().strip().split("\n")
    assert 2 < len(lines) < 502  # config line + header + partial rows


def test_train_embeds_the_flatness_budget_and_reruns_from_its_report(tmp_path):
    doc = train_doc(flatness={"rho": 0.2, "budget": {"n_random": 3, "n_ascent_steps": 7}})
    cfg = write_config(tmp_path, doc)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("train", "--config", cfg, "--out-dir", str(dir_a)) == 0
    report = json.loads((dir_a / "demo_flatness.json").read_text())
    assert report["config"]["flatness"]["budget"] == {"n_random": 3, "n_ascent_steps": 7}
    cfg2 = write_config(tmp_path, report["config"], name="embedded.json")
    assert run_cli("train", "--config", cfg2, "--out-dir", str(dir_b)) == 0
    assert (dir_a / "demo_flatness.json").read_bytes() == (
        dir_b / "demo_flatness.json"
    ).read_bytes()


@pytest.mark.parametrize(
    "flatness",
    [{"rho": -1}, {"budget": {"n_random": 0}}, {"k_eigs": 0}, {"n_probes": 1}, {"alpha": 2.0}],
    ids=["rho", "budget", "k_eigs", "n_probes", "alpha"],
)
def test_bad_flatness_block_exits_2_before_training(tmp_path, flatness):
    cfg = write_config(tmp_path, train_doc(flatness=flatness))
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert not (tmp_path / "demo.csv").exists()


@pytest.mark.parametrize(
    "number",
    ["NaN", "Infinity", "1e999", "1" + "0" * 400],
    ids=["NaN", "Infinity", "1e999", "1e400"],
)
def test_non_finite_number_exits_2_before_training(tmp_path, number):
    path = tmp_path / "config.json"
    text = json.dumps(train_doc(optimizer={"method": "fad", "eta0": 0.05, "rho0": 0.1}))
    path.write_text(text.replace('"rho0": 0.1', f'"rho0": 0.1, "beta": {number}'))
    assert run_cli("train", "--config", str(path), "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert not (tmp_path / "demo.csv").exists()


@pytest.mark.parametrize("run_id", ["../escaped", "a/b", "", ".."])
def test_run_id_outside_the_out_dir_exits_2_before_training(tmp_path, run_id):
    cfg = write_config(tmp_path, train_doc(run_id=run_id))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run_cli("train", "--config", cfg, "--out-dir", str(out_dir)) == CONFIG_EXIT
    assert sorted(tmp_path.rglob("*")) == before


# --------------------------------------------------------------- exit codes


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, train_doc(typo_key=1))
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


def test_unknown_optimizer_key_exits_2(tmp_path):
    doc = train_doc(optimizer={"method": "sgd", "eta0": 0.1, "lr": 0.1})
    cfg = write_config(tmp_path, doc)
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


def test_missing_required_key_exits_2(tmp_path):
    doc = train_doc()
    del doc["iterations"]
    cfg = write_config(tmp_path, doc)
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli("train", "--config", str(tmp_path / "nope.json")) == CONFIG_EXIT


def test_unreadable_config_path_exits_2(tmp_path):
    assert run_cli("train", "--config", str(tmp_path)) == CONFIG_EXIT


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli("train", "--config", str(path)) == CONFIG_EXIT


def test_malformed_value_exits_2(tmp_path):
    doc = train_doc(optimizer={"method": "sgd", "eta0": "fast"})
    cfg = write_config(tmp_path, doc)
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


def sweep_text(**overrides):
    doc = {"data": data_block(), "iterations": 5, "optimizer": {"method": "sgd", "eta0": 0.1}}
    return json.dumps({**doc, **overrides})


# (command, config text, a piece of the error message) for each check
BAD_CONFIGS = {
    "root_not_object": ("train", json.dumps([train_doc()]), "config root must be a JSON object"),
    "not_a_list": (
        "train",
        json.dumps(train_doc(objective={"kind": "quadratic", "diag": 3})),
        "objective.diag must be a list",
    ),
    "block_not_object": (
        "train",
        json.dumps(train_doc(optimizer=3)),
        "optimizer must be a JSON object",
    ),
    "empty_grid": (
        "sweep",
        sweep_text(grid={"param": "rho", "values": []}),
        "grid.values is empty",
    ),
    "test_domain_out_of_range": (
        "sweep",
        sweep_text(grid={"param": "rho", "values": [0.1]}, test_domain=3),
        "test_domain 3 out of range",
    ),
    "dataset_without_layer_sizes": (
        "flatness",
        json.dumps({"objective": {"kind": "mlp", "dataset": "data.json"}, "rho": 0.1}),
        "needs layer_sizes",
    ),
    "mlp_without_rows": (
        "flatness",
        json.dumps({"objective": {"kind": "mlp"}, "rho": 0.1}),
        "either a 'dataset' path or a 'data'",
    ),
    "negative_seed": ("train", json.dumps(train_doc(seed=-1)), "malformed config value"),
    # json alone would keep the last value of a repeated key
    "repeated_key": (
        "train",
        json.dumps(train_doc())[:-1] + ', "optimizer": {"method": "sgd", "eta0": 0.5}}',
        "repeats the key 'optimizer'",
    ),
    "repeated_nested_key": (
        "train",
        json.dumps(train_doc()).replace('"eta0": 0.05', '"eta0": 0.05, "eta0": 0.5'),
        "repeats the key 'eta0'",
    ),
    # finite specs whose rows or curvature float64 cannot hold
    "overflowing_rows": (
        "flatness",
        json.dumps({"objective": {"kind": "mlp"}, "data": {"spec": {"noise": 1e308}}, "rho": 0.1}),
        "domain 0's rows are not finite",
    ),
    "overflowing_bench_rows": (
        "bench",
        json.dumps({"data": {"spec": {"noise": 1e308}}, "methods": ["sgd"]}),
        "domain 0's rows are not finite",
    ),
    "overflowing_translation": (
        "flatness",
        json.dumps(
            {
                "objective": {"kind": "mlp"},
                "data": {"spec": {"transform": "translation", "translation_step": 1e308}},
                "rho": 0.1,
            }
        ),
        "domain 2's rows are not finite",
    ),
    "overflowing_curvature": (
        "flatness",
        json.dumps(
            {
                "objective": {"kind": "quadratic", "random_spd": {"dim": 3, "min_top_gap": 1e308}},
                "rho": 0.1,
            }
        ),
        "quadratic curvature holds a non-finite number",
    ),
}


@pytest.mark.parametrize("command,text,message", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_exits_2_and_writes_nothing(tmp_path, capsys, command, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(path), "--out-dir", str(out)) == CONFIG_EXIT
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    doc = {
        "seed": 0,
        "iterations": 120,
        "objective": {"kind": "quadratic", "diag": [2.0, 8.0]},
        "optimizer": {
            "method": "fad",
            "eta0": 0.05,
            "rho0": 0.1,
            "schedule": "inverse_sqrt",
        },
    }
    cfg = write_config(tmp_path, doc)
    assert run_cli("converge", "--config", cfg, "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "convergence.json").read_text())
    assert report["schedule_ok"] is True
    assert report["n_steps"] == 120
    assert report["config"]["optimizer"]["schedule"] == "inverse_sqrt"


def test_converge_rejects_constant_schedule(tmp_path):
    doc = {
        "iterations": 50,
        "objective": {"kind": "quadratic", "diag": [2.0, 8.0]},
        "optimizer": {"method": "fad", "eta0": 0.05, "rho0": 0.1},
    }
    cfg = write_config(tmp_path, doc)
    assert run_cli("converge", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


def test_converge_rejects_a_short_run_before_training(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("converge trained on a config it should have rejected")

    monkeypatch.setattr(cli, "run_training", never)
    doc = {
        "iterations": MIN_CONVERGENCE_STEPS - 1,
        "objective": {"kind": "quadratic", "diag": [2.0, 8.0]},
        "optimizer": {"method": "fad", "eta0": 0.05, "rho0": 0.1, "schedule": "inverse_sqrt"},
    }
    cfg = write_config(tmp_path, doc)
    assert run_cli("converge", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert not (tmp_path / "convergence.json").exists()


@pytest.mark.parametrize(
    "objective",
    [
        {"kind": "quadratic", "diag": [2.0, 8.0]},
        {"kind": "rosenbrock"},
        {"kind": "double_well"},
    ],
    ids=lambda o: o["kind"],
)
@pytest.mark.parametrize("command", ["train", "converge"])
def test_batch_size_on_an_objective_without_rows_exits_2(tmp_path, capsys, command, objective):
    # such a run would take full-data steps yet embed the batch size it never used
    optimizer = {"method": "sgd", "eta0": 0.05, "schedule": "inverse_sqrt", "batch_size": 4}
    doc = {"iterations": 40, "objective": objective, "optimizer": optimizer}
    cfg = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out-dir", str(out_dir)) == CONFIG_EXIT
    assert not out_dir.exists() or not any(out_dir.iterdir())
    err = capsys.readouterr().err
    assert "batch_size" in err and objective["kind"] in err


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


# the step is fixed, so the key itself is unknown, at its old default too
@pytest.mark.parametrize("fd_step", [0.0, -1e-4, 1e-4], ids=["zero", "negative", "old_default"])
def test_bad_fd_step_exits_2_before_any_report(tmp_path, monkeypatch, fd_step):
    calls = []
    monkeypatch.setattr(cli, "build_flatness_report", lambda *a, **kw: calls.append(a))
    doc = {"objective": {"kind": "rosenbrock"}, "rho": 0.1, "fd_step": fd_step}
    cfg = write_config(tmp_path, doc)
    assert run_cli("flatness", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert calls == []
    assert not (tmp_path / "flatness.json").exists()


# Adam's moment decays and denominator guard are constants, so their old keys are unknown
def test_adam_eps_key_exits_2_before_any_training(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **kw: calls.append(a))
    optimizer = {"method": "adam", "eta0": 0.05, "adam_eps": 1e-8}
    cfg = write_config(tmp_path, train_doc(optimizer=optimizer))
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert calls == []
    assert not (tmp_path / "demo.csv").exists()


def test_flatness_requires_rho(tmp_path):
    doc = {"objective": {"kind": "quadratic", "diag": [2.0, 8.0]}}
    cfg = write_config(tmp_path, doc)
    assert run_cli("flatness", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


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


@pytest.mark.parametrize(
    "train_domains",
    [[5], [-1], [0, 0], []],
    ids=["out_of_range", "negative", "repeated", "empty"],
)
def test_bad_train_domains_exit_2_before_training(tmp_path, monkeypatch, capsys, train_domains):
    calls = []
    run_training = cli.run_training

    def started(*args, **kwargs):
        calls.append("run_training")
        return run_training(*args, **kwargs)

    monkeypatch.setattr(cli, "run_training", started)
    doc = train_doc(
        objective={"kind": "mlp", "hidden_units": 4, "train_domains": train_domains},
        optimizer={"method": "sgd", "eta0": 0.1, "batch_size": 8},
        data=data_block(),
        iterations=5,
    )
    cfg = write_config(tmp_path, doc)
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert "train_domains" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "demo.csv").exists()


def flatness_doc(objective):
    return {
        "seed": 1,
        "objective": objective,
        "rho": 0.1,
        "n_probes": 4,
        "k_eigs": 1,
        "budget": {"n_random": 2, "n_ascent_steps": 5},
    }


@pytest.mark.parametrize(
    "objective",
    [
        {"kind": "rosenbrock", "dim": "3"},
        {"kind": "quadratic", "random_spd": {"dim": 3.7}},
        {"kind": "double_well", "curvatures": [8.0, "0.5"]},
    ],
    ids=["string_dim", "fractional_dim", "string_curvature"],
)
def test_mistyped_objective_value_exits_2(tmp_path, objective):
    cfg = write_config(tmp_path, flatness_doc(objective))
    assert run_cli("flatness", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert not (tmp_path / "flatness.json").exists()


def test_train_domains_with_a_dataset_file_exits_2_before_training(tmp_path, monkeypatch, capsys):
    calls = []
    run_training = cli.run_training

    def started(*args, **kwargs):
        calls.append("run_training")
        return run_training(*args, **kwargs)

    monkeypatch.setattr(cli, "run_training", started)
    path = tmp_path / "data.json"
    rng = np.random.default_rng(0)
    save_dataset(Dataset(rng.standard_normal((12, 2)), rng.integers(3, size=12), np.zeros(12)), path)
    objective = {"kind": "mlp", "layer_sizes": [2, 4, 3], "dataset": str(path), "train_domains": [0]}
    cfg = write_config(tmp_path, train_doc(objective=objective))
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert "train_domains" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "demo.csv").exists()


def test_missing_dataset_file_exits_2(tmp_path):
    objective = {"kind": "mlp", "layer_sizes": [2, 4, 3], "dataset": str(tmp_path / "nope.json")}
    cfg = write_config(tmp_path, train_doc(objective=objective))
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert not (tmp_path / "demo.csv").exists()


def test_data_block_with_a_dataset_file_exits_2_before_training(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_training", lambda *a, **kw: calls.append(a))
    path = tmp_path / "data.json"
    rng = np.random.default_rng(0)
    save_dataset(Dataset(rng.standard_normal((12, 2)), rng.integers(3, size=12), np.zeros(12)), path)
    objective = {"kind": "mlp", "layer_sizes": [2, 4, 3], "dataset": str(path)}
    cfg = write_config(tmp_path, train_doc(objective=objective, data=data_block()))
    assert run_cli("train", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert "'data' block" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "demo.csv").exists()


def dataset_text(inputs="[[0, 1], [1, 0], [1, 1]]", labels="[0, 1, 2]", domain_ids="[0, 0, 0]"):
    return f'{{"inputs": {inputs}, "labels": {labels}, "domain_ids": {domain_ids}}}'


# dataset files as JSON text: json.load reads NaN, Infinity and 1e999 as floats
BAD_DATASET_FILES = {
    "nan_input": dataset_text(inputs="[[0, 1], [NaN, 0], [1, 1]]"),
    "infinite_input": dataset_text(inputs="[[0, 1], [Infinity, 0], [1, 1]]"),
    "overflowing_input": dataset_text(inputs="[[0, 1], [1e999, 0], [1, 1]]"),
    "fractional_labels": dataset_text(labels="[0.9, 1.5, 2.2]"),
    "fractional_domain_ids": dataset_text(domain_ids="[0, 0.5, 1]"),
    # a repeated key and a cut-off document are config errors too
    "repeated_labels": dataset_text(labels='[0, 1, 2], "labels": [2, 1, 0]'),
    "invalid_json": dataset_text()[:-1],
}


@pytest.mark.parametrize("text", BAD_DATASET_FILES.values(), ids=BAD_DATASET_FILES.keys())
def test_bad_number_in_a_dataset_file_exits_2_before_any_report(tmp_path, monkeypatch, capsys, text):
    calls = []
    monkeypatch.setattr(cli, "build_flatness_report", lambda *a, **kw: calls.append(a))
    path = tmp_path / "data.json"
    path.write_text(text)
    objective = {"kind": "mlp", "layer_sizes": [2, 4, 3], "dataset": str(path)}
    cfg = write_config(tmp_path, flatness_doc(objective))
    assert run_cli("flatness", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert "dataset" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "flatness.json").exists()


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


@pytest.mark.parametrize("name", OBJECTIVES)
def test_flatness_embeds_the_full_objective_and_reruns_from_it(tmp_path, name):
    given, embedded = OBJECTIVES[name]
    cfg = write_config(tmp_path, flatness_doc(given))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("flatness", "--config", cfg, "--out-dir", str(dir_a)) == 0
    config = json.loads((dir_a / "flatness.json").read_text())["config"]
    assert config["objective"] == embedded
    cfg2 = write_config(tmp_path, config, name="embedded.json")
    assert run_cli("flatness", "--config", cfg2, "--out-dir", str(dir_b)) == 0
    assert (dir_a / "flatness.json").read_bytes() == (dir_b / "flatness.json").read_bytes()


# -------------------------------------------------------------------- bench


def bench_doc():
    return {
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


def test_bench_rerun_from_embedded_config(tmp_path):
    cfg = write_config(tmp_path, bench_doc())
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    assert run_cli("bench", "--config", cfg, "--out-dir", str(dir_a)) == 0
    embedded = json.loads((dir_a / "bench.json").read_text())["config"]
    cfg2 = write_config(tmp_path, embedded, name="embedded.json")
    assert run_cli("bench", "--config", cfg2, "--out-dir", str(dir_b)) == 0
    for name in BENCH_FILES:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_bench_rejects_unknown_method(tmp_path):
    doc = bench_doc()
    doc["methods"] = ["sgd", "lion"]
    cfg = write_config(tmp_path, doc)
    assert run_cli("bench", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


def test_two_method_bench_table_has_one_column_per_method(tmp_path):
    doc = bench_doc()
    doc["methods"] = ["sgd", "fad"]
    cfg = write_config(tmp_path, doc)
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


@pytest.mark.parametrize("methods", [["sgd", "sgd"], []], ids=["repeated", "empty"])
def test_bad_methods_exit_2_before_training(tmp_path, monkeypatch, methods):
    calls = []
    run_protocol = cli.run_protocol

    def started(*args, **kwargs):
        calls.append("run_protocol")
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", started)
    doc = bench_doc()
    doc["methods"] = methods
    cfg = write_config(tmp_path, doc)
    assert run_cli("bench", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert calls == []
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize(
    "search",
    [
        {"sam_rho": []},
        {"sam_rho": [0.0]},
        {"log10_lr": [400, 401]},
        {"log2_batch": [-3, -2]},
        {"log10_momentum": [0, 0]},
    ],
    ids=["empty_set", "zero_rho", "lr_overflow", "batch_below_1", "momentum_one"],
)
def test_bad_search_space_exits_2_before_training(tmp_path, monkeypatch, search):
    calls = []
    run_protocol = cli.run_protocol

    def started(*args, **kwargs):
        calls.append("run_protocol")
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", started)
    monkeypatch.setattr(shiftbench, "run_training", lambda *a, **kw: calls.append("run_training"))
    doc = bench_doc()
    doc["methods"] = ["sgd", "sam"]
    doc["protocol"]["search"] = search
    cfg = write_config(tmp_path, doc)
    assert run_cli("bench", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert calls == []
    assert not (tmp_path / "bench.json").exists()


def test_seed_override_lands_in_embedded_config(tmp_path):
    cfg = write_config(tmp_path, train_doc())
    out = tmp_path / "o"
    out.mkdir()
    assert run_cli("train", "--config", cfg, "--seed", "9", "--out-dir", str(out)) == 0
    embedded = json.loads((out / "demo.csv").read_text().split("\n")[0][10:])
    assert embedded["seed"] == 9


# -------------------------------------------------------------------- sweep


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


def test_sweep_rejects_invalid_grid_value(tmp_path):
    doc = sweep_doc(grid={"param": "rho", "values": [0.1, -1.0]})
    cfg = write_config(tmp_path, doc)
    assert run_cli("sweep", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


def test_sweep_rejects_unknown_grid_param(tmp_path):
    doc = sweep_doc(grid={"param": "eta0", "values": [0.1]})
    cfg = write_config(tmp_path, doc)
    assert run_cli("sweep", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT


@pytest.mark.parametrize(
    "overrides",
    [
        {"iterations": 0},
        # the training pool holds 60 rows
        {"optimizer": {"method": "fad", "eta0": 0.1, "rho0": 0.1, "batch_size": 500}},
    ],
    ids=["zero_iterations", "batch_larger_than_pool"],
)
def test_sweep_config_problem_exits_2_without_a_table(tmp_path, overrides):
    cfg = write_config(tmp_path, sweep_doc(**overrides))
    assert run_cli("sweep", "--config", cfg, "--out-dir", str(tmp_path)) == CONFIG_EXIT
    assert not (tmp_path / "sweep.csv").exists()


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
