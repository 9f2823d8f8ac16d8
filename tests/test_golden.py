"""Golden hashes of trajectories and bench artifacts.

A refactor of the step rules or of the config path must leave every number
the package produces bit for bit as it was. These tests pin sha256 hashes of

* the per-step log rows (without the wall-clock column) and the final point
  of all seven methods on the README task, once with constant schedules and
  once with ``inverse_sqrt`` schedules, coupled weight decay and
  ``fad_ratio = 0.5``;
* the files of one tiny ``flatmin bench`` run;
* flatness reports (``r0``, ``r1``, top eigenvalues and trace) on the README
  task at an init point and at a fad-trained point, once at the default
  budget and once with a small budget, both on full data;
* the outputs of ``eval_loss`` and ``eval_grad``, twice each,
  for the README MLP, a 10-class MLP and an MLP with a width-1 hidden layer,
  on full data and on a batch that repeats rows and is longer than the data;
* the bytes of ``convergence.json`` from ``flatmin converge`` on a quadratic
  and on the README task with fad and ``inverse_sqrt`` schedules, and of
  ``flatness.json`` from ``flatmin flatness`` on a quadratic at a given
  ``theta`` and on the README task at its init point with a small budget
  (neither file holds timing, so the whole file is hashed).

Floating-point results depend on the numpy/BLAS build, so on a different
build these hashes may need to be taken again from a known-good commit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from flatmin.cli import main
from flatmin.flatness import FlatnessBudget, build_flatness_report
from flatmin.objectives import (
    MLPObjective,
    eval_grad,
    eval_loss,
)
from flatmin.optimizers import METHODS, OptimizerConfig, run_training
from flatmin.shiftbench import DomainSpec, generate_domains, pool_domains

ITERATIONS = 30

CONSTANT = {
    "sgd": OptimizerConfig("sgd", eta0=0.5, batch_size=32),
    "momentum_sgd": OptimizerConfig("momentum_sgd", eta0=0.1, momentum=0.9, batch_size=32),
    "adam": OptimizerConfig("adam", eta0=0.01, batch_size=32),
    "adamw": OptimizerConfig("adamw", eta0=0.01, weight_decay=1e-3, batch_size=32),
    "sam": OptimizerConfig("sam", eta0=0.5, rho0=0.1, batch_size=32),
    "gam": OptimizerConfig("gam", eta0=0.5, rho0=0.2, beta=0.1, batch_size=32),
    "fad": OptimizerConfig("fad", eta0=0.5, rho0=0.2, alpha=0.5, beta=0.1, batch_size=32),
}

SCHEDULED = {
    method: replace(
        cfg,
        schedule="inverse_sqrt",
        rho0=0.2,
        weight_decay=1e-2,
        fad_ratio=0.5,
        momentum=0.9 if method == "momentum_sgd" else 0.0,
    )
    for method, cfg in CONSTANT.items()
}

TRAJECTORY_HASHES = {
    "constant": {
        "sgd": "8235a713037246f69829542ce578370500ae9c6e024994e70bc2b2b1b93387fa",
        "momentum_sgd": "4ec9af326526dcac0f81837862bfc28b8dd6507a5ddee9e22899e9fa656d7800",
        "adam": "59367ac67952445bf3d8ce71b4f546a72919ee678256483b75dbd39301f487e6",
        "adamw": "bb0b9f47bb9d2658621b95015dbadceceaeeee4750c20f33a54774738d45ed9f",
        "sam": "8e017564a7cff698705957acbe3435fb9a2d199d4e96c53d25522dc893c6fe6e",
        "gam": "4e15ce6bac0b92d9714ab87ba1f16628ceadd4be79d2f11eeabd3c3c84069f2e",
        "fad": "e4d8cf11f0253e88dfd2e43d387fbaf6bd9f0820bf167a9460714ddbc25f079e",
    },
    "inverse_sqrt": {
        "sgd": "f5d4fd893908b6464a12156170770a8e0059f99b694a795fd5b4d45e10e32366",
        "momentum_sgd": "c02d3f030f510af495a4c76c08b81ede096503b80a9cff18bde93c4f48550b29",
        "adam": "0230ead1bbc908d2a3ee2e989523fdc3a56cd81b0ae71f51702f2f86ad6aedf8",
        "adamw": "035527114c2c33fc81521363c4a5e0faca3486994e5d40658b1915de47c75565",
        "sam": "12d40cbc2b7a2fa052cd24a9101eb520f4e993f6d2c2723330347121640f9c0b",
        "gam": "4b158c24896e4db7523650ededb63d1cbefc3fd62b030ad876f9a683902c2167",
        "fad": "4131bb620bc0c79778c732761dabcb937a91de5429ef01c7e0d980c96553772f",
    },
}

BENCH_HASHES = {
    "bench_table.csv": "3ee5c192e5daf4efd297407cdf4c0a2d71fdaf144121d8aea3722ef52acb341c",
    "bench_hparams.json": "4ebf4bdfe62c60fc51c832f9f673986035df8a45632fc6ee17434062d5088921",
    "bench.json": "ca518e2c0ac78ca859c07954b0c93d56729dc878970e11b170b80badd985deb7",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def readme_task():
    md = generate_domains(DomainSpec(), 11)
    obj = MLPObjective((2, 16, 3), pool_domains(md, tuple(range(md.n_domains))))
    return obj, obj.init_params(np.random.default_rng([3, 2]))


def trajectory_hash(obj, theta0, config) -> str:
    record = run_training(obj, theta0, config, ITERATIONS, seed=3)
    rows = [{k: v for k, v in row.items() if k != "wall_ms"} for row in record.rows]
    text = json.dumps(rows, sort_keys=True).encode()
    return sha256(text + record.theta_final.tobytes())


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("schedule,configs", [("constant", CONSTANT), ("inverse_sqrt", SCHEDULED)])
def test_trajectory_is_unchanged(readme_task, schedule, configs, method):
    obj, theta0 = readme_task
    assert trajectory_hash(obj, theta0, configs[method]) == TRAJECTORY_HASHES[schedule][method]


BENCH_DOC = {
    "seed": 5,
    "data": {
        "spec": {"n_domains": 3, "per_domain_n": 30, "num_classes": 3, "noise": 0.4},
        "seed": 7,
    },
    "methods": ["momentum_sgd", "fad"],
    "protocol": {
        "n_hparam_trials": 2,
        "seeds_per_trial": 2,
        "iterations": 15,
        "report_restarts": 2,
        "report_ascent_steps": 3,
        "report_probes": 4,
        "report_k_eigs": 1,
        "search": {"log2_batch": [3.0, 4.0], "fad_beta": [0.1, 0.5]},
    },
}


def bench_json_hash(data: bytes) -> str:
    """Hash of bench.json as canonical JSON."""
    doc = json.loads(data)
    return sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def test_bench_files_are_unchanged(tmp_path):
    cfg = tmp_path / "bench.json.in"
    cfg.write_text(json.dumps(BENCH_DOC))
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert sha256((out / "bench_table.csv").read_bytes()) == BENCH_HASHES["bench_table.csv"]
    assert sha256((out / "bench_hparams.json").read_bytes()) == BENCH_HASHES["bench_hparams.json"]
    assert bench_json_hash((out / "bench.json").read_bytes()) == BENCH_HASHES["bench.json"]


ORACLE_HASHES = {
    ("readme", "full"): "32c4da07206bc99cccd5e833304fbd1a8c9654d16fdf9e59a2404d44d7ab9e65",
    ("readme", "repeats"): "18a430bc13249248f851abf8c34f84633be2fe381c37c50032749d67c87388dd",
    ("ten_class", "full"): "12962f34a7b94db2b0708350de682f465cc64463b506242b04e8f841f9d93c5e",
    ("ten_class", "repeats"): "3eb56a6d24f9392c3a92087da0a62dbc50a466259a51be52a70d8a25229ebe0b",
    ("width_one", "full"): "3e9739d30789a31d43af0a67b949f628889c2a7759b80dd70ceb4c0555c88c96",
    ("width_one", "repeats"): "3dbac23f1f0ecfd89555d0ce6fa85ad28c479017794de0e708f81101ab7fb19b",
}


@pytest.fixture(scope="module")
def oracle_mlps(readme_task):
    readme, _ = readme_task
    ten = generate_domains(DomainSpec(num_classes=10, per_domain_n=100, feature_dim=4), 12)
    return {
        "readme": readme,
        "ten_class": MLPObjective((4, 12, 10), pool_domains(ten, (0, 1, 2))),
        "width_one": MLPObjective((2, 8, 1, 3), readme.dataset),
    }


@pytest.mark.parametrize("variant", ["full", "repeats"])
@pytest.mark.parametrize("model", ["readme", "ten_class", "width_one"])
def test_oracle_outputs_are_unchanged(oracle_mlps, model, variant):
    obj = oracle_mlps[model]
    rng = np.random.default_rng(8)
    theta = 0.5 * rng.standard_normal(obj.dim)
    batch = None
    if variant == "repeats":
        batch = rng.integers(0, obj.dataset.n, size=obj.dataset.n + 7)
    loss, grad = eval_loss(obj, theta, batch), eval_grad(obj, theta, batch)
    parts = [np.float64(eval_loss(obj, theta, batch)), eval_grad(obj, theta, batch)]
    data = b"".join(np.asarray(x).tobytes() for x in [*parts, np.float64(loss), grad])
    assert sha256(data) == ORACLE_HASHES[(model, variant)]
    # both gradients took their loss call's forward pass; a cold one is the same
    assert np.array_equal(eval_grad(obj, theta, batch), grad)


REPORT_HASHES = {
    ("init", "full"): "d77f744439eff5792192c9ac8ba3f2f77c512606d91f391cc4458f2367f9fe59",
    ("init", "small"): "1045b1ef996a577472b2897991ca1aaa010e7a8e0f977ccc564f6da741450bce",
    ("fad", "full"): "3dd4da5a0fbf8dd36ba87390bac6871fde2572ab1ab5f2cbbd12d00f4d30f45a",
    ("fad", "small"): "8467ac3bd41dc0f38507882446341ba6130fbee5195cfc0e83b50c0d2945852f",
}


@pytest.fixture(scope="module")
def report_points(readme_task):
    obj, theta0 = readme_task
    trained = run_training(obj, theta0, CONSTANT["fad"], 200, seed=3).theta_final
    return {"init": theta0, "fad": trained}


def report_hash(obj, theta, variant) -> str:
    if variant == "full":
        report = build_flatness_report(obj, theta, rho=0.1, alpha=0.5, seed=4)
    else:
        report = build_flatness_report(
            obj, theta, rho=0.1, alpha=0.5, budget=FlatnessBudget(4, 10), n_probes=16, seed=4
        )
    return sha256(json.dumps(report.to_dict(), sort_keys=True).encode())


@pytest.mark.parametrize("variant", ["full", "small"])
@pytest.mark.parametrize("point", ["init", "fad"])
def test_flatness_report_is_unchanged(readme_task, report_points, point, variant):
    obj, _ = readme_task
    assert report_hash(obj, report_points[point], variant) == REPORT_HASHES[(point, variant)]


CONVERGE_DOCS = {
    "quadratic": {
        "seed": 0,
        "iterations": 120,
        "objective": {"kind": "quadratic", "diag": [2.0, 8.0]},
        "optimizer": {"method": "fad", "eta0": 0.05, "rho0": 0.1, "schedule": "inverse_sqrt"},
    },
    "mlp": {
        "seed": 3,
        "iterations": 300,
        "objective": {"kind": "mlp", "hidden_units": 16},
        "data": {
            "spec": {"n_domains": 3, "per_domain_n": 150, "num_classes": 3, "noise": 0.4},
            "seed": 11,
        },
        "optimizer": {
            "method": "fad", "eta0": 0.5, "rho0": 0.2, "alpha": 0.5, "beta": 0.1,
            "batch_size": 32, "schedule": "inverse_sqrt",
        },
    },
}

CONVERGE_HASHES = {
    "quadratic": "6860919394f3ff14dcb69fd7cc7bfb988141b484c5706a95b36b18720614c798",
    "mlp": "67959deb7fcc0a2186cec7f638b0da0700745d38b81d7eca51affd59af6c0a1e",
}


@pytest.mark.parametrize("name", sorted(CONVERGE_DOCS))
def test_convergence_report_is_unchanged(tmp_path, name):
    cfg = tmp_path / "converge.json.in"
    cfg.write_text(json.dumps(CONVERGE_DOCS[name]))
    assert main(["converge", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert sha256((tmp_path / "convergence.json").read_bytes()) == CONVERGE_HASHES[name]


FLATNESS_DOCS = {
    "quadratic": {
        "seed": 1,
        "objective": {"kind": "quadratic", "diag": [2.0, 8.0]},
        "theta": [0.3, -0.2],
        "rho": 0.1,
        "alpha": 0.5,
    },
    "mlp": {
        "seed": 3,
        "objective": {"kind": "mlp", "hidden_units": 16},
        "data": {
            "spec": {"n_domains": 3, "per_domain_n": 150, "num_classes": 3, "noise": 0.4},
            "seed": 11,
        },
        "rho": 0.1,
        "alpha": 0.5,
        "n_probes": 8,
        "budget": {"n_random": 2, "n_ascent_steps": 5},
    },
}

FLATNESS_HASHES = {
    "quadratic": "cddd3b0b7713162a1be560433c95232893756bebcfb737c672ac76e69d94a3d2",
    "mlp": "900ab056d378cb9a96744107ad51996eeae18cdb11991ad4dc8980d959a83f22",
}


@pytest.mark.parametrize("name", sorted(FLATNESS_DOCS))
def test_flatness_command_file_is_unchanged(tmp_path, name):
    cfg = tmp_path / "flatness.json.in"
    cfg.write_text(json.dumps(FLATNESS_DOCS[name]))
    assert main(["flatness", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert sha256((tmp_path / "flatness.json").read_bytes()) == FLATNESS_HASHES[name]
