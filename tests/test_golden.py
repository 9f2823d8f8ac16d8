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
    Batch,
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
        "sgd": "75b90ade0a88a3c8fbb26e67b13251741dbeff2796cec5f7f5322943abc7c17d",
        "momentum_sgd": "c0ae36c25493a956004964230c3e460e65e14269f6e678c7ea07e064e9b42f6c",
        "adam": "9586436cbf6bf95d522e387f41b75917259ee937b626bd134ae8e36dac0882fa",
        "adamw": "798953b9776835ee2f4fdbbda9f7096f12432a4c0f5086079e484fca00defb6c",
        "sam": "24389bfe23c15d7e7ab37de5e59102d629ca03f858f5b27fb90a56f60bde8d65",
        "gam": "556c09d15290f94dbec46e7ad4d846b236b466322b67e0ccb4e6bcb5a8e57116",
        "fad": "f3e804733fa9e216ced78dde86300e844dc039f41ff7158062473564577608bc",
    },
    "inverse_sqrt": {
        "sgd": "4e363c59e5b89689bf1b915f084093d76dc19218ca1afa35115a347e3b30fdbe",
        "momentum_sgd": "d07b4377ad807fc1f369dda0b130de2149d34111b74cbc99bd58995fa228200d",
        "adam": "4808b8e52acc4400bf9c84a03d178d846d654903b90e42f33174a65a69b09e62",
        "adamw": "cd4f0a97171b160d5ab40ce4fa2735f8db0b530efaa53a859dee1cd2a423db63",
        "sam": "e4aad48cfd42057ebeecc431550af339ac04fd52f91243f6b1a04942fffa13c6",
        "gam": "bbcf73d435b0f85742188d03ee6e17e1e16c79a99d53bf4cd29efe071fddb30a",
        "fad": "11579bda59b71201a4780ef051cc4bce64e139d65d56a81fa9a4ba83abc94dd2",
    },
}

BENCH_HASHES = {
    "bench_table.csv": "3ee5c192e5daf4efd297407cdf4c0a2d71fdaf144121d8aea3722ef52acb341c",
    "bench_hparams.json": "4ebf4bdfe62c60fc51c832f9f673986035df8a45632fc6ee17434062d5088921",
    "bench.json": "fda7ae5263d9c55c6dfb8fce363a7b7f93a83f1be6115cc25a89b96f81db6638",
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
    ("readme", "full"): "57e28477c4101950b191d2cad4c69a1b2f4ff95d30baa6250e4c26231837a34e",
    ("readme", "repeats"): "470f87a402886436d980d9c087873da1019565644a3c911325724b2b16bf3d70",
    ("ten_class", "full"): "174a10f76b06a6287277bf6a504b5c46490adf489615cf6a01d31f916ad41c6d",
    ("ten_class", "repeats"): "919bd920e2f6b9a86c0c7f96752f7abbc83bfb36de941a7aa6fb313e0fde44fd",
    ("width_one", "full"): "b7a6305017f396d92810a103c48ffa92d5148579aa42d2ed7727bfd0a4b8f5fd",
    ("width_one", "repeats"): "05fe3fcb94854561cf5d9afbb0702dff854bfb5db46c10d7b831a04a012c60d8",
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
        batch = Batch(rng.integers(0, obj.dataset.n, size=obj.dataset.n + 7))
    loss, grad = eval_loss(obj, theta, batch), eval_grad(obj, theta, batch)
    parts = [np.float64(eval_loss(obj, theta, batch)), eval_grad(obj, theta, batch)]
    data = b"".join(np.asarray(x).tobytes() for x in [*parts, np.float64(loss), grad])
    assert sha256(data) == ORACLE_HASHES[(model, variant)]
    # both gradients took their loss call's forward pass; a cold one is the same
    assert np.array_equal(eval_grad(obj, theta, batch), grad)


REPORT_HASHES = {
    ("init", "full"): "8130b5cf680d5554766bb51621b06556414fdf69d35e792293e3a98ea7091b43",
    ("init", "small"): "664e0965f8373af0c09cebe75c3fb1ba9d0c5866caa26bbe686a36d2781f5c9c",
    ("fad", "full"): "e73bad359b6bb6b2e393d32f6b683437bf42036c3c952775fbf1cc5bc4275f98",
    ("fad", "small"): "f6e9a254a59626fff09054f1ca7f27556f2547ad6f670a147a5eb70948ce9f0d",
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
    "mlp": "b842b80172b31591588be9e91343b639b28cd6e3c15be43bf6fcb90ed4a32312",
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
    "quadratic": "c49862f8c1f7ecc205b251ade835eed71e543e3e8a8333cb3c382a615e974db9",
    "mlp": "41a7e09ab7f8cb0bff4b4bc5c636976fd33682d5cb8713d7a0ced99637689d4c",
}


@pytest.mark.parametrize("name", sorted(FLATNESS_DOCS))
def test_flatness_command_file_is_unchanged(tmp_path, name):
    cfg = tmp_path / "flatness.json.in"
    cfg.write_text(json.dumps(FLATNESS_DOCS[name]))
    assert main(["flatness", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert sha256((tmp_path / "flatness.json").read_bytes()) == FLATNESS_HASHES[name]
