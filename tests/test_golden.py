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
        "sgd": "1df414a1b644833d458335564f0d62122e6180c3a392c270029c640ed41a7f06",
        "momentum_sgd": "7a1f2415e6fefdd04637162f0cbbe93c2cd8570561c8af70e3c193aa9e46e0f4",
        "adam": "596ef1b47956d90fa06dc02b1153d9832c50b54cbffc7948889b546cecc906d5",
        "adamw": "e45958d60d32e621727aba1985edb55c16ef27a516dc05ab1e7bb12681b51a8c",
        "sam": "5f1922e27a28b0f8908b2f3533c81cff68d81ad5c40da110b4c5570c756cfca0",
        "gam": "853163b307040db21a148a1cf743629e70b2b39b8002152c45cc228e30185217",
        "fad": "35e6453c7b646cf44951345d595d6ce3b984979b192dd6155b2655d3c9d97193",
    },
    "inverse_sqrt": {
        "sgd": "a0590fa04c29d1bf1bea20c64815a3d55ed78b4faf0d8e8e8ef8d92253e1d91e",
        "momentum_sgd": "c7ecab0e6a36b9e028bf7a47768f2675702152b10c48af3741fa620e8686bd8f",
        "adam": "ac258ae22eb084be4d28a5423dc645863bd00b7449cfb08c91b917e62a688972",
        "adamw": "7017799236932fa87dc5226a7b29c59c203242ebb1c4d86d730bc9f734d1b059",
        "sam": "ca1e740b7ad0241e5a80a33d28adb23317545297fed2ff53f43f5141d9f0adbb",
        "gam": "c5f7097893563dc3503ae93ddb3af9b7133651db9aa6abc6fd68741133bffc77",
        "fad": "f51138322007c03a93056a71c93b4864c59cb6ee8f310d636d9e0253917963c1",
    },
}

BENCH_HASHES = {
    "bench_table.csv": "3ee5c192e5daf4efd297407cdf4c0a2d71fdaf144121d8aea3722ef52acb341c",
    "bench_hparams.json": "4ebf4bdfe62c60fc51c832f9f673986035df8a45632fc6ee17434062d5088921",
    "bench.json": "ebad791d3c2284b44dde7ffd7437da704312fd1ef3a9d68c3d1dee80dd98a7ed",
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
    ("readme", "full"): "0a352a0de6235360f3e3d4f72db84103542ed84db62017ce8c067ae49dea1ce3",
    ("readme", "repeats"): "41ee06994f75bf82f197267dd849d4e601aee866f25738a3ef59e9f381e8721c",
    ("ten_class", "full"): "0b4861117e3f66441052f4729f7fa506934b0870dac1f2058a75e275467948ff",
    ("ten_class", "repeats"): "213e7589005ce54c76b7a3d0d3a41ab7a008b22051d91c4b622a152a837d1cea",
    ("width_one", "full"): "0c867de76a236f954e96f1cd7220e9f61bb7e68b83efe5540332776a000dca43",
    ("width_one", "repeats"): "378d529eb1818e9ac56c01b1d155afa0c97c921199b7746a4b59c9c5144faa42",
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
    ("init", "full"): "8a675f2a15f0795423980d3cbe012ee1d0288287614030f180a77d370fbef800",
    ("init", "small"): "09b57f2c97f7cdf7d1c33faea5ddccc5ad92423ce2e3b7f300efdea2a786d671",
    ("fad", "full"): "8260ab4c12a073e0b9f4722631fac146b8833c77f731233f56b80168901386a6",
    ("fad", "small"): "39f33181227a8c9fbbafe063d7626e3f3a61be7fac5dac67045429227eaad84b",
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
    "mlp": "eb144ca1b23cc1afc16d2500419e2bf86263369e58838c5c12d0af18bd58ab7d",
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
    "mlp": "73df22ec959f40a3c0e1876026dc4a9e6891e5c199397ca3b552f64cd23f14dc",
}


@pytest.mark.parametrize("name", sorted(FLATNESS_DOCS))
def test_flatness_command_file_is_unchanged(tmp_path, name):
    cfg = tmp_path / "flatness.json.in"
    cfg.write_text(json.dumps(FLATNESS_DOCS[name]))
    assert main(["flatness", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert sha256((tmp_path / "flatness.json").read_bytes()) == FLATNESS_HASHES[name]
