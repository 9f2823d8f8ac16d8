"""Tests of the benchmark itself: exact traced call counts on the current code,
and checks that catch a wrong reference value.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from flatmin import flatness, objectives, optimizers  # noqa: E402
from flatmin.flatness import FlatnessBudget  # noqa: E402

TINY_SPEC = {"n_domains": 3, "per_domain_n": 30, "num_classes": 3, "noise": 0.4}
TINY_PROTOCOL = {
    "n_hparam_trials": 1,
    "seeds_per_trial": 1,
    "iterations": 5,
    "report_restarts": 1,
    "report_ascent_steps": 2,
    "report_probes": 2,
    "report_k_eigs": 1,
}


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def children(spans, index):
    return [s[tracing.NAME] for s in spans if s[tracing.PARENT] == index]


def small_objective():
    return workloads.readme_objective(0, 1)


def step_children(t, method):
    return [
        sorted(children(t.spans, i))
        for i, s in enumerate(t.spans)
        if s[tracing.NAME] == tracing.STEP_PREFIX + method
    ]


def test_sgd_step_is_one_batch_one_loss_one_grad(tracer):
    obj = small_objective()
    cfg = workloads.TRAIN_CONFIGS["sgd"]
    with tracer.op(0):
        optimizers.run_training(obj, obj.init_params(np.random.default_rng(0)), cfg, 3)
    expected = ["optimizers.eval_grad", "optimizers.eval_loss", "optimizers.sample_batch"]
    assert step_children(tracer, "sgd") == [expected] * 3
    m = tracing.layer_metrics(tracer.spans)
    assert m["objectives.grad_calls_per_op"] == 3
    assert m["objectives.loss_calls_per_op"] == 3
    assert m["objectives.batch_draws_per_op"] == 3
    assert m["optimizers.step_us.sgd"] > 0 and m["optimizers.step_us.fad"] == 0


def test_fad_step_is_one_loss_and_four_grads(tracer):
    obj = small_objective()
    cfg = workloads.TRAIN_CONFIGS["fad"]
    assert cfg.fad_ratio == 1.0
    with tracer.op(0):
        optimizers.run_training(obj, obj.init_params(np.random.default_rng(0)), cfg, 2)
    expected = ["optimizers.eval_grad"] * 4 + ["optimizers.eval_loss", "optimizers.sample_batch"]
    assert step_children(tracer, "fad") == [expected] * 2


def test_hvp_is_two_grads(tracer):
    obj = small_objective()
    theta = obj.init_params(np.random.default_rng(0))
    with tracer.op(0):
        flatness.hvp_fd(obj, theta, np.ones(obj.dim))
        flatness.power_iteration_lambda_max(obj, theta, max_iter=5)
    hvps = [i for i, s in enumerate(tracer.spans) if s[tracing.NAME] == "flatness.hvp_fd"]
    assert len(hvps) == 6
    assert all(children(tracer.spans, i) == ["objectives.eval_grad"] * 2 for i in hvps)
    m = tracing.layer_metrics(tracer.spans)
    assert m["objectives.hvp_calls_per_op"] == 6
    assert m["objectives.grad_calls_per_op"] == 12
    assert m["flatness.eig_grad_evals"] == 10
    assert m["flatness.eig_converged_frac"] == 0.0


def test_uninstall_restores_every_function():
    points = tracing.wrap_points()
    before = [tracing._get(owner, key) for owner, key, _ in points]
    t = tracing.Tracer()
    t.install()
    during = [tracing._get(owner, key) for owner, key, _ in points]
    t.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert [tracing._get(owner, key) for owner, key, _ in points] == before


def test_bench_cli_counts_runs_and_reports(tmp_path):
    wl = workloads.BenchCli(0, tmp_path, spec=TINY_SPEC, protocol=TINY_PROTOCOL, n_configs=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            code, out_dir = wl.run(0)
    finally:
        tracer.uninstall()
    assert code == 0
    assert wl.verify(0, (code, out_dir))[0] is None
    m = tracing.layer_metrics(tracer.spans, wl.bytes_written)
    # 3 methods x 3 held-out domains, each 1 trial + 1 retrain, 1 report
    assert m["shiftbench.train_runs_per_op"] == 18
    assert m["flatness.eig_converged_frac"] > 0
    assert 0 < m["shiftbench.train_frac"] < 1 and 0 < m["shiftbench.report_frac"] < 1
    assert m["cli.self_ms"] > 0 and m["cli.bytes_written"] > 0


def measure(wl, cycles=2, traced=False):
    """Errors of ``cycles`` untraced cycles, plus as many traced ones if asked."""
    digests: dict = {}
    errors = []
    for _ in range(cycles):
        outputs: list = []
        run.run_cycle(wl, [], outputs)
        errors += run.verify_all(wl, outputs, digests)[0]
        if traced:
            t = tracing.Tracer()
            t.install()
            try:
                outputs = []
                run.run_cycle(wl, [], outputs, t)
            finally:
                t.uninstall()
            errors += run.verify_all(wl, outputs, digests)[0]
    return errors


def error_rate(errors):
    return sum(e is not None for e in errors) / len(errors)


def test_train_steps_checks_catch_a_wrong_reference(tmp_path):
    wl = workloads.TrainSteps(0, tmp_path, iterations=20, n_inits=1)
    assert error_rate(measure(wl, traced=True)) == 0
    wl.refs[3] = 0.0  # no loss is below zero
    assert error_rate(measure(wl)) == pytest.approx(1 / 7)


def test_flatness_checks_catch_a_wrong_reference(tmp_path):
    wl = workloads.FlatnessReports(
        0, tmp_path, train_iterations=200, budget=FlatnessBudget(1, 2), n_probes=16, n_sets=1
    )
    assert error_rate(measure(wl, cycles=1)) == 0
    lam, trace = wl.refs[0]
    wl.refs[0] = (lam * 1.01, trace)
    assert error_rate(measure(wl, cycles=1)) == 0.25


def test_bench_cli_checks_catch_a_wrong_reference(tmp_path):
    wl = workloads.BenchCli(0, tmp_path, spec=TINY_SPEC, protocol=TINY_PROTOCOL, n_configs=1)
    assert error_rate(measure(wl)) == 0
    wl.refs[0] = dict(wl.refs[0], seed=wl.refs[0]["seed"] + 1)
    assert error_rate(measure(wl)) == 1.0


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == tracing.PER_LAYER
