"""Optimizer step rules: worked example, reduction identities, run harness.

The flatness-aware step is pinned against values worked by hand with exact
arithmetic on H = diag(2, 8) at theta = (1, 1), rho = 0.1, xi = 0. Everything
downstream (the log rows, the training loop, the convergence report) is
checked for determinism and for the exact batch/stream discipline the log
format promises.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin import optimizers
from flatmin.errors import ConfigError, DimensionError, InsufficientDataError, NumericalError
from flatmin.objectives import (
    Dataset,
    MLPObjective,
    QuadraticObjective,
    RosenbrockObjective,
    eval_grad,
    eval_loss,
    random_spd_matrix,
)
from flatmin.optimizers import (
    LOG_COLUMNS,
    METHODS,
    SCHEDULES,
    OptimizerConfig,
    OptimizerState,
    convergence_check,
    run_training,
    schedule_value,
    step,
)

# Hand-worked single step on H = diag(2, 8), theta = (1, 1), rho = 0.1, xi = 0.
# g0 = (2, 8); ascent by rho * g0/|g0| gives g1; h0 = g1 - g0; second ascent
# along h0 gives g2; third ascent from there along g2 gives g3; h1 = g3 - g2.
WORKED = {
    "g0": np.array([2.0, 8.0]),
    "g1": np.array([2.0485071250072666, 8.776114000116266]),
    "h0": np.array([0.048507125007266616, 0.7761140001162659]),
    "g2": np.array([2.012475657231036, 8.798442062786311]),
    "g3": np.array([2.057070166448135, 9.578301842466592]),
    "h1": np.array([0.04459450921709873, 0.7798597796802813]),
    "delta_a05_b01": np.array([2.0046550817112183, 8.077798688989827]),
    "delta_a0_b1": np.array([2.0445945092170987, 8.779859779680281]),
}


def fad_config(**overrides):
    base = dict(
        method="fad",
        eta0=0.1,
        rho0=0.1,
        alpha=0.5,
        beta=0.1,
        xi=0.0,
        fad_ratio=1.0,
    )
    base.update(overrides)
    return OptimizerConfig(**base)


def tiny_mlp(seed=0, n=24):
    rng = np.random.default_rng(seed)
    ds = Dataset(
        rng.standard_normal((n, 2)),
        rng.integers(3, size=n),
        np.zeros(n, dtype=np.int64),
    )
    return MLPObjective((2, 4, 3), ds)


def recorded_grads(monkeypatch):
    """Wrap ``optimizers.eval_grad``; the list it returns gets a copy of every
    gradient the step evaluates, in call order (g0, g1, g2, g3 for fad)."""
    grads = []

    def record(*args):
        g = eval_grad(*args)
        grads.append(g.copy())
        return g

    monkeypatch.setattr(optimizers, "eval_grad", record)
    return grads


def fad_delta(grads, cfg):
    # the fad direction from the recorded gradients, in the step's own order
    g0, g1, g2, g3 = grads
    return g0 + cfg.beta * (cfg.alpha * (g1 - g0) + (1.0 - cfg.alpha) * (g3 - g2))


# ------------------------------------------------------ worked fad example


def test_fad_step_matches_hand_computed_intermediates(monkeypatch):
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([1.0, 1.0])
    cfg = fad_config()
    grads = recorded_grads(monkeypatch)
    theta1, columns = step(obj, theta, OptimizerState.fresh(0), cfg)
    assert len(grads) == 4
    for name, g in zip(("g0", "g1", "g2", "g3"), grads):
        np.testing.assert_allclose(g, WORKED[name], atol=1e-12)
    for name in ("g0", "h0", "h1"):
        expected = np.linalg.norm(WORKED[name])
        np.testing.assert_allclose(columns[f"norm_{name}"], expected, atol=1e-12)
    delta = (theta - theta1) / cfg.eta0
    np.testing.assert_allclose(delta, WORKED["delta_a05_b01"], atol=1e-12)
    expected = np.linalg.norm(WORKED["delta_a05_b01"])
    np.testing.assert_allclose(columns["norm_delta"], expected, atol=1e-12)
    assert columns["fad_applied"] == 1


def test_fad_step_applies_the_update(monkeypatch):
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([1.0, 1.0])
    cfg = fad_config()
    grads = recorded_grads(monkeypatch)
    theta1, _ = step(obj, theta, OptimizerState.fresh(0), cfg)
    np.testing.assert_allclose(theta1, theta - cfg.eta0 * fad_delta(grads, cfg), atol=1e-15)


def test_fad_delta_combinations():
    # delta = g0 + h1 pins h1, and delta = g0 + h0 = g1 pins h0
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([1.0, 1.0])
    cfg = fad_config(alpha=0.0, beta=1.0)
    theta1, _ = step(obj, theta, OptimizerState.fresh(0), cfg)
    np.testing.assert_allclose((theta - theta1) / cfg.eta0, WORKED["delta_a0_b1"], atol=1e-12)
    # alpha=1, beta=1 collapses to g0 + h0 = g1
    cfg = fad_config(alpha=1.0, beta=1.0)
    theta1, _ = step(obj, theta, OptimizerState.fresh(0), cfg)
    np.testing.assert_allclose((theta - theta1) / cfg.eta0, WORKED["g1"], atol=1e-12)


# ------------------------------------------------------ reduction identities


def random_instance(rng):
    """One (objective, theta, batched?) tuple drawn from a small family."""
    kind = rng.integers(3)
    if kind == 0:
        dim = int(rng.integers(2, 9))
        obj = QuadraticObjective(random_spd_matrix(dim, rng))
        return obj, rng.standard_normal(dim), None
    if kind == 1:
        dim = int(rng.integers(2, 6))
        return RosenbrockObjective(dim), rng.uniform(-1.0, 1.5, size=dim), None
    obj = tiny_mlp(seed=int(rng.integers(1000)))
    return obj, rng.standard_normal(obj.dim) * 0.5, 8


def paired_step(obj, theta, batch_size, cfg_a, cfg_b, seed):
    cfg_a = OptimizerConfig(**{**cfg_a.__dict__, "batch_size": batch_size})
    cfg_b = OptimizerConfig(**{**cfg_b.__dict__, "batch_size": batch_size})
    ta, _ = step(obj, theta, OptimizerState.fresh(seed), cfg_a)
    tb, _ = step(obj, theta, OptimizerState.fresh(seed), cfg_b)
    return np.abs(ta - tb).max()


REDUCTIONS = [
    (
        "fad(beta=0) == sgd",
        lambda: fad_config(beta=0.0),
        lambda: OptimizerConfig(method="sgd", eta0=0.1),
    ),
    (
        "fad(alpha=0) == gam",
        lambda: fad_config(alpha=0.0, beta=0.3),
        lambda: fad_config(method="gam", alpha=0.9, beta=0.3),
    ),
    (
        "fad(alpha=1, beta=1) == sam",
        lambda: fad_config(alpha=1.0, beta=1.0),
        lambda: OptimizerConfig(method="sam", eta0=0.1, rho0=0.1, xi=0.0),
    ),
    (
        "momentum(0) == sgd",
        lambda: OptimizerConfig(method="momentum_sgd", eta0=0.1, momentum=0.0),
        lambda: OptimizerConfig(method="sgd", eta0=0.1),
    ),
    (
        "adamw(wd=0) == adam",
        lambda: OptimizerConfig(method="adamw", eta0=0.01, weight_decay=0.0),
        lambda: OptimizerConfig(method="adam", eta0=0.01),
    ),
]


@pytest.mark.parametrize(
    "label,make_a,make_b",
    REDUCTIONS,
    # stable ids: each side is named "<method>_step" after the method its config selects
    ids=[
        f"{label}-<lambda>-{a().method}_step-<lambda>-{b().method}_step"
        for label, a, b in REDUCTIONS
    ],
)
def test_reduction_identity(label, make_a, make_b):
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(30):
        obj, theta, batch_size = random_instance(rng)
        worst = max(worst, paired_step(obj, theta, batch_size, make_a(), make_b(), seed=i))
    assert worst < 1e-12, f"{label}: max deviation {worst:.3e}"


def final_point(obj, theta, batch_size, cfg, seed):
    """Final point of 50 steps of ``cfg``, or None when the run diverges."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            record = run_training(obj, theta, replace(cfg, batch_size=batch_size), 50, seed=seed)
    except NumericalError:
        return None
    return record.theta_final


@pytest.mark.parametrize(
    "label,make_a,make_b", REDUCTIONS, ids=[label for label, _, _ in REDUCTIONS]
)
def test_reduction_identity_holds_over_whole_runs(label, make_a, make_b):
    # fad(alpha=1, beta=1) steps along g0 + (g1 - g0), which can round one ulp
    # away from sam's g1; every other identity holds bit for bit
    tol = 1e-12 if make_b().method == "sam" else 0.0
    rng = np.random.default_rng(42)
    for i in range(30):
        obj, theta, batch_size = random_instance(rng)
        ta = final_point(obj, theta, batch_size, make_a(), seed=i)
        tb = final_point(obj, theta, batch_size, make_b(), seed=i)
        assert (ta is None) == (tb is None), f"{label}: one side of instance {i} failed"
        if ta is not None:
            np.testing.assert_allclose(ta, tb, rtol=0.0, atol=tol, err_msg=f"{label}, instance {i}")


def logged_run(obj, theta, batch_size, cfg, seed):
    """Log rows of 50 steps of ``cfg`` without their echoed or timed columns,
    and the type and message of the error that ended the run, or None."""
    rows = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = replace(cfg, batch_size=batch_size)
            run_training(obj, theta, cfg, 50, seed=seed, log_sink=rows.append)
        err = None
    except NumericalError as exc:
        err = (type(exc), str(exc))
    skip = {"method", "rho_t", "wall_ms"}
    return [{k: v for k, v in row.items() if k not in skip} for row in rows], err


@pytest.mark.parametrize("method", ["fad", "gam"])
def test_zero_beta_takes_the_sgd_path_up_to_any_failure(method):
    # a correction weighted by zero is never computed, so a diverging run
    # fails at the step and with the error sgd's does
    rng = np.random.default_rng(42)
    for i in range(30):
        obj, theta, batch_size = random_instance(rng)
        a = logged_run(obj, theta, batch_size, fad_config(method=method, beta=0.0), seed=i)
        b = logged_run(obj, theta, batch_size, OptimizerConfig("sgd", eta0=0.1), seed=i)
        assert a == b, f"instance {i}"


@st.composite
def step_instances(draw):
    """(objective, theta, batch size): a random SPD quadratic of dim 1-8, or a
    tiny MLP on n rows stepped on full data or on batches of 1, 8 or n rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 8))
        return QuadraticObjective(random_spd_matrix(dim, rng)), rng.standard_normal(dim), None
    n = draw(st.integers(8, 24))
    obj = tiny_mlp(seed=int(rng.integers(1000)), n=n)
    return obj, rng.standard_normal(obj.dim) * 0.5, draw(st.sampled_from([None, 1, 8, n]))


unit = st.floats(0.0, 1.0)
# the settings both sides of an identity share
shared_settings = st.fixed_dictionaries(
    {
        "eta0": st.floats(1e-3, 0.1),
        "rho0": st.floats(1e-3, 0.5),
        "xi": st.sampled_from([0.0, 1e-12, 1e-3]),
        "schedule": st.sampled_from(SCHEDULES),
        "weight_decay": st.sampled_from([0.0, 1e-3, 0.1]),
        "fad_ratio": unit,
    }
)


def trajectory(obj, theta, cfg, n_steps, seed):
    state = OptimizerState.fresh(seed)
    for _ in range(n_steps):
        theta, _ = step(obj, theta, state, cfg)
    return theta


@settings(max_examples=100, deadline=None)
@given(step_instances(), shared_settings, unit, st.integers(0, 2**16))
def test_zero_beta_is_sgd_on_any_instance(instance, shared, alpha, seed):
    obj, theta, batch_size = instance
    fad = OptimizerConfig("fad", alpha=alpha, beta=0.0, batch_size=batch_size, **shared)
    sgd = OptimizerConfig("sgd", batch_size=batch_size, **shared)
    assert np.array_equal(trajectory(obj, theta, fad, 3, seed), trajectory(obj, theta, sgd, 3, seed))


@settings(max_examples=100, deadline=None)
@given(step_instances(), shared_settings, unit, unit, st.integers(0, 2**16))
def test_zero_alpha_is_gam_on_any_instance(instance, shared, beta, gam_alpha, seed):
    obj, theta, batch_size = instance
    fad = OptimizerConfig("fad", alpha=0.0, beta=beta, batch_size=batch_size, **shared)
    gam = OptimizerConfig("gam", alpha=gam_alpha, beta=beta, batch_size=batch_size, **shared)
    assert np.array_equal(trajectory(obj, theta, fad, 3, seed), trajectory(obj, theta, gam, 3, seed))


@settings(max_examples=100, deadline=None)
@given(step_instances(), shared_settings, st.integers(0, 2**16))
def test_unit_alpha_and_beta_is_sam_on_any_instance(instance, shared, seed):
    # sam draws no coin, so fad must always apply its correction; g0 + (g1 - g0)
    # can round one ulp away from sam's g1
    obj, theta, batch_size = instance
    shared = {**shared, "fad_ratio": 1.0}
    fad = OptimizerConfig("fad", alpha=1.0, beta=1.0, batch_size=batch_size, **shared)
    sam = OptimizerConfig("sam", batch_size=batch_size, **shared)
    ta, tb = trajectory(obj, theta, fad, 1, seed), trajectory(obj, theta, sam, 1, seed)
    np.testing.assert_allclose(ta, tb, rtol=0.0, atol=1e-12)


# ------------------------------------------------------- stochastic skipping


def test_fad_ratio_zero_is_trace_identical_to_sgd():
    obj = tiny_mlp()
    theta0 = obj.init_params(np.random.default_rng(1))
    fad_cfg = fad_config(fad_ratio=0.0, batch_size=8)
    sgd_cfg = OptimizerConfig(method="sgd", eta0=0.1, batch_size=8)
    rec_fad = run_training(obj, theta0, fad_cfg, 50, seed=5)
    rec_sgd = run_training(obj, theta0, sgd_cfg, 50, seed=5)
    assert np.array_equal(rec_fad.theta_final, rec_sgd.theta_final)
    # method and rho_t echo the config (fad still logs its scheduled rho);
    # every dynamical column must agree exactly
    skip = {"wall_ms", "method", "rho_t"}
    for a, b in zip(rec_fad.rows, rec_sgd.rows):
        assert {k: v for k, v in a.items() if k not in skip} == {
            k: v for k, v in b.items() if k not in skip
        }
        assert a["rho_t"] == fad_cfg.rho0 and b["rho_t"] == 0.0
        assert not a["fad_applied"]


def test_fad_ratio_extremes_and_frequency():
    obj = tiny_mlp()
    theta0 = obj.init_params(np.random.default_rng(1))
    rec = run_training(obj, theta0, fad_config(fad_ratio=1.0, batch_size=8), 40, seed=0)
    assert all(r["fad_applied"] for r in rec.rows)
    rec = run_training(obj, theta0, fad_config(fad_ratio=0.5, batch_size=8), 200, seed=0)
    applied = sum(r["fad_applied"] for r in rec.rows)
    assert 60 < applied < 140  # ~5 sigma around 100


def test_fad_ratio_does_not_disturb_batch_stream(monkeypatch):
    # the skip coin must come from its own stream: whatever the ratio, the
    # same seed has to see the same batches, so g0 agrees step by step
    obj = tiny_mlp()
    theta0 = obj.init_params(np.random.default_rng(1))
    on = recorded_grads(monkeypatch)
    step(obj, theta0, OptimizerState.fresh(9), fad_config(fad_ratio=1.0, batch_size=8))
    off = recorded_grads(monkeypatch)
    step(obj, theta0, OptimizerState.fresh(9), fad_config(fad_ratio=0.0, batch_size=8))
    np.testing.assert_array_equal(on[0], off[0])


# ---------------------------------------------------------- adam and decay


def test_adam_first_step_is_signwise():
    # with fresh moments the bias-corrected first update is -eta * sign(g)
    # up to the eps in the denominator
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([-1.0, 1.0])  # gradient (-2, 8)
    cfg = OptimizerConfig(method="adam", eta0=0.1)
    theta1, _ = step(obj, theta, OptimizerState.fresh(0), cfg)
    np.testing.assert_allclose(theta1 - theta, np.array([0.1, -0.1]), atol=1e-8)


def test_adamw_decouples_weight_decay():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([1.0, -2.0])
    eta, wd = 0.01, 0.1
    plain, _ = step(
        obj, theta, OptimizerState.fresh(0), OptimizerConfig(method="adam", eta0=eta)
    )
    decayed, _ = step(
        obj,
        theta,
        OptimizerState.fresh(0),
        OptimizerConfig(method="adamw", eta0=eta, weight_decay=wd),
    )
    # adamw shrinks theta multiplicatively and uses the decay-free adam direction
    direction = (theta - plain) / eta
    np.testing.assert_allclose(decayed, theta * (1 - eta * wd) - eta * direction, atol=1e-12)


def test_coupled_weight_decay_enters_the_gradient():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([1.0, 1.0])
    cfg = OptimizerConfig(method="sgd", eta0=0.1, weight_decay=0.5)
    theta1, columns = step(obj, theta, OptimizerState.fresh(0), cfg)
    expected_g = eval_grad(obj, theta) + 0.5 * theta
    np.testing.assert_allclose(columns["norm_g0"], np.linalg.norm(expected_g), atol=1e-15)
    np.testing.assert_allclose(theta1, theta - 0.1 * expected_g, atol=1e-15)


# ----------------------------------------------------------------- schedule


def test_schedule_values():
    assert schedule_value(0.5, "constant", 17) == 0.5
    assert schedule_value(0.6, "inverse_sqrt", 1) == 0.6
    assert schedule_value(0.6, "inverse_sqrt", 4) == pytest.approx(0.3, rel=1e-15)
    assert schedule_value(0.6, "inverse_sqrt", 9) == pytest.approx(0.2, rel=1e-15)
    with pytest.raises(ConfigError):
        schedule_value(0.5, "inverse_sqrt", 0)
    with pytest.raises(ConfigError):
        schedule_value(0.5, "linear", 1)


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(method="nope", eta0=0.1)
    with pytest.raises(ConfigError):
        OptimizerConfig(method="sgd", eta0=-0.1)
    with pytest.raises(ConfigError):
        OptimizerConfig(method="fad", eta0=0.1)  # rho0 must be positive
    with pytest.raises(ConfigError):
        OptimizerConfig(method="fad", eta0=0.1, rho0=0.1, alpha=1.5)
    with pytest.raises(ConfigError):
        OptimizerConfig(method="sgd", eta0=0.1, fad_ratio=2.0)
    with pytest.raises(ConfigError):
        OptimizerConfig(method="sgd", eta0=0.1, schedule="warmup")


def test_step_dispatch_covers_every_method():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([1.0, 1.0])
    for method in METHODS:
        cfg = OptimizerConfig(method=method, eta0=0.01, rho0=0.1)
        theta1, columns = step(obj, theta, OptimizerState.fresh(0), cfg)
        assert theta1.shape == theta.shape
        assert columns["t"] == 1


# ------------------------------------------------------------- run harness


def test_run_training_is_deterministic():
    obj = tiny_mlp()
    theta0 = obj.init_params(np.random.default_rng(2))
    cfg = fad_config(batch_size=8)
    a = run_training(obj, theta0, cfg, 30, seed=3)
    b = run_training(obj, theta0, cfg, 30, seed=3)
    assert np.array_equal(a.theta_final, b.theta_final)
    for ra, rb in zip(a.rows, b.rows):
        assert {k: v for k, v in ra.items() if k != "wall_ms"} == {
            k: v for k, v in rb.items() if k != "wall_ms"
        }


@pytest.mark.parametrize("method", METHODS)
def test_run_training_row_schema(method):
    # gam and fad at ratio 0.5 log both corrected and skipped steps
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    ratio = 0.5 if method in ("gam", "fad") else 1.0
    cfg = OptimizerConfig(method, eta0=0.1, rho0=0.1, fad_ratio=ratio)
    rec = run_training(obj, np.array([1.0, 1.0]), cfg, 20, run_id="abc")
    assert len(rec.rows) == 20
    for i, row in enumerate(rec.rows):
        assert tuple(row.keys()) == LOG_COLUMNS
        assert row["run_id"] == "abc"
        assert row["t"] == i + 1
        assert type(row["fad_applied"]) is int
        assert (row["norm_h0"] == 0.0) == (row["fad_applied"] == 0)
        if method not in ("gam", "fad"):
            assert row["norm_h1"] == 0.0
        if method == "sgd" or (method in ("gam", "fad") and not row["fad_applied"]):
            assert row["norm_delta"] == row["norm_g0"]
    if method in ("gam", "fad"):
        assert 0 < sum(row["fad_applied"] for row in rec.rows) < 20


def test_run_training_drives_quadratic_to_zero():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    cfg = OptimizerConfig(method="sgd", eta0=0.05)
    rec = run_training(obj, np.array([1.0, 1.0]), cfg, 500)
    assert np.linalg.norm(rec.theta_final) < 1e-6


def test_run_training_flushes_rows_before_raising():
    # eta0 = 1 diverges on curvature 8 (|1 - eta*lambda| = 7 per step)
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    cfg = OptimizerConfig(method="sgd", eta0=1.0)
    sink: list[dict] = []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            run_training(obj, np.array([1.0, 1.0]), cfg, 500, log_sink=sink.append)
    assert 0 < len(sink) < 500


def test_log_sink_and_rows_agree():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    sink: list[dict] = []
    rec = run_training(
        obj, np.array([1.0, 1.0]), fad_config(), 5, log_sink=sink.append
    )
    assert sink == rec.rows


class RecordingObjective(MLPObjective):
    """Wrapper that records the batch array of every loss/gradient evaluation."""

    def __init__(self, layer_sizes, dataset):
        super().__init__(layer_sizes, dataset)
        self.calls: list[tuple[str, np.ndarray | None]] = []

    def _loss(self, theta, batch):
        self.calls.append(("loss", batch))
        return super()._loss(theta, batch)

    def _grad(self, theta, batch):
        self.calls.append(("grad", batch))
        return super()._grad(theta, batch)


def test_fad_step_evaluates_all_gradients_on_one_batch():
    ds = tiny_mlp().dataset
    obj = RecordingObjective((2, 4, 3), ds)
    theta0 = obj.init_params(np.random.default_rng(0))
    step(obj, theta0, OptimizerState.fresh(0), fad_config(batch_size=8))
    grads = [rows for kind, rows in obj.calls if kind == "grad"]
    losses = [rows for kind, rows in obj.calls if kind == "loss"]
    assert len(grads) == 4
    reference = grads[0]
    for rows in grads[1:] + losses:
        np.testing.assert_array_equal(rows, reference)


def test_step_row_norms_match(monkeypatch):
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    theta = np.array([1.0, 1.0])
    cfg = fad_config()
    grads = recorded_grads(monkeypatch)
    _, columns = step(obj, theta, OptimizerState.fresh(0), cfg)
    g0, g1, g2, g3 = grads
    assert columns["norm_g0"] == np.linalg.norm(g0)
    assert columns["norm_h0"] == np.linalg.norm(g1 - g0)
    assert columns["norm_h1"] == np.linalg.norm(g3 - g2)
    assert columns["norm_delta"] == np.linalg.norm(fad_delta(grads, cfg))
    assert columns["loss"] == eval_loss(obj, theta)
    row = run_training(obj, theta, cfg, 1, run_id="r").rows[0]
    assert row == {"run_id": "r", "method": "fad", "seed": 0, **columns, "wall_ms": row["wall_ms"]}


# ------------------------------------------------------- convergence check


def test_convergence_check_needs_enough_traces():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    cfg = fad_config(schedule="inverse_sqrt")
    rec = run_training(obj, np.array([1.0, 1.0]), cfg, 5)
    with pytest.raises(InsufficientDataError):
        convergence_check(rec.rows, cfg.eta0, cfg.rho0)


def test_convergence_check_flags_constant_schedule():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    cfg = fad_config(schedule="constant")
    rec = run_training(obj, np.array([1.0, 1.0]), cfg, 20)
    report = convergence_check(rec.rows, cfg.eta0, cfg.rho0)
    assert not report.schedule_ok
    assert "violates" in report.note


def test_convergence_check_on_a_decaying_run():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    cfg = fad_config(schedule="inverse_sqrt", eta0=0.05)
    rec = run_training(obj, np.array([1.0, 1.0]), cfg, 200)
    report = convergence_check(rec.rows, cfg.eta0, cfg.rho0)
    assert report.schedule_ok
    assert report.n_steps == 200
    # recompute the decile minima straight from the log rows
    d2 = np.array([r["norm_delta"] ** 2 for r in rec.rows])
    assert report.first_decile_min == d2[:20].min()
    assert report.last_decile_min == d2[-20:].min()
    assert report.last_decile_min < report.first_decile_min
    assert 0.0 <= report.r_squared <= 1.0
    assert asdict(report)["n_steps"] == 200


# ------------------------------------------------------------------ lockstep

# the three runs of a lockstep group: (eta0, rho0, alpha, beta, momentum,
# weight_decay), each different from run to run, one of them without decay
LOCKSTEP_RUNS = [
    (0.05, 0.05, 0.2, 0.1, 0.0, 0.0),
    (0.1, 0.1, 0.5, 0.5, 0.5, 1e-3),
    (0.2, 0.2, 0.9, 1.0, 0.9, 1e-2),
]


def lockstep_configs(method, schedule):
    # at fad_ratio 0.5 the runs' coins differ, so a step corrects only some runs
    ratio = 0.5 if method in ("gam", "fad") else 1.0
    return [
        OptimizerConfig(
            method,
            eta0=eta0,
            rho0=rho0,
            alpha=alpha,
            beta=beta,
            momentum=momentum,
            weight_decay=wd,
            fad_ratio=ratio,
            schedule=schedule,
            batch_size=8,
        )
        for eta0, rho0, alpha, beta, momentum, wd in LOCKSTEP_RUNS
    ]


def without_wall(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("method", METHODS)
def test_lockstep_runs_are_bit_identical_to_runs_alone(method, schedule):
    configs = lockstep_configs(method, schedule)
    seeds, run_ids = [11, 12, 13], ["a", "b", "c"]
    obj = tiny_mlp(seed=3, n=40)
    theta0 = np.stack([obj.init_params(np.random.default_rng(s)) for s in seeds])
    group = run_training(obj, theta0, configs, 30, seed=seeds, run_id=run_ids)
    assert group.theta_final.shape == theta0.shape
    assert len(group.rows) == 3 * 30
    for k, (cfg, seed, run_id) in enumerate(zip(configs, seeds, run_ids)):
        alone = run_training(tiny_mlp(seed=3, n=40), theta0[k], cfg, 30, seed=seed, run_id=run_id)
        assert group.theta_final[k].tobytes() == alone.theta_final.tobytes()
        # a step logs one row per run, in run order
        assert without_wall(group.rows[k::3]) == without_wall(alone.rows)
    if method in ("gam", "fad"):
        coins = [{row["fad_applied"] for row in group.rows[i : i + 3]} for i in range(0, 90, 3)]
        assert {0, 1} in coins


@pytest.mark.parametrize("method", METHODS)
def test_a_group_of_one_is_run_training(method):
    cfg = lockstep_configs(method, "inverse_sqrt")[1]
    obj = tiny_mlp(seed=3, n=40)
    theta0 = obj.init_params(np.random.default_rng(4))
    group = run_training(obj, theta0[None], [cfg], 30, seed=[5], run_id=["x"])
    alone = run_training(tiny_mlp(seed=3, n=40), theta0, cfg, 30, seed=5, run_id="x")
    assert group.theta_final.shape == (1, obj.dim)
    assert group.theta_final[0].tobytes() == alone.theta_final.tobytes()
    assert without_wall(group.rows) == without_wall(alone.rows)
    assert [tuple(row) for row in group.rows] == [LOG_COLUMNS] * 30
    assert all(type(row["fad_applied"]) is int for row in group.rows)


def test_a_group_streams_its_rows_to_the_sink():
    configs = lockstep_configs("fad", "constant")
    obj = tiny_mlp(seed=3, n=40)
    theta0 = np.stack([obj.init_params(np.random.default_rng(s)) for s in (1, 2, 3)])
    sink: list[dict] = []
    rec = run_training(obj, theta0, configs, 10, seed=[1, 2, 3], log_sink=sink.append)
    assert sink == rec.rows
    assert without_wall(rec.rows) == without_wall(
        run_training(obj, theta0, configs, 10, seed=[1, 2, 3]).rows
    )


# (configs, runs, seeds) that cannot step together: K configs must share
# method, schedule and a batch size, and there must be one config and one seed
# per run
LOCKSTEP_MISMATCHES = {
    "method": ([fad_config(batch_size=8), fad_config(method="gam", batch_size=8)], 2, [0, 1]),
    "schedule": (
        [fad_config(batch_size=8), fad_config(schedule="inverse_sqrt", batch_size=8)],
        2,
        [0, 1],
    ),
    "batch_size": ([fad_config(batch_size=8), fad_config(batch_size=4)], 2, [0, 1]),
    "full_data": ([fad_config(), fad_config()], 2, [0, 1]),
    "a_config_short": ([fad_config(batch_size=8)] * 2, 3, [0, 1, 2]),
    "one_config_for_every_run": (fad_config(batch_size=8), 2, [0, 1]),
    "one_seed_for_every_run": ([fad_config(batch_size=8)] * 2, 2, 7),
    "a_seed_short": ([fad_config(batch_size=8)] * 2, 2, [0]),
}


@pytest.mark.parametrize(
    "configs,runs,seeds", LOCKSTEP_MISMATCHES.values(), ids=LOCKSTEP_MISMATCHES.keys()
)
def test_a_group_needs_configs_that_step_together(configs, runs, seeds):
    obj = tiny_mlp()
    with pytest.raises(ConfigError):
        run_training(obj, np.zeros((runs, obj.dim)), configs, 3, seed=seeds)


def test_one_run_id_serves_every_run_of_a_group():
    configs = lockstep_configs("sgd", "constant")[:2]
    obj = tiny_mlp(seed=3, n=40)
    theta0 = np.stack([obj.init_params(np.random.default_rng(s)) for s in (1, 2)])
    rec = run_training(obj, theta0, configs, 5, seed=[1, 2], run_id="same")
    assert [row["run_id"] for row in rec.rows] == ["same"] * 10
    assert [row["seed"] for row in rec.rows] == [1, 2] * 5


def test_a_stepped_config_still_rebuilds_from_its_fields():
    cfg = fad_config(batch_size=8, weight_decay=1e-3)
    run_training(tiny_mlp(), tiny_mlp().init_params(np.random.default_rng(0)), cfg, 2)
    assert cfg.decays
    assert OptimizerConfig(**cfg.__dict__) == cfg


def test_an_analytic_objective_trains_no_group():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    with pytest.raises(DimensionError):
        run_training(obj, np.ones((2, 2)), [fad_config(batch_size=1)] * 2, 3, seed=[1, 2])


def test_a_group_stops_on_its_first_non_finite_value():
    # the second run's decay overflows its parameters; the first run alone is fine
    configs = [
        OptimizerConfig("sgd", eta0=0.1, batch_size=8),
        OptimizerConfig("sgd", eta0=0.1, weight_decay=1e300, batch_size=8),
    ]
    obj = tiny_mlp(seed=3, n=40)
    theta0 = np.stack([obj.init_params(np.random.default_rng(s)) for s in (1, 2)])
    sink: list[dict] = []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as group_error:
            run_training(obj, theta0, configs, 20, seed=[1, 2], log_sink=sink.append)
        with pytest.raises(NumericalError) as alone_error:
            run_training(obj, theta0[1], configs[1], 20, seed=2)
    assert str(group_error.value) == str(alone_error.value)
    assert len(sink) % 2 == 0 and 0 < len(sink) < 40
    run_training(obj, theta0[0], configs[0], 20, seed=1)
