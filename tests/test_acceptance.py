"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single measured line (visible with -s, or with -rA in the
summary, or on failure) of the form

    [criterion N] <measured values> (bound <tolerance>)

and then asserts both the tolerance and the runtime budget. The heavier
criteria (convergence decay, flatness ordering, protocol hygiene, cost
scaling) run real training; their configurations are fixed so the whole
suite is deterministic apart from wall-clock measurements.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict

import numpy as np
import pytest

from flatmin.cli import main
from flatmin.flatness import (
    fad_regularizer,
    first_order_flatness,
    hutchinson_trace,
    lambda_max_from_fad,
    power_iteration_lambda_max,
    zeroth_order_flatness,
)
from flatmin.objectives import (
    DoubleWellObjective,
    MLPObjective,
    QuadraticObjective,
    RosenbrockObjective,
    eval_grad,
    eval_loss,
    hvp_fd,
    random_spd_matrix,
)
from flatmin.optimizers import (
    OptimizerConfig,
    OptimizerState,
    convergence_check,
    run_training,
    step,
)
from flatmin.shiftbench import (
    DomainSpec,
    ProtocolConfig,
    classification_accuracy,
    generate_domains,
    pool_domains,
    run_protocol,
    select_trial,
)


def benchmark_training_objective():
    """The fixed 3-domain rotated-Gaussian task used by criteria 6 and 7."""
    spec = DomainSpec(n_domains=3, per_domain_n=150, num_classes=3, noise=0.4)
    md = generate_domains(spec, seed=11)
    train = pool_domains(md, (0, 1, 2))
    return MLPObjective((2, 16, 3), train), train


def announce(n, msg):
    print(f"[criterion {n}] {msg}")


# ---------------------------------------------------------------------------


def test_criterion_1_eigenvalue_identity():
    """Curvature read-off from the combined regularizer on 50 quadratics."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    rho = 0.05
    worst = 0.0
    for i in range(50):
        dim = int(rng.integers(2, 11))
        mat = random_spd_matrix(dim, rng, min_top_gap=1.15)
        obj = QuadraticObjective(mat)
        lam = float(np.linalg.eigvalsh(mat).max())
        theta = np.zeros(dim)
        est_rng = np.random.default_rng([100, i])
        r0 = zeroth_order_flatness(obj, theta, rho, rng=est_rng)
        r1 = first_order_flatness(obj, theta, rho, rng=est_rng)
        for alpha in (0.0, 0.5, 1.0):
            got = lambda_max_from_fad(fad_regularizer(r0, r1, alpha), rho, alpha)
            worst = max(worst, abs(got - lam) / lam)
    elapsed = time.perf_counter() - t0
    announce(1, f"worst relative error {worst:.3e} (bound 1e-3), {elapsed:.1f}s (bound 30s)")
    assert worst < 1e-3
    assert elapsed < 30.0


def _random_step_instance(rng):
    kind = rng.integers(3)
    if kind == 0:
        dim = int(rng.integers(2, 9))
        obj = QuadraticObjective(random_spd_matrix(dim, rng))
        return obj, rng.standard_normal(dim), None
    if kind == 1:
        dim = int(rng.integers(2, 6))
        return RosenbrockObjective(dim), rng.uniform(-1.0, 1.5, size=dim), None
    from flatmin.objectives import Dataset

    n = int(rng.integers(16, 40))
    ds = Dataset(
        rng.standard_normal((n, 2)),
        rng.integers(3, size=n),
        np.zeros(n, dtype=np.int64),
    )
    obj = MLPObjective((2, 4, 3), ds)
    return obj, rng.standard_normal(obj.dim) * 0.5, 8


def test_criterion_2_reduction_identities():
    """fad collapses to sgd, gam, and sam at the corner settings."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)

    def fad_cfg(**kw):
        base = dict(method="fad", eta0=0.1, rho0=0.1, alpha=0.5, beta=0.1, xi=0.0)
        base.update(kw)
        return OptimizerConfig(**base)

    pairs = {
        "fad(beta=0)=sgd": (
            lambda bs: fad_cfg(beta=0.0, batch_size=bs),
            lambda bs: OptimizerConfig(method="sgd", eta0=0.1, batch_size=bs),
        ),
        "fad(alpha=0)=gam": (
            lambda bs: fad_cfg(alpha=0.0, beta=0.3, batch_size=bs),
            lambda bs: fad_cfg(method="gam", alpha=0.8, beta=0.3, batch_size=bs),
        ),
        "fad(alpha=1,beta=1)=sam": (
            lambda bs: fad_cfg(alpha=1.0, beta=1.0, batch_size=bs),
            lambda bs: OptimizerConfig(method="sam", eta0=0.1, rho0=0.1, xi=0.0, batch_size=bs),
        ),
    }
    worst = {label: 0.0 for label in pairs}
    for i in range(100):
        obj, theta, bs = _random_step_instance(rng)
        for label, (cfg_a, cfg_b) in pairs.items():
            ta, _ = step(obj, theta, OptimizerState.fresh(i), cfg_a(bs))
            tb, _ = step(obj, theta, OptimizerState.fresh(i), cfg_b(bs))
            worst[label] = max(worst[label], float(np.abs(ta - tb).max()))
    elapsed = time.perf_counter() - t0
    summary = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    announce(2, f"max deviations {summary} (bound 1e-12), {elapsed:.1f}s (bound 10s)")
    assert all(v < 1e-12 for v in worst.values())
    assert elapsed < 10.0


def test_criterion_3_gradient_oracles():
    """Analytic gradients agree with central differences; HVP matches Hv."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)

    def numeric_grad(obj, theta, h=1e-5):
        g = np.zeros_like(theta)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            g[i] = (eval_loss(obj, theta + e) - eval_loss(obj, theta - e)) / (2 * h)
        return g

    from flatmin.objectives import Dataset

    ds = Dataset(
        rng.standard_normal((20, 2)),
        rng.integers(3, size=20),
        np.zeros(20, dtype=np.int64),
    )
    double_well = DoubleWellObjective()
    kinks = double_well.crossing_points()
    cases = []
    for _ in range(25):
        dim = int(rng.integers(2, 8))
        cases.append((QuadraticObjective(random_spd_matrix(dim, rng)), rng.standard_normal(dim)))
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        cases.append((RosenbrockObjective(dim), rng.uniform(-1.5, 1.5, size=dim)))
    added = 0
    while added < 25:
        x = rng.uniform(-3.0, 3.0)
        if kinks.size and np.abs(kinks - x).min() < 0.05:
            continue
        cases.append((double_well, np.array([x])))
        added += 1
    mlp = MLPObjective((2, 4, 3), ds)
    for _ in range(25):
        cases.append((mlp, rng.standard_normal(mlp.dim) * 0.5))

    worst_grad = 0.0
    for obj, theta in cases:
        worst_grad = max(worst_grad, float(np.abs(eval_grad(obj, theta) - numeric_grad(obj, theta)).max()))

    worst_hvp = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        mat = random_spd_matrix(dim, rng)
        obj = QuadraticObjective(mat)
        theta, v = rng.standard_normal(dim), rng.standard_normal(dim)
        exact = mat @ v
        got = hvp_fd(obj, theta, v)
        worst_hvp = max(worst_hvp, float(np.linalg.norm(got - exact) / np.linalg.norm(exact)))
    elapsed = time.perf_counter() - t0
    announce(
        3,
        f"worst gradient error {worst_grad:.2e} over {len(cases)} points (bound 1e-4), "
        f"worst hvp relative error {worst_hvp:.2e} (bound 1e-7), {elapsed:.1f}s (bound 30s)",
    )
    assert len(cases) == 100
    assert worst_grad < 1e-4
    assert worst_hvp < 1e-7
    assert elapsed < 30.0


def gapped_spectrum(dim, rng):
    """Spectrum with multiplicative gaps across the top 3 so their Ritz values converge."""
    top = [10.0]
    for _ in range(2):
        top.append(top[-1] / rng.uniform(1.3, 2.0))
    rest = rng.uniform(0.05, top[-1] / 1.3, size=dim - 3)
    # a few negative eigenvalues keep the oracle honest about indefiniteness
    rest[: dim // 4] *= -1.0
    return np.concatenate([top, np.sort(rest)[::-1]])


def test_criterion_4_spectrum_estimators():
    """Lanczos top eigenvalues vs dense eigensolver; Hutchinson exact and dense."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(400)
    worst = 0.0
    for i in range(10):
        dim = int(rng.integers(6, 21))
        spectrum = gapped_spectrum(dim, rng)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        mat = (q * spectrum) @ q.T
        obj = QuadraticObjective((mat + mat.T) / 2.0)
        oracle = np.sort(np.linalg.eigvalsh(obj.hessian()))[::-1][:3]
        eigs, converged, _ = power_iteration_lambda_max(
            obj, np.zeros(dim), k=3, rng=np.random.default_rng([400, i])
        )
        assert all(converged)
        worst = max(worst, float(np.abs((np.array(eigs) - oracle) / oracle).max()))

    exact_est, exact_se = hutchinson_trace(QuadraticObjective(np.array([2.0, 8.0])), np.zeros(2), n_probes=64)
    spectrum = np.array([5.0, 3.0, 2.0, 1.0])
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
    dense = QuadraticObjective(((q * spectrum) @ q.T + ((q * spectrum) @ q.T).T) / 2.0)
    est, se = hutchinson_trace(dense, np.zeros(4), n_probes=1000, rng=np.random.default_rng(8))
    dense_err = abs(est - spectrum.sum())
    elapsed = time.perf_counter() - t0
    announce(
        4,
        f"worst eigenvalue relative error {worst:.2e} (bound 1e-4); diagonal trace "
        f"{exact_est} +- {exact_se} (wants exactly 10, 0); dense trace off by "
        f"{dense_err:.3f} vs 3*stderr {3 * se:.3f}, {elapsed:.1f}s (bound 60s)",
    )
    assert worst < 1e-4
    assert exact_est == pytest.approx(10.0, abs=1e-9)
    assert exact_se == pytest.approx(0.0, abs=1e-9)
    assert dense_err <= 3.0 * se
    assert elapsed < 60.0


def test_criterion_5_flatness_estimators():
    """Ball maxima on quadratics at the minimum, default search budgets."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(500)
    rho = 0.1
    worst_r0, worst_r1 = 0.0, 0.0
    for i in range(10):
        dim = int(rng.integers(2, 11))
        mat = random_spd_matrix(dim, rng, min_top_gap=1.15)
        obj = QuadraticObjective(mat)
        lam = float(np.linalg.eigvalsh(mat).max())
        r0 = zeroth_order_flatness(obj, np.zeros(dim), rho, rng=np.random.default_rng([500, i]))
        r1 = first_order_flatness(obj, np.zeros(dim), rho, rng=np.random.default_rng([501, i]))
        worst_r0 = max(worst_r0, abs(r0 - 0.5 * lam * rho**2) / (0.5 * lam * rho**2))
        worst_r1 = max(worst_r1, abs(r1 - lam * rho**2) / (lam * rho**2))
    elapsed = time.perf_counter() - t0
    announce(
        5,
        f"worst zeroth-order error {worst_r0:.2e} (bound 1e-3), worst first-order "
        f"error {worst_r1:.2e} (bound 5e-3), {elapsed:.1f}s (bound 60s)",
    )
    assert worst_r0 < 1e-3
    assert worst_r1 < 5e-3
    assert elapsed < 60.0


def test_criterion_6_convergence_decay():
    """Scheduled fad: squared step norms collapse and the decay profile fits."""
    t0 = time.perf_counter()
    obj, _ = benchmark_training_objective()
    cfg = OptimizerConfig(
        method="fad",
        eta0=1.0,
        rho0=0.2,
        alpha=0.5,
        beta=0.1,
        schedule="inverse_sqrt",
        batch_size=32,
    )
    ratios, r2s = [], []
    for seed in range(5):
        theta0 = obj.init_params(np.random.default_rng([seed, 2]))
        rec = run_training(obj, theta0, cfg, 5000, seed=seed)
        report = convergence_check(rec.rows, cfg.eta0, cfg.rho0)
        assert report.schedule_ok
        ratios.append(report.last_decile_min / report.first_decile_min)
        r2s.append(report.r_squared)
    elapsed = time.perf_counter() - t0
    announce(
        6,
        f"last/first decile ratios {[f'{r:.3f}' for r in ratios]} (bound 0.1 each), "
        f"median fit R^2 {np.median(r2s):.4f} (bound 0.9), {elapsed:.0f}s (bound 300s)",
    )
    assert max(ratios) <= 0.1
    assert np.median(r2s) >= 0.9
    assert elapsed < 300.0


def test_criterion_7_flatness_ordering():
    """Directional claim: fad's minima are flatter than sam's and adam's."""
    t0 = time.perf_counter()
    obj, train = benchmark_training_objective()
    configs = {
        "adam": OptimizerConfig(
            method="adam", eta0=3e-3, weight_decay=1e-3, batch_size=32, schedule="inverse_sqrt"
        ),
        "sam": OptimizerConfig(
            method="sam", eta0=0.5, rho0=0.1, weight_decay=1e-3, batch_size=32,
            schedule="inverse_sqrt",
        ),
        "fad": OptimizerConfig(
            method="fad", eta0=0.5, rho0=1.0, alpha=0.5, beta=1.0, weight_decay=1e-3,
            batch_size=32, schedule="inverse_sqrt",
        ),
    }
    lam_median, trace_median = {}, {}
    for name, cfg in configs.items():
        lams, traces = [], []
        for seed in range(5):
            theta0 = obj.init_params(np.random.default_rng([seed, 2]))
            rec = run_training(obj, theta0, cfg, 4000, seed=seed)
            # "at convergence" is checked, not assumed
            assert classification_accuracy(obj, rec.theta_final, train) >= 0.9
            eigs, _, _ = power_iteration_lambda_max(
                obj, rec.theta_final, k=1, rng=np.random.default_rng([seed, 4])
            )
            tr, _ = hutchinson_trace(
                obj, rec.theta_final, n_probes=64, rng=np.random.default_rng([seed, 5])
            )
            lams.append(eigs[0])
            traces.append(tr)
        lam_median[name] = float(np.median(lams))
        trace_median[name] = float(np.median(traces))
    elapsed = time.perf_counter() - t0
    announce(
        7,
        "median lambda_max "
        + ", ".join(f"{m}={lam_median[m]:.4f}" for m in configs)
        + "; median trace "
        + ", ".join(f"{m}={trace_median[m]:.4f}" for m in configs)
        + f" (wants fad < sam and fad < adam on lambda_max, fad < adam on trace), "
        f"{elapsed:.0f}s (bound 600s)",
    )
    assert lam_median["fad"] < lam_median["sam"]
    assert lam_median["fad"] < lam_median["adam"]
    assert trace_median["fad"] < trace_median["adam"]
    assert elapsed < 600.0


def test_criterion_8_protocol_hygiene(tmp_path):
    """Split disjointness, selection discipline, byte-identical reruns."""
    t0 = time.perf_counter()
    data = {
        "spec": {"n_domains": 3, "per_domain_n": 45, "num_classes": 3, "noise": 0.4},
        "seed": 11,
    }
    protocol = {
        "n_hparam_trials": 3,
        "seeds_per_trial": 2,
        "iterations": 120,
        "report_probes": 8,
        "report_k_eigs": 1,
        "report_restarts": 2,
        "report_ascent_steps": 10,
    }
    doc = {"seed": 2, "data": data, "methods": ["sgd", "fad"], "protocol": protocol}
    cfg_path = tmp_path / "bench.json.in"
    cfg_path.write_text(json.dumps(doc))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    assert main(["bench", "--config", str(cfg_path), "--out-dir", str(dir_a)]) == 0

    # (a) + (b): rebuild the same protocol run and inspect its internals
    md = generate_domains(DomainSpec(**data["spec"]), data["seed"])
    result = run_protocol(md, ["sgd", "fad"], ProtocolConfig(**{
        k: v for k, v in protocol.items()
    }), seed=2)
    for cell in result.cells:
        assert np.intersect1d(*result.splits[cell.test_domain]).size == 0
        assert cell.selected_trial == select_trial(list(cell.trial_val_accuracies))
        mine = [e for e in result.events if e[2] == cell.method and e[3] == cell.test_domain]
        scored = [e[0] for e in mine if e[1] == "trial_scored"]
        selected = [e[0] for e in mine if e[1] == "selected"]
        tested = [e[0] for e in mine if e[1] == "test_eval"]
        assert max(scored) < selected[0] < min(tested)

    # cross-check the files against the in-process run
    table = json.loads((dir_a / "bench.json").read_text())
    assert table["cells"] == json.loads(json.dumps([asdict(c) for c in result.cells]))

    # (c): rerun from the embedded config; every artifact must match bytewise
    embedded = table["config"]
    cfg2 = tmp_path / "embedded.json"
    cfg2.write_text(json.dumps(embedded))
    assert main(["bench", "--config", str(cfg2), "--out-dir", str(dir_b)]) == 0
    identical = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("bench.json", "bench_table.csv", "bench_hparams.json")
    )
    elapsed = time.perf_counter() - t0
    announce(
        8,
        f"{len(result.cells)} cells: splits disjoint, selection saw only validation "
        f"accuracies, rerun byte-identical={identical}, {elapsed:.0f}s (bound 600s)",
    )
    assert identical
    assert elapsed < 600.0


def test_criterion_9_cost_scaling(tmp_path):
    """Median wall time grows with the fraction of corrected steps."""
    t0 = time.perf_counter()
    doc = {
        "seed": 6,
        "data": {
            "spec": {"n_domains": 3, "per_domain_n": 60, "num_classes": 3, "noise": 0.4},
            "seed": 11,
        },
        "iterations": 800,
        "timing_repeats": 3,
        "hidden_units": 64,
        "optimizer": {
            "method": "fad",
            "eta0": 0.2,
            "rho0": 0.2,
            "batch_size": 120,
        },
        "grid": {"param": "fad_ratio", "values": [0.0, 0.1, 0.5, 1.0]},
    }
    cfg_path = tmp_path / "sweep.json.in"
    cfg_path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[2:]]
    assert all(r[4] == "ok" for r in rows)
    walls = [float(r[3]) for r in rows]
    elapsed = time.perf_counter() - t0
    announce(
        9,
        f"median wall_ms by ratio {dict(zip([0.0, 0.1, 0.5, 1.0], [round(w, 1) for w in walls]))} "
        f"(wants nondecreasing and ratio 1.0 >= 2x ratio 0.0), {elapsed:.0f}s (bound 300s)",
    )
    assert walls == sorted(walls)
    assert walls[-1] >= 2.0 * walls[0]
    assert elapsed < 300.0
