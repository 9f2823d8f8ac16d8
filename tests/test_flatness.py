"""Flatness estimators and spectrum probes against closed-form quadratics,
and against a dense eigensolver at trained MLP points.

On a quadratic with Hessian H, at the minimum, the ball maxima are known
exactly: max loss increase is 0.5 * lambda_max * rho^2 and max gradient norm
is lambda_max * rho, which also fixes the combined regularizer and makes the
curvature read-off identity checkable without any estimation slack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin import flatness, objectives
from flatmin.errors import BudgetError, ConfigError
from flatmin.flatness import (
    FlatnessBudget,
    build_flatness_report,
    fad_regularizer,
    first_order_flatness,
    hutchinson_trace,
    lambda_max_from_fad,
    power_iteration_lambda_max,
    zeroth_order_flatness,
)
from flatmin.objectives import (
    Dataset,
    DoubleWellObjective,
    MLPObjective,
    QuadraticObjective,
    eval_grad,
    eval_loss,
    random_spd_matrix,
)
from flatmin.optimizers import OptimizerConfig, run_training
from flatmin.shiftbench import DomainSpec, generate_domains, pool_domains


def rotated_quadratic(eigs, seed=0):
    """Quadratic with a known spectrum and a dense, non-diagonal Hessian."""
    eigs = np.asarray(eigs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
    mat = (q * eigs) @ q.T
    return QuadraticObjective((mat + mat.T) / 2.0)


# ------------------------------------------------------------- ball maxima


def test_zeroth_order_on_known_quadratic():
    # max increase over the rho-ball at the minimum: 0.5 * 8 * 0.1^2 = 0.04
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    r0 = zeroth_order_flatness(obj, np.zeros(2), rho=0.1)
    assert abs(r0 - 0.04) < 1e-6


def test_first_order_on_known_quadratic():
    # rho * max gradient norm over the ball: 0.1 * (8 * 0.1) = 0.08
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    r1 = first_order_flatness(obj, np.zeros(2), rho=0.1)
    assert abs(r1 - 0.08) < 1e-5


def test_estimates_never_exceed_true_maxima():
    # every probe stays inside the ball, so the estimates are lower bounds
    rng = np.random.default_rng(3)
    for seed in range(5):
        mat = random_spd_matrix(5, rng, min_top_gap=1.15)
        obj = QuadraticObjective(mat)
        lam = float(np.linalg.eigvalsh(mat).max())
        rho = 0.1
        r0 = zeroth_order_flatness(obj, np.zeros(5), rho, rng=np.random.default_rng(seed))
        r1 = first_order_flatness(obj, np.zeros(5), rho, rng=np.random.default_rng(seed))
        assert r0 <= 0.5 * lam * rho * rho * (1 + 1e-9)
        assert r1 <= lam * rho * rho * (1 + 1e-9)


def test_zeroth_order_rejects_nonpositive_rho():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    with pytest.raises(ConfigError):
        zeroth_order_flatness(obj, np.zeros(2), rho=0.0)
    with pytest.raises(ConfigError):
        first_order_flatness(obj, np.zeros(2), rho=-0.1)


def test_flatness_is_zero_clamped_on_flat_ground():
    # a zero quadratic has no loss increase anywhere in the ball
    obj = QuadraticObjective(np.array([0.0, 0.0]))
    assert zeroth_order_flatness(obj, np.zeros(2), rho=0.5) == 0.0


def test_an_r1_restart_ends_where_the_gradient_vanishes(monkeypatch):
    # the restart starts at -0.5 + 0.5 * -1 = -1, the first basin's centre,
    # where r1's ascent has no direction; theta itself lies in the second
    # basin, where the gradient norm is 0.5 * |-0.5 - 1| = 0.75
    grads, products = [], []
    monkeypatch.setattr(flatness, "eval_grad", lambda obj, x: grads.append(x) or eval_grad(obj, x))
    monkeypatch.setattr(flatness, "hvp_fd", lambda *args: products.append(args))
    obj, budget = DoubleWellObjective(), FlatnessBudget(n_random=1, n_ascent_steps=10)
    r1 = first_order_flatness(obj, np.array([-0.5]), 0.5, budget, directions=[np.array([-1.0])])
    assert r1 == 0.5 * 0.75
    # theta, then the start point once as an ascent step and once as the last iterate
    assert [x.tolist() for x in grads] == [[-0.5], [-1.0], [-1.0]]
    assert products == []


# ------------------------------------------------------ regularizer algebra


def test_fad_regularizer_combination():
    assert fad_regularizer(0.04, 0.08, 0.5) == pytest.approx(0.06, rel=1e-15)
    assert fad_regularizer(0.04, 0.08, 1.0) == 0.04
    assert fad_regularizer(0.04, 0.08, 0.0) == 0.08
    with pytest.raises(ConfigError):
        fad_regularizer(0.04, 0.08, 1.5)


def test_lambda_max_from_fad_identity_values():
    # on a quadratic at the minimum: r_fad = lambda * rho^2 * (1 - alpha/2)
    lam, rho = 8.0, 0.1
    for alpha in (0.0, 0.5, 1.0):
        r_fad = fad_regularizer(0.5 * lam * rho**2, lam * rho**2, alpha)
        assert lambda_max_from_fad(r_fad, rho, alpha) == pytest.approx(lam, rel=1e-12)


def test_lambda_max_from_fad_validation():
    with pytest.raises(ConfigError):
        lambda_max_from_fad(0.06, 0.0, 0.5)
    with pytest.raises(ConfigError):
        lambda_max_from_fad(0.06, 0.1, -0.1)


def test_eigenvalue_identity_on_random_quadratics():
    # estimated r0, r1 feed the identity; the read-off must hit the true top
    # eigenvalue to 0.1% for every mixing weight
    rng = np.random.default_rng(21)
    rho = 0.05
    for _ in range(10):
        dim = int(rng.integers(2, 11))
        mat = random_spd_matrix(dim, rng, min_top_gap=1.15)
        obj = QuadraticObjective(mat)
        lam = float(np.linalg.eigvalsh(mat).max())
        theta = np.zeros(dim)
        est_rng = np.random.default_rng(int(rng.integers(1 << 30)))
        r0 = zeroth_order_flatness(obj, theta, rho, rng=est_rng)
        r1 = first_order_flatness(obj, theta, rho, rng=est_rng)
        for alpha in (0.0, 0.5, 1.0):
            got = lambda_max_from_fad(fad_regularizer(r0, r1, alpha), rho, alpha)
            assert abs(got - lam) / lam < 1e-3


# --------------------------------------------------------- power iteration


def test_power_iteration_on_diagonal():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    eigs, converged, _ = power_iteration_lambda_max(obj, np.zeros(2), k=2)
    np.testing.assert_allclose(eigs, [8.0, 2.0], rtol=1e-6)
    assert all(converged)


def test_power_iteration_with_deflation_matches_dense_solver():
    spectrum = np.array([9.0, 6.0, 3.0, 1.0, 0.5])
    obj = rotated_quadratic(spectrum, seed=4)
    eigs, converged, _ = power_iteration_lambda_max(obj, np.zeros(5), k=3)
    np.testing.assert_allclose(eigs, spectrum[:3], rtol=1e-4)
    assert all(converged)
    assert list(eigs) == sorted(eigs, reverse=True)


def test_power_iteration_away_from_the_minimum():
    # the Hessian of a quadratic is position independent; the probe point
    # must not matter
    obj = rotated_quadratic(np.array([7.0, 2.0, 1.0]), seed=8)
    at_min, _, _ = power_iteration_lambda_max(obj, np.zeros(3), k=1)
    away, _, _ = power_iteration_lambda_max(obj, np.array([1.0, -2.0, 0.5]), k=1)
    assert at_min[0] == pytest.approx(away[0], rel=1e-5)


def test_power_iteration_reports_nonconvergence():
    obj = rotated_quadratic(np.array([8.0, 7.9, 1.0]), seed=2)
    eigs, converged, _ = power_iteration_lambda_max(obj, np.zeros(3), k=1, max_iter=1)
    assert len(eigs) == 1
    assert not all(converged)


@pytest.mark.parametrize("k", [1, 3])
def test_top_ritz_vector_is_the_top_eigenvector(k):
    spectrum = np.array([9.0, 6.0, 3.0, 1.0, 0.5])
    obj = rotated_quadratic(spectrum, seed=4)
    eigs, _, ((v1, *_), _) = power_iteration_lambda_max(obj, np.zeros(5), k=k)
    top = np.linalg.eigh(obj.hessian())[1][:, -1]
    assert objectives.norm(v1) == pytest.approx(1.0, abs=1e-14)
    assert abs(v1 @ top) >= 1.0 - 1e-8
    assert v1 @ obj.hessian() @ v1 == pytest.approx(eigs[0], rel=1e-12)


def test_power_iteration_validates_k():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    with pytest.raises(ConfigError):
        power_iteration_lambda_max(obj, np.zeros(2), k=0)
    with pytest.raises(ConfigError):
        power_iteration_lambda_max(obj, np.zeros(2), k=3)


@pytest.mark.parametrize(
    "diag,k,expected",
    [((-10.0, 1.0), 1, [1.0]), ((-10.0, 1.0, 0.5), 2, [1.0, 0.5])],
    ids=["saddle_k1", "saddle_k2"],
)
def test_lambda_max_is_the_top_algebraic_eigenvalue_at_an_indefinite_point(diag, k, expected):
    # an eigenvalue of larger magnitude but negative sign must not win
    obj = QuadraticObjective(np.array(diag))
    eigs, converged, _ = power_iteration_lambda_max(obj, np.zeros(len(diag)), k=k)
    np.testing.assert_allclose(eigs, expected, rtol=1e-6)
    assert all(converged)


@pytest.fixture
def hvps(monkeypatch):
    """Number of Hessian-vector products the eigen-solver makes."""
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return objectives.hvp_fd(*args, **kwargs)

    monkeypatch.setattr(flatness, "hvp_fd", counted)
    return count


@pytest.mark.parametrize("max_iter", [1, 2, 5])
def test_power_iteration_makes_at_most_max_iter_products(hvps, max_iter):
    obj, theta = small_mlp()
    eigs, converged, _ = power_iteration_lambda_max(obj, theta, k=1, max_iter=max_iter)
    assert 1 <= hvps[0] <= max_iter
    assert len(eigs) == len(converged) == 1


def test_power_iteration_goes_on_after_a_breakdown(hvps):
    # every start vector is an eigenvector of the identity, so the first
    # Krylov space is invariant after one step and a second one must start
    obj = QuadraticObjective(np.array([1.0, 1.0]))
    eigs, converged, _ = power_iteration_lambda_max(obj, np.zeros(2), k=2)
    np.testing.assert_allclose(eigs, [1.0, 1.0], rtol=1e-12)
    assert converged == [True, True]
    assert hvps[0] == 2


def test_power_iteration_reports_a_repeated_eigenvalue_once_per_krylov_space():
    obj = QuadraticObjective(np.array([5.0, 5.0, 1.0]))
    eigs, converged, _ = power_iteration_lambda_max(obj, np.zeros(3), k=2)
    np.testing.assert_allclose(eigs, [5.0, 1.0], rtol=1e-6)
    assert all(converged)


def test_power_iteration_flags_entries_the_steps_ran_out_before(hvps):
    obj = rotated_quadratic(np.array([9.0, 6.0, 3.0, 1.0]), seed=3)
    eigs, converged, _ = power_iteration_lambda_max(obj, np.zeros(4), k=3, max_iter=2)
    assert hvps[0] == 2
    assert len(eigs) == len(converged) == 3
    assert np.isfinite(eigs[:2]).all() and np.isnan(eigs[2])
    assert converged == [False, False, False]


def list_lanczos(obj, theta, k, max_iter, rng):
    """The plain reference of ``power_iteration_lambda_max``: the same solve with
    the basis as a list of vectors and the tridiagonal rebuilt by ``np.diag``
    at every step."""
    signs = np.array([-1.0, 1.0])
    basis, alphas, betas = [], [], []

    def orthogonalise(x):
        q = np.array(basis)
        x = x - q.T @ (q @ x)
        return x - q.T @ (q @ x)

    w = rng.choice(signs, size=obj.dim)
    for _ in range(min(max_iter, obj.dim)):
        basis.append(w / objectives.norm(w))
        w = objectives.hvp_fd(obj, theta, basis[-1])
        alphas.append(float(basis[-1] @ w))
        w = orthogonalise(w)
        beta = objectives.norm(w)
        ritz, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        residuals = beta * np.abs(vecs[-1])
        if len(ritz) >= k and (residuals[-k:] < flatness.LANCZOS_TOL).all():
            break
        if beta < flatness.LANCZOS_TOL:
            beta, w = 0.0, np.zeros(obj.dim)
            while objectives.norm(w) < 0.5:
                w = orthogonalise(rng.choice(signs, size=obj.dim))
        betas.append(beta)
    n = min(k, len(ritz))
    values = np.full(k, np.nan)
    values[:n] = ritz[::-1][:n]
    flags = [bool(r < flatness.LANCZOS_TOL) for r in residuals[::-1][:n]] + [False] * (k - n)
    q = np.array(basis).T
    by_value = [q @ vecs[:, j] for j in range(len(ritz) - 1, -1, -1)]
    order = sorted(range(len(ritz)), key=lambda i: -abs(ritz[-1 - i]))
    return values, flags, (by_value, [by_value[i] for i in order])


def assert_same_solve(obj, theta, k, max_iter, seed):
    """Values, flags, both Ritz-vector lists and the RNG state after the solve,
    bit for bit against ``list_lanczos``."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    values, flags, vectors = power_iteration_lambda_max(obj, theta, k, max_iter, rng)
    ref_values, ref_flags, ref_vectors = list_lanczos(obj, theta, k, max_iter, ref_rng)
    assert values.tobytes() == ref_values.tobytes()
    assert flags == ref_flags
    for got, ref in zip(vectors, ref_vectors):
        assert [v.tobytes() for v in got] == [v.tobytes() for v in ref]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def lanczos_cases(draw):
    """A diagonal or dense SPD quadratic of dim 1-30 at a random point, k 1-3,
    and a max_iter that may run out first; a spectrum of two repeated values
    makes each Krylov space break down after at most two steps."""
    dim = draw(st.integers(min_value=1, max_value=30))
    k = draw(st.integers(min_value=1, max_value=min(3, dim)))
    max_iter = draw(st.sampled_from([1, 2, 3, 1000]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        spectrum = rng.choice([1.0, 4.0], size=dim)
    else:
        spectrum = rng.uniform(0.5, 10.0, size=dim)
    if draw(st.booleans()):
        obj = QuadraticObjective(spectrum)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        mat = (q * spectrum) @ q.T
        obj = QuadraticObjective((mat + mat.T) / 2.0)
    return obj, rng.standard_normal(dim), k, max_iter, seed


@settings(max_examples=300, deadline=None)
@given(case=lanczos_cases())
def test_power_iteration_is_the_list_reference_bit_for_bit(case):
    assert_same_solve(*case)


def test_power_iteration_is_the_list_reference_bit_for_bit_at_a_trained_point(readme_mlp):
    theta0 = readme_mlp.init_params(np.random.default_rng([0, 2]))
    theta = run_training(readme_mlp, theta0, README_TRAINING["adam"], 300, seed=0).theta_final
    assert_same_solve(readme_mlp, theta, 2, 1000, 0)


# --------------------------------------------------------------- hutchinson


def test_hutchinson_exact_on_diagonal():
    # Rademacher probes satisfy v^T diag(2,8) v = 2 + 8 for every +-1 vector,
    # so the estimate is exactly the trace with exactly zero spread
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    est, stderr = hutchinson_trace(obj, np.zeros(2), n_probes=16)
    assert est == pytest.approx(10.0, abs=1e-9)
    assert stderr == pytest.approx(0.0, abs=1e-9)


def test_hutchinson_within_three_stderr_on_dense_hessian():
    spectrum = np.array([5.0, 3.0, 2.0, 1.0])
    obj = rotated_quadratic(spectrum, seed=6)
    est, stderr = hutchinson_trace(
        obj, np.zeros(4), n_probes=1000, rng=np.random.default_rng(0)
    )
    assert stderr > 0.0
    assert abs(est - spectrum.sum()) <= 3.0 * stderr


def test_hutchinson_needs_two_probes():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    with pytest.raises(BudgetError):
        hutchinson_trace(obj, np.zeros(2), n_probes=1)


# ------------------------------------------------- trained MLP, dense check

# how each method trains on the README task (2-16-3 tanh MLP, 450 rows)
README_TRAINING = {
    "adam": OptimizerConfig("adam", eta0=0.01, batch_size=32),
    "sgd": OptimizerConfig("sgd", eta0=0.5, batch_size=32),
    "fad": OptimizerConfig("fad", eta0=0.5, rho0=0.2, alpha=0.5, beta=0.1, batch_size=32),
}


@pytest.fixture(scope="module")
def readme_mlp():
    md = generate_domains(DomainSpec(), 11)
    return MLPObjective((2, 16, 3), pool_domains(md, tuple(range(md.n_domains))))


def central_difference_hessian(obj, theta, h=1e-4):
    cols = []
    for j in range(obj.dim):
        e = np.zeros(obj.dim)
        e[j] = h
        cols.append((eval_grad(obj, theta + e) - eval_grad(obj, theta - e)) / (2.0 * h))
    hess = np.stack(cols, axis=1)
    return 0.5 * (hess + hess.T)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("method", README_TRAINING)
def test_spectral_estimators_match_a_dense_solver_at_trained_points(readme_mlp, method, seed):
    # the forward-difference HVP is biased by O(fd_step); at these points the
    # worst relative eigenvalue error was 9.5e-5 and the worst trace |z| 1.6
    theta0 = readme_mlp.init_params(np.random.default_rng([seed, 2]))
    theta = run_training(readme_mlp, theta0, README_TRAINING[method], 300, seed=seed).theta_final
    dense = np.linalg.eigvalsh(central_difference_hessian(readme_mlp, theta))[::-1]
    eigs, converged, _ = power_iteration_lambda_max(readme_mlp, theta, k=2)
    np.testing.assert_allclose(eigs, dense[:2], rtol=1e-4)
    assert all(converged)
    trace, stderr = hutchinson_trace(readme_mlp, theta, n_probes=64)
    assert abs(trace - dense.sum()) <= 3.0 * stderr


def assert_near_dense_hessian(obj, theta):
    """The exact products with every unit vector, one block, against the dense
    central-difference Hessian, within 1e-6 of its largest entry."""
    dense = central_difference_hessian(obj, theta)
    exact = objectives.hvp(obj, theta, np.eye(obj.dim))
    assert np.abs(exact - dense).max() <= 1e-6 * np.abs(dense).max()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("method", README_TRAINING)
def test_exact_hvp_is_the_dense_hessian_at_trained_points(readme_mlp, method, seed):
    # measured: at most 4.5e-8 of the largest entry
    theta0 = readme_mlp.init_params(np.random.default_rng([seed, 2]))
    theta = run_training(readme_mlp, theta0, README_TRAINING[method], 300, seed=seed).theta_final
    assert_near_dense_hessian(readme_mlp, theta)


@pytest.mark.parametrize("net", ["ten_class", "width_one"])
def test_exact_hvp_is_the_dense_hessian_on_other_shapes(readme_mlp, net):
    # the golden oracle nets: 4-12-10 on 300 rows, and a width-1 hidden layer
    if net == "ten_class":
        ten = generate_domains(DomainSpec(num_classes=10, per_domain_n=100, feature_dim=4), 12)
        obj = MLPObjective((4, 12, 10), pool_domains(ten, (0, 1, 2)))
    else:
        obj = MLPObjective((2, 8, 1, 3), readme_mlp.dataset)
    assert_near_dense_hessian(obj, 0.5 * np.random.default_rng(8).standard_normal(obj.dim))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("method", README_TRAINING)
def test_two_eigenvalues_at_trained_points_take_at_most_20_products(
    readme_mlp, hvps, method, seed
):
    # measured 10-12; deflated power iteration took 47-102 here
    theta0 = readme_mlp.init_params(np.random.default_rng([seed, 2]))
    theta = run_training(readme_mlp, theta0, README_TRAINING[method], 300, seed=seed).theta_final
    _, converged, _ = power_iteration_lambda_max(readme_mlp, theta, k=2)
    assert all(converged)
    assert hvps[0] <= 20


# ------------------------------------------------------------------ report


def test_flatness_report_invariants():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    budget = FlatnessBudget(n_random=8, n_ascent_steps=30)
    report = build_flatness_report(
        obj, np.zeros(2), rho=0.1, alpha=0.5, budget=budget, k_eigs=2, n_probes=16
    )
    assert report.r_fad == fad_regularizer(report.r0, report.r1, 0.5)
    assert report.lambda_max == report.top_eigs[0]
    assert list(report.top_eigs) == sorted(report.top_eigs, reverse=True)
    assert report.lambda_max == pytest.approx(8.0, rel=1e-6)
    assert report.trace == pytest.approx(10.0, abs=1e-9)
    assert report.budget["k_eigs"] == 2
    assert report.budget["n_probes"] == 16
    doc = report.to_dict()
    assert set(doc) == {
        "rho",
        "alpha",
        "r0",
        "r1",
        "r_fad",
        "lambda_max",
        "top_eigs",
        "trace",
        "trace_stderr",
        "budget",
        "seed",
    }


def test_flatness_report_is_deterministic():
    obj = rotated_quadratic(np.array([6.0, 2.0, 1.0]), seed=5)
    a = build_flatness_report(obj, np.zeros(3), rho=0.1, alpha=0.3, seed=7)
    b = build_flatness_report(obj, np.zeros(3), rho=0.1, alpha=0.3, seed=7)
    assert a == b


def test_flatness_report_caps_k_to_dimension():
    obj = QuadraticObjective(np.array([2.0, 8.0]))
    report = build_flatness_report(obj, np.zeros(2), rho=0.1, alpha=0.5, k_eigs=5)
    assert len(report.top_eigs) == 2


# -------------------------------------------------------------- oracle calls


def small_mlp():
    rng = np.random.default_rng(1)
    data = Dataset(rng.standard_normal((30, 2)), rng.integers(3, size=30), np.zeros(30))
    obj = MLPObjective((2, 4, 3), data)
    return obj, obj.init_params(rng)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the oracle calls the estimators make, the grads inside hvp_fd included."""
    counts = {"grad": 0, "loss": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(flatness, "eval_grad", counted("grad", flatness.eval_grad))
    monkeypatch.setattr(objectives, "eval_grad", counted("grad", objectives.eval_grad))
    monkeypatch.setattr(flatness, "eval_loss", counted("loss", flatness.eval_loss))
    return counts


BUDGET = FlatnessBudget(n_random=3, n_ascent_steps=4)


def unit_vectors(dim):
    """Start directions for more restarts than ``BUDGET`` asks for."""
    return [np.ones(dim) / np.sqrt(dim), np.eye(dim)[0]]


def test_zeroth_order_takes_a_loss_and_a_gradient_per_ascent_step(calls):
    obj, theta = small_mlp()
    zeroth_order_flatness(obj, theta, 0.1, budget=BUDGET, directions=unit_vectors(obj.dim))
    assert calls == {
        "grad": BUDGET.n_random * BUDGET.n_ascent_steps,
        "loss": BUDGET.n_random * (BUDGET.n_ascent_steps + 1) + 1,
    }


def test_first_order_reuses_each_steps_gradient_in_its_hvp(monkeypatch, calls):
    # each product's gradient at the step's point comes from the step's kept
    # pass, so only the points themselves run a forward and a backward pass
    obj, theta = small_mlp()
    forward, backward = obj._forward, obj._backward
    passes, backwards = [], []
    monkeypatch.setattr(obj, "_forward", lambda *args: passes.append(args) or forward(*args))
    monkeypatch.setattr(obj, "_backward", lambda *args: backwards.append(args) or backward(*args))
    first_order_flatness(obj, theta, 0.1, budget=BUDGET, directions=unit_vectors(obj.dim))
    expected = 1 + BUDGET.n_random * (2 * BUDGET.n_ascent_steps + 1)
    assert len(passes) == len(backwards) == expected
    assert calls["loss"] == 0


def test_hutchinson_makes_no_loss_or_gradient_call(calls):
    # every probe's product is exact, from the R-op
    obj, theta = small_mlp()
    hutchinson_trace(obj, theta, n_probes=5)
    assert calls == {"grad": 0, "loss": 0}


@pytest.mark.parametrize("dim", [1, 2, 27, 99])
def test_hutchinson_draws_the_per_probe_draws_in_one_call(monkeypatch, dim):
    # one (n_probes, dim) draw is, bit for bit, n_probes draws of dim signs, and
    # leaves the stream where they would
    blocks = []

    def recorded(obj, theta, v):
        blocks.append(v.copy())
        return objectives.hvp(obj, theta, v)

    monkeypatch.setattr(flatness, "hvp", recorded)
    obj = QuadraticObjective(np.linspace(1.0, 2.0, dim))
    rng, same = np.random.default_rng([dim, 5]), np.random.default_rng([dim, 5])
    rng.random(3), same.random(3)  # start mid-stream, as a report's trace does
    hutchinson_trace(obj, np.zeros(dim), n_probes=7, rng=rng)
    signs = np.array([-1.0, 1.0])
    per_probe = np.stack([same.choice(signs, size=dim) for _ in range(7)])
    assert len(blocks) == 1 and np.array_equal(blocks[0], per_probe)
    assert rng.random() == same.random()


@pytest.fixture
def solves(monkeypatch):
    """The ``k`` of every eigen-solve the estimators make."""
    ks = []

    def counted(*args, **kwargs):
        ks.append(kwargs["k"])
        return power_iteration_lambda_max(*args, **kwargs)

    monkeypatch.setattr(flatness, "power_iteration_lambda_max", counted)
    return ks


@pytest.mark.parametrize("estimator", [zeroth_order_flatness, first_order_flatness])
def test_an_estimator_without_v1_makes_one_k1_solve(solves, estimator):
    obj, theta = small_mlp()
    estimator(obj, theta, 0.1, budget=BUDGET)
    assert solves == [1]


def test_a_report_makes_one_eigen_solve(solves):
    obj, theta = small_mlp()
    build_flatness_report(obj, theta, rho=0.1, alpha=0.5, budget=BUDGET, k_eigs=2, n_probes=4)
    assert solves == [2]


@pytest.mark.parametrize("estimator", [zeroth_order_flatness, first_order_flatness])
def test_an_estimator_given_directions_draws_nothing(estimator):
    obj, theta = small_mlp()
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    estimator(obj, theta, 0.1, FlatnessBudget(6, 2), rng, directions=unit_vectors(obj.dim))
    assert rng.bit_generator.state == state


def test_restarts_beyond_the_last_start_are_not_run(calls):
    # a dim-2 solve has two Ritz vectors, so four starts: a fifth restart
    # would only repeat one of them
    obj, rho, theta = QuadraticObjective(np.array([2.0, 8.0])), 0.1, np.zeros(2)
    runs = []
    for budget in (FlatnessBudget(16, 3), FlatnessBudget(4, 3)):
        calls.update(grad=0, loss=0)
        r0 = zeroth_order_flatness(obj, theta, rho, budget)
        runs.append((r0, first_order_flatness(obj, theta, rho, budget), dict(calls)))
    assert runs[0] == runs[1]
    assert runs[1][2]["loss"] == 1 + 4 * (3 + 1)  # r0 ran all four starts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_starts_at_the_top_eigenvector_are_the_maxima_at_a_quadratic_minimum(seed):
    # theta + rho*v1 and theta - rho*v1 are the maxima themselves, so one
    # ascent step from each leaves no gap
    rng = np.random.default_rng([seed, 7])
    mat = random_spd_matrix(int(rng.integers(3, 9)), rng, min_top_gap=1.15)
    obj, rho, theta = QuadraticObjective(mat), 0.1, np.zeros(len(mat))
    lam = float(np.linalg.eigvalsh(mat).max())
    budget = FlatnessBudget(2, 1)
    report = build_flatness_report(obj, theta, rho=rho, alpha=0.5, budget=budget, seed=seed)
    for r0, r1 in [
        (zeroth_order_flatness(obj, theta, rho, budget), first_order_flatness(obj, theta, rho, budget)),
        (report.r0, report.r1),
    ]:
        assert r0 == pytest.approx(0.5 * lam * rho**2, rel=1e-12)
        assert r1 == pytest.approx(lam * rho**2, rel=1e-12)


@pytest.mark.parametrize(
    "obj",
    [QuadraticObjective(np.array([-3.0, 2.0])), rotated_quadratic([2.0, 1.0, -3.0])],
    ids=["diagonal", "rotated"],
)
def test_first_order_starts_along_the_eigenvalue_largest_in_magnitude(obj):
    # near a critical point r1's ascent is power iteration on H^2, so its
    # maxima lie along the eigenvalue -3 while r0's lie along the top one, 2
    rho, theta = 0.1, np.zeros(obj.dim)
    report = build_flatness_report(obj, theta, rho=rho, alpha=0.5)
    for r0, r1 in [
        (zeroth_order_flatness(obj, theta, rho), first_order_flatness(obj, theta, rho)),
        (report.r0, report.r1),
    ]:
        assert r0 == pytest.approx(0.5 * 2.0 * rho**2, rel=1e-12)
        assert r1 == pytest.approx(3.0 * rho**2, rel=1e-12)


def test_restarts_start_along_every_ritz_vector_in_order(monkeypatch):
    # restarts 2j and 2j+1 start at theta +- rho*v_{j+1}: r0's v in order of
    # value (4, 2, 1, -3) and r1's in order of magnitude (4, -3, 2, 1)
    obj, rho, theta = rotated_quadratic([4.0, -3.0, 2.0, 1.0]), 0.1, np.zeros(4)
    budget = FlatnessBudget(n_random=8, n_ascent_steps=1)  # each step starts a restart
    offsets, step = [], flatness._BallAscent.step

    def recorded(self, x, value, direction):
        offsets.append(x - self.center)
        return step(self, x, value, direction)

    monkeypatch.setattr(flatness._BallAscent, "step", recorded)
    build_flatness_report(obj, theta, rho=rho, alpha=0.5, budget=budget)
    zeroth_order_flatness(obj, theta, rho, budget)
    first_order_flatness(obj, theta, rho, budget)
    vecs = np.linalg.eigh(obj.hessian())[1]  # of -3, 1, 2, 4
    orders = [vecs[:, [3, 2, 1, 0]], vecs[:, [3, 0, 2, 1]]] * 2  # report, then standalone
    assert len(offsets) == 8 * len(orders)
    for i, offset in enumerate(offsets):
        v = orders[i // 8][:, i % 8 // 2]
        assert objectives.norm(offset) == pytest.approx(rho, rel=1e-12)
        assert abs(offset @ v) / rho >= 1.0 - 1e-8
        if i % 2:
            assert offset @ offsets[i - 1] < 0.0  # the second start of a pair is -rho*v


def test_report_ball_maxima_do_not_depend_on_the_trace_probes(readme_mlp):
    # the ball maxima draw nothing from the report's stream, so the draws the
    # probes take before them cannot move them
    theta0 = readme_mlp.init_params(np.random.default_rng([3, 2]))
    theta = run_training(readme_mlp, theta0, README_TRAINING["fad"], 200, seed=3).theta_final
    a, b = (
        build_flatness_report(
            readme_mlp, theta, rho=0.1, alpha=0.5, budget=FlatnessBudget(4, 10), n_probes=n
        )
        for n in (4, 16)
    )
    assert (a.r0, a.r1) == (b.r0, b.r1)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-12, 3.0])
def test_every_start_point_lies_in_the_ball(monkeypatch, scale):
    # a v1 that rounding, or a caller, made longer than a unit vector is
    # projected, so every evaluated point stays in the ball and the estimates
    # stay lower bounds
    obj, theta = small_mlp()
    rho, points = 0.1, []

    def recorded(fn):
        def wrapper(obj, x):
            points.append(x.copy())
            return fn(obj, x)

        return wrapper

    monkeypatch.setattr(flatness, "eval_loss", recorded(flatness.eval_loss))
    monkeypatch.setattr(flatness, "eval_grad", recorded(flatness.eval_grad))
    _, _, ((v1, *_), _) = power_iteration_lambda_max(obj, theta, k=1)
    budget = FlatnessBudget(n_random=3, n_ascent_steps=2)
    zeroth_order_flatness(obj, theta, rho, budget, directions=[scale * v1])
    first_order_flatness(obj, theta, rho, budget, directions=[scale * v1])
    offsets = [objectives.norm(x - theta) for x in points]
    assert max(offsets) <= rho * (1.0 + 1e-14)
    assert offsets[1] == pytest.approx(rho, rel=1e-14)  # r0's first start, after theta


def off_eigenvector(dim):
    """A unit start direction off every eigenvector, so the ascent has a way to go."""
    v = np.random.default_rng(0).standard_normal(dim)
    return v / objectives.norm(v)


def test_ten_mixed_steps_reach_a_small_gap_maximum():
    # with top eigenvalues 1 and 0.8 the plain step closes the gap by about
    # (0.8 + 0.1) / 1.1 a step, and ten plain steps leave r0 6e-3 short
    obj, rho, v = rotated_quadratic([1.0, 0.8, 0.3], seed=3), 0.1, off_eigenvector(3)
    budget = FlatnessBudget(n_random=2, n_ascent_steps=10)
    r0 = zeroth_order_flatness(obj, np.zeros(3), rho, budget=budget, directions=[v])
    r1 = first_order_flatness(obj, np.zeros(3), rho, budget=budget, directions=[v])
    assert r0 == pytest.approx(0.5 * rho**2, rel=1e-6)
    assert r1 == pytest.approx(rho**2, rel=1e-6)


def test_mixed_steps_do_not_settle_on_a_saddle_of_the_sphere():
    # the eigenvector of 0.9 is a fixed point of the plain step too; unchecked,
    # the mixing settled there and left r0 9% short
    obj, rho, v = rotated_quadratic([1.0, 0.9, 0.5, 0.2], seed=3), 0.1, off_eigenvector(4)
    budget = FlatnessBudget(n_random=2, n_ascent_steps=50)
    r0 = zeroth_order_flatness(obj, np.zeros(4), rho, budget=budget, directions=[v])
    r1 = first_order_flatness(obj, np.zeros(4), rho, budget=budget, directions=[v])
    assert r0 == pytest.approx(0.5 * rho**2, rel=1e-6)
    assert r1 == pytest.approx(rho**2, rel=1e-6)


def plain_step(ascent, x, value, direction):
    """The ascent step without the mixing: 10*rho along the direction, into the ball."""
    step = (10.0 * ascent.rho / objectives.norm(direction)) * direction
    return flatness._project_to_ball(ascent.center, ascent.rho, x + step)


def test_default_steps_match_fifty_plain_steps_at_a_trained_point(readme_mlp, monkeypatch):
    # the Lanczos and Hutchinson draws come before the ball maxima on the
    # report's stream, so neither the budget nor the ascent step moves them
    theta0 = readme_mlp.init_params(np.random.default_rng([0, 2]))
    theta = run_training(readme_mlp, theta0, README_TRAINING["fad"], 300, seed=0).theta_final
    mixed = build_flatness_report(readme_mlp, theta, rho=0.1, alpha=0.5, seed=0)
    monkeypatch.setattr(flatness._BallAscent, "step", plain_step)
    budget = FlatnessBudget(n_random=16, n_ascent_steps=50)
    plain = build_flatness_report(readme_mlp, theta, rho=0.1, alpha=0.5, budget=budget, seed=0)
    for field in ("lambda_max", "top_eigs", "trace", "trace_stderr"):
        assert getattr(mixed, field) == getattr(plain, field)
    assert mixed.r0 == pytest.approx(plain.r0, rel=1e-6)
    assert mixed.r1 == pytest.approx(plain.r1, rel=1e-6)


# ------------------------------------------------------------- NaN settings

NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda obj: zeroth_order_flatness(obj, np.zeros(2), rho=NAN),
        lambda obj: first_order_flatness(obj, np.zeros(2), rho=NAN),
        lambda obj: lambda_max_from_fad(0.06, NAN, 0.5),
        lambda obj: build_flatness_report(obj, np.zeros(2), rho=NAN, alpha=0.5),
        lambda obj: power_iteration_lambda_max(obj, np.zeros(2), k=NAN),
        lambda obj: power_iteration_lambda_max(obj, np.zeros(2), max_iter=NAN),
        lambda obj: hutchinson_trace(obj, np.zeros(2), n_probes=NAN),
    ],
    ids=[
        "r0_rho", "r1_rho", "read_off_rho", "report_rho",
        "eig_k", "eig_max_iter", "trace_probes",
    ],
)
def test_nan_setting_is_rejected(call):
    with pytest.raises((ConfigError, BudgetError)):
        call(QuadraticObjective(np.array([2.0, 8.0])))


@pytest.mark.parametrize(
    "setting",
    [{"alpha": 1.5}, {"alpha": NAN}, {"k_eigs": 0}, {"n_probes": 1}],
    ids=["alpha_above_one", "alpha_nan", "k_eigs_zero", "one_probe"],
)
def test_report_rejects_a_bad_setting_before_any_oracle_call(calls, setting):
    obj, theta = small_mlp()
    with pytest.raises((ConfigError, BudgetError)):
        build_flatness_report(obj, theta, **{"rho": 0.1, "alpha": 0.5, **setting})
    assert calls == {"grad": 0, "loss": 0}
