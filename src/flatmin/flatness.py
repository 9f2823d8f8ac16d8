"""Neighborhood flatness estimators and curvature diagnostics.

Every estimate is of the objective's full data: every training row, for an
MLP. Two complementary notions over a radius-rho ball around a point:

* zeroth order: the worst loss increase inside the ball,
* first order: rho times the largest gradient norm inside the ball.

Both are maxima found by restarted projected ascent, Anderson-accelerated so
that a few steps reach the maximum the plain step would approach only slowly.
Near a critical point r0's maxima sit at theta +- rho*v, with v the top Hessian
eigenvector, and r1's with v that of the eigenvalue largest in magnitude. So
restarts 2j and 2j+1 start at theta +- rho*v_{j+1}, with v_1, v_2, ... the Ritz
vectors of the report's own Lanczos solve in order of value for r0 and of
magnitude for r1. Every restart takes every step of its budget, so the ascent
costs the same at every point, and no restart draws from the RNG, so the
curvature probes see the same draws whatever the budget.

Their convex combination ``alpha*r0 + (1-alpha)*r1`` is the regularizer the
fad optimizer targets; near a minimum where a quadratic model holds, that
combination pins the top Hessian eigenvalue via

    lambda_max = r_fad / (rho^2 * (1 - alpha/2)).

Curvature is probed matrix-free: Lanczos on finite-difference Hessian-vector
products for the largest algebraic eigenvalues (one Krylov space reports a
repeated eigenvalue once unless it breaks down), and Rademacher probes on exact
products for the trace.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BudgetError, ConfigError, NumericalError
from .objectives import (
    FD_STEP,
    Matrix,
    Objective,
    Vector,
    eval_grad,
    eval_loss,
    hvp,
    hvp_fd,
    norm,
)


@dataclass(frozen=True)
class FlatnessBudget:
    """Restart/step budget for the ball-ascent estimators (``_ball_maximum``).

    ``n_random`` counts every restart: restarts 2j and 2j+1 start at
    ``theta +- rho*v_{j+1}``, the start directions in order, and restarts beyond
    the last direction are not run. Every restart takes all ``n_ascent_steps``
    steps of ``_BallAscent``, a projected power-type update; the default 10
    reach, at trained MLP points, the maxima 50 plain steps reach.
    """

    n_random: int = 2
    n_ascent_steps: int = 10

    def __post_init__(self) -> None:
        for name in ("n_random", "n_ascent_steps"):
            if not (getattr(self, name) >= 1):
                raise BudgetError(f"{name} must be >= 1, got {getattr(self, name)}")


def _project_to_ball(center: Vector, rho: float, x: Vector) -> Vector:
    offset = x - center
    length = norm(offset)
    if length <= rho:
        return x
    return center + offset * (rho / length)


class _BallAscent:
    """One restart's projected ascent inside the rho-ball around ``center``.

    The plain step moves x by 10*rho along the normalized ascent direction and
    projects back into the ball; its fixed points are the maxima the estimators
    look for, but near a flat ridge of the sphere it approaches them slowly.
    Each step therefore mixes the last two plain steps, as one-deep Anderson
    acceleration: it moves the plain step back along the change of iterate and
    residual (plain step minus iterate) by the factor that leaves the least
    residual, and projects the result into the ball again. A mixed step can head
    for a saddle of the sphere, so one whose value falls below its
    predecessor's is dropped for the plain step it replaced, and the mixing
    starts afresh. Every iterate stays inside the ball.
    """

    def __init__(self, center: Vector, rho: float):
        self.center = center
        self.rho = rho
        self.previous: tuple[Vector, Vector] | None = None  # iterate and its residual
        self.mixed = False
        self.value = -np.inf
        self.plain = center

    def step(self, x: Vector, value: float, direction: Vector) -> Vector:
        """The next iterate from ``x``, whose value is ``value`` and whose ascent
        direction is ``direction``."""
        if self.mixed and value < self.value:
            self.previous, self.mixed = None, False
            return self.plain
        length = norm(direction)
        if length == 0.0:
            return x
        step = (10.0 * self.rho / length) * direction
        plain = _project_to_ball(self.center, self.rho, x + step)
        residual = plain - x
        previous, self.previous = self.previous, (x, residual)
        self.value, self.plain, self.mixed = value, plain, False
        if previous is None:
            return plain
        d_residual = residual - previous[1]
        size = d_residual.dot(d_residual)
        if size == 0.0:
            return plain
        self.mixed = True
        gamma = d_residual.dot(residual) / size
        mixed = plain - gamma * (x - previous[0] + d_residual)
        return _project_to_ball(self.center, self.rho, mixed)


def _ball_maximum(
    obj: Objective,
    theta: Vector,
    rho: float,
    budget: FlatnessBudget | None,
    rng: np.random.Generator | None,
    directions: Sequence[Vector] | None,
    probe: Callable[[Vector, bool], tuple[float, Vector | None]],
    pick: int,
) -> tuple[float, float]:
    """The probe's value at ``theta`` and the largest value its restarted ascent finds.

    ``probe(x, ascending)`` gives the value at ``x`` and, when ascending, the ascent
    direction there or None to end the restart. Restarts 2j and 2j+1 start at
    ``theta +- rho*directions[j]``, projected into the ball so that rounding cannot
    leave it; a budget with more restarts than starts runs every start once. Without
    ``directions``, list ``pick`` of one k=1 solve on ``rng`` gives them; with them,
    nothing is drawn from ``rng``. Each restart's last iterate is evaluated too.
    """
    if not (rho > 0.0):
        raise ConfigError(f"rho must be positive, got {rho}")
    budget = budget or FlatnessBudget()
    base = best = probe(theta, False)[0]
    if directions is None:
        directions = power_iteration_lambda_max(obj, theta, k=1, rng=rng)[2][pick]
    starts = [(sign, v) for v in directions for sign in (1.0, -1.0)]
    for sign, v in starts[: budget.n_random]:
        x, ascent = _project_to_ball(theta, rho, theta + sign * rho * v), _BallAscent(theta, rho)
        for _ in range(budget.n_ascent_steps):
            value, direction = probe(x, True)
            best = max(best, value)
            if direction is None:
                break
            x = ascent.step(x, value, direction)
        best = max(best, probe(x, False)[0])
    return base, best


def zeroth_order_flatness(
    obj: Objective,
    theta: Vector,
    rho: float,
    budget: FlatnessBudget | None = None,
    rng: np.random.Generator | None = None,
    directions: Sequence[Vector] | None = None,
) -> float:
    """Estimate max over the rho-ball of loss(theta') - loss(theta), clamped at 0.

    Restarted accelerated projected gradient ascent (``_ball_maximum``) from
    ``theta +- rho*v`` for each unit start direction v in turn, by default the
    Hessian's Ritz vectors at ``theta`` in order of value, from one k=1 Lanczos
    solve on ``rng``. Every evaluated point lies inside the ball, so the estimate
    never exceeds the true maximum. An iterate's gradient reuses its loss call's
    forward pass.
    """

    def probe(x: Vector, ascending: bool) -> tuple[float, Vector | None]:
        return eval_loss(obj, x), eval_grad(obj, x) if ascending else None

    base, best = _ball_maximum(obj, theta, rho, budget, rng, directions, probe, pick=0)
    return max(best - base, 0.0)


def first_order_flatness(
    obj: Objective,
    theta: Vector,
    rho: float,
    budget: FlatnessBudget | None = None,
    rng: np.random.Generator | None = None,
    directions: Sequence[Vector] | None = None,
) -> float:
    """Estimate rho times the largest gradient norm over the rho-ball.

    Ascent follows the gradient of ||grad||, i.e. H(x) @ grad / ||grad||, with one
    finite-difference Hessian-vector product per step, whose gradient at the
    step's point an MLP takes from the step's own kept pass. Near a critical
    point that is power iteration on H^2, so here the default start directions
    are the Hessian's Ritz vectors in order of magnitude, from one k=1 Lanczos
    solve on ``rng``.
    """

    def probe(x: Vector, ascending: bool) -> tuple[float, Vector | None]:
        g = eval_grad(obj, x)
        norm_g = norm(g)
        ascend = ascending and norm_g > 0.0
        return norm_g, hvp_fd(obj, x, g) / norm_g if ascend else None

    return rho * _ball_maximum(obj, theta, rho, budget, rng, directions, probe, pick=1)[1]


def fad_regularizer(r0: float, r1: float, alpha: float) -> float:
    """Convex combination alpha*r0 + (1-alpha)*r1 of the two flatness orders."""
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * r0 + (1.0 - alpha) * r1


def lambda_max_from_fad(r_fad: float, rho: float, alpha: float) -> float:
    """Invert the quadratic-model identity to read lambda_max off the regularizer."""
    if not (rho > 0.0):
        raise ConfigError(f"rho must be positive, got {rho}")
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    return r_fad / (rho * rho * (1.0 - alpha / 2.0))


def _orthogonalise(q: Matrix, x: Vector) -> Vector:
    """``x`` less its part in the span of the orthonormal rows of ``q``, in two passes."""
    x = x - q.T @ (q @ x)
    return x - q.T @ (q @ x)  # the second pass removes what roundoff left


LANCZOS_TOL = 1e-8


def power_iteration_lambda_max(
    obj: Objective,
    theta: Vector,
    k: int = 1,
    max_iter: int = 1000,
    rng: np.random.Generator | None = None,
) -> tuple[Vector, list[bool], tuple[list[Vector], list[Vector]]]:
    """Top-k Hessian eigenvalues by Lanczos with full reorthogonalisation on FD products.

    Returns (the k largest algebraic Ritz values, nonincreasing; per-value
    convergence flags; every unit Ritz vector of the solve, once in order of value
    and once in order of magnitude with ties to the larger value) after at most
    ``min(max_iter, dim)`` products. A value converged when its Ritz residual
    ``beta * |s_last|`` is below ``LANCZOS_TOL``; a value the steps ran out before
    is NaN and False. One Krylov space holds a repeated eigenvalue once; when it
    breaks down before it holds k values, a fresh Rademacher start goes on with a
    zero coupling.
    """
    if not (1 <= k <= obj.dim):
        raise ConfigError(f"k must be in [1, {obj.dim}], got {k}")
    if not (max_iter >= 1):
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    rng = rng or np.random.default_rng(0)
    signs = np.array([-1.0, 1.0])
    steps = min(max_iter, obj.dim)
    # filled in place: basis row j (rows never reached are never touched), and the
    # tridiagonal at (j, j) and its couplings at (j, j + 1) and (j + 1, j)
    basis, tri = np.empty((steps, obj.dim)), np.zeros((steps, steps))
    w = rng.choice(signs, size=obj.dim)
    for j in range(steps):
        basis[j] = w / norm(w)
        w = hvp_fd(obj, theta, basis[j])
        tri[j, j] = float(basis[j].dot(w))
        q = basis[: j + 1]
        w = _orthogonalise(q, w)
        beta = norm(w)
        if not math.isfinite(beta):  # else the next basis vector, w / beta, is all zeros
            raise NumericalError("Hessian-vector products overflow float64")
        ritz, vecs = np.linalg.eigh(tri[: j + 1, : j + 1])
        residuals = beta * np.abs(vecs[-1])
        if j + 1 >= k and (residuals[-k:] < LANCZOS_TOL).all():
            break
        if beta < LANCZOS_TOL:  # breakdown: some sign vector keeps norm >= 1 off the span
            beta, w = 0.0, np.zeros(obj.dim)
            while norm(w) < 0.5:
                w = _orthogonalise(q, rng.choice(signs, size=obj.dim))
        if j + 1 < steps:
            tri[j, j + 1] = tri[j + 1, j] = beta
    n = min(k, len(ritz))
    values = np.full(k, np.nan)
    values[:n] = ritz[::-1][:n]
    flags = [bool(r < LANCZOS_TOL) for r in residuals[::-1][:n]] + [False] * (k - n)
    by_value = [q.T @ vecs[:, i] for i in range(len(ritz) - 1, -1, -1)]
    order = sorted(range(len(ritz)), key=lambda i: -abs(ritz[-1 - i]))  # ties keep value order
    return values, flags, (by_value, [by_value[i] for i in order])


def hutchinson_trace(
    obj: Objective,
    theta: Vector,
    n_probes: int = 64,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Hessian trace estimate (mean, standard error) from Rademacher probes.

    The probes are drawn in one call, the same draws as one per probe, and
    their exact products are taken as one block: no loss or gradient call.
    """
    if not (n_probes >= 2):
        raise BudgetError(f"need at least 2 probes, got {n_probes}")
    rng = rng or np.random.default_rng(0)
    probes = rng.choice(np.array([-1.0, 1.0]), size=(n_probes, obj.dim))
    vals = np.einsum("ij,ij->i", probes, hvp(obj, theta, probes))
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n_probes))


@dataclass(frozen=True, kw_only=True)
class ReportConfig:
    """Settings of one flatness report: the ball radius and mix, the number of
    top eigenvalues and of trace probes, and the ball-ascent budget.

    This is the one place a report's settings get their defaults and their
    checks; NaN fails every check.
    """

    rho: float = 0.1
    alpha: float = 0.5
    k_eigs: int = 2
    n_probes: int = 64
    budget: FlatnessBudget = field(default_factory=FlatnessBudget)

    def __post_init__(self) -> None:
        if not (self.rho > 0.0):
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (self.k_eigs >= 1):
            raise ConfigError(f"k_eigs must be >= 1, got {self.k_eigs}")
        if not (self.n_probes >= 2):
            raise BudgetError(f"n_probes must be >= 2, got {self.n_probes}")


@dataclass(frozen=True)
class FlatnessReport:
    """Flatness and curvature summary of one point of one loss surface."""

    rho: float
    alpha: float
    r0: float
    r1: float
    r_fad: float
    lambda_max: float
    top_eigs: list[float]
    trace: float
    trace_stderr: float
    budget: dict
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def build_flatness_report(
    obj: Objective,
    theta: Vector,
    rho: float,
    alpha: float,
    budget: FlatnessBudget | None = None,
    k_eigs: int = ReportConfig.k_eigs,
    n_probes: int = ReportConfig.n_probes,
    seed: int = 0,
) -> FlatnessReport:
    """Run all estimators at one point with a single seeded RNG stream.

    Every setting is checked, as a ``ReportConfig``, before the first oracle call.
    The eigen-solve and Hutchinson draw from the stream; the ball maxima start from
    the solve's Ritz vectors and draw nothing, so no estimate depends on another's
    settings.
    """
    budget = budget or FlatnessBudget()
    ReportConfig(rho=rho, alpha=alpha, k_eigs=k_eigs, n_probes=n_probes, budget=budget)
    k_eigs = min(k_eigs, obj.dim)
    rng = np.random.default_rng(seed)
    eigs, _, (by_value, by_magnitude) = power_iteration_lambda_max(obj, theta, k=k_eigs, rng=rng)
    trace, trace_se = hutchinson_trace(obj, theta, n_probes, rng)
    r0 = zeroth_order_flatness(obj, theta, rho, budget, directions=by_value)
    r1 = first_order_flatness(obj, theta, rho, budget, directions=by_magnitude)
    r_fad = fad_regularizer(r0, r1, alpha)
    budget_doc = asdict(budget)
    budget_doc.update({"k_eigs": k_eigs, "n_probes": n_probes, "fd_step": FD_STEP})
    return FlatnessReport(
        rho=float(rho),
        alpha=float(alpha),
        r0=float(r0),
        r1=float(r1),
        r_fad=float(r_fad),
        lambda_max=float(eigs[0]),
        top_eigs=[float(e) for e in eigs],
        trace=float(trace),
        trace_stderr=float(trace_se),
        budget=budget_doc,
        seed=int(seed),
    )
