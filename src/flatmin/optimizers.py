"""First-order optimizers with flatness-aware perturbation steps.

The flatness-aware step (``fad``) estimates two sharpness corrections per
iteration from gradients at three auxiliary points and descends along

    delta = g0 + beta * (alpha * h0 + (1 - alpha) * h1)

where h0 is the gradient change toward the local ascent point and h1 the
gradient change along a second probe started from the h0 direction. ``sam``
keeps only the ascent-point gradient, ``gam`` only the h1 correction; both are
exact reductions of the fad step. All gradients within one step are evaluated
on the same minibatch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InsufficientDataError, NumericalError
from .objectives import IntVector, Objective, Vector, all_finite, eval_grad, eval_loss, norm
from .objectives import sample_batch

METHODS = ("sgd", "momentum_sgd", "adam", "adamw", "sam", "gam", "fad")
SCHEDULES = ("constant", "inverse_sqrt")
# the fewest log rows convergence_check fits a decay profile to
MIN_CONVERGENCE_STEPS = 10
# Adam's moment decays and denominator guard, at their standard values
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

LOG_COLUMNS = (
    "run_id",
    "method",
    "seed",
    "t",
    "eta_t",
    "rho_t",
    "loss",
    "norm_g0",
    "norm_h0",
    "norm_h1",
    "norm_delta",
    "fad_applied",
    "wall_ms",
)


@dataclass(frozen=True)
class OptimizerConfig:
    method: str
    eta0: float
    rho0: float = 0.0
    alpha: float = 0.5
    beta: float = 0.1
    xi: float = 1e-12
    schedule: str = "constant"
    fad_ratio: float = 1.0
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown method '{self.method}', expected one of {METHODS}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule '{self.schedule}', expected one of {SCHEDULES}")
        if not (self.eta0 > 0.0):
            raise ConfigError(f"eta0 must be positive, got {self.eta0}")
        if not (self.rho0 >= 0.0):
            raise ConfigError(f"rho0 must be nonnegative, got {self.rho0}")
        if self.method in ("sam", "gam", "fad") and not (self.rho0 > 0.0):
            raise ConfigError(f"method '{self.method}' needs rho0 > 0")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (self.beta >= 0.0):
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if not (self.xi >= 0.0):
            raise ConfigError(f"xi must be nonnegative, got {self.xi}")
        if not (0.0 <= self.fad_ratio <= 1.0):
            raise ConfigError(f"fad_ratio must be in [0, 1], got {self.fad_ratio}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (self.weight_decay >= 0.0):
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.batch_size is not None and not (self.batch_size >= 1):
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class OptimizerState:
    """Mutable per-run state: step counter, moment buffers, RNG streams.

    ``rng`` drives batch sampling; ``ratio_rng`` is a separate stream for the
    per-step fad_ratio coin flips so that turning the ratio up or down never
    changes which batches a run sees.
    """

    t: int
    rng: np.random.Generator
    ratio_rng: np.random.Generator
    momentum_buf: Vector | None = None
    adam_m: Vector | None = None
    adam_v: Vector | None = None

    @classmethod
    def fresh(cls, seed: int) -> "OptimizerState":
        return cls(
            t=0,
            rng=np.random.default_rng(int(seed)),
            ratio_rng=np.random.default_rng([int(seed), 1]),
        )


def schedule_value(base: float, schedule: str, t: int) -> float:
    """Value of a scheduled coefficient at 1-indexed step t."""
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    if schedule == "constant":
        return base
    if schedule == "inverse_sqrt":
        return base / np.sqrt(float(t))
    raise ConfigError(f"unknown schedule '{schedule}'")


def _grad(obj: Objective, theta: Vector, batch: IntVector | None, wd: float) -> Vector:
    # coupled L2: the regularized objective's gradient at the evaluation point
    g = eval_grad(obj, theta, batch)
    if wd != 0.0:
        g = g + wd * theta
    return g


def _adam_direction(g0: Vector, state: OptimizerState, t: int) -> Vector:
    if state.adam_m is None:
        state.adam_m = np.zeros_like(g0)
        state.adam_v = np.zeros_like(g0)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.adam_m, state.adam_v
    # in place, in the order of b1*m + (1-b1)*g0 and b2*v + (1-b2)*g0*g0
    m *= b1
    m += (1.0 - b1) * g0
    v *= b2
    v += (1.0 - b2) * g0 * g0
    denom = np.sqrt(v / (1.0 - b2**t))
    denom += ADAM_EPS
    return np.divide(m / (1.0 - b1**t), denom, out=denom)


StepFn = Callable[[Objective, Vector, OptimizerState, OptimizerConfig], tuple[Vector, dict]]


def step(
    obj: Objective, theta: Vector, state: OptimizerState, config: OptimizerConfig
) -> tuple[Vector, dict]:
    """One step of ``config.method``; see the module docstring for the fad update.

    Returns the next theta and the step's columns of its log row, ``t``
    through ``fad_applied`` in ``LOG_COLUMNS`` order. ``sam`` descends along
    the gradient at the ascent point theta + rho*g0/(|g0|+xi); ``gam`` is the
    fad step with alpha pinned to 0; ``adamw`` shrinks theta by (1 - eta_t*wd)
    outside the Adam moments, where every other method adds the decay to each
    gradient it evaluates.
    """
    method = config.method
    t = state.t + 1
    eta = schedule_value(config.eta0, config.schedule, t)
    rho = schedule_value(config.rho0, config.schedule, t)
    wd = 0.0 if method == "adamw" else config.weight_decay
    batch = None
    if obj.dataset is not None and config.batch_size is not None:
        batch = sample_batch(obj.dataset, config.batch_size, state.rng)
    loss0 = eval_loss(obj, theta, batch)
    g0 = _grad(obj, theta, batch, wd)
    norm_g0 = norm(g0)
    # h0 and h1 log as 0 on a step that does not evaluate them
    norm_h0 = norm_h1 = 0.0
    delta = g0
    if method == "momentum_sgd":
        if state.momentum_buf is None:
            state.momentum_buf = np.zeros_like(g0)
        state.momentum_buf = config.momentum * state.momentum_buf + g0
        delta = state.momentum_buf
    elif method in ("adam", "adamw"):
        delta = _adam_direction(g0, state, t)
    # sam draws no coin; gam and fad draw theirs from a stream of their own, so
    # fad_ratio never changes the batches, and with beta 0 they take sgd's path
    applied = method == "sam" or (
        method in ("gam", "fad")
        and config.beta > 0.0
        and bool(state.ratio_rng.uniform() < config.fad_ratio)
    )
    xi = config.xi
    if applied:
        g1 = _grad(obj, theta + rho * g0 / (norm_g0 + xi), batch, wd)
        h0 = g1 - g0
        norm_h0 = norm(h0)
        delta = g1
    if applied and method != "sam":
        alpha = 0.0 if method == "gam" else config.alpha
        ascent2 = theta + rho * h0 / (norm_h0 + xi)
        g2 = _grad(obj, ascent2, batch, wd)
        g3 = _grad(obj, ascent2 + rho * g2 / (norm(g2) + xi), batch, wd)
        h1 = g3 - g2
        norm_h1 = norm(h1)
        delta = g0 + config.beta * (alpha * h0 + (1.0 - alpha) * h1)
    if method == "adamw":
        theta = theta * (1.0 - eta * config.weight_decay)
    state.t = t
    theta_next = theta - eta * delta
    if not all_finite(theta_next):
        raise NumericalError("parameter update produced non-finite values")
    return theta_next, {
        "t": t,
        "eta_t": eta,
        "rho_t": rho,
        "loss": loss0,
        "norm_g0": norm_g0,
        "norm_h0": norm_h0,
        "norm_h1": norm_h1,
        # delta is g0 itself for sgd and a skipped gam or fad step
        "norm_delta": norm_g0 if delta is g0 else norm(delta),
        "fad_applied": int(applied),
    }


# run_training looks the step up per method, so a caller can wrap one method's steps
STEP_FUNCTIONS: dict[str, StepFn] = dict.fromkeys(METHODS, step)


@dataclass
class RunRecord:
    theta_final: Vector
    rows: list[dict]


def run_training(
    obj: Objective,
    theta0: Vector,
    config: OptimizerConfig,
    iterations: int,
    seed: int = 0,
    run_id: str = "run",
    log_sink: Callable[[dict], None] | None = None,
) -> RunRecord:
    """Run ``iterations`` optimizer steps from theta0, streaming one log row each.

    Deterministic given (objective, theta0, config, seed); wall_ms values are
    the only nondeterministic row entries. A non-finite loss or update raises
    NumericalError after the rows produced so far have been flushed to
    ``log_sink``.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    theta = np.array(theta0, dtype=np.float64, copy=True)
    seed = int(seed)
    state = OptimizerState.fresh(seed)
    method = config.method
    step_fn = STEP_FUNCTIONS[method]
    rows: list[dict] = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        theta, columns = step_fn(obj, theta, state, config)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        row = {"run_id": run_id, "method": method, "seed": seed, **columns, "wall_ms": wall_ms}
        rows.append(row)
        if log_sink is not None:
            log_sink(row)
    return RunRecord(theta, rows)


@dataclass(frozen=True)
class ConvergenceReport:
    """Summary of how fast the composite step norms shrink over a run.

    The fit regresses y(T') = C(T') * sqrt(T') on (1, log T') over the second
    half of the run, where C is the running sum of squared step norms; a good
    fit with a small remainder indicates the scheduled decay is doing its job.
    """

    n_steps: int
    c1: float
    c2: float
    residual: float
    r_squared: float
    min_delta_sq: float
    first_decile_min: float
    last_decile_min: float
    schedule_ok: bool
    note: str


def convergence_check(rows: list[dict], eta0: float, rho0: float) -> ConvergenceReport:
    """Fit the decay profile of ||delta_t||^2 and check the 1/sqrt(t) schedules.

    Reads ``t``, ``eta_t``, ``rho_t`` and ``norm_delta`` from the log rows of
    a run (``RunRecord.rows``).
    """
    n = len(rows)
    if n < MIN_CONVERGENCE_STEPS:
        raise InsufficientDataError(f"need at least {MIN_CONVERGENCE_STEPS} log rows, got {n}")
    t = np.array([r["t"] for r in rows], dtype=np.float64)
    eta = np.array([r["eta_t"] for r in rows])
    rho = np.array([r["rho_t"] for r in rows])
    ok_eta = np.allclose(eta * np.sqrt(t), eta0, rtol=1e-9, atol=0.0)
    ok_rho = np.allclose(rho * np.sqrt(t), rho0, rtol=1e-9, atol=1e-300)
    schedule_ok = bool(ok_eta and ok_rho)
    note = (
        "eta_t and rho_t follow the 1/sqrt(t) decay"
        if schedule_ok
        else "schedule violates the 1/sqrt(t) decay the guarantee assumes"
    )
    d2 = np.array([r["norm_delta"] ** 2 for r in rows])
    cum = np.cumsum(d2)
    half = t >= (n // 2)
    y = cum[half] * np.sqrt(t[half])
    design = np.stack([np.ones(int(half.sum())), np.log(t[half])], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ssr = float(np.sum((y - pred) ** 2))
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 and ssr == 0.0 else (1.0 - ssr / sst if sst > 0.0 else 0.0)
    decile = max(1, n // 10)
    return ConvergenceReport(
        n_steps=n,
        c1=float(coef[0]),
        c2=float(coef[1]),
        residual=ssr,
        r_squared=float(r2),
        min_delta_sq=float(d2.min()),
        first_decile_min=float(d2[:decile].min()),
        last_decile_min=float(d2[n - decile :].min()),
        schedule_ok=schedule_ok,
        note=note,
    )
