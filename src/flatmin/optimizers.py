"""First-order optimizers with flatness-aware perturbation steps.

The flatness-aware step (``fad``) estimates two sharpness corrections per
iteration from gradients at three auxiliary points and descends along

    delta = g0 + beta * (alpha * h0 + (1 - alpha) * h1)

where h0 is the gradient change toward the local ascent point and h1 the
gradient change along a second probe started from the h0 direction. ``sam``
keeps only the ascent-point gradient, ``gam`` only the h1 correction; both are
exact reductions of the fad step. All gradients within one step are evaluated
on the same minibatch.

``step`` and ``run_training`` also train K runs in lockstep: theta is then a
``[K, dim]`` stack, each run draws its own batch and coins from its own
streams, each per-run coefficient is a ``[K, 1]`` column, and every run's
numbers are bit for bit those it gets when it trains alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError, NumericalError
from .objectives import IntVector, Matrix, Objective, Vector, all_finite, eval_grad, eval_loss
from .objectives import norm, row_norms, sample_batch

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

    @property
    def decays(self) -> bool:
        """Whether each gradient a step takes adds ``weight_decay * theta``;
        ``adamw`` shrinks theta outside its moments instead."""
        return self.method != "adamw" and self.weight_decay != 0.0


# the fields of runs in lockstep that may differ from run to run
COLUMN_FIELDS = ("eta0", "rho0", "alpha", "beta", "xi", "fad_ratio", "momentum", "weight_decay")


class ConfigStack:
    """The configs of K runs that train in lockstep, read by ``step`` as it
    reads one ``OptimizerConfig``. The runs share method, schedule and batch
    size; each field of ``COLUMN_FIELDS`` is a ``[K, 1]`` column, one row per
    run, and ``decays`` is a ``[K, 1]`` mask when only some runs decay.
    """

    def __init__(self, configs: Sequence[OptimizerConfig]):
        self.configs = tuple(configs)
        if not self.configs:
            raise ConfigError("a lockstep group needs at least one run")
        first = self.configs[0]
        for name in ("method", "schedule", "batch_size"):
            if any(getattr(c, name) != getattr(first, name) for c in self.configs):
                raise ConfigError(f"runs that train in lockstep must share their {name}")
        if first.batch_size is None:
            raise ConfigError("runs that train in lockstep need a batch_size")
        self.method, self.schedule = first.method, first.schedule
        self.batch_size = first.batch_size
        for name in COLUMN_FIELDS:
            setattr(self, name, np.array([[getattr(c, name)] for c in self.configs]))
        decays = np.array([[c.decays] for c in self.configs])
        self.decays: bool | Matrix = bool(decays.all()) or (decays if decays.any() else False)

    def take(self, rows: IntVector) -> "ConfigStack":
        """The stack of the runs ``rows`` indexes."""
        return ConfigStack([self.configs[i] for i in rows])


@dataclass
class OptimizerState:
    """Mutable state of one run, or of K runs in lockstep: step counter,
    moment buffers, and each run's RNG streams.

    ``rngs`` drive batch sampling; ``ratio_rngs`` are separate streams for
    the per-step fad_ratio coin flips so that turning the ratio up or down
    never changes which batches a run sees.
    """

    t: int
    rngs: list[np.random.Generator]
    ratio_rngs: list[np.random.Generator]
    momentum_buf: Vector | None = None
    adam_m: Vector | None = None
    adam_v: Vector | None = None

    @classmethod
    def fresh(cls, seed: int | Sequence[int]) -> "OptimizerState":
        """The state of a run at step 0, or of K runs from K seeds."""
        seeds = [int(s) for s in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
        return cls(
            t=0,
            rngs=[np.random.default_rng(s) for s in seeds],
            ratio_rngs=[np.random.default_rng([s, 1]) for s in seeds],
        )


def schedule_value(base: float | Matrix, schedule: str, t: int) -> float | Matrix:
    """Value of a scheduled coefficient, or of a column of them, at 1-indexed step t."""
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    if schedule == "constant":
        return base
    if schedule == "inverse_sqrt":
        return base / np.sqrt(float(t))
    raise ConfigError(f"unknown schedule '{schedule}'")


def _grad(
    obj: Objective,
    theta: Vector | Matrix,
    batch: IntVector | None,
    wd: float | Matrix,
    decays: bool | Matrix,
) -> Vector | Matrix:
    # coupled L2: the regularized objective's gradient at the evaluation point;
    # adding 0.0 * theta would turn a -0.0 into 0.0, so runs without decay skip it
    g = eval_grad(obj, theta, batch)
    if decays is not False:
        if decays is True:
            g += wd * theta
        else:
            np.add(g, wd * theta, out=g, where=decays)
    return g


def _coin(config: OptimizerConfig, rng: np.random.Generator) -> int:
    """1 where a gam or fad step of ``config`` corrects, else 0: its coin, from
    its own stream, so that fad_ratio never changes the batches; with beta 0 it
    draws none and takes sgd's path."""
    return int(config.beta > 0.0 and rng.uniform() < config.fad_ratio)


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


def _corrected(
    obj: Objective,
    theta: Vector | Matrix,
    batch: IntVector | None,
    g0: Vector | Matrix,
    norm_g0: float | Matrix,
    rho: float | Matrix,
    config: OptimizerConfig | ConfigStack,
    decays: bool | Matrix,
    size: Callable,
) -> tuple[Vector | Matrix, float | Matrix, float | Matrix]:
    """The direction of a step whose correction fires, with its ``|h0|`` and
    ``|h1|``: the ascent-point gradient for ``sam``, else the fad mix. ``size``
    is ``norm``, or ``row_norms`` for a stack."""
    method, xi, wd = config.method, config.xi, config.weight_decay
    g1 = _grad(obj, theta + rho * g0 / (norm_g0 + xi), batch, wd, decays)
    h0 = g1 - g0
    norm_h0 = size(h0)
    if method == "sam":
        return g1, norm_h0, 0.0
    alpha = 0.0 if method == "gam" else config.alpha
    ascent2 = theta + rho * h0 / (norm_h0 + xi)
    g2 = _grad(obj, ascent2, batch, wd, decays)
    g3 = _grad(obj, ascent2 + rho * g2 / (size(g2) + xi), batch, wd, decays)
    h1 = g3 - g2
    return g0 + config.beta * (alpha * h0 + (1.0 - alpha) * h1), norm_h0, size(h1)


StepFn = Callable[[Objective, Vector, OptimizerState, OptimizerConfig], tuple[Vector, dict]]


def step(
    obj: Objective,
    theta: Vector | Matrix,
    state: OptimizerState,
    config: OptimizerConfig | ConfigStack,
) -> tuple[Vector | Matrix, dict]:
    """One step of ``config.method``; see the module docstring for the fad update.

    Returns the next theta and the step's columns of its log row, ``t``
    through ``fad_applied`` in ``LOG_COLUMNS`` order. ``sam`` descends along
    the gradient at the ascent point theta + rho*g0/(|g0|+xi); ``gam`` is the
    fad step with alpha pinned to 0; ``adamw`` shrinks theta by (1 - eta_t*wd)
    outside the Adam moments, where every other method adds the decay to each
    gradient it evaluates.

    With a ``[K, dim]`` theta, a ``ConfigStack`` and the state of K runs, it
    steps every run at once: ``loss`` is then a ``[K]`` vector,
    ``fad_applied`` a list, and each other column but ``t`` a ``[K, 1]``
    column, or 0.0 for every run. Only the runs whose correction fires take
    its gradients, as each run alone would.
    """
    method = config.method
    stacked = theta.ndim == 2
    size = row_norms if stacked else norm
    t = state.t + 1
    eta = schedule_value(config.eta0, config.schedule, t)
    rho = schedule_value(config.rho0, config.schedule, t)
    batch = None
    if obj.dataset is not None and config.batch_size is not None:
        if stacked:
            batch = np.empty((theta.shape[0], config.batch_size), dtype=np.int64)
            for k, rng in enumerate(state.rngs):
                batch[k] = sample_batch(obj.dataset, config.batch_size, rng)
        else:
            batch = sample_batch(obj.dataset, config.batch_size, state.rngs[0])
    loss0 = eval_loss(obj, theta, batch)
    decays = config.decays
    g0 = _grad(obj, theta, batch, config.weight_decay, decays)
    norm_g0 = size(g0)
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
    # sam draws no coin; gam and fad draw one per run (see ``_coin``)
    applied, coins = method == "sam", None
    if method in ("gam", "fad"):
        coins = list(map(_coin, config.configs if stacked else (config,), state.ratio_rngs))
        applied = all(coins)
    if applied:
        delta, norm_h0, norm_h1 = _corrected(
            obj, theta, batch, g0, norm_g0, rho, config, decays, size
        )
    elif coins and any(coins):
        # some runs of a stack: only theirs take the correction's gradients
        rows = np.flatnonzero(coins)
        picked = (theta[rows], batch[rows], g0[rows], norm_g0[rows], rho[rows])
        fired = config.take(rows)
        delta, norm_h0, norm_h1 = g0.copy(), np.zeros_like(norm_g0), np.zeros_like(norm_g0)
        delta[rows], norm_h0[rows], norm_h1[rows] = _corrected(
            obj, *picked, fired, fired.decays, size
        )
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
        "norm_delta": norm_g0 if delta is g0 else size(delta),
        "fad_applied": (coins or [int(applied)] * len(theta)) if stacked else int(applied),
    }


# run_training looks the step up per method, so a caller can wrap one method's steps
STEP_FUNCTIONS: dict[str, StepFn] = dict.fromkeys(METHODS, step)

def _log_rows(steps: list[dict], heads: list[dict]) -> list[dict]:
    """The log rows of ``steps``, each step's columns with its ``wall_ms``, in
    step order and within a step in run order; each run's rows begin with its
    head columns. A column of a step of K runs is a ``[K, 1]`` column, the
    ``[K]`` losses, a list of K flags, or one value for every run."""
    k = len(heads)
    rows = []
    for columns in steps:
        values = [
            v.ravel().tolist() if isinstance(v, np.ndarray) else v if type(v) is list else [v] * k
            for v in columns.values()
        ]
        rows += [{**head, **dict(zip(columns, run))} for head, run in zip(heads, zip(*values))]
    return rows


@dataclass
class RunRecord:
    """The final point of a run, or the ``[K, dim]`` final points of K runs in
    lockstep, with each step's columns and each run's head columns (``run_id``,
    ``method``, ``seed``), from which ``rows`` makes the log rows."""

    theta_final: Vector | Matrix
    steps: list[dict]
    heads: list[dict]

    @property
    def rows(self) -> list[dict]:
        """The log rows, made on each read: a caller that reads only the final
        point, as the bench does, never pays for them."""
        return _log_rows(self.steps, self.heads)


def _one_per_run(values: object, k: int, name: str) -> list:
    """``values`` as a list, when it is a list or tuple of one entry per run."""
    if not isinstance(values, (list, tuple)) or len(values) != k:
        raise ConfigError(f"{k} runs in lockstep need a list of {k} {name}s")
    return list(values)


def run_training(
    obj: Objective,
    theta0: Vector | Matrix,
    config: OptimizerConfig | Sequence[OptimizerConfig],
    iterations: int,
    seed: int | Sequence[int] = 0,
    run_id: str | Sequence[str] = "run",
    log_sink: Callable[[dict], None] | None = None,
) -> RunRecord:
    """Run ``iterations`` optimizer steps from theta0, streaming one log row each.

    Deterministic given (objective, theta0, config, seed); wall_ms values are
    the only nondeterministic row entries. A non-finite loss or update raises
    NumericalError after the rows produced so far have been flushed to
    ``log_sink``.

    A ``[K, dim]`` theta0 trains K runs in lockstep, one ``step`` call for
    all of them per step. ``config`` and ``seed`` are then lists of K, one per
    run, and ``run_id`` one for every run or a list of K; the configs must
    share method, schedule and batch size. Each step logs K rows in run order,
    which share the step's ``wall_ms``, and ``theta_final`` is ``[K, dim]``.
    Each run's rows and final point are bit for bit those it gets when trained
    alone, but a non-finite value in any run stops them all.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    theta = np.array(theta0, dtype=np.float64, copy=True)
    if theta.ndim == 2:
        k = len(theta)
        config = ConfigStack(_one_per_run(config, k, "config"))
        seed = [int(s) for s in _one_per_run(seed, k, "seed")]
        run_ids = _one_per_run([run_id] * k if isinstance(run_id, str) else run_id, k, "run_id")
        runs = zip(run_ids, [config.method] * k, seed)
    else:
        seed = int(seed)
        runs = [(run_id, config.method, seed)]
    # each run's head columns, which begin each of its rows
    heads = [{"run_id": r, "method": m, "seed": s} for r, m, s in runs]
    state = OptimizerState.fresh(seed)
    step_fn = STEP_FUNCTIONS[config.method]
    steps: list[dict] = []
    for _ in range(iterations):
        t0 = time.perf_counter()
        theta, columns = step_fn(obj, theta, state, config)
        columns["wall_ms"] = (time.perf_counter() - t0) * 1000.0
        steps.append(columns)
        if log_sink is not None:
            for row in _log_rows([columns], heads):
                log_sink(row)
    return RunRecord(theta, steps, heads)


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
