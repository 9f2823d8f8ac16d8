"""Span tracer that instruments flatmin from outside, plus the per-layer metrics.

No flatmin source is edited. ``Tracer.install`` replaces each public function at
the name its caller looks it up by (a module attribute, or an entry of
``optimizers.STEP_FUNCTIONS``) with a wrapper that records one span: name,
start, end, parent span, op id, and whether it raised. ``uninstall`` puts the
originals back. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from flatmin import cli, flatness, objectives, optimizers, shiftbench

# span fields, kept as a list per span so that closing one is an item store
NAME, START, END, PARENT, OP, ERROR, INFO = range(7)

POWER_ITERATION = "flatness.power_iteration_lambda_max"
ESTIMATORS = {
    "r0": "flatness.zeroth_order_flatness",
    "r1": "flatness.first_order_flatness",
    "eig": POWER_ITERATION,
    "trace": "flatness.hutchinson_trace",
}
ORACLE_KINDS = ("eval_grad", "eval_loss", "hvp_fd", "sample_batch")
REPORT_SPANS = ("flatness.build_flatness_report", "shiftbench.build_flatness_report")
RUN_SPANS = ("optimizers.run_training", "shiftbench.run_training")
STEP_PREFIX = "optimizers.step."


def wrap_points() -> list[tuple[object, str, str]]:
    """(owner, key, span name) for every wrapped function.

    The optimizer step functions are dict entries that ``run_training`` looks up
    per call. ``optimizers.run_training`` and ``flatness.build_flatness_report``
    are the names the benchmark itself calls; the rest are the names flatmin's
    own modules call each other by.
    """
    points: list[tuple[object, str, str]] = []

    def module(mod, *names: str) -> None:
        short = mod.__name__.rsplit(".", 1)[-1]
        points.extend((mod, n, f"{short}.{n}") for n in names)

    module(optimizers, "eval_grad", "eval_loss", "sample_batch", "run_training")
    points.extend(
        (optimizers.STEP_FUNCTIONS, m, STEP_PREFIX + m) for m in optimizers.STEP_FUNCTIONS
    )
    module(
        flatness,
        "eval_grad",
        "eval_loss",
        "hvp_fd",
        "zeroth_order_flatness",
        "first_order_flatness",
        "power_iteration_lambda_max",
        "hutchinson_trace",
        "build_flatness_report",
    )
    module(objectives, "eval_grad")  # the gradient calls hvp_fd makes
    module(shiftbench, "run_training", "build_flatness_report")
    module(cli, "run_protocol", "generate_domains")
    return points


def _get(owner: object, key: str) -> Callable:
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner: object, key: str, value: Callable) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Records nested spans on one thread; each op's spans share its op id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []
        self._op = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, self._op, False, None]
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list, error: bool) -> None:
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        keep_flags = name == POWER_ITERATION

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            if keep_flags:
                span[INFO] = list(result[1])  # per-eigenvalue convergence flags
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, key, name in wrap_points():
            original = _get(owner, key)
            self._saved.append((owner, key, original))
            _set(owner, key, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span of one benchmark op; every span opened inside shares its id."""
        self._op = op_id
        span = self._open("op")
        error = True
        try:
            yield
            error = False
        finally:
            self._close(span, error)
            self._op = -1

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,op,error\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},{int(s[ERROR])}\n")


# (metric, unit, better) for every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = [
    ("objectives.grad_calls_per_op", "count", "lower"),
    ("objectives.loss_calls_per_op", "count", "lower"),
    ("objectives.hvp_calls_per_op", "count", "lower"),
    ("objectives.batch_draws_per_op", "count", "lower"),
    ("objectives.grad_us", "us", "lower"),
    ("objectives.loss_us", "us", "lower"),
    ("objectives.hvp_us", "us", "lower"),
    ("objectives.busy_frac", "fraction", "lower"),
    *[(f"optimizers.step_us.{m}", "us", "lower") for m in optimizers.METHODS],
    ("optimizers.step_self_frac", "fraction", "lower"),
    ("optimizers.loop_frac", "fraction", "lower"),
    ("flatness.report_ms", "ms", "lower"),
    ("flatness.r0_ms", "ms", "lower"),
    ("flatness.r1_ms", "ms", "lower"),
    ("flatness.eig_ms", "ms", "lower"),
    ("flatness.trace_ms", "ms", "lower"),
    ("flatness.r0_grad_evals", "count", "lower"),
    ("flatness.r1_grad_evals", "count", "lower"),
    ("flatness.eig_grad_evals", "count", "lower"),
    ("flatness.trace_grad_evals", "count", "lower"),
    ("flatness.eig_converged_frac", "fraction", "higher"),
    ("shiftbench.train_runs_per_op", "count", "lower"),
    ("shiftbench.train_frac", "fraction", "lower"),
    ("shiftbench.report_frac", "fraction", "lower"),
    ("shiftbench.self_ms", "ms", "lower"),
    ("shiftbench.failed_trial_frac", "fraction", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
]


def _kind(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def _frac(part: float, whole: float) -> float:
    return part / whole if whole > 0.0 else 0.0


def layer_metrics(spans: list[list], bytes_per_op: float = 0.0) -> dict[str, float]:
    """Per-layer metrics over every op recorded in ``spans``.

    A layer a workload never enters reports 0. Self time is a span's duration
    minus the durations of its children, which cannot overlap on one thread.
    """
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child_time)]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def named(*names: str) -> list[int]:
        return [i for n in names for i in by_name.get(n, [])]

    ops = by_name.get("op", [])
    n_ops = len(ops)
    op_time = sum(dur[i] for i in ops)
    kinds: dict[str, list[int]] = {k: [] for k in ORACLE_KINDS}
    for name, idx in by_name.items():
        if _kind(name) in kinds:
            kinds[_kind(name)].extend(idx)
    m: dict[str, float] = {}

    m["objectives.grad_calls_per_op"] = _frac(len(kinds["eval_grad"]), n_ops)
    m["objectives.loss_calls_per_op"] = _frac(len(kinds["eval_loss"]), n_ops)
    m["objectives.hvp_calls_per_op"] = _frac(len(kinds["hvp_fd"]), n_ops)
    m["objectives.batch_draws_per_op"] = _frac(len(kinds["sample_batch"]), n_ops)
    for key, kind in (("grad", "eval_grad"), ("loss", "eval_loss"), ("hvp", "hvp_fd")):
        m[f"objectives.{key}_us"] = _median([dur[i] * 1e6 for i in kinds[kind]])
    outermost = [
        i
        for k in ORACLE_KINDS
        for i in kinds[k]
        if spans[i][PARENT] < 0 or _kind(spans[spans[i][PARENT]][NAME]) not in kinds
    ]
    m["objectives.busy_frac"] = _frac(sum(dur[i] for i in outermost), op_time)

    steps = [i for name, idx in by_name.items() if name.startswith(STEP_PREFIX) for i in idx]
    for method in optimizers.METHODS:
        m[f"optimizers.step_us.{method}"] = _median(
            [dur[i] * 1e6 for i in by_name.get(STEP_PREFIX + method, [])]
        )
    m["optimizers.step_self_frac"] = _frac(
        sum(self_time[i] for i in steps), sum(dur[i] for i in steps)
    )
    runs = named(*RUN_SPANS)
    m["optimizers.loop_frac"] = _frac(sum(self_time[i] for i in runs), sum(dur[i] for i in runs))

    reports = named(*REPORT_SPANS)
    m["flatness.report_ms"] = _median([dur[i] * 1e3 for i in reports])
    estimators = set(ESTIMATORS.values())
    grads_in: dict[int, int] = {}
    for i in kinds["eval_grad"]:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in estimators:
            p = spans[p][PARENT]
        if p >= 0:
            grads_in[p] = grads_in.get(p, 0) + 1
    for key, name in ESTIMATORS.items():
        calls = by_name.get(name, [])
        m[f"flatness.{key}_ms"] = _median([dur[i] * 1e3 for i in calls])
        m[f"flatness.{key}_grad_evals"] = _frac(sum(grads_in.get(i, 0) for i in calls), len(calls))
    flags = [f for i in by_name.get(POWER_ITERATION, []) for f in spans[i][INFO] or []]
    m["flatness.eig_converged_frac"] = _frac(sum(flags), len(flags))

    protocol = by_name.get("cli.run_protocol", [])
    trials = by_name.get("shiftbench.run_training", [])
    m["shiftbench.train_runs_per_op"] = _frac(len(trials), n_ops)
    m["shiftbench.train_frac"] = _frac(sum(dur[i] for i in trials), op_time)
    m["shiftbench.report_frac"] = _frac(
        sum(dur[i] for i in by_name.get("shiftbench.build_flatness_report", [])), op_time
    )
    m["shiftbench.self_ms"] = _median([self_time[i] * 1e3 for i in protocol])
    m["shiftbench.failed_trial_frac"] = _frac(sum(spans[i][ERROR] for i in trials), len(trials))

    # a bench-cli op is one cli.main call, so main's self time is the op's
    m["cli.self_ms"] = _median([self_time[i] * 1e3 for i in ops]) if protocol else 0.0
    m["cli.bytes_written"] = float(bytes_per_op)
    return {name: m[name] for name, _, _ in PER_LAYER}
