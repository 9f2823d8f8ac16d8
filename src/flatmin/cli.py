"""``flatmin`` command line: train | flatness | converge | bench | sweep.

Every command takes a single JSON config (--config), an optional --seed
override, and an --out-dir for artifacts. Each config is parsed into the
command's frozen dataclass before any work starts: unknown keys, missing
required keys, values of the wrong type, out-of-range values and non-finite
numbers are all configuration problems. Result files embed the parsed config
with every default filled in (JSON under a "config" key, CSV as a leading
``# config: ...`` comment line) and are written atomically via a temp file and
rename. Exit codes: 0 success, 2 configuration problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import types
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, NumericalError
from .flatness import (
    ReportConfig,
    build_flatness_report,
    lambda_max_from_fad,
    power_iteration_lambda_max,
)
from .objectives import DoubleWellObjective, MLPObjective, Objective, QuadraticObjective
from .objectives import RosenbrockObjective, eval_loss, load_dataset
from .objectives import Vector, load_json, random_spd_matrix
from .optimizers import (
    LOG_COLUMNS,
    METHODS,
    MIN_CONVERGENCE_STEPS,
    OptimizerConfig,
    convergence_check,
    run_training,
)
from .shiftbench import (
    DomainSpec,
    ProtocolConfig,
    classification_accuracy,
    generate_domains,
    pool_domains,
    run_protocol,
)

CONFIG_EXIT = 2
NUMERIC_EXIT = 3

def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _write_json(path: Path, doc: dict) -> None:
    _atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _csv_text(config: dict, columns: tuple[str, ...], rows: "list[dict]") -> str:
    buf = io.StringIO()
    buf.write(f"# config: {json.dumps(config, sort_keys=True, separators=(',', ':'))}\n")
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# ----------------------------------------------------------- config parsing


def _convert(value, hint, where: str):
    """``value`` checked against the field type ``hint`` and converted to it."""
    if is_dataclass(hint):
        return _parse(hint, value, where)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):  # only ``X | None`` occurs
        return None if value is None else _convert(value, args[0], where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{where} must have {len(args)} entries, got {len(value)}")
        return tuple(_convert(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    number = (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # also rejects ints too large for a float
    )
    if hint is float and number:
        return float(value)
    if hint is int and number and float(value).is_integer():
        return int(value)
    if hint in (str, dict) and isinstance(value, hint):
        return value
    raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")


def _parse(cls, doc, where: str):
    """The frozen dataclass ``cls`` built from the JSON object ``doc``.

    Keys that are not fields of ``cls`` and missing fields without a default
    raise ConfigError. Each value is checked against its field's type and
    converted to it; fields typed as dataclasses are parsed the same way. A
    field named ``seed`` must be >= 0, at any depth. The dataclass's own
    ``__post_init__`` then checks the values' ranges.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in doc:
            kwargs[f.name] = _convert(doc[f.name], hints[f.name], f"{where}.{f.name}")
            if f.name == "seed" and kwargs["seed"] < 0:
                raise ConfigError(f"{where}.seed must be >= 0, got {kwargs['seed']}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} is missing required key '{f.name}'")
    return cls(**kwargs)


@dataclass(frozen=True)
class DataConfig:
    """A generated multi-domain dataset: generator settings and seed."""

    spec: DomainSpec
    seed: int = 0


@dataclass(frozen=True)
class MLPConfig:
    """An ``mlp`` objective over a dataset file or the ``data`` block's domains."""

    kind: str = "mlp"
    layer_sizes: tuple[int, ...] | None = None
    dataset: str | None = None
    hidden_units: int = 16
    train_domains: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RandomSPDConfig:
    dim: int
    seed: int = 0
    eig_low: float = 0.5
    eig_high: float = 10.0
    min_top_gap: float = 1.0


@dataclass(frozen=True)
class QuadraticConfig:
    """A ``quadratic`` objective: exactly one of ``diag``, ``matrix`` or ``random_spd``."""

    kind: str = "quadratic"
    diag: tuple[float, ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None
    random_spd: RandomSPDConfig | None = None

    def __post_init__(self) -> None:
        if [self.diag, self.matrix, self.random_spd].count(None) != 2:
            raise ConfigError("quadratic needs exactly one of diag | matrix | random_spd")


@dataclass(frozen=True)
class RosenbrockConfig:
    kind: str = "rosenbrock"
    dim: int = 2


@dataclass(frozen=True)
class DoubleWellConfig:
    kind: str = "double_well"
    centers: tuple[float, float] = (-1.0, 1.0)
    curvatures: tuple[float, float] = (8.0, 0.5)
    offsets: tuple[float, float] = (0.0, 0.0)


_OBJECTIVES = {c.kind: c for c in (QuadraticConfig, RosenbrockConfig, DoubleWellConfig, MLPConfig)}


@dataclass(frozen=True, kw_only=True)
class FlatnessConfig(ReportConfig):
    """``flatness``: one report at ``theta``, or at the initial point if absent."""

    objective: dict
    rho: float = field()  # required here: field() drops the inherited default
    seed: int = 0
    data: DataConfig | None = None
    theta: tuple[float, ...] | None = None


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    objective: dict
    optimizer: OptimizerConfig
    seed: int = 0
    run_id: str = "run"
    data: DataConfig | None = None
    theta0: tuple[float, ...] | None = None
    flatness: ReportConfig = field(default_factory=ReportConfig)

    def __post_init__(self) -> None:
        if not (self.iterations >= 1):
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        # the outputs are <run_id>.csv and <run_id>_flatness.json in --out-dir
        if self.run_id in ("", ".", "..") or Path(self.run_id).name != self.run_id:
            raise ConfigError(f"run_id must name a file inside --out-dir, got {self.run_id!r}")


@dataclass(frozen=True)
class ConvergeConfig:
    iterations: int
    objective: dict
    optimizer: OptimizerConfig
    seed: int = 0
    data: DataConfig | None = None
    theta0: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not (self.iterations >= MIN_CONVERGENCE_STEPS):
            raise ConfigError(
                f"converge needs iterations >= {MIN_CONVERGENCE_STEPS}, got {self.iterations}"
            )
        if self.optimizer.schedule != "inverse_sqrt":
            raise ConfigError(
                "converge requires schedule 'inverse_sqrt'; the decay analysis "
                "does not apply to constant schedules"
            )


@dataclass(frozen=True)
class BenchConfig:
    data: DataConfig
    methods: tuple[str, ...]
    seed: int = 0
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)

    def __post_init__(self) -> None:
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods must be non-empty and distinct, got {list(self.methods)}")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method '{m}' in bench config")


SWEEP_COLUMNS = ("value", "test_accuracy", "lambda_max", "wall_ms", "status")
SWEEP_PARAMS = {"rho": "rho0", "alpha": "alpha", "beta": "beta", "fad_ratio": "fad_ratio"}


@dataclass(frozen=True)
class GridConfig:
    param: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.param not in SWEEP_PARAMS:
            raise ConfigError(
                f"grid param must be one of {sorted(SWEEP_PARAMS)}, got '{self.param}'"
            )
        if not self.values:
            raise ConfigError("grid.values is empty")


@dataclass(frozen=True)
class SweepConfig:
    data: DataConfig
    iterations: int
    optimizer: OptimizerConfig
    grid: GridConfig
    seed: int = 0
    test_domain: int | None = None  # the last domain when absent
    hidden_units: int = 16
    timing_repeats: int = 1

    def __post_init__(self) -> None:
        if not (self.iterations >= 1):
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not (self.timing_repeats >= 1):
            raise ConfigError(f"timing_repeats must be >= 1, got {self.timing_repeats}")
        if self.test_domain is not None and not 0 <= self.test_domain < self.data.spec.n_domains:
            raise ConfigError(f"test_domain {self.test_domain} out of range")
        self.grid_configs()  # every grid point must be a valid optimizer config

    def grid_configs(self) -> list[OptimizerConfig]:
        name = SWEEP_PARAMS[self.grid.param]
        return [replace(self.optimizer, **{name: v}) for v in self.grid.values]


# ----------------------------------------------------------------- commands


def _build_objective(doc: dict, data: DataConfig | None) -> tuple[Objective, dict]:
    """Returns (objective, the parsed objective block with every default filled in)."""
    cls = _OBJECTIVES.get(doc.get("kind"))
    if cls is None:
        raise ConfigError(f"objective 'kind' must be one of {sorted(_OBJECTIVES)}")
    spec = _parse(cls, doc, "objective")
    if isinstance(spec, QuadraticConfig):
        curvature = spec.diag if spec.diag is not None else spec.matrix
        if spec.random_spd is not None:
            rs = spec.random_spd
            rng = np.random.default_rng(rs.seed)
            curvature = random_spd_matrix(rs.dim, rng, rs.eig_low, rs.eig_high, rs.min_top_gap)
        return QuadraticObjective(curvature), asdict(spec)
    if isinstance(spec, RosenbrockConfig):
        return RosenbrockObjective(spec.dim), asdict(spec)
    if isinstance(spec, DoubleWellConfig):
        return DoubleWellObjective(spec.centers, spec.curvatures, spec.offsets), asdict(spec)
    if spec.dataset is not None:
        if spec.layer_sizes is None:
            raise ConfigError("mlp objective with a dataset file needs layer_sizes")
        if spec.train_domains is not None:
            raise ConfigError("train_domains picks domains of a 'data' block, not of a dataset file")
        if data is not None:
            raise ConfigError("a 'data' block generates the mlp's rows; drop it next to a dataset file")
        return MLPObjective(spec.layer_sizes, load_dataset(spec.dataset)), asdict(spec)
    if data is None:
        raise ConfigError("mlp objective needs either a 'dataset' path or a 'data' block")
    n = data.spec.n_domains
    if spec.train_domains is None:
        spec = replace(spec, train_domains=tuple(range(n)))
    held_in = spec.train_domains
    if not held_in or len(set(held_in)) < len(held_in) or not set(held_in) <= set(range(n)):
        raise ConfigError(f"train_domains needs distinct indices in [0, {n}), got {list(held_in)}")
    md = generate_domains(data.spec, data.seed)
    if spec.layer_sizes is None:
        spec = replace(spec, layer_sizes=(md.feature_dim, spec.hidden_units, md.num_classes))
    obj = MLPObjective(spec.layer_sizes, pool_domains(md, spec.train_domains))
    return obj, asdict(spec)


def _initial_point(obj: Objective, theta0: tuple[float, ...] | None, seed: int) -> np.ndarray:
    if theta0 is not None:
        return np.asarray(theta0, dtype=np.float64)
    if isinstance(obj, MLPObjective):
        return obj.init_params(np.random.default_rng([seed, 2]))
    if obj.kind == "quadratic":
        return np.ones(obj.dim)
    return np.zeros(obj.dim)


def _check_batch_size(obj: Objective, optimizer: OptimizerConfig | None) -> None:
    if optimizer is None or optimizer.batch_size is None:
        return
    if obj.dataset is None:
        raise ConfigError(f"optimizer.batch_size needs data rows; a {obj.kind} objective has none")
    if optimizer.batch_size > obj.dataset.n:
        raise ConfigError(
            f"optimizer.batch_size {optimizer.batch_size} exceeds the {obj.dataset.n} training rows"
        )


def _resolve(cfg, theta_key: str):
    """(``cfg`` with its objective and start point ``theta_key`` filled in, objective, start)."""
    obj, obj_doc = _build_objective(cfg.objective, cfg.data)
    _check_batch_size(obj, getattr(cfg, "optimizer", None))
    given = getattr(cfg, theta_key)
    if given is not None and len(given) != obj.dim:
        raise ConfigError(
            f"{theta_key} has {len(given)} entries; the {obj.kind} objective has dim {obj.dim}"
        )
    theta = _initial_point(obj, given, cfg.seed)
    return replace(cfg, objective=obj_doc, **{theta_key: tuple(theta.tolist())}), obj, theta


def _report_doc(obj: Objective, theta: np.ndarray, flat: ReportConfig, seed: int) -> dict:
    """The flatness report at ``theta`` under ``flat``'s settings, as a dict."""
    return build_flatness_report(
        obj,
        theta,
        rho=flat.rho,
        alpha=flat.alpha,
        budget=flat.budget,
        k_eigs=flat.k_eigs,
        n_probes=flat.n_probes,
        seed=seed,
    ).to_dict()


def cmd_train(cfg: TrainConfig, out_dir: Path) -> None:
    cfg, obj, theta0 = _resolve(cfg, "theta0")
    embedded = asdict(cfg)
    csv_path = out_dir / f"{cfg.run_id}.csv"
    try:
        record = run_training(
            obj, theta0, cfg.optimizer, cfg.iterations, seed=cfg.seed, run_id=cfg.run_id
        )
    except NumericalError as err:
        _atomic_write_text(csv_path, _csv_text(embedded, LOG_COLUMNS, err.record.rows))
        raise
    _atomic_write_text(csv_path, _csv_text(embedded, LOG_COLUMNS, record.rows))
    out = _report_doc(obj, record.theta_final, cfg.flatness, cfg.seed)
    out["final_loss"] = eval_loss(obj, record.theta_final)
    out["config"] = embedded
    _write_json(out_dir / f"{cfg.run_id}_flatness.json", out)


def cmd_flatness(cfg: FlatnessConfig, out_dir: Path) -> None:
    cfg, obj, theta = _resolve(cfg, "theta")
    out = _report_doc(obj, theta, cfg, cfg.seed)
    # independent curvature read-off from the regularizer, for cross-checking
    out["lambda_max_from_fad"] = lambda_max_from_fad(out["r_fad"], cfg.rho, cfg.alpha)
    out["config"] = asdict(cfg)
    _write_json(out_dir / "flatness.json", out)


def cmd_converge(cfg: ConvergeConfig, out_dir: Path) -> None:
    cfg, obj, theta0 = _resolve(cfg, "theta0")
    record = run_training(obj, theta0, cfg.optimizer, cfg.iterations, seed=cfg.seed)
    out = asdict(convergence_check(record.rows, cfg.optimizer.eta0, cfg.optimizer.rho0))
    out["config"] = asdict(cfg)
    _write_json(out_dir / "convergence.json", out)


def cmd_bench(cfg: BenchConfig, out_dir: Path) -> None:
    md = generate_domains(cfg.data.spec, cfg.data.seed)
    result = run_protocol(md, list(cfg.methods), cfg.protocol, seed=cfg.seed)
    embedded = asdict(cfg)
    out = {
        "methods": list(cfg.methods),
        "n_domains": md.n_domains,
        "cells": [asdict(c) for c in result.cells],
        "config": embedded,
    }
    _write_json(out_dir / "bench.json", out)
    table = [{"domain_out": f"domain{d}"} for d in range(md.n_domains)]
    for c in result.cells:
        table[c.test_domain][c.method] = f"{c.mean_accuracy:.4f}±{c.std_accuracy:.4f}"
    columns = ("domain_out", *cfg.methods)
    _atomic_write_text(out_dir / "bench_table.csv", _csv_text(embedded, columns, table))
    selected = {f"{c.method}/domain{c.test_domain}": c.selected_hparams for c in result.cells}
    _write_json(out_dir / "bench_hparams.json", {"config": embedded, "selected": selected})


def cmd_sweep(cfg: SweepConfig, out_dir: Path) -> None:
    md = generate_domains(cfg.data.spec, cfg.data.seed)
    if cfg.test_domain is None:
        cfg = replace(cfg, test_domain=md.n_domains - 1)
    train_domains = tuple(i for i in range(md.n_domains) if i != cfg.test_domain)
    train_ds = pool_domains(md, train_domains)
    obj = MLPObjective((md.feature_dim, cfg.hidden_units, md.num_classes), train_ds)
    _check_batch_size(obj, cfg.optimizer)
    theta0 = _initial_point(obj, None, cfg.seed)
    points = cfg.grid_configs()
    rows = [{**dict.fromkeys(SWEEP_COLUMNS, float("nan")), "value": v} for v in cfg.grid.values]
    walls: list[list[float]] = [[] for _ in points]
    finals: list[Vector | None] = [None] * len(points)
    # repeat r of every grid point runs before repeat r+1, so a slow stretch of
    # the host, or the first run's warm-up, falls on every point alike; a row
    # holds a status only once its point has failed
    for _ in range(cfg.timing_repeats):
        for i, point in enumerate(points):
            if isinstance(rows[i]["status"], str):
                continue
            t0 = time.perf_counter()
            try:
                run = run_training(obj, theta0, point, cfg.iterations, seed=cfg.seed)
            except NumericalError as err:
                rows[i]["status"] = f"error:{type(err).__name__}"
                continue
            walls[i].append((time.perf_counter() - t0) * 1000.0)
            finals[i] = run.theta_final
    for row, theta, point_walls in zip(rows, finals, walls):
        if isinstance(row["status"], str):
            continue
        try:
            acc = classification_accuracy(obj, theta, md.domains[cfg.test_domain])
            eigs, _, _ = power_iteration_lambda_max(
                obj, theta, k=1, rng=np.random.default_rng([cfg.seed, 4])
            )
        except NumericalError as err:
            row["status"] = f"error:{type(err).__name__}"
            continue
        row.update(test_accuracy=acc, lambda_max=float(eigs[0]), status="ok")
        row["wall_ms"] = float(np.median(point_walls))
    _atomic_write_text(out_dir / "sweep.csv", _csv_text(asdict(cfg), SWEEP_COLUMNS, rows))


_COMMANDS = {
    "train": (TrainConfig, cmd_train),
    "flatness": (FlatnessConfig, cmd_flatness),
    "converge": (ConvergeConfig, cmd_converge),
    "bench": (BenchConfig, cmd_bench),
    "sweep": (SweepConfig, cmd_sweep),
}


def _load_config(path: str) -> dict:
    doc = load_json(path, "config file")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _check_out_dir(out_dir: Path) -> None:
    # checked before any work, but not created, so a config error leaves no directory
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {out_dir}: {existing} is not a directory")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="flatmin",
        description="Training, flatness reports, and benchmarks for "
        "flatness-aware optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out-dir", default=".", help="directory for result files")
    args = parser.parse_args(argv)
    try:
        doc = _load_config(args.config)
        if args.seed is not None:
            doc["seed"] = args.seed
        cls, handler = _COMMANDS[args.command]
        cfg = _parse(cls, doc, f"{args.command} config")
        _check_out_dir(Path(args.out_dir))
        handler(cfg, Path(args.out_dir))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return CONFIG_EXIT
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return NUMERIC_EXIT
    except (TypeError, ValueError) as err:
        print(f"error: malformed config value: {err}", file=sys.stderr)
        return CONFIG_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
