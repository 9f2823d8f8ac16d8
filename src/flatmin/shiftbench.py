"""Synthetic covariate-shift benchmark with a leave-one-domain-out protocol.

Domains share one labeling rule defined in a canonical coordinate frame;
each domain sees the same class-conditional Gaussians pushed through its own
input transform (rotation or translation), so P(y | canonical x) is invariant
while P(x) shifts. Training pools all but one domain, model selection uses a
stratified validation split of the pool, and the held-out domain is only ever
touched for the final evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, ProtocolError
from .flatness import FlatnessBudget, FlatnessReport, ReportConfig, build_flatness_report
from .objectives import Dataset, MLPObjective, Vector, all_finite
from .optimizers import OptimizerConfig, run_training

TRANSFORMS = ("rotation", "translation", "identity")


@dataclass(frozen=True)
class DomainSpec:
    """Generator settings for one multi-domain dataset."""

    n_domains: int = 3
    per_domain_n: int = 150
    num_classes: int = 3
    feature_dim: int = 2
    transform: str = "rotation"
    angle_step_deg: float = 30.0
    translation_step: float = 1.0
    class_separation: float = 2.0
    noise: float = 0.4

    def __post_init__(self) -> None:
        if not (self.n_domains >= 3):
            raise ConfigError(f"need at least 3 domains, got {self.n_domains}")
        if not (self.num_classes >= 2):
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if not (self.per_domain_n >= 10 * self.num_classes):
            raise ConfigError(
                f"per_domain_n must be >= 10 * num_classes "
                f"({10 * self.num_classes}), got {self.per_domain_n}"
            )
        if not (self.feature_dim >= 2):
            raise ConfigError(f"feature_dim must be >= 2, got {self.feature_dim}")
        if self.transform not in TRANSFORMS:
            raise ConfigError(
                f"unknown transform '{self.transform}', expected one of {TRANSFORMS}"
            )
        if not (self.noise >= 0.0):
            raise ConfigError(f"noise must be nonnegative, got {self.noise}")
        steps = (self.angle_step_deg, self.translation_step, self.class_separation)
        if not np.isfinite(steps).all():
            raise ConfigError(f"angle, translation and separation must be finite, got {steps}")


@dataclass(frozen=True)
class MultiDomainDataset:
    domains: tuple[Dataset, ...]
    num_classes: int
    feature_dim: int

    @property
    def n_domains(self) -> int:
        return len(self.domains)


def _class_means(num_classes: int, feature_dim: int, separation: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = np.zeros((num_classes, feature_dim))
    means[:, 0] = separation * np.cos(angles)
    means[:, 1] = separation * np.sin(angles)
    return means


def _rotation(feature_dim: int, angle_deg: float) -> np.ndarray:
    # rotate the first two coordinates, identity on the rest
    theta = np.deg2rad(angle_deg)
    rot = np.eye(feature_dim)
    rot[0, 0] = rot[1, 1] = np.cos(theta)
    rot[0, 1] = -np.sin(theta)
    rot[1, 0] = np.sin(theta)
    return rot


def generate_domains(spec: DomainSpec, seed: int) -> MultiDomainDataset:
    """Sample every domain's rows; labels are assigned in the canonical frame."""
    rng = np.random.default_rng(int(seed))
    means = _class_means(spec.num_classes, spec.feature_dim, spec.class_separation)
    base, extra = divmod(spec.per_domain_n, spec.num_classes)
    counts = [base + (1 if c < extra else 0) for c in range(spec.num_classes)]
    domains = []
    for d in range(spec.n_domains):
        labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), counts)
        canonical = means[labels] + spec.noise * rng.standard_normal(
            (spec.per_domain_n, spec.feature_dim)
        )
        if spec.transform == "rotation":
            inputs = canonical @ _rotation(spec.feature_dim, d * spec.angle_step_deg).T
        elif spec.transform == "translation":
            offset = np.zeros(spec.feature_dim)
            offset[0] = d * spec.translation_step
            inputs = canonical + offset
        else:
            inputs = canonical
        # the spec is finite, but the rows it asks for may overflow float64
        if not all_finite(inputs):
            raise ConfigError(f"domain {d}'s rows are not finite: the data spec overflows float64")
        order = rng.permutation(spec.per_domain_n)
        domains.append(
            Dataset(
                inputs[order],
                labels[order],
                np.full(spec.per_domain_n, d, dtype=np.int64),
            )
        )
    return MultiDomainDataset(
        domains=tuple(domains),
        num_classes=spec.num_classes,
        feature_dim=spec.feature_dim,
    )


def pool_domains(md: MultiDomainDataset, domain_indices: tuple[int, ...]) -> Dataset:
    parts = [md.domains[i] for i in domain_indices]
    return Dataset(
        np.concatenate([p.inputs for p in parts]),
        np.concatenate([p.labels for p in parts]),
        np.concatenate([p.domain_ids for p in parts]),
    )


def stratified_split(
    dataset: Dataset, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train, validation) row indices, stratified by (domain, class)."""
    if not (0.0 < val_fraction < 1.0):
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    train: list[np.ndarray] = []
    val: list[np.ndarray] = []
    keys = dataset.domain_ids * (dataset.labels.max() + 1) + dataset.labels
    for key in np.unique(keys):
        rows = np.flatnonzero(keys == key)
        rows = rng.permutation(rows)
        n_val = int(round(val_fraction * rows.size))
        n_val = min(max(n_val, 1), rows.size - 1)
        val.append(rows[:n_val])
        train.append(rows[n_val:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(val))


@dataclass(frozen=True)
class SearchSpace:
    """Random-search distributions (log-uniform ranges and discrete sets)."""

    log2_batch: tuple[float, float] = (3.0, 5.5)
    log10_lr: tuple[float, float] = (-5.0, -3.5)
    log10_momentum: tuple[float, float] = (-1.0, 0.0)
    log10_weight_decay: tuple[float, float] = (-6.0, -3.0)
    sam_rho: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
    fad_rho: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    fad_alpha: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    fad_beta: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)

    def __post_init__(self) -> None:
        for name, base in (
            ("log2_batch", 2.0),
            ("log10_lr", 10.0),
            ("log10_momentum", 10.0),
            ("log10_weight_decay", 10.0),
        ):
            for end in getattr(self, name):
                if not _finite_positive_power(base, end):
                    raise ConfigError(f"{name} end {end} gives no finite positive {base:g}**end")
        if not all(end >= 0.0 for end in self.log2_batch):
            raise ConfigError(f"log2_batch ends must be >= 0, got {self.log2_batch}")
        if not all(end <= 0.0 for end in self.log10_momentum):
            raise ConfigError(f"log10_momentum ends must be <= 0, got {self.log10_momentum}")
        # uniform(a, b) can return a but never b, so a must give a momentum below 1
        if not (10.0 ** self.log10_momentum[0] < 1.0):
            raise ConfigError(f"log10_momentum first end gives momentum 1: {self.log10_momentum}")
        for name in ("sam_rho", "fad_rho", "fad_alpha", "fad_beta"):
            if not getattr(self, name):
                raise ConfigError(f"{name} is empty")
        if not all(v > 0.0 for v in (*self.sam_rho, *self.fad_rho)):
            raise ConfigError(f"rho values must be > 0, got {self.sam_rho} and {self.fad_rho}")
        if not all(0.0 <= v <= 1.0 for v in self.fad_alpha):
            raise ConfigError(f"fad_alpha values must be in [0, 1], got {self.fad_alpha}")
        if not all(v >= 0.0 for v in self.fad_beta):
            raise ConfigError(f"fad_beta values must be >= 0, got {self.fad_beta}")


def _finite_positive_power(base: float, end: float) -> bool:
    try:
        return 0.0 < base**end < np.inf
    except OverflowError:
        return False


def _log_uniform(rng: np.random.Generator, base: float, lo: float, hi: float) -> float:
    return float(base ** rng.uniform(lo, hi))


def _pick(rng: np.random.Generator, values: tuple[float, ...]) -> float:
    return float(values[int(rng.integers(len(values)))])


def sample_hparams(method: str, rng: np.random.Generator, space: SearchSpace) -> dict:
    """Draw one hyperparameter trial for ``method`` (fixed draw order)."""
    hp: dict = {
        "batch_size": int(round(_log_uniform(rng, 2.0, *space.log2_batch))),
        "eta0": _log_uniform(rng, 10.0, *space.log10_lr),
        "weight_decay": _log_uniform(rng, 10.0, *space.log10_weight_decay),
    }
    if method == "momentum_sgd":
        hp["momentum"] = _log_uniform(rng, 10.0, *space.log10_momentum)
    elif method == "sam":
        hp["rho0"] = _pick(rng, space.sam_rho)
    elif method == "gam":
        hp["rho0"] = _pick(rng, space.fad_rho)
        hp["beta"] = _pick(rng, space.fad_beta)
    elif method == "fad":
        hp["rho0"] = _pick(rng, space.fad_rho)
        hp["alpha"] = _pick(rng, space.fad_alpha)
        hp["beta"] = _pick(rng, space.fad_beta)
    return hp


@dataclass(frozen=True)
class ProtocolConfig:
    n_hparam_trials: int = 20
    val_fraction: float = 0.2
    seeds_per_trial: int = 3
    iterations: int = 500
    hidden_units: int = 16
    search: SearchSpace = field(default_factory=SearchSpace)
    report_rho: float = ReportConfig.rho
    report_alpha: float = ReportConfig.alpha
    report_probes: int = ReportConfig.n_probes
    report_k_eigs: int = ReportConfig.k_eigs
    report_restarts: int = FlatnessBudget.n_random
    report_ascent_steps: int = FlatnessBudget.n_ascent_steps

    def __post_init__(self) -> None:
        if not (self.n_hparam_trials >= 1):
            raise ConfigError(f"n_hparam_trials must be >= 1, got {self.n_hparam_trials}")
        if not (self.seeds_per_trial >= 1):
            raise ConfigError(f"seeds_per_trial must be >= 1, got {self.seeds_per_trial}")
        if not (self.iterations >= 1):
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not (self.hidden_units >= 1):
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        try:  # a bad report setting must fail here, before any training
            self.report
        except ConfigError as err:  # name this config's key: n_random is report_restarts
            name, rest = str(err).split(" ", 1)
            name = {"n_random": "restarts", "n_ascent_steps": "ascent_steps"}.get(name, name)
            raise type(err)(f"report_{name.removeprefix('n_')} {rest}") from None

    @property
    def report(self) -> ReportConfig:
        """The settings of every flatness report, from the flat ``report_*`` keys."""
        return ReportConfig(
            rho=self.report_rho,
            alpha=self.report_alpha,
            k_eigs=self.report_k_eigs,
            n_probes=self.report_probes,
            budget=FlatnessBudget(self.report_restarts, self.report_ascent_steps),
        )


def classification_accuracy(obj: MLPObjective, theta: Vector, dataset: Dataset) -> float:
    logits = obj.logits(theta, dataset.inputs)
    return float(np.mean(np.argmax(logits, axis=1) == dataset.labels))


def select_trial(val_accuracies: "list[float | None]") -> int:
    """Index of the best valid trial by validation accuracy; ties break low.

    This is the entire model-selection interface: it sees validation metrics
    and nothing else. ``None`` marks an invalid (failed) trial.
    """
    best = -1
    best_acc = -np.inf
    for i, acc in enumerate(val_accuracies):
        if acc is not None and acc > best_acc:
            best, best_acc = i, acc
    if best < 0:
        raise ProtocolError("every hyperparameter trial failed")
    return best


@dataclass(frozen=True)
class TrialOutcome:
    hparams: dict
    val_accuracy: float | None
    error: str | None = None


@dataclass
class BenchCell:
    method: str
    test_domain: int
    mean_accuracy: float
    std_accuracy: float
    seed_accuracies: tuple[float, ...]
    selected_trial: int
    selected_hparams: dict
    trial_val_accuracies: tuple
    lambda_maxes: tuple[float, ...]
    flatness: tuple[dict, ...]


@dataclass
class BenchResult:
    cells: list[BenchCell]
    events: list[tuple] = field(default_factory=list)
    # held-out domain -> (train, validation) row indices into the pooled domains
    splits: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def _derived_seed(*parts: int) -> int:
    return int(np.random.default_rng(list(parts)).integers(2**31))


def _train(
    obj: MLPObjective, method: str, hp: dict, iterations: int, seed: int, tags: tuple, run: tuple
) -> Vector:
    """Final point of one run of ``hp``, its batch size capped at the training rows.

    ``run`` is (held-out domain, method index, trial or retrain index); the
    initial point is drawn from [seed, tags[0], *run] and the batch seed is
    derived from [seed, tags[1], *run].
    """
    batch_size = min(hp["batch_size"], obj.dataset.n)
    cfg = OptimizerConfig(method=method, **{**hp, "batch_size": batch_size})
    theta0 = obj.init_params(np.random.default_rng([seed, tags[0], *run]))
    record = run_training(obj, theta0, cfg, iterations, seed=_derived_seed(seed, tags[1], *run))
    return record.theta_final


def run_protocol(
    md: MultiDomainDataset,
    methods: "list[str]",
    protocol: ProtocolConfig,
    seed: int = 0,
) -> BenchResult:
    """Leave-one-domain-out random search; see the module docstring.

    For every (method, held-out domain) cell: sample n_hparam_trials configs,
    train each on the stratified train split, score on the validation split,
    select by validation accuracy only, then retrain the winner over
    seeds_per_trial fresh seeds and report mean/std accuracy on the held-out
    domain plus a flatness report at each final point. Trials that fail
    numerically are excluded; a cell where every trial fails raises
    ProtocolError. An event's clock is its 1-based position in ``events``.
    """
    seed = int(seed)
    result = BenchResult(cells=[])
    layer_sizes = (md.feature_dim, protocol.hidden_units, md.num_classes)
    settings = protocol.report

    def log(*event) -> None:
        result.events.append((len(result.events) + 1, *event))

    for d in range(md.n_domains):
        pool = pool_domains(md, tuple(i for i in range(md.n_domains) if i != d))
        split_rng = np.random.default_rng([seed, 7, d])
        tr_idx, va_idx = stratified_split(pool, protocol.val_fraction, split_rng)
        result.splits[d] = (tr_idx, va_idx)
        train_ds, val_ds = pool.subset(tr_idx), pool.subset(va_idx)
        train_obj = MLPObjective(layer_sizes, train_ds)
        for mi, method in enumerate(methods):
            outcomes: list[TrialOutcome] = []
            for k in range(protocol.n_hparam_trials):
                hp_rng = np.random.default_rng([seed, 11, d, mi, k])
                hp = sample_hparams(method, hp_rng, protocol.search)
                try:
                    theta = _train(
                        train_obj, method, hp, protocol.iterations, seed, (13, 19), (d, mi, k)
                    )
                    acc = classification_accuracy(train_obj, theta, val_ds)
                    outcomes.append(TrialOutcome(hp, acc))
                except NumericalError as err:
                    outcomes.append(TrialOutcome(hp, None, error=str(err)))
                log("trial_scored", method, d, k)
            chosen = select_trial([o.val_accuracy for o in outcomes])
            log("selected", method, d, chosen)
            hp = outcomes[chosen].hparams
            accs: list[float] = []
            reports: list[FlatnessReport] = []
            for s in range(protocol.seeds_per_trial):
                theta = _train(
                    train_obj, method, hp, protocol.iterations, seed, (23, 29), (d, mi, s)
                )
                accs.append(classification_accuracy(train_obj, theta, md.domains[d]))
                log("test_eval", method, d, s)
                report = build_flatness_report(
                    train_obj,
                    theta,
                    rho=settings.rho,
                    alpha=settings.alpha,
                    budget=settings.budget,
                    k_eigs=settings.k_eigs,
                    n_probes=settings.n_probes,
                    seed=_derived_seed(seed, 31, d, mi, s),
                )
                reports.append(report)
            acc_arr = np.array(accs)
            std = float(acc_arr.std(ddof=1)) if acc_arr.size > 1 else 0.0
            result.cells.append(
                BenchCell(
                    method=method,
                    test_domain=d,
                    mean_accuracy=float(acc_arr.mean()),
                    std_accuracy=std,
                    seed_accuracies=tuple(accs),
                    selected_trial=chosen,
                    selected_hparams=hp,
                    trial_val_accuracies=tuple(o.val_accuracy for o in outcomes),
                    lambda_maxes=tuple(r.lambda_max for r in reports),
                    flatness=tuple(r.to_dict() for r in reports),
                )
            )
    return result
