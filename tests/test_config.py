"""Config parsing: JSON object -> frozen dataclass -> asdict -> JSON.

Every artifact embeds ``asdict`` of its parsed config, so parsing that
embedded dict must give back the same object, and a config with any key its
dataclass does not have must be rejected. A library caller who builds a
config directly gets the same range checks, NaN included.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin.cli import (
    BenchConfig,
    DataConfig,
    DoubleWellConfig,
    GridConfig,
    MLPConfig,
    QuadraticConfig,
    RandomSPDConfig,
    RosenbrockConfig,
    SweepConfig,
    _parse,
)
from flatmin.errors import BudgetError, ConfigError
from flatmin.flatness import FlatnessBudget, ReportConfig
from flatmin.optimizers import METHODS, SCHEDULES, OptimizerConfig
from flatmin.shiftbench import TRANSFORMS, DomainSpec, ProtocolConfig, SearchSpace


def numbers(lo=-1e3, hi=1e3, **kw):
    """Floats in [lo, hi], or ints there, which float fields also accept."""
    floats = st.floats(min_value=lo, max_value=hi, allow_nan=False, **kw)
    ints = st.integers(min_value=int(lo) + 1, max_value=int(hi))
    return st.one_of(floats, ints)


unit = numbers(0.0, 1.0)
half_open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
positive = numbers(0.0, 1e3, exclude_min=True)
nonnegative = numbers(0.0, 1e3)


@st.composite
def optimizer_docs(draw):
    method = draw(st.sampled_from(METHODS))
    doc = {"method": method, "eta0": draw(positive)}
    if method in ("sam", "gam", "fad"):
        doc["rho0"] = draw(positive)
    optional = {
        "alpha": unit,
        "beta": nonnegative,
        "xi": nonnegative,
        "schedule": st.sampled_from(SCHEDULES),
        "fad_ratio": unit,
        "momentum": half_open_unit,
        "weight_decay": nonnegative,
        "batch_size": st.none() | st.integers(min_value=1, max_value=512),
    }
    return {**doc, **draw(st.fixed_dictionaries({}, optional=optional))}


@st.composite
def domain_docs(draw):
    num_classes = draw(st.integers(min_value=2, max_value=6))
    optional = {
        "n_domains": st.integers(min_value=3, max_value=8),
        "feature_dim": st.integers(min_value=2, max_value=6),
        "transform": st.sampled_from(TRANSFORMS),
        "angle_step_deg": numbers(),
        "translation_step": numbers(),
        "class_separation": numbers(),
        "noise": nonnegative,
    }
    doc = {
        "num_classes": num_classes,
        "per_domain_n": draw(st.integers(min_value=10 * num_classes, max_value=1000)),
    }
    return {**doc, **draw(st.fixed_dictionaries({}, optional=optional))}


SEARCH_VALUES = {
    "log2_batch": numbers(0.0, 10.0),
    "log10_lr": numbers(-10.0, 10.0),
    "log10_momentum": numbers(-10.0, -1.0),
    "log10_weight_decay": numbers(-10.0, 10.0),
    "sam_rho": positive,
    "fad_rho": positive,
    "fad_alpha": unit,
    "fad_beta": nonnegative,
}


def value_lists(field_name):
    """Valid values of one search field: a range's two ends, or a nonempty set."""
    if field_name.startswith("log"):
        return st.lists(SEARCH_VALUES[field_name], min_size=2, max_size=2)
    return st.lists(SEARCH_VALUES[field_name], min_size=1, max_size=8)


search_docs = st.fixed_dictionaries(
    {}, optional={f.name: value_lists(f.name) for f in fields(SearchSpace)}
)

protocol_docs = st.fixed_dictionaries(
    {},
    optional={
        "n_hparam_trials": st.integers(min_value=1, max_value=50),
        "val_fraction": st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        "seeds_per_trial": st.integers(min_value=1, max_value=10),
        "iterations": st.integers(min_value=1, max_value=10_000),
        "hidden_units": st.integers(min_value=1, max_value=256),
        "search": search_docs,
        "report_rho": positive,
        "report_alpha": unit,
        "report_probes": st.integers(min_value=2, max_value=256),
        "report_k_eigs": st.integers(min_value=1, max_value=8),
        "report_restarts": st.integers(min_value=1, max_value=64),
        "report_ascent_steps": st.integers(min_value=1, max_value=200),
    },
)

random_spd_docs = st.fixed_dictionaries(
    {"dim": st.integers(min_value=1, max_value=64)},
    optional={
        "seed": st.integers(min_value=0, max_value=2**32),
        "eig_low": positive,
        "eig_high": positive,
        "min_top_gap": numbers(1.0, 10.0),
    },
)


def objective_docs(kind, required=None, **optional):
    """Docs of one objective kind; ``kind`` itself may be left to its default."""
    optional["kind"] = st.just(kind)
    return st.fixed_dictionaries(required or {}, optional=optional)


pairs = st.lists(numbers(), min_size=2, max_size=2)
int_lists = st.lists(st.integers(min_value=1, max_value=64), max_size=4)
quadratic_docs = st.one_of(
    objective_docs("quadratic", {"diag": st.lists(numbers(), min_size=1, max_size=6)}),
    objective_docs("quadratic", {"matrix": st.lists(pairs, min_size=2, max_size=2)}),
    objective_docs("quadratic", {"random_spd": random_spd_docs}),
)

CASES = [
    (OptimizerConfig, optimizer_docs()),
    (ProtocolConfig, protocol_docs),
    (DomainSpec, domain_docs()),
    (RandomSPDConfig, random_spd_docs),
    (QuadraticConfig, quadratic_docs),
    (RosenbrockConfig, objective_docs("rosenbrock", dim=st.integers(min_value=2, max_value=64))),
    (
        DoubleWellConfig,
        objective_docs("double_well", centers=pairs, curvatures=pairs, offsets=pairs),
    ),
    (
        MLPConfig,
        objective_docs(
            "mlp",
            layer_sizes=st.none() | int_lists,
            dataset=st.none() | st.text(max_size=12),
            hidden_units=st.integers(min_value=1, max_value=64),
            train_domains=st.none() | int_lists,
        ),
    ),
]


@pytest.mark.parametrize("cls,docs", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_parse_asdict_json_parse_round_trips(cls, docs):
    @settings(max_examples=60, deadline=None)
    @given(doc=docs)
    def check(doc):
        parsed = _parse(cls, doc, "config")
        assert _parse(cls, json.loads(json.dumps(asdict(parsed))), "config") == parsed

    check()


@pytest.mark.parametrize("cls,docs", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_parse_rejects_any_extra_key(cls, docs):
    names = {f.name for f in fields(cls)}

    @settings(max_examples=30, deadline=None)
    @given(doc=docs, extra=st.text(min_size=1, max_size=12).filter(lambda k: k not in names))
    def check(doc, extra):
        with pytest.raises(ConfigError, match="unknown keys"):
            _parse(cls, {**doc, extra: 1}, "config")

    check()


def fad_config(**kw):
    return OptimizerConfig(**{"method": "fad", "eta0": 0.1, "rho0": 0.1, **kw})


def sweep_config(**kw):
    return SweepConfig(
        data=DataConfig(DomainSpec()),
        iterations=1,
        optimizer=OptimizerConfig("sgd", eta0=0.1),
        grid=GridConfig("alpha", (0.5,)),
        **kw,
    )


GUARDED_FIELDS = {
    fad_config: (
        "eta0", "rho0", "alpha", "beta", "xi", "fad_ratio", "momentum", "weight_decay",
        "batch_size",
    ),
    DomainSpec: (
        "n_domains", "num_classes", "per_domain_n", "feature_dim", "noise", "angle_step_deg",
        "translation_step", "class_separation",
    ),
    ProtocolConfig: (
        "n_hparam_trials", "val_fraction", "seeds_per_trial", "iterations", "hidden_units",
        "report_rho", "report_alpha", "report_probes", "report_k_eigs", "report_restarts",
        "report_ascent_steps",
    ),
    FlatnessBudget: ("n_random", "n_ascent_steps"),
    ReportConfig: ("rho", "alpha", "k_eigs", "n_probes"),
    sweep_config: ("timing_repeats",),
}
GUARDED = [(build, name) for build, names in GUARDED_FIELDS.items() for name in names]


@pytest.mark.parametrize(
    "build,name", GUARDED, ids=[f"{build.__name__}.{name}" for build, name in GUARDED]
)
def test_nan_in_a_guarded_field_is_rejected(build, name):
    with pytest.raises((ConfigError, BudgetError)):
        build(**{name: float("nan")})


def test_bench_report_defaults_are_the_report_defaults():
    assert ProtocolConfig().report == ReportConfig()
    bench = _parse(BenchConfig, {"data": {"spec": {}}, "methods": ["sgd"]}, "bench config")
    embedded = asdict(bench)["protocol"]
    assert (embedded["report_restarts"], embedded["report_ascent_steps"]) == (2, 10)


NAN = float("nan")
INVALID_SEARCH = {
    "empty_set": {"fad_beta": ()},
    "zero_sam_rho": {"sam_rho": (0.1, 0.0)},
    "negative_fad_rho": {"fad_rho": (-0.1,)},
    "alpha_above_1": {"fad_alpha": (0.5, 1.5)},
    "negative_beta": {"fad_beta": (-0.1,)},
    "batch_end_below_0": {"log2_batch": (-1.0, 3.0)},
    "momentum_end_above_0": {"log10_momentum": (-1.0, 0.5)},
    "momentum_can_only_be_1": {"log10_momentum": (0.0, 0.0)},
    "momentum_first_end_1": {"log10_momentum": (0.0, -1.0)},
    "momentum_first_end_rounds_to_1": {"log10_momentum": (-1e-20, -1.0)},
    "nan_momentum_end": {"log10_momentum": (NAN, -1.0)},
    "lr_overflows": {"log10_lr": (400.0, 401.0)},
    "weight_decay_underflows": {"log10_weight_decay": (-400.0, -3.0)},
    "nan_range_end": {"log10_lr": (NAN, -3.0)},
    "nan_in_set": {"fad_alpha": (NAN,)},
}


@pytest.mark.parametrize("kw", INVALID_SEARCH.values(), ids=list(INVALID_SEARCH))
def test_invalid_search_space_is_rejected(kw):
    with pytest.raises(ConfigError):
        SearchSpace(**kw)
