"""Flatness-aware optimization toolkit: objectives, optimizers, flatness
estimators, a covariate-shift benchmark protocol, and the ``flatmin`` CLI."""

from .errors import (
    BatchSizeError,
    BudgetError,
    ConfigError,
    DegenerateDirectionError,
    DimensionError,
    FlatminError,
    InsufficientDataError,
    NumericalError,
    ProtocolError,
)
from .flatness import (
    FlatnessBudget,
    FlatnessReport,
    build_flatness_report,
    fad_regularizer,
    first_order_flatness,
    hutchinson_trace,
    lambda_max_from_fad,
    power_iteration_lambda_max,
    zeroth_order_flatness,
)
from .objectives import (
    Dataset,
    DoubleWellObjective,
    MLPObjective,
    Objective,
    QuadraticObjective,
    RosenbrockObjective,
    eval_grad,
    eval_loss,
    hvp,
    hvp_fd,
    load_dataset,
    random_spd_matrix,
    sample_batch,
    save_dataset,
)
from .optimizers import (
    ConfigStack,
    ConvergenceReport,
    OptimizerConfig,
    OptimizerState,
    RunRecord,
    convergence_check,
    run_training,
    schedule_value,
    step,
)

__version__ = "0.1.0"
