"""Unbiased single-query gradients for set functions on {0,1}^d.

The package estimates the gradient of the multilinear extension
v(x) = E[Q(Y)] of a black-box set function Q, spending one oracle call
per sample, and ships descent loops, exact brute-force references,
classic score-function baselines, and a benchmark harness around that
estimator.
"""

from .descent import (
    DescentConfig,
    Schedule,
    Trajectory,
    derive_rng,
    derive_seed,
    descend,
    run_repeated,
)
from .distributions import (
    GaussianMixture,
    SymmetricDistribution,
    TwoPoint,
    UniformInterval,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DimensionMismatchError,
    DimensionTooLargeError,
    DomainError,
    EmptyInputError,
    EncodingError,
    NoDensityError,
    NotInvertibleError,
    ScheduleError,
    SqgradError,
    TupleError,
)
from .estimators import (
    Estimator,
    EstimatorSample,
    MomentSummary,
    estimate_mean_and_variance,
    make_estimator,
)
from .exact import (
    MAX_EXACT_DIM,
    finite_difference_gradient,
    multilinear_gradient,
    multilinear_value,
)
from .harness import (
    AggregateSeries,
    ExperimentResult,
    ExperimentSpec,
    MethodSpec,
    aggregate,
    call_grid,
    emit_csv,
    emit_plot,
    load_descent_config,
    load_experiment_spec,
    run_experiment,
    write_outputs,
)
from .oracles import (
    KnapsackOracle,
    Oracle,
    ProblemSpec,
    SymmetricSliceOracle,
    TableOracle,
    make_knapsack,
    parse_problem,
)
from .tuples import (
    TUPLE_NAMES,
    GoodTuple,
    convolution_check,
    get_tuple,
    register_tuple,
    validate_tuple,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SqgradError", "DomainError", "DimensionMismatchError", "DimensionTooLargeError",
    "NotInvertibleError", "NoDensityError", "TupleError", "ConstructionError",
    "ScheduleError", "EncodingError", "ConfigError", "EmptyInputError",
    # distributions and tuples
    "SymmetricDistribution", "UniformInterval", "TwoPoint", "GaussianMixture",
    "GoodTuple", "TUPLE_NAMES", "get_tuple", "register_tuple", "validate_tuple",
    "convolution_check",
    # oracles and exact references
    "Oracle", "TableOracle", "SymmetricSliceOracle", "KnapsackOracle",
    "make_knapsack", "ProblemSpec", "parse_problem",
    "MAX_EXACT_DIM", "multilinear_value", "multilinear_gradient",
    "finite_difference_gradient",
    # estimators
    "Estimator", "EstimatorSample", "MomentSummary", "make_estimator",
    "estimate_mean_and_variance",
    # descent
    "Schedule", "DescentConfig", "Trajectory", "descend", "run_repeated",
    "derive_rng", "derive_seed",
    # harness
    "MethodSpec", "ExperimentSpec", "AggregateSeries", "ExperimentResult",
    "load_experiment_spec", "load_descent_config", "run_experiment", "aggregate",
    "call_grid", "emit_csv", "emit_plot", "write_outputs",
]
