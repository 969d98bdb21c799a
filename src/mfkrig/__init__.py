"""Multi-fidelity kriging with recursive autoregressive level coupling.

The package fits a hierarchy of computer codes of increasing cost and
accuracy: each level is modeled as a scaled version of the level below
plus an independent Gaussian-process adjustment, which lets a handful
of expensive runs borrow strength from many cheap ones. On top of the
model sits a sequential design engine that decides where to run next
and how deep into the hierarchy to go.
"""

from .cokriging import (
    LevelConfig,
    LevelParameters,
    MultiFidelityData,
    MultiFidelityModel,
    PredictionBreakdown,
    fit_level,
    fit_multifidelity,
    validate_nesting,
)
from .exceptions import (
    DuplicateDesignPointError,
    FitFailedError,
    IllConditionedError,
    InternalConsistencyError,
    MfkrigError,
    ParseError,
    SingularTrendError,
)
from .kernels import BasisSpec, KernelSpec
from .kriging import KrigingProblem
from .sequential import (
    CostModel,
    Domain,
    EnrichmentTrace,
    GridQuadrature,
    GridSearch,
    MonteCarloQuadrature,
    MultistartSearch,
    RandomSearch,
    WeightedSample,
    argmax_variance,
    choose_level,
    compute_imse,
    enrich,
    read_trace,
    run_loop,
    write_trace,
)
from .testbed import (
    TestProblem,
    builtin_problems,
    get_problem,
    load_data,
    load_model,
    nested_lhs,
    save_data,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "CostModel",
    "Domain",
    "DuplicateDesignPointError",
    "EnrichmentTrace",
    "FitFailedError",
    "GridQuadrature",
    "GridSearch",
    "IllConditionedError",
    "InternalConsistencyError",
    "KernelSpec",
    "KrigingProblem",
    "LevelConfig",
    "LevelParameters",
    "MfkrigError",
    "MonteCarloQuadrature",
    "MultiFidelityData",
    "MultiFidelityModel",
    "MultistartSearch",
    "ParseError",
    "PredictionBreakdown",
    "RandomSearch",
    "SingularTrendError",
    "TestProblem",
    "WeightedSample",
    "argmax_variance",
    "builtin_problems",
    "choose_level",
    "compute_imse",
    "enrich",
    "fit_level",
    "fit_multifidelity",
    "get_problem",
    "load_data",
    "load_model",
    "nested_lhs",
    "read_trace",
    "run_loop",
    "save_data",
    "save_model",
    "validate_nesting",
    "write_trace",
]
