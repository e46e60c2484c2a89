"""Disjunctive superstructure models, quadratic/piecewise reformulation
and a self-contained spatial branch-and-bound global solver."""

from .model import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    Disjunct,
    Disjunction,
    DomainError,
    Expression,
    GdpModel,
    LogicClause,
    ValidationReport,
    Variable,
    interval_eval,
    load_model,
    save_model,
)
from .transforms import (
    BigMError,
    FlatModel,
    bigm_transform,
    compute_bigm,
    logic_to_linear,
)
from .approx import (
    ApproxPolicy,
    PwlTable,
    QuadFit,
    apply_approximation,
    build_pwl,
    fit_quadratic,
)
from .relax import build_lp_relaxation
from .lp import LinearProgram, LpSolution, lp_solve
from .bnb import SolveResult, branch_select, feasibility_check, solve_global
from .wtn import (
    WtnData,
    build_wtn_gdp,
    load_wtn_data,
    parse_wtn_data,
    relative_error,
    synthetic_instance,
)

__version__ = "0.1.0"
