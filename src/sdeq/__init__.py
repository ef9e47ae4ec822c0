"""Exact solver and verifier for two symmetry-reducible rational
difference-equation systems: forward iteration, invariant-based order
reduction, closed-form solutions by parameter case, scaling-symmetry
checks, and forbidden-initial-condition prediction."""

from .closed_form import (
    CASE_TAGS_A,
    CASE_TAGS_B,
    CaseParamError,
    ForbiddenInputError,
    auto_case_a,
    auto_case_b,
    case_a_applies,
    case_b_applies,
    seeds_a,
    seeds_b,
    solve_a_case,
    solve_a_case_sweep,
    solve_a_product,
    solve_a_product_sweep,
    solve_b_case,
    solve_b_case_sweep,
    solve_b_product,
    solve_b_product_sweep,
)
from .forbidden import (
    ForbiddenReport,
    PredictVerdict,
    Violation,
    check_forbidden_a,
    check_forbidden_b,
    predict_vs_observe,
)
from .rational import (
    ExactScalar,
    alternating_sign,
    format_rational,
    format_sequence,
    geometric_sum,
    parity_selectors,
    parse_rational,
    rat,
)
from .reduction import (
    InvariantSeq,
    LinearSeq,
    ZeroDivisorError,
    ZeroInvariantError,
    closed_ST_a,
    closed_ST_b,
    invariants_a,
    invariants_b,
    linearize,
    reconstruct_a,
    reconstruct_b,
    solve_linear_a,
    solve_linear_b,
)
from .symmetry import (
    Characteristic,
    GroupAction,
    group_transform,
    invariant_annihilation,
    slsc_residual_a,
    slsc_residual_b,
)
from .systems import (
    Singularity,
    SystemAInitial,
    SystemAParams,
    SystemBInitial,
    SystemBParams,
    Trajectory,
    ZeroInitialError,
    iterate_a,
    iterate_b,
    shift_back,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
