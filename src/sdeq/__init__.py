"""Exact solver and verifier for two symmetry-reducible rational
difference-equation systems: forward iteration, invariant-based order
reduction, closed-form solutions by parameter case, scaling-symmetry
checks, and forbidden-initial-condition prediction.

Importing the package loads none of its layers: each public name (and
each layer module listed here) is imported on first access."""

import importlib

# the public names of each layer module
_EXPORTS = {
    "closed_form": (
        "CaseParamError ForbiddenInputError auto_case_a auto_case_b seeds_a seeds_b "
        "solve_a_case solve_a_case_sweep solve_a_product_sweep solve_b_case solve_b_case_sweep "
        "solve_b_product_sweep"
    ).split(),
    "forbidden": "ForbiddenReport Violation check_forbidden_a check_forbidden_b".split(),
    "rational": "format_rational format_sequence parse_rational rat".split(),
    "reduction": (
        "InvariantSeq LinearSeq ZeroDivisorError ZeroInvariantError closed_ST_a closed_ST_b "
        "invariants_a invariants_b linearize reconstruct_a reconstruct_b solve_linear_a "
        "solve_linear_b"
    ).split(),
    "symmetry": (
        "Characteristic GroupAction group_transform slsc_residual_a slsc_residual_b"
    ).split(),
    "systems": (
        "Singularity SystemAInitial SystemAParams SystemBInitial SystemBParams Trajectory "
        "ZeroInitialError iterate_a iterate_b"
    ).split(),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
