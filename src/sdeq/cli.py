"""Command-line front end: iterate, solve, reduce, verify, symmetry-check,
check-forbidden, and the differential-test driver.

All machine output is JSON (CSV on request for the sequence-producing
subcommands) with every scalar rendered as a rational literal; output is
byte-deterministic given the configuration, including the seed.  Exit
codes: 0 success/clean, 1 usage error, 2 singular trajectory where
regularity was required, 3 forbidden input, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

# the other layers are imported by the subcommands that use them
from . import systems
from .rational import format_rational, format_sequence, parse_rational
from .systems import Trajectory, ZeroInitialError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_FORBIDDEN = 3
EXIT_MISMATCH = 4


# per system, the (stratum name, case tag or None) difftest trials cycle through
STRATA = {
    "A": (("general", None),),
    "B": (("general", None), ("ac-unit", "ACeq1"), ("unit-bd", "UnitBD"), ("all-ones", "AllOnes")),
}


class UsageError(ValueError):
    pass


class RunConfig(NamedTuple):
    """Parsed invocation: subcommand, system, rational literals, sizes,
    seed, and output format.  ``run`` is a pure function of this record."""

    command: str
    system: str = "A"
    params: dict | None = None
    ics: dict | None = None
    n_max: int = 0
    case: str = "auto"
    sweep: bool = False
    horizon: int = 0
    trials: int = 0
    samples: int = 100
    pairs: int = 10
    seed: Optional[int] = None
    c1: Optional[Fraction] = None
    c2: Optional[Fraction] = None
    fmt: str = "json"
    out: Optional[str] = None


def _jdump(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_table(header: list[str], columns) -> str:
    # every field is an index, a case tag or a rational literal, none of
    # which needs quoting, so a plain join writes what csv.writer would
    rows = zip(*columns)
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _lit_map(values: dict) -> dict:
    return {k: format_rational(v) for k, v in values.items()}


def _build_inputs(config: RunConfig):
    shape = systems.SHAPES[config.system]
    return shape.params(**config.params), shape.initial(**config.ics)


def _singular_json(trajectory: Trajectory):
    if trajectory.singular is None:
        return None
    return {"step": trajectory.singular.step, "component": trajectory.singular.component}


# ---------------------------------------------------------------------------
# subcommand implementations


def _run_iterate(config: RunConfig) -> tuple[int, str]:
    params, ics = _build_inputs(config)
    orbit = systems.orbit(config.system, params, ics, config.n_max)
    trajectory = orbit.trajectory
    # each long entry's digits come from the entry two back and the factor
    # the iteration built it with
    ratios = systems.step_ratios(config.system, params, orbit)
    firsts, seconds = map(format_sequence, (trajectory.first, trajectory.second), ratios)
    if config.fmt == "csv":
        header = ["n", trajectory.labels[0], trajectory.labels[1]]
        columns = [map(str, range(len(trajectory))), firsts, seconds]
        return EXIT_OK, _csv_table(header, columns)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "system": config.system,
        "params": _lit_map(config.params),
        "N": config.n_max,
        "first": firsts,
        "second": seconds,
        "singular": _singular_json(trajectory),
    }
    return EXIT_OK, _jdump(payload)


def _resolve_case(config: RunConfig, params) -> str:
    if config.case != "auto":
        return config.case
    from .closed_form import auto_case

    return auto_case(config.system, params)


def _run_solve(config: RunConfig) -> tuple[int, str]:
    from .closed_form import case_point, case_sweep_ratios

    params, ics = _build_inputs(config)
    tag = _resolve_case(config, params)
    if config.sweep:
        # each long entry is printed from the entry two back and the factor
        # the sweep built it with
        first, second, ratios = case_sweep_ratios(config.system, tag, params, ics, config.n_max)
        firsts, seconds = map(format_sequence, (first, second), ratios)
        indices = range(config.n_max + 1)
    else:
        point = case_point(config.system, tag, params, ics, config.n_max)
        firsts, seconds = ([format_rational(value)] for value in point)
        indices = [config.n_max]
    if config.fmt == "csv":
        columns = [map(str, indices), firsts, seconds, [tag] * len(indices)]
        return EXIT_OK, _csv_table(["n", "first", "second", "case"], columns)
    records = [
        {"n": n, "first": f, "second": s, "case": tag}
        for n, f, s in zip(indices, firsts, seconds)
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "system": config.system,
        "case": tag,
        "params": _lit_map(config.params),
        "ics": _lit_map(config.ics),
        "records": records,
    }
    return EXIT_OK, _jdump(payload)


def _regular_orbit(system: str, params, ics, n_max: int) -> systems.Orbit:
    orbit = systems.orbit(system, params, ics, n_max)
    if orbit.trajectory.singular is not None:
        raise _Singular(orbit.trajectory)
    return orbit


def _run_reduce(config: RunConfig) -> tuple[int, str]:
    from .reduction import InvariantSeq, linearize

    params, ics = _build_inputs(config)
    # the invariant products the iteration carried, w[0..N-1] and z[0..N-1]
    orbit = _regular_orbit(config.system, params, ics, config.n_max)
    inv = InvariantSeq(orbit.w, orbit.z)
    lin = linearize(inv)
    if config.fmt == "csv":
        literals = map(format_sequence, (inv.w, inv.z, lin.S, lin.T))
        columns = [map(str, range(len(inv.w))), *literals]
        return EXIT_OK, _csv_table(["n", "w", "z", "S", "T"], columns)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "reduce",
        "system": config.system,
        "params": _lit_map(config.params),
        "N": config.n_max,
        "w": format_sequence(inv.w),
        "z": format_sequence(inv.z),
        "S": format_sequence(lin.S),
        "T": format_sequence(lin.T),
    }
    return EXIT_OK, _jdump(payload)


class _Singular(Exception):
    def __init__(self, trajectory: Trajectory):
        self.trajectory = trajectory
        sing = trajectory.singular
        super().__init__(
            f"singular trajectory at step {sing.step} ({sing.denominator_expression})"
        )


def _routes(system: str, tag: str, params, ics, n_max: int) -> dict:
    """Every route name, "product" and case ``tag``, from one sweep of the
    table; only a pure-power case's periodic extension is evaluated apart."""
    from .closed_form import case_routes, product_sweep

    product = product_sweep(system, params, ics, n_max)
    return case_routes(system, tag, params, product, n_max)


def compare_routes(routes: dict, trajectory: Trajectory, n_max: int):
    """Compare each route with the iterated orbit at indices 0..n_max,
    routes in sorted order.  Returns (comparisons, failures, the first
    mismatching (route, n) or None); a failure is an index where either
    component differs."""
    failures = 0
    first_mismatch = None
    for route, (first, second) in sorted(routes.items()):
        for n in range(n_max + 1):
            if first[n] != trajectory.first[n] or second[n] != trajectory.second[n]:
                failures += 1
                if first_mismatch is None:
                    first_mismatch = (route, n)
    return len(routes) * (n_max + 1), failures, first_mismatch


def _run_verify(config: RunConfig) -> tuple[int, str]:
    params, ics = _build_inputs(config)
    tag = _resolve_case(config, params)
    trajectory = _regular_orbit(config.system, params, ics, config.n_max).trajectory
    routes = _routes(config.system, tag, params, ics, config.n_max)
    checked, _, mismatch = compare_routes(routes, trajectory, config.n_max)
    first_mismatch = None
    if mismatch is not None:
        route, n = mismatch
        first, second = routes[route]
        if first[n] != trajectory.first[n]:
            component, closed, iterated = "first", first[n], trajectory.first[n]
        else:
            component, closed, iterated = "second", second[n], trajectory.second[n]
        first_mismatch = {
            "route": route,
            "n": n,
            "component": component,
            "closed_form": format_rational(closed),
            "iterated": format_rational(iterated),
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "system": config.system,
        "case": tag,
        "N": config.n_max,
        "checked": checked,
        "equal": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }
    code = EXIT_OK if first_mismatch is None else EXIT_MISMATCH
    return code, _jdump(payload)


def _run_check_forbidden(config: RunConfig) -> tuple[int, str]:
    from .forbidden import check_forbidden

    params, ics = _build_inputs(config)
    report = check_forbidden(config.system, params, ics, config.horizon)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "check-forbidden",
        "system": config.system,
        "params": _lit_map(config.params),
        "ics": _lit_map(config.ics),
        "horizon": config.horizon,
        "violations": [
            {"restriction": v.restriction_id, "r": v.r} for v in report.violated
        ],
        "closed_form_inadmissible": report.closed_form_inadmissible,
        "predicted_singular_step": report.predicted_singular_step,
    }
    code = EXIT_OK if report.clean else EXIT_FORBIDDEN
    return code, _jdump(payload)


def _sample_residual_input(rng, system: str, fixed_params):
    """Draw (params, point) from the random.Random ``rng`` with nonzero
    coordinates at which the residuals are defined.  Parameters are redrawn
    with the point unless fixed; fixed parameters may admit no point at all
    (e.g. a = b = 0 for System B), in which case the retry cap trips."""
    from .sampling import RETRY_CAP, draw_nonzero, draw_params
    from .symmetry import defined_at

    fields = systems.SHAPES[system].initial._fields
    for _ in range(RETRY_CAP):
        params = fixed_params if fixed_params is not None else draw_params(rng, system)
        point = tuple(draw_nonzero(rng) for _ in fields)
        if defined_at(system, params, point):
            return params, point
    raise UsageError("no admissible sample points for the given parameters")


def _run_symmetry_check(config: RunConfig) -> tuple[int, str]:
    import random

    from .symmetry import Characteristic, residual, residual_kernel

    rng = random.Random(config.seed)
    if config.c1 is not None and config.c2 is not None:
        characteristics = [Characteristic(config.c1, config.c2)]
    else:
        characteristics = [
            Characteristic(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            for _ in range(config.pairs)
        ]
    shape = systems.SHAPES[config.system]
    fixed_params = None if config.params is None else shape.params(**config.params)
    checked = 0
    nonzero: list[dict] = []
    for ch in characteristics:
        for parity in (0, 1):
            for _ in range(config.samples):
                params, point = _sample_residual_input(rng, config.system, fixed_params)
                checked += 1
                # the exact residual is built only to report a nonzero one
                if residual_kernel(config.system, ch, params, parity, point) != (0, 0):
                    residuals = residual(config.system, ch, params, parity, point)
                    nonzero.append(
                        {
                            "c1": format_rational(ch.c1),
                            "c2": format_rational(ch.c2),
                            "parity": parity,
                            "point": format_sequence(point),
                            "residuals": format_sequence(residuals),
                        }
                    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "symmetry-check",
        "system": config.system,
        "pairs": len(characteristics),
        "samples_per_parity": config.samples,
        "seed": config.seed,
        "checked": checked,
        "all_zero": not nonzero,
        "nonzero_residuals": nonzero,
    }
    return (EXIT_OK if not nonzero else EXIT_MISMATCH), _jdump(payload)


def difftest(system: str, trials: int, n_max: int, seed: int) -> dict:
    """Sample admissible inputs, skip forbidden ones, and assert exact
    agreement of the product and case closed forms with iteration; one
    sweep of the closed-form table per trial serves both (see _routes).

    Trials cycle through the system's parameter strata (for System B the
    geometric-ratio, unit-ratio, unit-b,d and all-ones families).
    """
    import random

    from .closed_form import auto_case
    from .sampling import DISTRIBUTION_NOTE, draw_admissible

    strata = STRATA[system]
    rng = random.Random(seed)
    skipped = 0
    comparisons = 0
    failures = 0
    first_counterexample = None
    strata_counts: dict[str, int] = {}
    for trial in range(trials):
        stratum, case = strata[trial % len(strata)]
        params, ics, skipped_now = draw_admissible(rng, system, n_max, case)
        skipped += skipped_now
        strata_counts[stratum] = strata_counts.get(stratum, 0) + 1
        trajectory = systems.iterate(system, params, ics, n_max)
        inputs = {"params": _lit_map(params._asdict()), "ics": _lit_map(ics._asdict())}
        if trajectory.singular is not None:
            # admissible inputs cannot be singular; a hit here is a finding
            failures += 1
            if first_counterexample is None:
                first_counterexample = {
                    "kind": "unexpected-singularity",
                    **inputs,
                    "step": trajectory.singular.step,
                }
            continue
        routes = _routes(system, auto_case(system, params), params, ics, n_max)
        compared, failed, mismatch = compare_routes(routes, trajectory, n_max)
        comparisons += compared
        failures += failed
        if mismatch is not None and first_counterexample is None:
            route, n = mismatch
            first, second = routes[route]
            first_counterexample = {
                "kind": "value-mismatch",
                "route": route,
                **inputs,
                "n": n,
                "closed_first": format_rational(first[n]),
                "closed_second": format_rational(second[n]),
                "iterated_first": format_rational(trajectory.first[n]),
                "iterated_second": format_rational(trajectory.second[n]),
            }
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "difftest",
        "system": system,
        "trials": trials,
        "N": n_max,
        "seed": seed,
        "distribution": DISTRIBUTION_NOTE,
        "strata": {k: strata_counts[k] for k in sorted(strata_counts)},
        "skipped_draws": skipped,
        "comparisons": comparisons,
        "failures": failures,
        "first_counterexample": first_counterexample,
    }


def _run_difftest(config: RunConfig) -> tuple[int, str]:
    report = difftest(config.system, config.trials, config.n_max, config.seed)
    code = EXIT_OK if report["failures"] == 0 else EXIT_MISMATCH
    return code, _jdump(report)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative rational literals like -1/2 pass as option values
        self._negative_number_matcher = re.compile(r"^-[0-9]+(/[0-9]+)?$")

    def error(self, message):
        raise UsageError(message)


def _add_common(sub, *, params=True, ics=True, n=True):
    sub.add_argument("--system", required=True, choices=tuple(systems.SHAPES))
    # each flag once, in the order the systems list them (a, b, c, d; u0 .. y2)
    flags = [shape.params._fields for shape in systems.SHAPES.values()] if params else []
    flags += [shape.initial._fields for shape in systems.SHAPES.values()] if ics else []
    for flag in dict.fromkeys(flag for group in flags for flag in group):
        sub.add_argument(f"--{flag}")
    if n:
        sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--out")


def build_parser() -> _Parser:
    parser = _Parser(prog="sdeq", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("iterate", help="iterate a system exactly")
    _add_common(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")

    sub = subparsers.add_parser("solve", help="evaluate a closed-form solution")
    _add_common(sub)
    sub.add_argument("--case", default="auto")
    sub.add_argument("--sweep", action="store_true")
    sub.add_argument("--format", choices=("json", "csv"), default="json")

    sub = subparsers.add_parser("reduce", help="invariants and auxiliary sequences")
    _add_common(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")

    sub = subparsers.add_parser("verify", help="closed forms vs iteration")
    _add_common(sub)
    sub.add_argument("--case", default="auto")

    sub = subparsers.add_parser("symmetry-check", help="residual identity check")
    _add_common(sub, ics=False, n=False)
    sub.add_argument("--c1")
    sub.add_argument("--c2")
    sub.add_argument("--samples", type=int, default=100)
    sub.add_argument("--pairs", type=int, default=10)
    sub.add_argument("--seed", type=int)

    sub = subparsers.add_parser("check-forbidden", help="restriction-set report")
    _add_common(sub, n=False)
    sub.add_argument("--horizon", type=int, required=True)

    sub = subparsers.add_parser("difftest", help="differential test driver")
    _add_common(sub, params=False, ics=False)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int)

    return parser


def _rational_arg(args, flag: str) -> Fraction:
    raw = getattr(args, flag, None)
    if raw is None:
        raise UsageError(f"--{flag} is required for system {args.system}")
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise UsageError(f"--{flag}: {exc}") from None


def _resolve_seed(args) -> int:
    """--seed, else SDE_SEED; only the sampling subcommands read either."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SDE_SEED")
    if env is None:
        raise UsageError(f"{args.command} samples randomly; provide --seed or SDE_SEED")
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"SDE_SEED is not an integer: {env!r}") from None


def _config_from_args(args) -> RunConfig:
    command = args.command
    system = args.system
    shape = systems.SHAPES[system]
    param_flags, ic_flags = shape.params._fields, shape.initial._fields
    params = None
    ics = None
    if command in ("iterate", "solve", "reduce", "verify", "check-forbidden"):
        params = {flag: _rational_arg(args, flag) for flag in param_flags}
        ics = {flag: _rational_arg(args, flag) for flag in ic_flags}
    n_max = getattr(args, "n", 0) or 0
    if command in ("iterate", "solve", "reduce", "verify") and n_max < shape.lag:
        raise UsageError(f"--n must be >= {shape.lag} for system {system}")
    case = getattr(args, "case", "auto")
    if command in ("solve", "verify") and case != "auto":
        from .closed_form import CASES

        if case not in CASES[system]:
            raise UsageError(f"--case must be 'auto' or one of {', '.join(CASES[system])}")
    seed = _resolve_seed(args) if command in ("difftest", "symmetry-check") else None
    c1 = c2 = None
    if command == "symmetry-check":
        if (getattr(args, "c1", None) is None) != (getattr(args, "c2", None) is None):
            raise UsageError("--c1 and --c2 must be given together")
        if getattr(args, "c1", None) is not None:
            c1 = _rational_arg(args, "c1")
            c2 = _rational_arg(args, "c2")
        given = [flag for flag in param_flags if getattr(args, flag, None) is not None]
        if given and len(given) != len(param_flags):
            raise UsageError("give all parameter flags or none for symmetry-check")
        if given:
            params = {flag: _rational_arg(args, flag) for flag in param_flags}
        if args.samples < 1 or args.pairs < 1:
            raise UsageError("--samples and --pairs must be positive")
    if command == "check-forbidden" and args.horizon < 0:
        raise UsageError("--horizon must be >= 0")
    if command == "difftest":
        if args.trials < 0:
            raise UsageError("--trials must be >= 0")
        if n_max < 2:
            raise UsageError("--n must be >= 2 for difftest")
    return RunConfig(
        command=command,
        system=system,
        params=params,
        ics=ics,
        n_max=n_max,
        case=case,
        sweep=getattr(args, "sweep", False),
        horizon=getattr(args, "horizon", 0) or 0,
        trials=getattr(args, "trials", 0) or 0,
        samples=getattr(args, "samples", 100),
        pairs=getattr(args, "pairs", 10),
        seed=seed,
        c1=c1,
        c2=c2,
        fmt=getattr(args, "format", "json"),
        out=args.out,
    )


_DISPATCH = {
    "iterate": _run_iterate,
    "solve": _run_solve,
    "reduce": _run_reduce,
    "verify": _run_verify,
    "symmetry-check": _run_symmetry_check,
    "check-forbidden": _run_check_forbidden,
    "difftest": _run_difftest,
}


def _documented_error(exc: Exception) -> Optional[tuple[int, str]]:
    """(exit code, report text) of a library error with a documented exit
    code, else None.  The layers that define these errors are imported
    here, on the error path, so a successful run loads only the layers it
    uses."""
    from .closed_form import CaseParamError, ForbiddenInputError
    from .reduction import ZeroInvariantError
    from .sampling import RetryCapError

    if isinstance(exc, (ForbiddenInputError, ZeroInitialError, ZeroInvariantError)):
        text = str(exc).removeprefix("forbidden input: ")  # ForbiddenInputErrors start with it
        return EXIT_FORBIDDEN, f"error: forbidden input: {text}\n"
    if isinstance(exc, (CaseParamError, RetryCapError, UsageError)):
        return EXIT_USAGE, f"error: {exc}\n"
    return None


def run(config: RunConfig) -> tuple[int, str]:
    """Dispatch a parsed configuration; returns (exit code, report text)."""
    try:
        return _DISPATCH[config.command](config)
    except _Singular as exc:
        return EXIT_SINGULAR, f"error: {exc}\n"
    except (ValueError, RuntimeError) as exc:
        documented = _documented_error(exc)
        if documented is None:
            raise
        return documented


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    code, text = run(config)
    if code in (EXIT_OK, EXIT_FORBIDDEN, EXIT_MISMATCH) and not text.startswith("error:"):
        if config.out:
            try:
                with open(config.out, "w") as handle:
                    handle.write(text)
            except OSError as exc:
                print(f"error: cannot write --out {config.out}: {exc.strerror}", file=sys.stderr)
                return EXIT_USAGE
        else:
            sys.stdout.write(text)
    else:
        sys.stderr.write(text)
    return code


def console_main() -> None:
    sys.exit(main())
