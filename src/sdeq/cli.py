"""Command-line front end: iterate, solve, reduce, verify, symmetry-check,
check-forbidden, and the differential-test driver.

All machine output is JSON (CSV on request for the sequence-producing
subcommands) with every scalar rendered as a rational literal; output is
byte-deterministic given the configuration, including the seed.  Exit
codes: 0 success/clean, 1 usage error or a report that cannot be written,
2 singular trajectory where regularity was required, 3 forbidden input,
4 verification mismatch.

``iterate``, ``solve --sweep``, ``verify`` and each ``difftest`` trial
raise every error from the short values first.  ``iterate`` and
``solve --sweep`` then build and print each component's long entries on
its own, in decimal from the short starts and divisors
(``Telescoping.literals``); where those are long and a second CPU is
free, the second component's job runs in a forked child process
(``systems.both``), which sends back only its literals.  ``verify`` and
``difftest`` compare by the one ``_compare``, which reads the two short
starts and the divisor lists of each component: a passing run builds no
entry, and a mismatch builds its literals up to the failing index only.
Every subcommand but ``iterate`` and ``solve --sweep`` runs in one
process.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from fractions import Fraction

# the other layers are imported by the subcommands that use them
from . import rational, systems
from .rational import format_pairs, format_rational, format_sequence, parse_rational
from .systems import ZeroInitialError

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


class _Literals(list):
    """Rational literals from rational's formatters.  They hold only digits, '-'
    and '/', which JSON never escapes, so _jdump writes them as they are."""


class _Literal:
    """One such literal, marked for _jdump as the items of _Literals are."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _jdump(payload: dict) -> str:
    """json.dumps(payload, indent=2) + "\n", byte for byte, for a payload
    of dicts with str keys, lists, tuples, str, int, bool and None, and of
    the marked literals (_Literals, _Literal), which are not scanned: a
    _Literals list is written by one join.  Every other string is escaped
    as json escapes it, and json is imported only for a string that needs
    escaping."""
    chunks: list[str] = []
    _json_chunks(payload, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _json_chunks(value, newline: str, chunks: list) -> None:
    """Append the JSON of ``value``, whose lines start at ``newline``."""
    inner = newline + "  "
    if isinstance(value, _Literal):
        chunks += ('"', value.text, '"')
    elif isinstance(value, str):
        chunks.append(_json_string(value))
    elif value is None or isinstance(value, bool):
        chunks.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, dict):
        opener = "{"
        for key, item in value.items():
            chunks += (opener, inner, _json_string(key), ": ")
            _json_chunks(item, inner, chunks)
            opener = ","
        chunks.append(newline + "}" if value else "{}")
    elif isinstance(value, _Literals):
        separator = '",' + inner + '"'
        chunks += ("[", inner, '"', separator.join(value), '"', newline, "]") if value else ("[]",)
    elif isinstance(value, (list, tuple)):
        opener = "["
        for item in value:
            chunks += (opener, inner)
            _json_chunks(item, inner, chunks)
            opener = ","
        chunks.append(newline + "]" if value else "[]")
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _json_string(text: str) -> str:
    # printable ASCII other than '"' and '\\' is what json writes as it is
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    import json

    return json.dumps(text)


def _csv_table(header: list[str], columns) -> str:
    # every field is an index, a case tag or a rational literal, none of
    # which needs quoting, so a plain join writes what csv.writer would
    rows = zip(*columns)
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _lit_map(record) -> dict:
    return {k: format_rational(v) for k, v in record._asdict().items()}


def _singular_json(singular: systems.Singularity | None):
    if singular is None:
        return None
    return {"step": singular.step, "component": singular.component}


# ---------------------------------------------------------------------------
# subcommand implementations


def _run_iterate(config: argparse.Namespace) -> tuple[int, str]:
    carried, built = systems.orbit_telescoping(config.system, config.params, config.ics, config.n)
    firsts, seconds = systems.both(built.literals, built.bits())
    labels = systems.SHAPES[config.system].labels
    if config.format == "csv":
        columns = [map(str, range(len(firsts))), firsts, seconds]
        return EXIT_OK, _csv_table(["n", *labels], columns)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "system": config.system,
        "params": _lit_map(config.params),
        "N": config.n,
        "first": _Literals(firsts),
        "second": _Literals(seconds),
        "singular": _singular_json(carried.singular),
    }
    return EXIT_OK, _jdump(payload)


def _run_solve(config: argparse.Namespace) -> tuple[int, str]:
    from .closed_form import case_point, case_telescoping

    system, params, ics = config.system, config.params, config.ics
    tag = config.case
    if config.sweep:
        built = case_telescoping(system, tag, params, ics, config.n)
        firsts, seconds = systems.both(built.literals, built.bits())
        indices = range(config.n + 1)
    else:
        point = case_point(system, tag, params, ics, config.n)
        firsts, seconds = ([format_rational(value)] for value in point)
        indices = [config.n]
    if config.format == "csv":
        columns = [map(str, indices), firsts, seconds, [tag] * len(indices)]
        return EXIT_OK, _csv_table(["n", "first", "second", "case"], columns)
    records = [
        {"n": n, "first": _Literal(f), "second": _Literal(s), "case": tag}
        for n, f, s in zip(indices, firsts, seconds)
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "system": system,
        "case": tag,
        "params": _lit_map(params),
        "ics": _lit_map(ics),
        "records": records,
    }
    return EXIT_OK, _jdump(payload)


def _run_reduce(config: argparse.Namespace) -> tuple[int, str]:
    from .reduction import reciprocals

    # the invariant recursion alone, w[0..N-1] and z[0..N-1] as reduced
    # pairs, and S = 1/w, T = 1/z by turning them over: no long entry of
    # the orbit is built, and no Fraction per index
    carried = systems.carry(config.system, config.params, config.ics, config.n)
    if carried.singular is not None:
        raise _Singular(carried.singular)
    sequences = (carried.w, carried.z, *reciprocals(carried.w, carried.z))
    w, z, S, T = map(format_pairs, sequences)
    if config.format == "csv":
        columns = [map(str, range(len(w))), w, z, S, T]
        return EXIT_OK, _csv_table(["n", "w", "z", "S", "T"], columns)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "reduce",
        "system": config.system,
        "params": _lit_map(config.params),
        "N": config.n,
        "w": _Literals(w),
        "z": _Literals(z),
        "S": _Literals(S),
        "T": _Literals(T),
    }
    return EXIT_OK, _jdump(payload)


class _Singular(Exception):
    def __init__(self, sing: systems.Singularity):
        super().__init__(
            f"singular trajectory at step {sing.step} ({sing.denominator_expression})"
        )


def _compare(system: str, tag: str, params, ics, n: int):
    """The one comparison of closed forms with iteration over entries 0..n:
    the orbit's Singularity, or (orbit, routes, failures, first) with the
    telescopings of the orbit and of case ``tag``'s routes
    (closed_form.route_telescopings).  A failure is an index where either
    component differs, counted once per route; ``first`` is the first
    (route, n, component) in sorted route order, or None.  The comparison
    reads the short starts and divisor lists (``_mismatches``), so a
    passing run builds no entry."""
    from .closed_form import route_telescopings

    carried, orbit = systems.orbit_telescoping(system, params, ics, n)
    if carried.singular is not None:
        return carried.singular
    routes = route_telescopings(system, tag, params, ics, n)
    failing = [_mismatches(orbit, routes, k) for k in (0, 1)]
    failures, first = 0, None
    for route in sorted(routes):
        indices = [found[route] for found in failing]
        either = set(indices[0]).union(indices[1])
        failures += len(either)
        if either and first is None:
            at = min(either)
            first = (route, at, 0 if at in indices[0] else 1)
    return orbit, routes, failures, first


def _mismatches(orbit: systems.Telescoping, routes: dict, k: int) -> dict:
    """route -> the indices at which component k of the route's entries
    differs from the orbit's, read from the start values and divisor
    lists (Telescoping.mismatches), so a passing comparison builds no
    entry; each distinct telescoping is compared once."""
    failing = {built: orbit.mismatches(built, k) for built in dict.fromkeys(routes.values())}
    return {route: failing[built] for route, built in routes.items()}


def _literal(built: systems.Telescoping, k: int, n: int) -> str:
    """Entry n of component k of ``built``, built up to n only."""
    return format_rational(systems.Telescoping(built.starts, built.divisors, n).entries(k)[n])


def _run_verify(config: argparse.Namespace) -> tuple[int, str]:
    compared = _compare(config.system, config.case, config.params, config.ics, config.n)
    if isinstance(compared, systems.Singularity):
        raise _Singular(compared)
    orbit, routes, _, first = compared
    first_mismatch = None
    if first is not None:
        route, n, k = first
        first_mismatch = {
            "route": route,
            "n": n,
            "component": ("first", "second")[k],
            "closed_form": _literal(routes[route], k, n),
            "iterated": _literal(orbit, k, n),
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "system": config.system,
        "case": config.case,
        "N": config.n,
        "checked": len(routes) * (config.n + 1),
        "equal": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }
    code = EXIT_OK if first_mismatch is None else EXIT_MISMATCH
    return code, _jdump(payload)


def _run_check_forbidden(config: argparse.Namespace) -> tuple[int, str]:
    from .forbidden import check_forbidden

    report = check_forbidden(config.system, config.params, config.ics, config.horizon)
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
    """(params, point) of the random.Random ``rng``, as a params record and
    a tuple of Fractions: the draw of ``symmetry.sampler``, which
    symmetry-check makes for every sample.  The benchmark's replay
    (perfbench/replay.py) draws its samples here."""
    from .sampling import pair_value
    from .symmetry import sampler

    drawn, point, _ = sampler(system, fixed_params)(rng)
    if fixed_params is None:
        fixed_params = systems.SHAPES[system].params(*map(pair_value, drawn))
    return fixed_params, tuple(map(pair_value, point))


def _run_symmetry_check(config: argparse.Namespace) -> tuple[int, str]:
    import random

    from .sampling import draw_rational
    from .symmetry import Characteristic, check

    rng = random.Random(config.seed)
    if config.c1 is not None:
        characteristics = [Characteristic(config.c1, config.c2)]
    else:
        characteristics = [
            Characteristic(draw_rational(rng), draw_rational(rng)) for _ in range(config.pairs)
        ]
    nonzero = [
        {
            "c1": format_rational(ch.c1),
            "c2": format_rational(ch.c2),
            "parity": parity,
            "point": _Literals(format_sequence(point)),
            "residuals": _Literals(format_sequence(residuals)),
        }
        for ch, parity, point, residuals in check(
            config.system, rng, characteristics, config.samples, config.params
        )
    ]
    checked = 2 * config.samples * len(characteristics)
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
    agreement of the product and case closed forms with iteration, by the
    comparison ``verify`` makes (``_compare``) at the auto-selected case.

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
        compared = _compare(system, auto_case(system, params), params, ics, n_max)
        inputs = {"params": _lit_map(params), "ics": _lit_map(ics)}
        if isinstance(compared, systems.Singularity):
            # admissible inputs cannot be singular; a hit here is a finding
            failures += 1
            if first_counterexample is None:
                first_counterexample = {
                    "kind": "unexpected-singularity",
                    **inputs,
                    "step": compared.step,
                }
            continue
        orbit, routes, failed, mismatch = compared
        comparisons += len(routes) * (n_max + 1)
        failures += failed
        if mismatch is not None and first_counterexample is None:
            route, n, _ = mismatch
            closed = routes[route]
            first_counterexample = {
                "kind": "value-mismatch",
                "route": route,
                **inputs,
                "n": n,
                "closed_first": _literal(closed, 0, n),
                "closed_second": _literal(closed, 1, n),
                "iterated_first": _literal(orbit, 0, n),
                "iterated_second": _literal(orbit, 1, n),
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


def _run_difftest(config: argparse.Namespace) -> tuple[int, str]:
    report = difftest(config.system, config.trials, config.n, config.seed)
    code = EXIT_OK if report["failures"] == 0 else EXIT_MISMATCH
    return code, _jdump(report)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative rational literals like -1/2 pass as option values
        self._negative_number_matcher = rational._RATIONAL_RE

    def error(self, message):
        raise UsageError(message)


class Subcommand(systems._Record):
    """One subcommand: its runner, its --help line, the input groups it
    takes ("params" and "ics", the systems' literal flags; "n", --n) and
    its own flags with their argparse options, in --help order.  Every
    subcommand also takes --system and --out."""

    runner: Callable
    help: str
    takes: tuple
    flags: tuple


_ORBIT = ("params", "ics", "n")
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json"})
_CASE = ("--case", {"default": "auto"})
_SEED = ("--seed", {"type": int})

SUBCOMMANDS = {
    "iterate": Subcommand(_run_iterate, "iterate a system exactly", _ORBIT, (_FORMAT,)),
    "solve": Subcommand(
        _run_solve,
        "evaluate a closed-form solution",
        _ORBIT,
        (_CASE, ("--sweep", {"action": "store_true"}), _FORMAT),
    ),
    "reduce": Subcommand(_run_reduce, "invariants and auxiliary sequences", _ORBIT, (_FORMAT,)),
    "verify": Subcommand(_run_verify, "closed forms vs iteration", _ORBIT, (_CASE,)),
    "symmetry-check": Subcommand(
        _run_symmetry_check,
        "residual identity check",
        ("params",),
        (
            ("--c1", {}),
            ("--c2", {}),
            ("--samples", {"type": int, "default": 100}),
            ("--pairs", {"type": int, "default": 10}),
            _SEED,
        ),
    ),
    "check-forbidden": Subcommand(
        _run_check_forbidden,
        "restriction-set report",
        ("params", "ics"),
        (("--horizon", {"type": int, "required": True}),),
    ),
    "difftest": Subcommand(
        _run_difftest,
        "differential test driver",
        ("n",),
        (("--trials", {"type": int, "required": True}), _SEED),
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sdeq", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    shapes = systems.SHAPES.values()
    for name, command in SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        sub.add_argument("--system", required=True, choices=tuple(systems.SHAPES))
        # each flag once, in the order the systems list them (a, b, c, d; u0 .. y2)
        flags = [shape.params._fields for shape in shapes] if "params" in command.takes else []
        flags += [shape.initial._fields for shape in shapes] if "ics" in command.takes else []
        for flag in dict.fromkeys(flag for group in flags for flag in group):
            sub.add_argument(f"--{flag}")
        if "n" in command.takes:
            sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--out")
        for flag, options in command.flags:
            sub.add_argument(flag, **options)
    return parser


def _rational_arg(args, flag: str) -> Fraction:
    raw = getattr(args, flag)
    if raw is None:
        raise UsageError(f"--{flag} is required for system {args.system}")
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise UsageError(f"--{flag}: {exc}") from None


def _record(args, record: type):
    """The input ``record`` of the system, from its flags' rational literals."""
    return record(*(_rational_arg(args, flag) for flag in record._fields))


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


def _config_from_args(args) -> argparse.Namespace:
    """Check the parsed arguments and make them the run's configuration in
    place: ``params`` and ``ics`` become the system's input records (None
    where the subcommand takes none), --case the case tag, --c1 and --c2
    rationals, and --seed the seed a sampling subcommand draws with.  A
    literal flag of the other system is refused first; the check of an
    option runs where the subcommand has that option."""
    shape = systems.SHAPES[args.system]
    takes, options = SUBCOMMANDS[args.command].takes, vars(args)
    # every subparser has both systems' literal flags; a subcommand's groups only
    own = (*shape.params._fields, *shape.initial._fields)
    for other in systems.SHAPES.values():
        for flag in (*other.params._fields, *other.initial._fields):
            if flag not in own and options.get(flag) is not None:
                raise UsageError(f"--{flag} is not a flag of system {args.system}")
    args.params = args.ics = None
    if "ics" in takes:  # an orbit's inputs: every parameter and initial value
        args.params = _record(args, shape.params)
        args.ics = _record(args, shape.initial)
        if "n" in takes and args.n < shape.lag:
            raise UsageError(f"--n must be >= {shape.lag} for system {args.system}")
    if "case" in options:
        from .closed_form import CASES, auto_case

        if args.case == "auto":
            args.case = auto_case(args.system, args.params)
        elif args.case not in CASES[args.system]:
            raise UsageError(f"--case must be 'auto' or one of {', '.join(CASES[args.system])}")
    if "seed" in options:
        args.seed = _resolve_seed(args)
    if "c1" in options:
        if (args.c1 is None) != (args.c2 is None):
            raise UsageError("--c1 and --c2 must be given together")
        if args.c1 is not None:
            args.c1 = _rational_arg(args, "c1")
            args.c2 = _rational_arg(args, "c2")
        given = [flag for flag in shape.params._fields if options[flag] is not None]
        if given and len(given) != len(shape.params._fields):
            raise UsageError("give all parameter flags or none for symmetry-check")
        if given:
            args.params = _record(args, shape.params)
        if args.samples < 1 or args.pairs < 1:
            raise UsageError("--samples and --pairs must be positive")
    if "horizon" in options and args.horizon < 0:
        raise UsageError("--horizon must be >= 0")
    if "trials" in options:
        if args.trials < 0:
            raise UsageError("--trials must be >= 0")
        if args.n < 2:
            raise UsageError("--n must be >= 2 for difftest")
    return args


def _documented_error(exc: Exception) -> tuple[int, str] | None:
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


def run(config: argparse.Namespace) -> tuple[int, str]:
    """Run the subcommand of a configuration from ``_config_from_args``;
    returns (exit code, report text)."""
    try:
        return SUBCOMMANDS[config.command].runner(config)
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
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError as exc:  # a closed pipe or a full device
                # what the buffer still holds goes to the null device, so
                # the flush at exit cannot fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                print(f"error: cannot write the report: {exc.strerror}", file=sys.stderr)
                return EXIT_USAGE
    else:
        sys.stderr.write(text)
    return code


def console_main() -> None:
    sys.exit(main())
