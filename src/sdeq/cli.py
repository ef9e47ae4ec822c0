"""Command-line front end: iterate, solve, reduce, verify, symmetry-check,
check-forbidden, and the differential-test driver.

All machine output is JSON (CSV on request for the sequence-producing
subcommands) with every scalar rendered as a rational literal; output is
byte-deterministic given the configuration, including the seed.  Exit
codes: 0 success/clean, 1 usage error, a report that cannot be written,
or one that cannot be built in the memory at hand ("error: cannot build
the report: out of memory"), 2 singular trajectory where regularity was
required, 3 forbidden input, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import importlib
import os
import sys
from fractions import Fraction

# each subcommand runs in the layer it drives, imported when it runs
from . import rational, systems
from .rational import _Literal, _Literals, parse_rational
from .systems import ZeroInitialError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_FORBIDDEN = 3
EXIT_MISMATCH = 4


class UsageError(ValueError):
    pass


# the report writers: each runner returns its report as data, which run writes


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


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """sdeq's parser and each subcommand's.  A subcommand's parser is made
    with ``fill``, which adds its arguments on its first parse
    (``parse_known_args``, which argparse calls on the subcommand's parser
    on every Python version), so a process builds the arguments of the one
    subcommand it parses."""

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative rational literals like -1/2 pass as option values
        self._negative_number_matcher = rational._RATIONAL_RE
        self._fill = fill

    def fill(self) -> None:
        """Add the arguments that ``fill`` adds, once."""
        fill, self._fill = self._fill, None
        if fill is not None:
            fill(self)

    def parse_known_args(self, args=None, namespace=None):
        self.fill()
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        reason = _write(file or sys.stdout, self.format_help())  # help is a report
        if reason is not None:
            _write(sys.stderr, f"error: cannot write the report: {reason}\n")
            self.exit(EXIT_USAGE)


class Subcommand(systems._Record):
    """One subcommand: its runner, "module function" of the layer it
    drives, imported when it runs, its --help line, the input groups it
    takes ("params" and "ics", the systems' literal flags; "n", --n), its
    own flags with their argparse options, in --help order, and the exit
    code of a report that does not pass.  Every subcommand also takes
    --system and --out."""

    runner: str
    help: str
    takes: tuple
    flags: tuple
    fails: int = EXIT_OK  # iterate, solve and reduce always pass

    def add_arguments(self, sub: _Parser) -> None:
        """Every argument of this subcommand, added to its parser ``sub``."""
        shapes = systems.SHAPES.values()
        sub.add_argument("--system", required=True, choices=tuple(systems.SHAPES))
        # each flag once, in the order the systems list them (a, b, c, d; u0 .. y2)
        flags = [shape.params._fields for shape in shapes] if "params" in self.takes else []
        flags += [shape.initial._fields for shape in shapes] if "ics" in self.takes else []
        for flag in dict.fromkeys(flag for group in flags for flag in group):
            sub.add_argument(f"--{flag}")
        if "n" in self.takes:
            sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--out")
        for flag, options in self.flags:
            sub.add_argument(flag, **options)


_ORBIT = ("params", "ics", "n")
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json"})
_CASE = ("--case", {"default": "auto"})
_SEED = ("--seed", {"type": int})

SUBCOMMANDS = {
    "iterate": Subcommand("printing _run_iterate", "iterate a system exactly", _ORBIT, (_FORMAT,)),
    "solve": Subcommand(
        "closed_form _run_solve",
        "evaluate a closed-form solution",
        _ORBIT,
        (_CASE, ("--sweep", {"action": "store_true"}), _FORMAT),
    ),
    "reduce": Subcommand(
        "reduction _run_reduce", "invariants and auxiliary sequences", _ORBIT, (_FORMAT,)
    ),
    "verify": Subcommand(
        "closed_form _run_verify", "closed forms vs iteration", _ORBIT, (_CASE,), EXIT_MISMATCH
    ),
    "symmetry-check": Subcommand(
        "symmetry _run_symmetry_check",
        "residual identity check",
        ("params",),
        (
            ("--c1", {}),
            ("--c2", {}),
            ("--samples", {"type": int, "default": 100}),
            ("--pairs", {"type": int, "default": 10}),
            _SEED,
        ),
        EXIT_MISMATCH,
    ),
    "check-forbidden": Subcommand(
        "forbidden _run_check_forbidden",
        "restriction-set report",
        ("params", "ics"),
        (("--horizon", {"type": int, "required": True}),),
        EXIT_FORBIDDEN,
    ),
    "difftest": Subcommand(
        "sampling _run_difftest",
        "differential test driver",
        ("n",),
        (("--trials", {"type": int, "required": True}), _SEED),
        EXIT_MISMATCH,
    ),
}


def build_parser() -> _Parser:
    """The parser of every subcommand.  Each subcommand's parser is
    filled with its arguments on its first parse (``_Parser.fill``)."""
    parser = _Parser(prog="sdeq", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in SUBCOMMANDS.items():
        subparsers.add_parser(name, help=command.help, fill=command.add_arguments)
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
    if "seed" in options and args.seed is None:  # --seed, else SDE_SEED
        env = os.environ.get("SDE_SEED")
        if env is None:
            raise UsageError(f"{args.command} samples randomly; provide --seed or SDE_SEED")
        try:
            args.seed = int(env)
        except ValueError:
            raise UsageError(f"SDE_SEED is not an integer: {env!r}") from None
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


def run(config: argparse.Namespace) -> tuple[int, str]:
    """(exit code, text) of the configuration from ``_config_from_args``.
    Its runner returns (passed, report), a JSON body (dict) or a CSV
    (header, columns), which run writes.  A library error with a
    documented exit code is one "error:" line; the layers that define
    those errors are imported on the error path only.  Running out of
    memory while the report or its text is built is one such line too."""
    command = SUBCOMMANDS[config.command]
    module, name = command.runner.split()
    runner = getattr(importlib.import_module(f".{module}", __package__), name)
    try:
        passed, report = runner(config)
        if isinstance(report, dict):
            text = _jdump({"schema_version": SCHEMA_VERSION, **report})
        else:
            text = _csv_table(*report)
    except MemoryError:
        return EXIT_USAGE, "error: cannot build the report: out of memory\n"
    except systems._Singular as exc:
        return EXIT_SINGULAR, f"error: {exc}\n"
    except (ValueError, RuntimeError) as exc:
        from .closed_form import CaseParamError, ForbiddenInputError
        from .reduction import ZeroInvariantError
        from .sampling import RetryCapError

        if isinstance(exc, (ForbiddenInputError, ZeroInitialError, ZeroInvariantError)):
            text = str(exc).removeprefix("forbidden input: ")  # ForbiddenInputErrors start with it
            return EXIT_FORBIDDEN, f"error: forbidden input: {text}\n"
        if isinstance(exc, (CaseParamError, RetryCapError, UsageError)):
            return EXIT_USAGE, f"error: {exc}\n"
        raise
    return (EXIT_OK if passed else command.fails), text


def _write(stream, text: str) -> str | None:
    """Write ``text`` to the --out file, stdout or stderr (None where its
    descriptor was closed at start): None, or why it could not.  The
    encoded text goes to the stream's raw layer until every byte is taken,
    since an unbuffered text layer drops what a short write leaves, and
    nothing stays buffered for a later flush to fail on.  Where a
    non-blocking descriptor takes nothing, the write waits until it is
    writable (``select``), not in a busy loop."""
    if stream is None:
        return os.strerror(errno.EBADF)
    try:
        stream.flush()
        if not hasattr(stream, "buffer"):  # a text-only stream, such as io.StringIO
            stream.write(text)
            return None
        raw = getattr(stream.buffer, "raw", stream.buffer)  # unbuffered: the buffer is raw
        data = memoryview(text.encode(stream.encoding, stream.errors))
        while data:
            taken = raw.write(data)
            if taken is None:  # a non-blocking write took nothing
                import select

                select.select([], [raw], [])
            data = data[taken or 0 :]
    except OSError as exc:  # a closed pipe or a full device
        return exc.strerror
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = _config_from_args(parser.parse_args(argv))
    except UsageError as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return EXIT_USAGE
    code, text = run(config)
    if text.startswith("error:"):
        _write(sys.stderr, text)  # the exit code stands where stderr is closed
        return code
    if not config.out:
        where, reason = "the report", _write(sys.stdout, text)
    else:
        where = f"--out {config.out}"
        try:
            with open(config.out, "w") as handle:
                reason = _write(handle, text)
        except OSError as exc:
            reason = exc.strerror
    if reason is None:
        return code
    _write(sys.stderr, f"error: cannot write {where}: {reason}\n")
    return EXIT_USAGE


def console_main() -> None:
    """Run ``main`` and exit with its code, by os._exit after the atexit callbacks and
    flushes (no module teardown) unless a profiler, tracer or monitoring tool observes it."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    tools = map(monitoring.get_tool, range(6)) if monitoring else ()  # tool ids 0-5
    if sys.getprofile() or sys.gettrace() or any(tools) or not hasattr(atexit, "_run_exitfuncs"):
        sys.exit(code)
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None where closed at start
        try:
            stream.flush()
        except OSError:  # the documented code stands
            pass
    os._exit(code)
