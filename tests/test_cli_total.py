"""Property test: the CLI is total on edge values.

Every invocation ends with one of the documented exit codes 0-4 and never
with an uncaught exception: a report on stdout for 0 (and for the report
forms of 3 and 4), a single ``error:`` line on stderr otherwise.  Edge
values are 0, +-1, a*b = 1 (System A), a*c = 1 (System B) and long
numerators, at small n.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sdeq import closed_form  # noqa: E402
from sdeq.systems import SHAPES  # noqa: E402
from sdeq.cli import main  # noqa: E402
from sdeq.rational import format_rational, parse_rational  # noqa: E402

LONG = "9" * 300 + "7"  # a numerator of 1,000 bits
EDGE = ["0", "1", "-1", "2", "-2", "1/2", "-1/2", "3/5", "-7/3", LONG, f"-{LONG}/3"]

edge = st.sampled_from(EDGE)
nonzero = st.sampled_from([v for v in EDGE if parse_rational(v) != 0])


def _inverse(literal: str) -> str:
    return format_rational(1 / parse_rational(literal))


@st.composite
def _params(draw, system: str) -> list[str]:
    """Parameter flags; a*b = 1 (A) or a*c = 1 (B) in a third of the draws."""
    names = SHAPES[system].params._fields
    values = {name: draw(edge) for name in names}
    if draw(st.integers(0, 2)) == 0:
        values["a"] = draw(nonzero)
        values["b" if system == "A" else "c"] = _inverse(values["a"])
    return [item for name in names for item in (f"--{name}", values[name])]


def _ics(draw, system: str) -> list[str]:
    return [item for name in SHAPES[system].initial._fields for item in (f"--{name}", draw(edge))]


@st.composite
def invocations(draw) -> list[str]:
    system = draw(st.sampled_from(sorted(SHAPES)))
    command = draw(
        st.sampled_from(
            ["iterate", "solve", "reduce", "verify", "check-forbidden", "symmetry-check",
             "difftest"]
        )
    )
    argv = [command, "--system", system]
    n = ["--n", str(draw(st.integers(0, 8)))]
    if command in ("iterate", "solve", "reduce", "verify"):
        argv += draw(_params(system)) + _ics(draw, system) + n
    if command in ("solve", "verify"):
        argv += ["--case", draw(st.sampled_from(["auto", *closed_form.CASES[system]]))]
    if command == "solve" and draw(st.booleans()):
        argv.append("--sweep")
    if command in ("iterate", "solve", "reduce"):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "check-forbidden":
        argv += draw(_params(system)) + _ics(draw, system)
        argv += ["--horizon", str(draw(st.integers(0, 12)))]
    if command == "symmetry-check":
        if draw(st.booleans()):
            argv += draw(_params(system))
        if draw(st.booleans()):
            argv += ["--c1", draw(edge), "--c2", draw(edge)]
        argv += ["--samples", "2", "--pairs", "1", "--seed", str(draw(st.integers(0, 9)))]
    if command == "difftest":
        argv += ["--trials", str(draw(st.integers(0, 2))), *n, "--seed", "1"]
    if draw(st.integers(0, 5)) == 0:
        argv += ["--out", "."]  # a directory: the report cannot be written
    return argv


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(invocations())
def test_cli_is_total_on_edge_values(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    out, err = out.getvalue(), err.getvalue()
    if out:
        assert code in (0, 3, 4) and err == ""
    else:
        assert code != 0 and err.startswith("error: ") and err.count("\n") == 1
