"""Acceptance suite: every criterion is exact (zero tolerance) equality.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); a FAIL
line is always accompanied by the failing assertion.
"""

import json
import random
import time
from contextlib import contextmanager

from fraction_kernels import singular_steps
from sdeq.cli import main as cli_main
from sdeq.closed_form import solve_a_case_sweep, solve_a_product_sweep
from sdeq.reduction import (
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
from sdeq.sampling import (
    difftest,
    draw_admissible_a,
    draw_admissible_b,
    draw_ics,
    draw_nonzero,
    draw_params,
    draw_rational,
)
from sdeq.symmetry import (
    Characteristic,
    GroupAction,
    group_transform,
    slsc_residual_a,
    slsc_residual_b,
)
from sdeq.systems import SystemAInitial, SystemBInitial, iterate_a, iterate_b


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_system_a_differential_suite():
    with criterion("system-A-differential (500 trials, n <= 100)"):
        start = time.perf_counter()
        report = difftest("A", trials=500, n_max=100, seed=7)
        elapsed = time.perf_counter() - start
        assert report["failures"] == 0, report["first_counterexample"]
        assert report["comparisons"] == 500 * 2 * 101
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_system_a_case_suite():
    tags = ("ABneq1", "Aeq1", "Beq1", "Aeq1Bneg1", "Beq1Aneg1", "OnesOnes", "NegNeg")
    with criterion("system-A-cases (7 tags x 100 inputs, n <= 50)"):
        rng = random.Random(11)
        for tag in tags:
            for _ in range(100):
                params, ics = draw_admissible_a(rng, 50, tag)
                trajectory = iterate_a(params, ics, 50)
                assert trajectory.singular is None
                us, vs = solve_a_case_sweep(tag, params, ics, 50)
                assert us == list(trajectory.first), (tag, params, ics)
                assert vs == list(trajectory.second), (tag, params, ics)
        # residue-4 split for a = 1, b = -1: the odd-u branch carries an
        # alternating sign with the block index, checked against iteration
        rng = random.Random(12)
        for _ in range(20):
            params, ics = draw_admissible_a(rng, 50, "Aeq1Bneg1")
            q = ics.v0 * ics.u1
            t = iterate_a(params, ics, 50)
            for m in range(12):
                u = t.first[4 * m + 3]
                ratio = u * (2 * q - 1) ** (m + 1) / (ics.u1 * (q - 1) ** (2 * m + 1))
                assert ratio == (-1) ** m


def test_system_b_differential_suite():
    with criterion("system-B-differential (200 trials, n <= 60)"):
        report = difftest("B", trials=200, n_max=60, seed=7)
        assert report["failures"] == 0, report["first_counterexample"]
        # the strata must actually cover the enumerated families
        assert report["strata"] == {
            "ac-unit": 50,
            "all-ones": 50,
            "general": 50,
            "unit-bd": 50,
        }


def test_auxiliary_sequence_equivalence():
    with criterion("auxiliary-closed-forms (n <= 200, 100 draws per system)"):
        rng = random.Random(13)
        for _ in range(100):
            params_a = draw_params(rng, "A")
            s0, t0 = draw_rational(rng), draw_rational(rng)
            lin = solve_linear_a(params_a, s0, t0, 200)
            for n in range(201):
                assert closed_ST_a(params_a, s0, t0, n) == (lin.S[n], lin.T[n])
        for _ in range(100):
            params_b = draw_params(rng, "B")
            seeds = [draw_rational(rng) for _ in range(4)]
            lin = solve_linear_b(params_b, *seeds, 200)
            for n in range(201):
                assert closed_ST_b(params_b, *seeds, n) == (lin.S[n], lin.T[n])


def test_reduction_round_trip():
    with criterion("reduction-round-trip (200 cases per system)"):
        rng = random.Random(14)
        for _ in range(200):
            params, ics = draw_admissible_a(rng, 30)
            t = iterate_a(params, ics, 30)
            inv = invariants_a(t)
            for n in range(len(inv.w) - 1):
                assert inv.w[n + 1] * (params.a + inv.z[n]) == inv.z[n]
                assert inv.z[n + 1] * (params.b + inv.w[n]) == inv.w[n]
            rebuilt = reconstruct_a(linearize(inv), ics.u0, ics.v0)
            assert rebuilt.first == t.first and rebuilt.second == t.second
        for _ in range(200):
            params, ics = draw_admissible_b(rng, 24)
            t = iterate_b(params, ics, 24)
            inv = invariants_b(t)
            for n in range(len(inv.w) - 2):
                assert inv.w[n + 2] * (params.c + params.d * inv.z[n]) == inv.z[n]
                assert inv.z[n + 2] * (params.a + params.b * inv.w[n]) == inv.w[n]
            rebuilt = reconstruct_b(linearize(inv), ics.x0, ics.y0)
            assert rebuilt.first == t.first and rebuilt.second == t.second


def _admissible_point_a(rng, params):
    while True:
        point = tuple(draw_nonzero(rng) for _ in range(4))
        if params.a + point[0] * point[3] != 0 and params.b + point[2] * point[1] != 0:
            return point


def _admissible_point_b(rng, params):
    while True:
        point = tuple(draw_nonzero(rng) for _ in range(6))
        if (
            params.a + params.b * point[0] * point[4] != 0
            and params.c + params.d * point[3] * point[1] != 0
        ):
            return point


def test_symmetry_identity():
    with criterion("symmetry-residual-identity (10 pairs x 100 points per parity)"):
        rng = random.Random(15)
        for _ in range(10):
            ch = Characteristic(draw_rational(rng), draw_rational(rng))
            for parity in (0, 1):
                for _ in range(100):
                    params = draw_params(rng, "A")
                    point = _admissible_point_a(rng, params)
                    assert slsc_residual_a(ch, params, parity, point) == (0, 0)
                for _ in range(100):
                    params = draw_params(rng, "B")
                    if (params.a == 0 and params.b == 0) or (
                        params.c == 0 and params.d == 0
                    ):
                        continue  # no admissible points exist
                    point = _admissible_point_b(rng, params)
                    assert slsc_residual_b(ch, params, parity, point) == (0, 0)
        # negative controls: breaking the parity alternation leaves a
        # nonzero residual whenever the alternating weight is present
        broken = 0
        for _ in range(50):
            ch = Characteristic(draw_rational(rng), draw_nonzero(rng))
            params = draw_params(rng, "A")
            point = _admissible_point_a(rng, params)
            if slsc_residual_a(ch, params, 0, point, variant="frozen") != (0, 0):
                broken += 1
        assert broken > 40
        r = slsc_residual_b(
            Characteristic(0, 1),
            draw_params(random.Random(0), "B"),
            0,
            (1, 2, 3, 4, 5, 6),
            variant="frozen",
        )
        assert r != (0, 0)


def test_group_equivariance():
    with criterion("group-equivariance (100 draws per generator per system, N = 50)"):
        rng = random.Random(16)
        for generator in ("X1", "X2"):
            for _ in range(100):
                params, ics = draw_admissible_a(rng, 50)
                lam = draw_nonzero(rng)
                action = GroupAction(generator, lam)
                t = iterate_a(params, ics, 50)
                transformed = group_transform(action, t)
                if generator == "X1":
                    moved = SystemAInitial(
                        ics.u0 / lam, ics.u1 / lam, ics.v0 * lam, ics.v1 * lam
                    )
                else:
                    moved = SystemAInitial(
                        ics.u0 * lam, ics.u1 / lam, ics.v0 * lam, ics.v1 / lam
                    )
                direct = iterate_a(params, moved, 50)
                assert direct.singular is None
                assert direct.first == transformed.first
                assert direct.second == transformed.second
                assert invariants_a(transformed) == invariants_a(t)
        for generator in ("X1", "X2"):
            for _ in range(100):
                params, ics = draw_admissible_b(rng, 50)
                lam = draw_nonzero(rng)
                action = GroupAction(generator, lam)
                t = iterate_b(params, ics, 50)
                transformed = group_transform(action, t)
                if generator == "X1":
                    moved = SystemBInitial(
                        ics.x0 / lam, ics.x1 / lam, ics.x2 / lam,
                        ics.y0 * lam, ics.y1 * lam, ics.y2 * lam,
                    )
                else:
                    moved = SystemBInitial(
                        ics.x0 * lam, ics.x1 / lam, ics.x2 * lam,
                        ics.y0 * lam, ics.y1 / lam, ics.y2 * lam,
                    )
                direct = iterate_b(params, moved, 50)
                assert direct.singular is None
                assert direct.first == transformed.first
                assert direct.second == transformed.second
                assert invariants_b(transformed) == invariants_b(t)


def test_forbidden_soundness_completeness():
    with criterion("forbidden-set-prediction (1000 draws per system, N = 40)"):
        rng = random.Random(17)
        for system in ("A", "B"):
            singular = 0
            for _ in range(1000):
                params = draw_params(rng, system)
                ics = draw_ics(rng, system)
                predicted, observed = singular_steps(system, params, ics, 40)
                assert predicted == observed, (params, ics)
                singular += observed is not None
            assert singular > 0


_A_FLAGS = ["--a", "2", "--b", "3", "--u0", "1", "--u1", "2", "--v0", "1", "--v1", "1/3"]
_B_FLAGS = [
    "--a", "2", "--b", "1", "--c", "1", "--d", "1",
    "--x0", "1", "--x1", "2", "--x2", "1", "--y0", "1", "--y1", "1/3", "--y2", "2",
]

_CLI_CONFIGS = [
    ["iterate", "--system", "A", *_A_FLAGS, "--n", "12"],
    ["iterate", "--system", "B", *_B_FLAGS, "--n", "12", "--format", "csv"],
    ["solve", "--system", "A", "--case", "auto", *_A_FLAGS, "--n", "12", "--sweep"],
    ["solve", "--system", "B", "--case", "auto", *_B_FLAGS, "--n", "12"],
    ["reduce", "--system", "A", *_A_FLAGS, "--n", "12"],
    ["reduce", "--system", "B", *_B_FLAGS, "--n", "12", "--format", "csv"],
    ["verify", "--system", "A", "--case", "auto", *_A_FLAGS, "--n", "12"],
    ["verify", "--system", "B", "--case", "auto", *_B_FLAGS, "--n", "12"],
    ["symmetry-check", "--system", "A", "--samples", "25", "--pairs", "3", "--seed", "21"],
    ["symmetry-check", "--system", "B", "--c1", "1", "--c2", "-1/2",
     "--samples", "25", "--seed", "21"],
    ["check-forbidden", "--system", "A", *_A_FLAGS, "--horizon", "12"],
    ["check-forbidden", "--system", "B", *_B_FLAGS, "--horizon", "12"],
    ["difftest", "--system", "A", "--trials", "10", "--n", "15", "--seed", "21"],
    ["difftest", "--system", "B", "--trials", "10", "--n", "15", "--seed", "21"],
]


def test_cli_byte_determinism(capsys):
    with criterion("cli-byte-determinism (all subcommands, two runs each)"):
        for argv in _CLI_CONFIGS:
            code_1 = cli_main(argv)
            out_1 = capsys.readouterr().out.encode()
            code_2 = cli_main(argv)
            out_2 = capsys.readouterr().out.encode()
            assert code_1 == code_2, argv
            assert out_1 == out_2, argv
            assert out_1, argv  # every configuration produces a report
        # the machine reports carry no floating-point approximations
        cli_main(_CLI_CONFIGS[0])
        payload = json.loads(capsys.readouterr().out)
        assert all(isinstance(v, str) for v in payload["first"])
