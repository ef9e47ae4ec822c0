"""Traced replay: run each invocation in process and time sdeq's layers.

For every invocation the replay records a root span around
``sdeq.cli.run(RunConfig)`` and then calls, on the same inputs, the public
functions the subcommand uses, each under a span named after its module.
Spans marked ``mirrors`` stand for work the CLI itself does; the rest is
extra work done only to time a layer or to check a result (parsing reports
back, the closed_ST sweep that the product sweep contains, reduction round
trips, group actions).  Spans are kept in memory and written out once at
the end.  Nothing here changes sdeq; the only interception is a counting
wrapper around the restriction check that ``sampling.draw_admissible_*``
calls, removed after each difftest replay.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import reference
from workloads import IC_FLAGS, PARAM_FLAGS, PERIOD

from sdeq import cli, closed_form, forbidden, rational, reduction, sampling, symmetry, systems

# the public functions of each layer, per system
API = {
    system: SimpleNamespace(
        params=getattr(systems, f"System{system}Params"),
        initial=getattr(systems, f"System{system}Initial"),
        iterate=getattr(systems, f"iterate_{s}"),
        seeds=getattr(closed_form, f"seeds_{s}"),
        auto_case=getattr(closed_form, f"auto_case_{s}"),
        product_sweep=getattr(closed_form, f"solve_{s}_product_sweep"),
        case_sweep=getattr(closed_form, f"solve_{s}_case_sweep"),
        case_point=getattr(closed_form, f"solve_{s}_case"),
        closed_st=getattr(reduction, f"closed_ST_{s}"),
        solve_linear=getattr(reduction, f"solve_linear_{s}"),
        invariants=getattr(reduction, f"invariants_{s}"),
        reconstruct=getattr(reduction, f"reconstruct_{s}"),
        check_forbidden=getattr(forbidden, f"check_forbidden_{s}"),
        draw_admissible=getattr(sampling, f"draw_admissible_{s}"),
        residual=getattr(symmetry, f"slsc_residual_{s}"),
    )
    for system, s in (("A", "a"), ("B", "b"))
}

# the CLI's System B difftest strata, in the order trials cycle through them
_B_STRATA = (("general", None), ("ac-unit", "ACeq1"), ("unit-bd", "UnitBD"), ("all-ones", "AllOnes"))

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "invocation", "mirrors")


class Tracer:
    """In-memory spans as tuples of SPAN_FIELDS, appended when they end.

    Tuples of plain values leave the garbage collector nothing to traverse,
    so a long trace does not slow the code it measures.
    """

    def __init__(self):
        self.spans = []
        self.invocation = -1
        self._next_id = 0
        self._stack = []

    @contextmanager
    def span(self, name: str, mirrors: bool = False):
        """Yields a one-element list that holds the duration once the span ends."""
        span_id, parent = self._next_id, self._stack[-1] if self._stack else None
        self._next_id += 1
        self._stack.append(span_id)
        duration = [0.0]
        start = time.perf_counter()
        try:
            yield duration
        finally:
            end = time.perf_counter()
            duration[0] = end - start
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.invocation, mirrors))

    def calibrate(self, count: int = 20000) -> float:
        """Seconds one empty span costs, measured on a scratch tracer."""
        scratch = Tracer()
        start = time.perf_counter()
        for _ in range(count):
            with scratch.span("calibration"):
                pass
        return (time.perf_counter() - start) / count

    def dump(self, path) -> None:
        rows = [dict(zip(SPAN_FIELDS, span)) for span in self.spans]
        path.write_text(json.dumps(rows))


class Replayer:
    """Replays invocations with spans and counts; one instance per pass."""

    def __init__(self, tracer: Tracer, refs):
        self.tracer = tracer
        self.refs = refs
        self.counts = Counter()
        self.assembly_est = 0.0
        self.orbit_sizes = []  # (max numerator bits, max denominator bits, growth order)
        self.parser = cli.build_parser()

    # -- helpers -----------------------------------------------------------

    def _parse_literals(self, call):
        """The CLI's parsing of the invocation's rational flags."""
        names = PARAM_FLAGS[call.system] + IC_FLAGS[call.system]
        with self.tracer.span("rational.parse", True):
            return {
                flag[2:]: rational.parse_rational(value)
                for flag, value in zip(call.argv, call.argv[1:])
                if flag.startswith("--") and flag[2:] in names
            }

    def _inputs(self, call):
        api, values = API[call.system], self._parse_literals(call)
        params = api.params(*(values[k] for k in PARAM_FLAGS[call.system]))
        ics = api.initial(*(values[k] for k in IC_FLAGS[call.system]))
        return params, ics

    def _format(self, values):
        """Format values as the CLI does; None when a value cannot be written."""
        texts = []
        with self.tracer.span("rational.format", True):
            try:
                for value in values:
                    texts.append(rational.format_rational(value))
            except ValueError:  # the 4300-digit limit on int-to-str conversion
                return None
        self.counts["rational.format_digits"] += sum(map(len, texts))
        return texts

    def _parse_back(self, texts, values) -> bool:
        """Parse formatted literals back, as a consumer of the report would."""
        if texts is None:
            return True
        with self.tracer.span("rational.parse"):
            parsed = [rational.parse_rational(text) for text in texts]
        return parsed == list(values)

    def _iterate(self, system, params, ics, n):
        with self.tracer.span("systems.iterate", True):
            traj = API[system].iterate(params, ics, n)
        self.counts["systems.values"] += 2 * len(traj)
        return traj

    def _record_sizes(self, first, second):
        sizes = [reference.size(v) for v in first + second]
        self.orbit_sizes.append((max(s[0] for s in sizes), max(s[1] for s in sizes),
                                 reference.growth_order(first, second)))

    def _closed_st(self, system, params, ics, count):
        api = API[system]
        seeds = api.seeds(ics)
        with self.tracer.span("reduction.closed_ST") as record:
            values = [api.closed_st(params, *seeds, j) for j in range(count)]
        return values, record

    def _linear(self, system, params, ics, count):
        api = API[system]
        seeds = api.seeds(ics)
        with self.tracer.span("reduction.linear"):
            return api.solve_linear(params, *seeds, count - 1)

    def _roundtrip(self, system, traj):
        """invariants, then linearize (what ``reduce`` does), then reconstruct."""
        api = API[system]
        with self.tracer.span("reduction.roundtrip"):
            with self.tracer.span("reduction.invariants", True):
                inv = api.invariants(traj)
                lin = reduction.linearize(inv)
            back = api.reconstruct(lin, traj.first[0], traj.second[0])
        return inv, lin, back.first == traj.first and back.second == traj.second

    def _group(self, system, params, traj):
        """Both finite group actions; the images must solve the same system."""
        actions = (symmetry.GroupAction("X1", 2), symmetry.GroupAction("X2", 3))
        with self.tracer.span("symmetry.group"):
            images = [symmetry.group_transform(action, traj) for action in actions]
        values = tuple(getattr(params, k) for k in PARAM_FLAGS[system])
        return all(reference.is_orbit(system, values, im.first, im.second) for im in images)

    # -- subcommands ---------------------------------------------------------

    def replay(self, call, cli_text):
        """Replay one invocation; returns None when every check passed,
        else the reason."""
        method = getattr(self, "_replay_" + call.kind.replace("-", "_"))
        return method(call, cli_text)

    def _replay_iterate(self, call, cli_text):
        params, ics = self._inputs(call)
        traj = self._iterate(call.system, params, ics, call.n)
        values = traj.first + traj.second
        if not self._parse_back(self._format(values), values):
            return "format/parse round trip differs"
        return self._against_reference(call, traj.first, traj.second)

    def _replay_solve(self, call, cli_text):
        api = API[call.system]
        params, ics = self._inputs(call)
        tag = api.auto_case(params)
        if call.sweep:
            with self.tracer.span("closed_form.case_sweep", True):
                first, second = api.case_sweep(tag, params, ics, call.n)
        else:
            with self.tracer.span("closed_form.case_point", True):
                first_n, second_n = api.case_point(tag, params, ics, call.n)
            first, second = {call.n: first_n}, {call.n: second_n}
        indices = range(call.n + 1) if call.sweep else [call.n]
        values = [first[k] for k in indices] + [second[k] for k in indices]
        if not self._parse_back(self._format(values), values):
            return "format/parse round trip differs"
        return self._against_reference(call, first, second, indices)

    def _replay_reduce(self, call, cli_text):
        params, ics = self._inputs(call)
        traj = self._iterate(call.system, params, ics, call.n)
        inv, lin, round_trip = self._roundtrip(call.system, traj)
        linear = self._linear(call.system, params, ics, call.n)
        closed, _ = self._closed_st(call.system, params, ics, call.n)
        values = inv.w + inv.z + lin.S + lin.T
        if not self._parse_back(self._format(values), values):
            return "format/parse round trip differs"
        if not round_trip:
            return "reconstruct does not return the orbit"
        if list(zip(linear.S, linear.T)) != closed or list(zip(lin.S, lin.T)) != closed:
            return "closed_ST, solve_linear and linearize disagree"
        S, T = self.refs.aux[call.family]
        if list(lin.S) != S[: call.n] or list(lin.T) != T[: call.n]:
            return "auxiliary sequences differ from the reference"
        return None

    def _confirm(self, system, params, ics, n, traj):
        """Product and case closed forms against the iterated orbit, as
        verify and difftest compute them, with the assembly estimate.

        Returns (agree, the closed_ST values of the product sweep's indices)."""
        api = API[system]
        tag = api.auto_case(params)
        with self.tracer.span("closed_form.product_sweep", True) as record:
            routes = [api.product_sweep(params, ics, n)]
        closed, st_record = self._closed_st(system, params, ics, n)
        self.assembly_est += record[0] - st_record[0]
        with self.tracer.span("closed_form.case_sweep", True):
            routes.append(api.case_sweep(tag, params, ics, n))
        expect = (list(traj.first), list(traj.second))
        return all(route == expect for route in routes), closed

    def _replay_verify(self, call, cli_text):
        params, ics = self._inputs(call)
        traj = self._iterate(call.system, params, ics, call.n)
        self._record_sizes(list(traj.first), list(traj.second))
        if not self._confirm(call.system, params, ics, call.n, traj)[0]:
            return "closed forms differ from iteration"
        return self._against_reference(call, traj.first, traj.second)

    def _replay_difftest(self, call, cli_text):
        system, n = call.system, call.n
        name = API[system].check_forbidden.__name__
        original = getattr(sampling, name)
        checks = [0]

        def counted(params, ics, horizon):
            checks[0] += 1
            self.counts["forbidden.terms"] += 2 * PERIOD[system] * (horizon + 1)
            with self.tracer.span("forbidden.check", True):
                return original(params, ics, horizon)

        rng = random.Random(call.seed)
        strata = Counter()
        comparisons = 0
        setattr(sampling, name, counted)
        try:
            for trial in range(call.trials):
                stratum, tag = _B_STRATA[trial % 4] if system == "B" else _B_STRATA[0]
                with self.tracer.span("sampling.draw", True):
                    params, ics = API[system].draw_admissible(rng, n, tag)
                strata[stratum] += 1
                traj = self._iterate(system, params, ics, n)
                if traj.singular is not None:
                    return f"trial {trial}: admissible input is singular"
                agree, closed = self._confirm(system, params, ics, n, traj)
                if not agree:
                    return f"trial {trial}: closed forms differ from iteration"
                comparisons += 2 * (n + 1)
                linear = self._linear(system, params, ics, n)
                _, _, round_trip = self._roundtrip(system, traj)
                if list(zip(linear.S, linear.T)) != closed or not round_trip:
                    return f"trial {trial}: reduction disagrees"
                if not self._group(system, params, traj):
                    return f"trial {trial}: group image is not an orbit"
                self._record_sizes(list(traj.first), list(traj.second))
        finally:
            setattr(sampling, name, original)
        self.counts["sampling.accepted"] += call.trials
        self.counts["sampling.attempted"] += checks[0]
        if cli_text is None:
            return "no CLI report to compare the replay with"
        report = json.loads(cli_text)
        replayed = (comparisons, dict(strata), checks[0] - call.trials)
        reported = (report["comparisons"], report["strata"], report["skipped_draws"])
        return None if replayed == reported else f"replay {replayed} != report {reported}"

    def _replay_symmetry_check(self, call, cli_text):
        rng = random.Random(call.seed)
        characteristics = [
            symmetry.Characteristic(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(10)
        ]
        checked = 0
        for ch in characteristics:
            for parity in (0, 1):
                for _ in range(100):
                    with self.tracer.span("sampling.draw", True):
                        params, point = cli._sample_residual_input(rng, call.system, None)
                    with self.tracer.span("symmetry.residual", True):
                        values = API[call.system].residual(ch, params, parity, point)
                    if values != (0, 0):
                        return "nonzero residual"
                    checked += 1
        if cli_text is not None and json.loads(cli_text)["checked"] != checked:
            return "residual count differs from the CLI report"
        return None

    def _replay_check_forbidden(self, call, cli_text):
        params, ics = self._inputs(call)
        with self.tracer.span("forbidden.check", True):
            report = API[call.system].check_forbidden(params, ics, call.horizon)
        self.counts["forbidden.terms"] += 2 * PERIOD[call.system] * (call.horizon + 1)
        literals = [getattr(params, k) for k in PARAM_FLAGS[call.system]]
        literals += [getattr(ics, k) for k in IC_FLAGS[call.system]]
        self._format(literals)
        if report.predicted_singular_step != call.expected_step:
            return f"predicted {report.predicted_singular_step}, observed {call.expected_step}"
        return None

    def _against_reference(self, call, first, second, indices=None):
        ref_first, ref_second = self.refs.orbits[call.family]
        for k in indices if indices is not None else range(call.n + 1):
            if first[k] != ref_first[k] or second[k] != ref_second[k]:
                return f"differs from the reference orbit at index {k}"
        return None


def run_pass(calls, refs, tracer: Tracer):
    """Run one pass of in-process CLI calls and replays.

    Returns (per-layer totals, orbit sizes, CLI failures, wrong results),
    the last two as lists of (invocation, reason).
    """
    replayer = Replayer(tracer, refs)
    failed, wrong = [], []
    run_s = 0.0
    report_bytes = 0
    first_span = len(tracer.spans)
    for call in calls:
        tracer.invocation += 1
        # the CLI's own argv-to-RunConfig path, as in sdeq.cli.main
        config = cli._config_from_args(replayer.parser.parse_args(call.argv))
        with tracer.span("cli.run") as root:
            try:
                code, text = cli.run(config)
            except Exception as exc:  # the CLI's own uncaught errors are data here
                code, text = None, f"{type(exc).__name__}: {exc}"
        run_s += root[0]
        if code == call.expected_code:
            report_bytes += len(text.encode())
        else:
            failed.append((call.label(), f"in-process exit {code}: {text[:200]}"))
            text = None
        reason = replayer.replay(call, text)
        if reason is not None:
            wrong.append((call.label(), reason))
    spans = tracer.spans[first_span:]
    by_id = {span[0]: span for span in spans}
    totals = Counter()
    mirrored = 0.0
    for _, name, start, end, parent, _, mirrors in spans:
        totals[name] += end - start
        if mirrors and not _has_mirrored_ancestor(by_id, parent):
            mirrored += end - start
    counts = replayer.counts
    layers = {
        "closed_form.product_sweep_s": totals["closed_form.product_sweep"],
        "closed_form.case_sweep_s": totals["closed_form.case_sweep"],
        "closed_form.assembly_est_s": replayer.assembly_est,
        "closed_form.case_point_s": totals["closed_form.case_point"],
        "rational.format_s": totals["rational.format"],
        "rational.format_digits": counts["rational.format_digits"],
        "rational.parse_s": totals["rational.parse"],
        "systems.iterate_s": totals["systems.iterate"],
        "systems.values": counts["systems.values"],
        "reduction.closed_ST_s": totals["reduction.closed_ST"],
        "reduction.linear_s": totals["reduction.linear"],
        "reduction.roundtrip_s": totals["reduction.roundtrip"],
        "forbidden.check_s": totals["forbidden.check"],
        "forbidden.terms": counts["forbidden.terms"],
        "sampling.draw_s": totals["sampling.draw"],
        "sampling.accept_ratio": (counts["sampling.accepted"] / counts["sampling.attempted"]
                                  if counts["sampling.attempted"] else 0.0),
        "symmetry.residual_s": totals["symmetry.residual"],
        "symmetry.group_s": totals["symmetry.group"],
        "cli.run_s": run_s,
        "cli.unaccounted_s": run_s - mirrored,
        "cli.report_bytes": report_bytes,
        "spans": len(spans),
    }
    return layers, replayer.orbit_sizes, failed, wrong


def _has_mirrored_ancestor(by_id, parent) -> bool:
    while parent is not None:
        if by_id[parent][6]:
            return True
        parent = by_id[parent][4]
    return False
