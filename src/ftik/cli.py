"""Command-line interface.

Subcommands:

* ``compute`` -- evaluate one invariant on a link file or catalog entry.
* ``verify``  -- run the verification suites and report pass/fail.
* ``catalog`` -- list the built-in diagrams.

Exit codes:

* 0 -- success.
* 1 -- a verification check (or ``--self-check``) failed.
* 2 -- malformed input, with the validation violation list: an invalid
  or unreadable link file, an unknown catalog name, or a diagram outside
  the invariant's domain.  Any other exception is a bug and propagates.
* 3 -- internal error: a series was read past the order it was
  expanded to, or a series with zero constant term was inverted.  Every
  computation works out its own orders and denominators from its input,
  so this is a bug, not malformed input.
* 4 -- a resource limit was hit (the Conway resolution node budget or
  recursion depth, the bracket contraction state budget, an alternating
  sum over more than 10^6 sublinks of one connected piece, or a
  difference sum over more than 10^6 sub-presentations).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog as _catalog
from .diagram import (
    LinkDiagram,
    SurgeryPresentation,
    smooth_crossing,
    switch_crossing,
    with_framings,
)
from .errors import DiagramError, ResourceLimitError, SingularSeriesError, TruncationError
from .fintype import CASSON, INVARIANTS, LAMBDA2, order_check
from .invariants import jones_exp_derivative, normalized_jones_series, psi2_knot_invariant
from .series import HalfLaurent, format_laurent, format_rational
from .skein import jones

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_TRUNCATION = 3
EXIT_RESOURCE_LIMIT = 4


# ---------------------------------------------------------------------------
# Input handling
# ---------------------------------------------------------------------------


def load_link(spec: str) -> tuple[str, LinkDiagram]:
    if spec.startswith("catalog:"):
        entry = _catalog.get(spec[len("catalog:"):])
        return entry.name, entry.diagram
    with open(spec, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return LinkDiagram.from_json_dict(data)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def cmd_compute(args: argparse.Namespace) -> int:
    try:
        name, d = load_link(args.link)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError,
            KeyError) as exc:
        # An unreadable or non-UTF-8 file, bad JSON, JSON nested too deeply to
        # parse or an unknown catalog name.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    evaluate, variable = INVARIANTS[args.invariant]
    raw = evaluate(d)
    value = format_rational(raw) if variable is None else format_laurent(raw, variable)
    payload = {"invariant": args.invariant, "link": name, "value": value}
    if args.self_check:
        phi1 = INVARIANTS["phi1"][0](d)
        six_a2 = 6 * INVARIANTS["a2"][0](d)
        payload["self_check"] = {
            "phi1": format_rational(phi1),
            "six_a2": format_rational(six_a2),
            "match": phi1 == six_a2,
        }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(value)
        if args.self_check:
            sc = payload["self_check"]
            print(f"self-check phi1 = {sc['phi1']}, 6*a2 = {sc['six_a2']}: "
                  + ("ok" if sc["match"] else "MISMATCH"))
    if args.self_check and not payload["self_check"]["match"]:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _check(entries: list[dict], name: str, value, ok: bool) -> None:
    if isinstance(value, Fraction):
        value = format_rational(value)
    entries.append({"presentation": name, "value": str(value), "pass": bool(ok)})


def _suite_paper_values() -> list[dict]:
    out: list[dict] = []
    for entry in _catalog.entries():
        for inv, expected in sorted(entry.expected.items()):
            value = INVARIANTS[inv][0](entry.diagram)
            _check(out, f"{entry.name}:{inv}", value, value == expected)
    unknot = _catalog.get("unknot").diagram
    v = INVARIANTS["jones"][0](unknot)
    _check(out, "unknot:jones", format_laurent(v, "t"), v == HalfLaurent.one())
    for i in (1, 2, 3, 4):
        v = jones_exp_derivative(unknot, i)
        _check(out, f"unknot:v{i}", v, v == 0)
    empty = _catalog.get("empty").diagram
    x_empty = normalized_jones_series(empty, 4)
    _check(out, "empty:X", "series", x_empty.coeffs[0] == 1
           and all(c == 0 for c in x_empty.coeffs[1:]))
    return out


def _suite_skein() -> list[dict]:
    t_pos = HalfLaurent.monomial(2)
    t_neg = HalfLaurent.monomial(-2)
    t_half_diff = HalfLaurent.from_dict({1: 1, -1: -1})
    out: list[dict] = []
    for entry in _catalog.entries():
        d = entry.diagram
        for i in range(len(d.crossings)):
            if d.crossing_sign(i) > 0:
                plus, minus = d, switch_crossing(d, i)
            else:
                plus, minus = switch_crossing(d, i), d
            zero = smooth_crossing(d, i)
            lhs = t_pos * jones(plus) - t_neg * jones(minus)
            rhs = t_half_diff * jones(zero)
            _check(out, f"{entry.name}:crossing-{i}", "skein", lhs == rhs)
    return out


def _suite_order() -> list[dict]:
    out: list[dict] = []
    four = [(e.name, SurgeryPresentation(e.diagram))
            for e in _catalog.asl_entries(min_components=4)
            if e.diagram.components == 4]
    report = order_check(CASSON, four, 3)
    out.extend(report["entries"])
    seven = [(e.name, SurgeryPresentation(e.diagram))
             for e in _catalog.asl_entries(min_components=7)]
    report = order_check(LAMBDA2, seven, 6)
    out.extend(report["entries"])
    # Order exactly 3: some 3-component ASL must give a nonzero value.
    witnesses = [(e.name, SurgeryPresentation(e.diagram))
                 for e in _catalog.asl_entries(min_components=3)
                 if e.diagram.components == 3]
    report = order_check(CASSON, witnesses, 2)
    nonzero = [e for e in report["entries"] if not e["pass"]]
    _check(out, "casson-order-exactly-3-witness",
           nonzero[0]["presentation"] + "=" + nonzero[0]["value"] if nonzero else "none",
           bool(nonzero))
    return out


def _suite_integrality() -> list[dict]:
    out: list[dict] = []
    for entry in _catalog.asl_entries():
        l1 = INVARIANTS["lambda1"][0](entry.diagram)
        l2 = INVARIANTS["lambda2"][0](entry.diagram)
        _check(out, f"{entry.name}:lambda1-mod-6", l1,
               l1.denominator == 1 and l1 % 6 == 0)
        _check(out, f"{entry.name}:lambda2-mod-3", l2,
               l2.denominator == 1 and l2 % 3 == 0)
    return out


def _suite_cross_formula() -> list[dict]:
    out: list[dict] = []
    for entry in _catalog.entries():
        d = entry.diagram
        if d.components == 1 and all(f == 0 for f in d.framings):
            l2 = INVARIANTS["lambda2"][0](with_framings(d, (1,)))
            p2 = psi2_knot_invariant(d)
            _check(out, f"{entry.name}:psi2-vs-lambda2", p2, p2 == l2)
    for entry in _catalog.asl_entries():
        d = entry.diagram
        phi1 = INVARIANTS["phi1"][0](d)
        six_a2 = 6 * INVARIANTS["a2"][0](d)
        _check(out, f"{entry.name}:phi1-vs-6a2", phi1, phi1 == six_a2)
    return out


SUITES = {
    "paper-values": _suite_paper_values,
    "skein": _suite_skein,
    "order": _suite_order,
    "integrality": _suite_integrality,
    "cross-formula": _suite_cross_formula,
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = []
    failed = []
    for suite_name in names:
        entries = SUITES[suite_name]()
        report.append({"suite": suite_name, "entries": entries})
        failed.extend(
            f"{suite_name}/{e['presentation']}" for e in entries if not e["pass"]
        )
    print(json.dumps(report, indent=2, sort_keys=True))
    if failed:
        print("failed checks: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.format == "json":
        docs = [e.diagram.to_json_dict(e.name) for e in _catalog.entries()]
        print(json.dumps(docs, indent=2, sort_keys=True))
        return EXIT_OK
    for e in _catalog.entries():
        expected = ", ".join(
            f"{k}={format_rational(v)}" for k, v in sorted(e.expected.items())
        )
        framings = ",".join(str(f) for f in e.diagram.framings)
        line = (f"{e.name}: components={e.diagram.components} "
                f"framings=[{framings}]")
        if expected:
            line += f" expected({expected})"
        line += f" -- {e.note}"
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftik",
        description="Finite-type invariants of homology spheres from "
                    "surgery on algebraically split links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one invariant")
    p_compute.add_argument("--invariant", required=True, choices=tuple(INVARIANTS))
    p_compute.add_argument("--link", required=True,
                           help="link-file path or catalog:NAME")
    p_compute.add_argument("--format", choices=("table", "json"), default="table")
    p_compute.add_argument("--self-check", action="store_true",
                           help="also report the phi1 = 6*a2 cross-check")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          choices=tuple(SUITES) + ("all",))
    p_verify.set_defaults(func=cmd_verify)

    p_catalog = sub.add_parser("catalog", help="list built-in links")
    p_catalog.add_argument("--format", choices=("table", "json"), default="table")
    p_catalog.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TruncationError, SingularSeriesError) as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except DiagramError as exc:
        print("error: malformed input:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


if __name__ == "__main__":
    sys.exit(main())
