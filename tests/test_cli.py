"""Command-line interface: subcommands, formats, exit codes, and link-file
validation."""

import hashlib
import json
import tracemalloc

import pytest

from ftik import catalog
import ftik.fintype
import ftik.skein
from ftik.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_RESOURCE_LIMIT,
    EXIT_TRUNCATION,
    EXIT_VERIFY_FAILED,
    main,
)
from ftik.diagram import LinkDiagram, SurgeryPresentation, closed_braid
from ftik.errors import DiagramError, ResourceLimitError, SingularSeriesError, TruncationError
from ftik.fintype import INVARIANTS
from ftik.invariants import (
    casson_invariant,
    jones_exp_derivative,
    jones_sublink_weight,
    ohtsuki_lambda1,
    ohtsuki_lambda2,
    psi2_knot_invariant,
)
from ftik.series import format_laurent, format_rational
from ftik.skein import conway, conway_a2, jones
from oracles import chain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_table(capsys):
    code, out, _ = run(capsys, "compute", "--invariant", "lambda2",
                       "--link", "catalog:trefoil-right-plus1")
    assert code == EXIT_OK
    assert out.strip() == "39"


def test_compute_lambda2_three_components(capsys):
    # Three components: the series run at exactly the order lambda2 reads, 8.
    code, out, _ = run(capsys, "compute", "--invariant", "lambda2",
                       "--link", "catalog:borromean-plus1")
    assert code == EXIT_OK
    assert out.strip() == "39"


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--invariant", "casson",
                       "--link", "catalog:figure-eight-plus1",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"invariant": "casson", "link": "figure-eight-plus1",
                       "value": "-1"}


def test_compute_jones_text(capsys):
    code, out, _ = run(capsys, "compute", "--invariant", "jones",
                       "--link", "catalog:trefoil-right")
    assert code == EXIT_OK
    assert out.strip() == "-t^-4 + t^-3 + t^-1"


def test_compute_rational_formatting(capsys):
    # phi2 of the figure-eight is a non-integer rational printed as p/q.
    code, out, _ = run(capsys, "compute", "--invariant", "phi2",
                       "--link", "catalog:figure-eight")
    assert code == EXIT_OK
    value = out.strip()
    assert "/" in value or value.lstrip("-").isdigit()


def test_compute_self_check(capsys):
    code, out, _ = run(capsys, "compute", "--invariant", "a2",
                       "--link", "catalog:trefoil-right",
                       "--self-check", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["self_check"]["match"] is True
    assert payload["self_check"]["phi1"] == "6"


def test_compute_file_input_roundtrip(tmp_path, capsys):
    doc = catalog.get("trefoil-right-plus1").diagram.to_json_dict("mylink")
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "compute", "--invariant", "lambda2",
                       "--link", str(path))
    assert code == EXIT_OK
    assert out.strip() == "39"


# What each row of the invariant table must compute, written out against the
# library functions: (function of the diagram, polynomial variable or None).
LIBRARY = {
    "casson": (lambda d: casson_invariant(SurgeryPresentation(d)), None),
    "lambda1": (lambda d: ohtsuki_lambda1(SurgeryPresentation(d)), None),
    "lambda2": (lambda d: ohtsuki_lambda2(SurgeryPresentation(d)), None),
    "psi2": (psi2_knot_invariant, None),
    "a2": (conway_a2, None),
    "jones": (jones, "t"),
    "conway": (conway, "z"),
    "phi1": (lambda d: jones_sublink_weight(d, 1), None),
    "phi2": (lambda d: jones_sublink_weight(d, 2), None),
    "v2": (lambda d: jones_exp_derivative(d, 2), None),
    "v3": (lambda d: jones_exp_derivative(d, 3), None),
    "v4": (lambda d: jones_exp_derivative(d, 4), None),
}


@pytest.mark.parametrize("invariant", sorted(INVARIANTS))
@pytest.mark.parametrize("link", ["trefoil-right-plus1", "figure-eight-plus1",
                                  "whitehead-plus1"])
def test_compute_prints_the_library_value(capsys, invariant, link):
    code, out, err = run(capsys, "compute", "--invariant", invariant,
                         "--link", f"catalog:{link}", "--format", "json")
    evaluate, variable = LIBRARY[invariant]
    try:
        raw = evaluate(catalog.get(link).diagram)
    except DiagramError as exc:
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert str(exc) in err
        return
    value = format_rational(raw) if variable is None else format_laurent(raw, variable)
    assert code == EXIT_OK
    assert json.loads(out) == {"invariant": invariant, "link": link, "value": value}


UNORIENTABLE_PD = [[1, 2, 3, 4], [1, 4, 3, 2]]  # arc 1 enters under twice


def test_malformed_file_exits_2_with_violations(tmp_path, capsys):
    trefoil = catalog.get("trefoil-right").diagram.to_json_dict("bad")
    docs = [{**trefoil, **fields} for fields in (
        {"crossings": [[1, 2, 3, 4], [1, 2, 3, 5]]},
        {"crossings": UNORIENTABLE_PD},
        {"crossings": [5]},
        {"crossings": [[True, 4, 2, 5], [3, 6, 4, True], [5, 2, 6, 3]]},
        # A string id must not reach the sort of the arc counts.
        {"crossings": [["a", 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]},
        {"unknotted_components": "1"},
        {"framings": 0},
        # int() would cut 1.5 to 1 and compute on.
        {"framings": [1.5]},
        {"framings": [True]},
    )]
    # A top level that is not an object.
    docs += [5, None, [], "x"]
    for doc in docs:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "compute", "--invariant", "a2",
                             "--link", str(path))
        assert (code, out) == (EXIT_BAD_INPUT, ""), doc
        assert "malformed input" in err
        assert isinstance(doc, dict) or "must be a JSON object" in err
        if isinstance(doc, dict) and doc["crossings"] == UNORIENTABLE_PD:
            assert "inconsistent strand orientation" in err
    # Built directly, the code fails validate() whatever over_in it gets.
    crossings = tuple(tuple(c) for c in UNORIENTABLE_PD)
    for over_in in ((1, 1), (1, 3), (3, 1), (3, 3)):
        d = LinkDiagram(crossings, over_in, ((1, 3), (2, 4)), (0, 0))
        assert d.validate() != [], over_in


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--invariant", "a2",
                       "--link", "/nonexistent/link.json")
    assert code == EXIT_BAD_INPUT
    assert err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"name": "x"}'.encode("utf-16-le"))
    code, out, err = run(capsys, "compute", "--invariant", "a2",
                         "--link", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_deeply_nested_link_file_exits_2(tmp_path, capsys):
    # json.load raises RecursionError, not JSONDecodeError, on deep nesting.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "compute", "--invariant", "a2",
                         "--link", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_unknown_catalog_name_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--invariant", "a2",
                       "--link", "catalog:no-such-link")
    assert code == EXIT_BAD_INPUT
    assert "no-such-link" in err


def test_virtual_pd_file_exits_2(tmp_path, capsys):
    doc = {"name": "virtual", "components": 1, "framings": [0],
           "crossings": [[2, 3, 4, 1], [4, 1, 3, 2]],
           "unknotted_components": 0}
    path = tmp_path / "virtual.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compute", "--invariant", "jones",
                         "--link", str(path))
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert "planar" in err


def test_resource_limit_exits_4(capsys, monkeypatch):
    # A real node-budget overrun takes close to a minute; the exit-code
    # mapping is the same for a budget that trips at once.
    def over_budget(d):
        raise ResourceLimitError("conway resolution exceeded 1 nodes")

    monkeypatch.setattr(ftik.fintype, "conway", over_budget)
    code, _, err = run(capsys, "compute", "--invariant", "conway",
                       "--link", "catalog:trefoil-right")
    assert code == EXIT_RESOURCE_LIMIT == 4
    assert "exceeded" in err


def test_deep_conway_tree_exits_4(tmp_path, capsys):
    # The T(2, 81) closure resolves through a chain deeper than Python's
    # recursion limit; that is a resource limit, not a crash (exit 1).
    doc = closed_braid(2, [(0, 1)] * 81).to_json_dict("t-2-81")
    path = tmp_path / "t-2-81.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compute", "--invariant", "a2",
                         "--link", str(path))
    assert (code, out) == (EXIT_RESOURCE_LIMIT, "")
    assert err.startswith("error:") and "too deep" in err
    assert "Traceback" not in err


def test_framing_count_is_checked_before_markers_are_built(tmp_path, capsys):
    # A million unknotted components with one framing must fail the count
    # check without first allocating a million markers.
    doc = catalog.get("trefoil-right").diagram.to_json_dict("huge")
    doc.update({"unknotted_components": 10**6, "framings": [0]})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "compute", "--invariant", "a2",
                           "--link", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_INPUT
    assert "expected 1000001 framings, got 1" in err
    assert peak < 5 * 2**20


def test_lambda2_sublink_budget_exits_4(tmp_path, capsys):
    # Chain 10's 2-parallel is one piece of 20 components: the alternating
    # sum over it would walk 2^20 - 1 sublinks, past the budget of 10^6.
    path = tmp_path / "chain-10.json"
    path.write_text(json.dumps(chain(10).diagram.to_json_dict("chain-10")))
    code, out, err = run(capsys, "compute", "--invariant", "lambda2", "--link", str(path))
    assert (code, out) == (EXIT_RESOURCE_LIMIT, "")
    assert err.startswith("error:") and "1048575 sublinks of one piece" in err
    # Thirteen split unknots walk three sub-cables each.
    doc = {"name": "unlink-13", "components": 13, "framings": [1] * 13,
           "crossings": [], "unknotted_components": 13}
    path = tmp_path / "unlink-13.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "compute", "--invariant", "lambda2", "--link", str(path)) == (
        EXIT_OK, "0\n", "")


def test_bracket_state_budget_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(ftik.skein, "_STATE_BUDGET", 1)
    code, _, err = run(capsys, "compute", "--invariant", "jones",
                       "--link", "catalog:whitehead")
    assert code == EXIT_RESOURCE_LIMIT == 4
    assert "bracket contraction exceeded 1 states" in err


def test_internal_truncation_error_exits_3(capsys, monkeypatch):
    # Every computation sets its own order, so only a bug can read a series
    # past it; that is reported apart from malformed input (exit 2).
    def short_series(d):
        raise TruncationError(4, 3)

    monkeypatch.setattr(ftik.fintype, "conway", short_series)
    code, _, err = run(capsys, "compute", "--invariant", "conway",
                       "--link", "catalog:trefoil-right")
    assert code == EXIT_TRUNCATION == 3
    assert "internal error" in err


def test_internal_singular_series_error_exits_3(capsys, monkeypatch):
    # Only a bug can invert a series with zero constant term.
    def singular(d):
        raise SingularSeriesError("cannot invert a series with zero constant term")

    monkeypatch.setattr(ftik.fintype, "conway", singular)
    code, out, err = run(capsys, "compute", "--invariant", "conway",
                         "--link", "catalog:trefoil-right")
    assert (code, out) == (EXIT_TRUNCATION, "")
    assert "internal error" in err and "malformed input" not in err


def test_internal_value_error_is_not_malformed_input(capsys, monkeypatch):
    # Only input parsing maps to exit 2; a bug inside an evaluator escapes.
    def broken(d):
        raise ValueError("internal bug")

    monkeypatch.setattr(ftik.fintype, "conway", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["compute", "--invariant", "conway", "--link", "catalog:trefoil-right"])
    assert capsys.readouterr().err == ""


def test_domain_errors_exit_2(capsys):
    code, out, err = run(capsys, "compute", "--invariant", "psi2",
                         "--link", "catalog:whitehead")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert "psi2 is a knot invariant" in err
    code, out, err = run(capsys, "compute", "--invariant", "jones",
                         "--link", "catalog:empty")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert "empty link" in err


def test_verify_suite_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "skein")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report[0]["suite"] == "skein"
    assert all(e["pass"] for e in report[0]["entries"])


def test_verify_all_lists_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == EXIT_OK
    suites = {block["suite"] for block in json.loads(out)}
    assert suites == {"paper-values", "skein", "order", "integrality",
                      "cross-formula"}


def test_verify_failure_exit_code(capsys, monkeypatch):
    # Sabotage one expected value to confirm the failure path and exit code.
    entry = catalog.get("trefoil-right-plus1")
    from fractions import Fraction
    broken = dict(entry.expected, lambda2=Fraction(40))
    monkeypatch.setitem(catalog._ENTRIES, "trefoil-right-plus1",
                        catalog.CatalogEntry(entry.name, entry.diagram,
                                             entry.note, broken))
    code, _, err = run(capsys, "verify", "--suite", "paper-values")
    assert code == EXIT_VERIFY_FAILED
    assert "trefoil-right-plus1" in err


def test_catalog_table(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == EXIT_OK
    for name in catalog.names():
        assert name in out


def test_catalog_json_roundtrips(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == EXIT_OK
    docs = json.loads(out)
    assert {d["name"] for d in docs} == set(catalog.names())
    for doc in docs:
        name, rebuilt = LinkDiagram.from_json_dict(doc)
        assert rebuilt.to_json_dict(name) == doc
        # The JSON carries no orientation: from_pd must infer the same one.
        assert rebuilt == catalog.get(name).diagram, name


# sha256 over the exit code, stdout and stderr of every compute run below;
# a change to any invariant value, format or error message changes it.
COMPUTE_DIGEST = "830b63a042724b22ea4bfb6e063efe137aadca2d71098e45fb2d2366cbef2d6a"


def test_compute_outputs_pinned(capsys):
    digest = hashlib.sha256()
    for invariant in INVARIANTS:
        for name in catalog.names():
            code, out, err = run(capsys, "compute", "--invariant", invariant,
                                 "--link", f"catalog:{name}", "--format", "json",
                                 "--self-check")
            digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == COMPUTE_DIGEST
