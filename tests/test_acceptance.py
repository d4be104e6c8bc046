"""Acceptance gate: ten criteria, one pass/fail line each.

Every check is an exact equality in rational arithmetic; no tolerances.
"""

import time

from ftik import catalog
from ftik.diagram import SurgeryPresentation, with_framings
from ftik.fintype import CASSON, LAMBDA2, difference_sum
from ftik.invariants import (
    casson_invariant,
    jones_exp_derivative,
    jones_sublink_weight,
    normalized_jones_series,
    ohtsuki_lambda1,
    ohtsuki_lambda2,
    psi2_knot_invariant,
)
from ftik.series import HalfLaurent
from ftik.skein import (
    conway_a2,
    jones,
    kauffman_bracket,
)
from oracles import kauffman_bracket_naive


def report(n, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {text}")
    assert ok, f"criterion {n}: {text}"


def plus_one(name):
    return SurgeryPresentation(
        with_framings(catalog.get(name).diagram, (1,))
    )


def test_criterion_1_lambda2_trefoil_anchors():
    start = time.monotonic()
    right = ohtsuki_lambda2(plus_one("trefoil-right"))
    t_right = time.monotonic() - start
    start = time.monotonic()
    left = ohtsuki_lambda2(plus_one("trefoil-left"))
    t_left = time.monotonic() - start
    ok = right == 39 and left == 63 and t_right < 120 and t_left < 120
    report(1, ok, f"lambda2(+1-surgery) right trefoil = {right}, left "
                  f"trefoil = {left} ({t_right:.2f}s / {t_left:.2f}s)")


def test_criterion_2_psi2_equals_lambda2_on_catalog_knots():
    pairs = []
    for entry in catalog.entries():
        d = entry.diagram
        if d.components == 1 and d.framings == (0,):
            p = psi2_knot_invariant(d)
            l = ohtsuki_lambda2(SurgeryPresentation(with_framings(d, (1,))))
            pairs.append((entry.name, p, l))
    anchors = {name: p for name, p, _ in pairs}
    ok = all(p == l for _, p, l in pairs) and anchors["trefoil-right"] == 39 \
        and anchors["trefoil-left"] == 63 and anchors["unknot"] == 0
    report(2, ok, "psi2 = lambda2(+1) on " +
           ", ".join(f"{n}={p}" for n, p, _ in pairs))


def test_criterion_3_lambda1_is_six_casson_and_additive():
    identical = all(
        ohtsuki_lambda1(SurgeryPresentation(e.diagram))
        == 6 * casson_invariant(SurgeryPresentation(e.diagram))
        for e in catalog.asl_entries()
    )
    split = catalog.presentation("trefoils-two-plus1")
    additive = ohtsuki_lambda1(split) == 2 * ohtsuki_lambda1(
        plus_one("trefoil-right")
    ) == 12
    ok = identical and additive
    report(3, ok, "lambda1 = 6 lambda_C on the catalog; additive on the "
                  "split two-trefoil presentation (12 = 6 + 6)")


def test_criterion_4_phi1_equals_six_a2_two_pipelines():
    checked = 0
    ok = True
    for entry in catalog.asl_entries():
        d = entry.diagram
        phi1 = jones_sublink_weight(d, 1)          # Jones-side series
        six_a2 = 6 * conway_a2(d)                  # Conway-side coefficient
        ok = ok and phi1 == six_a2
        checked += 1
    report(4, ok and checked >= 5,
           f"phi1 = 6 a2 via independent pipelines on {checked} ASLs")


def test_criterion_5_skein_relation_everywhere():
    from ftik.diagram import smooth_crossing, switch_crossing

    t_pos = HalfLaurent.monomial(2)
    t_neg = HalfLaurent.monomial(-2)
    t_half_diff = HalfLaurent.from_dict({1: 1, -1: -1})
    crossings = 0
    ok = True
    for entry in catalog.entries():
        d = entry.diagram
        for i in range(len(d.crossings)):
            if d.crossing_sign(i) > 0:
                plus, minus = d, switch_crossing(d, i)
            else:
                plus, minus = switch_crossing(d, i), d
            zero = smooth_crossing(d, i)
            ok = ok and (t_pos * jones(plus) - t_neg * jones(minus)
                         == t_half_diff * jones(zero))
            crossings += 1
    unknot_ok = jones(catalog.get("unknot").diagram) == HalfLaurent.one()
    x_empty = normalized_jones_series(catalog.get("empty").diagram, 6)
    empty_ok = x_empty.coeff(0) == 1 and all(
        x_empty.coeff(k) == 0 for k in range(1, 7)
    )
    ok = ok and unknot_ok and empty_ok
    report(5, ok, f"skein relation exact at {crossings} catalog crossings; "
                  "V(unknot) = 1; X(empty) = 1")


def test_criterion_6_bracket_oracle_equivalence():
    checked = 0
    ok = True
    for entry in catalog.entries():
        if not entry.diagram.is_empty() and len(entry.diagram.crossings) <= 10:
            ok = ok and kauffman_bracket(entry.diagram) == \
                kauffman_bracket_naive(entry.diagram)
            checked += 1
    report(6, ok and checked >= 5,
           f"memoized bracket = naive state sum on {checked} diagrams "
           "with <= 10 crossings")


def test_criterion_7_vanishing_lemmas():
    a2_ok = all(
        conway_a2(e.diagram) == 0
        for e in catalog.asl_entries(min_components=4)
    )
    seven = catalog.get("split-seven-plus1").diagram
    phi2_ok = jones_sublink_weight(seven, 2) == 0
    ok = a2_ok and phi2_ok
    report(7, ok, "a2 = 0 on >= 4-component catalog ASLs; phi2 = 0 on the "
                  "7-component split union")


def test_criterion_8_finite_type_order_evidence():
    four_ok = all(
        difference_sum(CASSON, SurgeryPresentation(e.diagram)) == 0
        for e in catalog.asl_entries(min_components=4)
        if e.diagram.components == 4
    )
    seven_ok = difference_sum(
        LAMBDA2, catalog.presentation("split-seven-plus1")
    ) == 0
    witness = difference_sum(CASSON, catalog.presentation("borromean-plus1"))
    ok = four_ok and seven_ok and witness != 0
    report(8, ok, "difference sums: lambda_C vanishes on 4-component ASLs, "
                  "lambda2 on the 7-component split union, and lambda_C is "
                  f"{witness} != 0 on the Borromean presentation")


def test_criterion_9_integrality():
    ok = True
    for entry in catalog.asl_entries():
        p = SurgeryPresentation(entry.diagram)
        l1 = ohtsuki_lambda1(p)
        l2 = ohtsuki_lambda2(p)
        ok = ok and l1.denominator == 1 and l1 % 6 == 0
        ok = ok and l2.denominator == 1 and l2 % 3 == 0
    report(9, ok, "lambda1 in 6Z and lambda2 in 3Z on every catalog "
                  "presentation")


def test_criterion_10_chirality_detection():
    right = catalog.get("trefoil-right").diagram
    left = catalog.get("trefoil-left").diagram
    v3_right = jones_exp_derivative(right, 3)
    l2_right = ohtsuki_lambda2(plus_one("trefoil-right"))
    l2_left = ohtsuki_lambda2(plus_one("trefoil-left"))
    c_right = casson_invariant(plus_one("trefoil-right"))
    c_left = casson_invariant(plus_one("trefoil-left"))
    ok = v3_right != 0 and l2_right == 39 and l2_left == 63 \
        and l2_right != l2_left and c_right == c_left
    report(10, ok, f"v3(trefoil) = {v3_right} != 0; lambda2 separates "
                   f"{l2_right} != {l2_left} while lambda_C gives "
                   f"{c_right} = {c_left}")
