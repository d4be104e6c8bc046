"""Correctness gate, run outside every timed region.

``references`` computes, for one item, the values that independent routes
predict: psi2 for +1-framed knots, the connected-sum rule for split
unions, the Jones-side Casson sum, the torus-knot closed form and catalog
anchors.  ``check`` compares one returned value with those references,
with the golden values in data.json and with lambda2 in 3Z.  A value that
fails any check is a failed operation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _pieces(spec: dict):
    """Per split piece: (diagram, framings) sliced from the item spec."""
    import workloads

    out, at = [], 0
    for piece in spec["pieces"]:
        d = workloads.build_piece(piece)
        out.append((d, spec["framings"][at:at + d.components]))
        at += d.components
    return out


def _presentation(d, framings):
    import ftik

    return ftik.SurgeryPresentation(ftik.with_framings(d, framings))


def references(spec: dict) -> dict[str, Fraction]:
    import ftik
    import workloads
    from ftik import catalog

    op = spec["op"]
    refs: dict[str, Fraction] = {}
    if op == "verify":
        return refs
    if "catalog" in spec:
        expected = catalog.get(spec["catalog"]).expected.get(op)
        if expected is not None:
            refs["catalog-anchor"] = expected
    d = workloads.build(spec).diagram
    if op == "lambda2" and d.components == 1 and d.framings == (1,):
        refs["psi2"] = ftik.psi2_knot_invariant(d)
    if op == "casson":
        total = Fraction(0)
        for size in range(1, d.components + 1):
            for keep in combinations(range(d.components), size):
                f = 1
                for c in keep:
                    f *= d.framings[c]
                total += f * ftik.jones_sublink_weight(ftik.sublink(d, keep), 1) / 6
        refs["jones-side-casson"] = total
        if "torus" in spec:
            p, q = spec["torus"]
            refs["torus-closed-form"] = d.framings[0] * Fraction((p * p - 1) * (q * q - 1), 24)
    pieces = _pieces(spec) if "pieces" in spec and len(spec["pieces"]) > 1 else []
    if op == "lambda2" and pieces:
        # Connected sum: lambda2(M1 # M2) = lambda2(M1) + lambda2(M2) + lambda1(M1) lambda1(M2).
        l1 = [ftik.ohtsuki_lambda1(_presentation(*p)) for p in pieces]
        l2 = [ftik.ohtsuki_lambda2(_presentation(*p)) for p in pieces]
        refs["connected-sum"] = sum(l2) + sum(a * b for a, b in combinations(l1, 2))
    if op == "diffsum_lambda2" and pieces:
        # Only the lambda1 x lambda1 cross term survives the alternating sum,
        # and only when there are exactly two pieces.
        d1 = [ftik.difference_sum(ftik.LAMBDA1, _presentation(*p)) for p in pieces]
        refs["connected-sum"] = d1[0] * d1[1] if len(d1) == 2 else Fraction(0)
    return refs


def check(spec: dict, value: str, refs: dict[str, Fraction], golden: dict[str, str]) -> list[str]:
    """Problems with one returned value; an empty list means it passed."""
    problems = []
    if value.startswith("error"):
        return [value]
    expected = golden.get(spec["name"])
    if expected is not None and value != expected:
        problems.append(f"golden: got {value}, expected {expected}")
    if spec["op"] == "verify":
        if expected is None:
            problems.append("no golden verify output")
        return problems
    try:
        x = Fraction(value)
    except ValueError:
        return problems + [f"not a rational: {value!r}"]
    if spec["op"] in ("lambda2", "diffsum_lambda2") and (x.denominator != 1 or x.numerator % 3):
        problems.append(f"lambda2 value {value} is not in 3Z")
    for name, ref in refs.items():
        if x != ref:
            problems.append(f"{name}: got {value}, expected {ref}")
    return problems
