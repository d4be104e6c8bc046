"""Workload definitions: seed -> list of item specs, and spec -> computation.

An item spec is plain JSON so the parent can build it without importing
ftik.  Diagrams are given as catalog names or as braid words (one letter
per generator: ``a``/``b`` = sigma_0/sigma_1 positive, upper case
negative), and the child process turns them into ``LinkDiagram`` and
``SurgeryPresentation`` objects during set-up.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA_PATH = Path(__file__).with_name("data.json")
DEFAULT_SEED = 0

WORKLOADS = ("lambda2-cable", "lambda2-sublinks", "casson-conway", "verify-all")

# Pure-braid generators A_ij (strands i < j) as braid words.
A01 = "aa"
A12 = "bb"
A02 = "baaB"

BORROMEAN = {"catalog": "borromean"}
WHITEHEAD = {"catalog": "whitehead"}
TREFOIL = {"catalog": "trefoil-right"}
UNKNOT = {"catalog": "unknot"}


def inverse(word: str) -> str:
    return word[::-1].swapcase()


def commutator(x: str, y: str) -> str:
    return x + y + inverse(x) + inverse(y)


def torus_word(p: int, q: int) -> str:
    return "ab"[: p - 1] * q


def parse_word(word: str) -> list[tuple[int, int]]:
    return [(ord(ch.lower()) - ord("a"), 1 if ch.islower() else -1) for ch in word]


def load_data() -> dict:
    with DATA_PATH.open() as fh:
        return json.load(fh)


def piece_label(piece: dict) -> str:
    if "catalog" in piece:
        return piece["catalog"]
    strands, word = piece["braid"]
    return f"{strands}:{word}"


def item(op: str, pieces: list[dict], framings, **extra) -> dict:
    """A presentation item; its name encodes the whole spec, so golden
    values can be looked up by name for any seed that draws the item."""
    signs = "".join("+" if f > 0 else "-" for f in framings)
    label = "|".join(piece_label(p) for p in pieces)
    spec = {"name": f"{op}:{label}:{signs}", "op": op, "pieces": pieces,
            "framings": list(framings)}
    spec.update(extra)
    return spec


def catalog_item(op: str, name: str) -> dict:
    return {"name": f"{op}:{name}", "op": op, "catalog": name}


def _signs(rng: random.Random, n: int) -> list[int]:
    return [rng.choice((1, -1)) for _ in range(n)]


def braid(strands: int, word: str) -> dict:
    return {"braid": [strands, word]}


def make_items(workload: str, seed: int, data: dict | None = None) -> list[dict]:
    """The batch one child computes.  The seed draws knots from the
    cost-banded pools in data.json and the +-1 framings; neither changes
    how much work an item takes, so the batch cost is nearly seed-free."""
    rng = random.Random(f"{workload}/{seed}")
    data = load_data() if data is None else data
    if workload == "lambda2-cable":
        items = [
            item("lambda2", [braid(3, torus_word(3, 4))], [1]),
            item("lambda2", [braid(2, torus_word(2, 7))], [1]),
            catalog_item("lambda2", "figure-eight-plus1"),
            catalog_item("lambda2", "whitehead-plus1"),
            item("lambda2", [braid(3, commutator(A01, A02))], [1, 1, 1]),
        ]
        for word in rng.sample(data["pool"]["lambda2_knots"], 3):
            items.append(item("lambda2", [braid(3, word)], [1]))
        return items
    if workload == "lambda2-sublinks":
        return [
            catalog_item("lambda2", "borromean-plus1"),
            item("lambda2", [BORROMEAN, BORROMEAN], _signs(rng, 6)),
            item("lambda2", [WHITEHEAD, TREFOIL] + [UNKNOT] * 4, _signs(rng, 7)),
            item("diffsum_lambda2", [WHITEHEAD, WHITEHEAD], _signs(rng, 4)),
        ]
    if workload == "casson-conway":
        items = [
            item("casson", [braid(p, torus_word(p, q))], _signs(rng, 1), torus=[p, q])
            for p, q in ((2, 9), (2, 11), (3, 7))
        ]
        items.append(item("casson", [braid(3, commutator(A01 * 2, A12))], _signs(rng, 3)))
        for word in rng.sample(data["pool"]["casson_knots"], 3):
            items.append(item("casson", [braid(3, word)], _signs(rng, 1)))
        return items
    if workload == "verify-all":
        return [{"name": "verify:all", "op": "verify"}]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Child side: these functions import ftik and are only called in a process
# whose sys.path holds the checkout's src directory.
# ---------------------------------------------------------------------------


def build_piece(piece: dict):
    import ftik
    from ftik import catalog

    if "catalog" in piece:
        return catalog.get(piece["catalog"]).diagram
    strands, word = piece["braid"]
    return ftik.closed_braid(strands, parse_word(word))


def build(spec: dict):
    """Turn an item spec into the argument its operation takes."""
    import ftik
    from ftik import catalog

    if spec["op"] == "verify":
        return None
    if "catalog" in spec:
        return ftik.SurgeryPresentation(catalog.get(spec["catalog"]).diagram)
    d = None
    for piece in spec["pieces"]:
        p = build_piece(piece)
        d = p if d is None else ftik.disjoint_union(d, p)
    return ftik.SurgeryPresentation(ftik.with_framings(d, spec["framings"]))


def compute(spec: dict, arg) -> str:
    """Run one item; every name is looked up at call time so that an
    installed tracer sees the call."""
    import ftik
    import ftik.cli

    op = spec["op"]
    if op == "lambda2":
        return str(ftik.ohtsuki_lambda2(arg))
    if op == "casson":
        return str(ftik.casson_invariant(arg))
    if op == "diffsum_lambda2":
        return str(ftik.difference_sum(ftik.LAMBDA2, arg))
    if op == "verify":
        import contextlib
        import hashlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ftik.cli.main(["verify", "--suite", "all"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        return f"exit={rc} sha256={digest}"
    raise ValueError(f"unknown operation {op!r}")
