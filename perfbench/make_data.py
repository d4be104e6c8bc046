"""Regenerate perfbench/data.json: the knot pools the seeds draw from and
the golden values.

    PYTHONPATH=src python3 perfbench/make_data.py

Pools hold random 3-braid knot words whose work, counted deterministically,
lies in a narrow band, so that a seed changes the inputs but hardly the
cost of a batch:

- ``lambda2_knots``: 8 crossings; the candidates nearest the median work,
  counted as Laurent coefficient operations (term products of every
  multiplication, terms of every addition) during one cold
  ``ohtsuki_lambda2``; the bracket's arithmetic is where its time goes.
- ``casson_knots``: 12 crossings; Conway resolution-tree nodes.

Golden values are the outputs of the commit that generated the file: every
item any seed can draw for lambda2-cable and casson-conway, the default
seed's lambda2-sublinks items, and the digest of ``ftik verify --suite all``.
Rerunning the script on a commit that changes an output changes the goldens,
so do it only on purpose.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics

import workloads
from workloads import braid, item, torus_word

POOL_SIZE = 24
LAMBDA2_CROSSINGS = 8
CASSON_CROSSINGS = 12
CASSON_NODES = (4000, 6000)


def _knot_words(rng: random.Random, length: int):
    """Endless stream of distinct 3-braid knot words with no cancelling
    neighbours (cyclically), up to rotation."""
    seen = set()
    while True:
        word = "".join(rng.choice("abAB") for _ in range(length))
        if any(x == y.swapcase() for x, y in zip(word, word[1:] + word[0])):
            continue
        if not {"a", "b"} <= set(word.lower()):
            continue
        perm = [0, 1, 2]
        for ch in word.lower():
            i = "ab".index(ch)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if perm not in ([1, 2, 0], [2, 0, 1]):
            continue
        rotation = min(word[i:] + word[:i] for i in range(length))
        if rotation in seen:
            continue
        seen.add(rotation)
        yield word


def _clear_caches():
    import ftik.invariants
    import ftik.skein

    ftik.invariants.clear_caches()
    ftik.skein.clear_caches()


def lambda2_pool(rng: random.Random) -> list[str]:
    import ftik
    from ftik.series import _Laurent

    counter = [0]
    mul, add = _Laurent.__mul__, _Laurent.__add__

    def counted_mul(a, b):
        counter[0] += len(a.terms) * len(b.terms)
        return mul(a, b)

    def counted_add(a, b):
        counter[0] += len(a.terms) + len(b.terms)
        return add(a, b)

    _Laurent.__mul__, _Laurent.__add__ = counted_mul, counted_add
    try:
        costs = {}
        for word in itertools.islice(_knot_words(rng, LAMBDA2_CROSSINGS), 6 * POOL_SIZE):
            _clear_caches()
            counter[0] = 0
            ftik.ohtsuki_lambda2(workloads.build(item("lambda2", [braid(3, word)], [1])))
            costs[word] = counter[0]
    finally:
        _Laurent.__mul__, _Laurent.__add__ = mul, add
    mid = statistics.median(costs.values())
    pool = sorted(costs, key=lambda w: (abs(costs[w] - mid), w))[:POOL_SIZE]
    print("lambda2 term operations:", min(costs[w] for w in pool), "-", max(costs[w] for w in pool))
    return pool


def casson_pool(rng: random.Random) -> list[str]:
    import ftik
    import ftik.skein

    counter = [0]
    original = ftik.skein.smooth_crossing

    def counted(*args):
        counter[0] += 1
        return original(*args)

    ftik.skein.smooth_crossing = counted
    pool = []
    try:
        for word in _knot_words(rng, CASSON_CROSSINGS):
            counter[0] = 0
            try:
                ftik.skein.conway(workloads.build_piece(braid(3, word)),
                                  node_budget=CASSON_NODES[1])
            except ftik.ResourceLimitError:
                continue
            if CASSON_NODES[0] <= 1 + 2 * counter[0] <= CASSON_NODES[1]:
                pool.append(word)
                if len(pool) == POOL_SIZE:
                    return pool
    finally:
        ftik.skein.smooth_crossing = original


def golden_items(data: dict) -> list[dict]:
    pool = data["pool"]
    specs = workloads.make_items("lambda2-cable", workloads.DEFAULT_SEED, data)
    specs += [item("lambda2", [braid(3, w)], [1]) for w in pool["lambda2_knots"]]
    for f in (1, -1):
        specs += [item("casson", [braid(p, torus_word(p, q))], [f], torus=[p, q])
                  for p, q in ((2, 9), (2, 11), (3, 7))]
        specs += [item("casson", [braid(3, w)], [f]) for w in pool["casson_knots"]]
    asl = workloads.commutator(workloads.A01 * 2, workloads.A12)
    specs += [item("casson", [braid(3, asl)], list(fs))
              for fs in itertools.product((1, -1), repeat=3)]
    specs += workloads.make_items("lambda2-sublinks", workloads.DEFAULT_SEED, data)
    specs += workloads.make_items("verify-all", workloads.DEFAULT_SEED, data)
    return specs


def main() -> None:
    rng = random.Random("perfbench-pools")
    data = {"pool": {"lambda2_knots": lambda2_pool(rng), "casson_knots": casson_pool(rng)}}
    _clear_caches()
    golden = {}
    for spec in golden_items(data):
        if spec["name"] not in golden:
            golden[spec["name"]] = workloads.compute(spec, workloads.build(spec))
            print(spec["name"], golden[spec["name"]], flush=True)
    data["golden"] = golden
    workloads.DATA_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
