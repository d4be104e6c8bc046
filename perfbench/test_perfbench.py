"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run full batches in child processes (about half a minute) and are not
part of the ftik test suite under tests/.
"""

import sys
from fractions import Fraction

import pytest

import gate
import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))


def test_inputs_are_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_items(workload, 5) == workloads.make_items(workload, 5)
    for workload in ("lambda2-cable", "lambda2-sublinks", "casson-conway"):
        assert workloads.make_items(workload, 1) != workloads.make_items(workload, 2)


def test_gate_counts_a_wrong_value_as_failed():
    golden = workloads.load_data()["golden"]
    spec = workloads.make_items("casson-conway", 0)[1]  # T(2,11), closed form 15
    refs = gate.references(spec)
    right = golden[spec["name"]]
    assert gate.check(spec, right, refs, golden) == []
    wrong = str(Fraction(right) + 1)
    assert gate.check(spec, wrong, refs, golden)
    attempted, failed, problems = run.gate_results(
        [spec], [{"trace": False, "values": [right]}, {"trace": False, "values": [wrong]}])
    assert (attempted, failed) == (2, 1) and problems


def test_gate_rejects_lambda2_outside_3z_and_errors():
    spec = workloads.make_items("lambda2-sublinks", 0)[0]  # borromean-plus1
    assert gate.check(spec, "39", {}, {}) == []
    assert gate.check(spec, "40", {}, {})
    assert gate.check(spec, "error: ResourceLimitError: budget", {}, {})


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.restore()
    return tracer.report()


def test_tracer_restores_originals_and_skips_its_own_keys():
    import ftik
    import ftik.invariants
    import ftik.skein
    from ftik import catalog

    def originals():
        return (ftik.sublink, ftik.invariants.sublink, ftik.LAMBDA2.evaluate,
                ftik.LinkDiagram.canonical_key, ftik.LinkDiagram.__dict__["from_pd"],
                ftik.TruncSeries.__add__)

    before = originals()
    ftik.invariants.clear_caches()
    ftik.skein.clear_caches()
    # jones keys the diagram and the bracket keys its single piece; the
    # tracer's own distinct-key computation must not add a third call.
    layers = _traced(lambda: ftik.jones(catalog.get("figure-eight").diagram))
    assert layers["diagram.canonical_key.calls"] == 2
    assert layers["skein.bracket.calls"] == 1
    assert layers["skein.bracket.distinct_ratio"] == 1.0
    # LAMBDA2.evaluate holds ohtsuki_lambda2 and is rebound as well: one
    # surgery span per sub-presentation of the 2-component link.
    layers = _traced(lambda: ftik.difference_sum(
        ftik.LAMBDA2, catalog.presentation("whitehead-plus1")))
    assert layers["fintype.difference_sum.calls"] == 1
    assert layers["invariants.surgery.calls"] == 4
    assert all(a is b for a, b in zip(before, originals()))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_values_agree(workload):
    items = workloads.make_items(workload, workloads.DEFAULT_SEED)
    plain = run.spawn(items, False, 170)
    traced = run.spawn(items, True, 170)
    assert traced["values"] == plain["values"]
    for child in (plain, traced):
        assert len(child["refs"]) == len(items) + 1
        assert child["solve_ref"] > 0
    assert plain["warm_ref"] and min(plain["warm_ref"]) > 0
    attempted, failed, problems = run.gate_results(items, [plain, traced])
    assert failed == 0, problems
