"""ftik benchmark driver.

    python3 perfbench/run.py --workload lambda2-cable --seed 0 --seconds 20 --trace 0

Closed loop, one client: fresh child interpreters (perfbench/child.py) run
one after another until ``--seconds`` have passed, each solving the whole
batch once cold and then in warm passes.  End-to-end metrics are medians
over the children; solve and warm times are in units of a reference loop
timed beside them (perfbench/yardstick.py).  With ``--trace 1`` untraced
and traced children alternate, and the per-layer metrics come from the
traced ones.  Every returned value goes through the correctness gate
(perfbench/gate.py) after the clock has stopped.  The last line of stdout
is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HARD_LIMIT_S = 170.0  # the run must end within 180 s, gate included
GATE_RESERVE_S = 30.0
MIN_UNTRACED = 3
WARM_MIN_S = 0.2
WARM_CHUNK_S = 0.02

import workloads  # noqa: E402
from yardstick import in_ref  # noqa: E402


class ChildFailed(RuntimeError):
    pass


def spawn(items: list[dict], trace: bool, timeout: float) -> dict:
    job = json.dumps({"src": str(SRC), "items": items, "trace": trace,
                      "warm_min_s": WARM_MIN_S,
                      "warm_chunk_s": WARM_CHUNK_S})
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=job,
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip()[-2000:] or f"exit {proc.returncode}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"no result line in {proc.stdout[-500:]!r}") from None
    result["setup_s"] = result["t_ready"] - t_spawn
    result["solve_s"] = sum(result["cold_s"])
    refs = result["refs"]
    result["solve_ref"] = sum(in_ref(s, refs[i], refs[i + 1])
                              for i, s in enumerate(result["cold_s"]))
    result["trace"] = trace
    result["wall_s"] = time.monotonic() - t_spawn
    return result


def measure(items: list[dict], seconds: int, trace: bool, t_begin: float) -> tuple[list, int]:
    """Run children until the measuring time is up; returns the results and
    the number of children that crashed."""
    deadline = t_begin + seconds
    stop_by = t_begin + HARD_LIMIT_S - GATE_RESERVE_S
    results, crashed, longest, n = [], 0, 0.0, 0
    while time.monotonic() < stop_by:
        traced = trace and n % 2 == 1
        n += 1
        try:
            results.append(spawn(items, traced, stop_by - time.monotonic()))
            longest = max(longest, results[-1]["wall_s"])
        except ChildFailed as exc:
            print(f"child failed: {exc}", file=sys.stderr)
            crashed += 1
            if not results:
                break
        n_traced = sum(r["trace"] for r in results)
        enough = len(results) - n_traced >= MIN_UNTRACED and (n_traced or not trace)
        now = time.monotonic()
        if (now >= deadline and enough) or now + longest > stop_by:
            break
    return results, crashed


def gate_results(items: list[dict], results: list[dict]) -> tuple[int, int, list[str]]:
    """Check every returned value; returns (attempted, failed, problems)."""
    sys.path.insert(0, str(SRC))
    import gate

    golden = workloads.load_data()["golden"]
    refs = []
    for spec in items:
        try:
            refs.append((gate.references(spec), None))
        except Exception as exc:  # a broken reference path fails the item
            refs.append(({}, f"reference failed: {type(exc).__name__}: {exc}"))
    baseline = next((r["values"] for r in results if not r["trace"]), None)
    attempted = failed = 0
    problems: list[str] = []
    for r in results:
        for i, spec in enumerate(items):
            attempted += 1
            value = r["values"][i]
            found = gate.check(spec, value, refs[i][0], golden)
            if refs[i][1]:
                found.append(refs[i][1])
            if baseline is not None and value != baseline[i]:
                found.append(f"differs between children: {value} vs {baseline[i]}")
            if i in r.get("warm_bad", ()):
                found.append("warm pass returned a different value")
            if found:
                failed += 1
                problems.extend(f"{spec['name']}: {p}" for p in found)
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.monotonic()

    if not (SRC / "ftik" / "__init__.py").is_file():
        print(f"error: no ftik sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    items = workloads.make_items(args.workload, args.seed)

    results, crashed = measure(items, args.seconds, bool(args.trace), t_begin)
    untraced = [r for r in results if not r["trace"]]
    traced = [r for r in results if r["trace"]]
    if not untraced or (args.trace and not traced):
        print("error: no child completed", file=sys.stderr)
        return 1

    attempted, failed, problems = gate_results(items, results)
    attempted += crashed * len(items)
    failed += crashed * len(items)
    for p in problems[:20]:
        print(f"gate: {p}", file=sys.stderr)

    med = statistics.median
    if args.trace:
        wanted = bench["per_layer"]
        # Counts repeat exactly across traced children; times take the median.
        measured = {m["name"]: (statistics.median_low if m["unit"] == "count" else med)(
                        [r["layers"][m["name"]] for r in traced])
                    for m in wanted if m["name"] in traced[0]["layers"]}
        measured["trace.overhead_ratio"] = (
            med(r["solve_ref"] for r in traced) / med(r["solve_ref"] for r in untraced))
    else:
        wanted = bench["end_to_end"]
        measured = {name: med(r[name] for r in untraced)
                    for name in ("solve_ref", "setup_s", "peak_rss_mib")}
        measured["warm_ref"] = med(x for r in untraced for x in r["warm_ref"])
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"diagnostics": {
        "workload": args.workload, "seed": args.seed, "items": len(items),
        "children": {"untraced": len(untraced), "traced": len(traced), "crashed": crashed},
        # Seconds as the host gave them, and the reference pass's time in
        # each child: the host's drift, not a metric.
        "solve_s": [round(r["solve_s"], 4) for r in untraced],
        "solve_ref": [round(r["solve_ref"], 2) for r in untraced],
        "traced_solve_s": [round(r["solve_s"], 4) for r in traced],
        "ref_s": [round(med(r["refs"]), 4) for r in results],
        "spans": [r["layers"]["trace.spans"] for r in traced],
        "elapsed_s": round(time.monotonic() - t_begin, 2),
    }}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
