"""One measured process: import ftik, build the batch, solve it cold, then
time warm passes.  Reads its job as JSON on stdin and prints one JSON line.

Run only by run.py, which stamps the spawn time so that ``setup_s`` covers
interpreter start-up, ``import ftik.cli`` (catalog build included) and
input construction.  A pass of the reference loop (yardstick.py) runs
before the first item, after every item of the cold batch and after every
chunk of warm passes, so that each timing can be divided by the host's
speed at that moment.
"""

import json
import resource
import sys
import time

job = json.loads(sys.stdin.read())
sys.path.insert(0, job["src"])

import ftik.cli  # noqa: E402

if not ftik.__file__.startswith(job["src"]):
    sys.exit(f"ftik was imported from {ftik.__file__}, not from {job['src']}")

import workloads  # noqa: E402
from yardstick import in_ref, reference_s  # noqa: E402

tracer = None
if job["trace"]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()


def run_item(spec, arg) -> tuple[str, float]:
    """Value and wall seconds of one item."""
    start = time.perf_counter()
    if isinstance(arg, Exception):
        value = f"error: build: {type(arg).__name__}: {arg}"
    else:
        try:
            value = workloads.compute(spec, arg)
        except Exception as exc:  # counted as a failed operation by the gate
            value = f"error: {type(exc).__name__}: {exc}"
    return value, time.perf_counter() - start


items = job["items"]
args = []
for spec in items:
    try:
        args.append(workloads.build(spec))
    except Exception as exc:
        args.append(exc)
t_ready = time.monotonic()

refs = [reference_s()]
values, cold_s = [], []
for spec, arg in zip(items, args):
    value, seconds = run_item(spec, arg)
    values.append(value)
    cold_s.append(seconds)
    refs.append(reference_s())
result = {"t_ready": t_ready, "values": values, "cold_s": cold_s, "refs": refs}
if tracer is not None:
    tracer.restore()
    result["layers"] = tracer.report()
else:
    # Warm passes run in chunks of at least warm_chunk_s, each followed by
    # a reference pass; a chunk's seconds per pass go into reference units.
    warm_ref, warm_total, warm_bad = [], 0.0, set()
    ref_before = refs[-1]
    while len(warm_ref) < 3 or warm_total < job["warm_min_s"]:
        chunk_s, chunk_passes = 0.0, 0
        while chunk_s < job["warm_chunk_s"]:
            for i, (spec, arg) in enumerate(zip(items, args)):
                value, seconds = run_item(spec, arg)
                chunk_s += seconds
                if value != values[i]:
                    warm_bad.add(i)
            chunk_passes += 1
        ref_after = reference_s()
        warm_ref.append(in_ref(chunk_s / chunk_passes, ref_before, ref_after))
        ref_before = ref_after
        warm_total += chunk_s
    result.update(warm_ref=warm_ref, warm_bad=sorted(warm_bad))
result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(result))
