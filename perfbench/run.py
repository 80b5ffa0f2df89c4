"""Benchmark of snowpoly: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload family_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a snowpoly checkout; the library is imported from
./src. The process is a single closed-loop client: it imports snowpoly,
builds the workload's inputs, then forks one child per unit of work (a
sweep, a query, a verify pass or a statistics pass) and waits for it, so
every unit starts cold and at most one child runs at a time. Rounds of
units repeat until the next round would end after --seconds (at least the
workload's minimum number of rounds). Set-up time is measured separately
in fresh interpreters. With --trace 1 the units run traced and the run
reports per-layer figures instead. The last line printed is the result
object; see README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 15
DEADLINE_S = 165  # a run that would pass this is abandoned without a result
OUT_DIR = ".perfbench_out"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_snowpoly(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "snowpoly", "__init__.py")):
        fail(f"no snowpoly sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import snowpoly

    if not os.path.abspath(snowpoly.__file__).startswith(os.path.abspath(src) + os.sep):
        fail(f"imported snowpoly from {snowpoly.__file__}, not from {src}")


def in_child(fn, deadline: float):
    """Run fn() in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        gc.collect()  # the child's collector schedule does not depend on the parent's past
        code = 0
        try:
            payload = json.dumps(fn())
        except BaseException:
            payload = json.dumps({"crash": traceback.format_exc()})
            code = 1
        with os.fdopen(wfd, "w") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(wfd)
    chunks = []
    try:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([rfd], [], [], max(left, 0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                fail("run exceeded its time limit")
            chunk = os.read(rfd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
    os.waitpid(pid, 0)
    result = json.loads(b"".join(chunks) or b"{}")
    if "lat" not in result:
        result = {"lat": [], "busy": 0.0, "rss_kb": 0, "items": 0, "failed": 1,
                  "errors": [result.get("crash", "child died without a result")]}
    return result


def measure_setup(workload: str, seed: int, deadline: float) -> list[float]:
    """Seconds from launching a fresh interpreter until it has imported
    snowpoly and built the workload's inputs, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, check=True, timeout=max(deadline - time.monotonic(), 1),
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def run_rounds(workload, inputs, seconds, deadline, trace_path=None):
    """Rounds of units until the next round would overrun `seconds`; a
    round is a list of unit results. With trace_path, the units run traced."""
    rounds = []
    start = time.monotonic()
    while True:
        r = len(rounds)
        rounds.append([
            in_child(lambda: traced_unit(workload, inputs, unit, trace_path, f"r{r}.u{k}")
                     if trace_path else workload.run(inputs, unit), deadline)
            for k, unit in enumerate(workload.round_units(inputs))
        ])
        elapsed = time.monotonic() - start
        enough = len(rounds) >= (1 if trace_path else workload.min_rounds)
        if enough and elapsed + elapsed / len(rounds) > seconds:
            return rounds


def traced_unit(workload, inputs, unit, path, label):
    """Run one unit traced. Its tracing overhead is the number of spans it
    recorded times the measured extra cost of one traced call."""
    from spans import Tracer, span_cost

    tracer = Tracer()
    tracer.install()
    result = workload.run(inputs, unit)
    result["layers"] = tracer.metrics()
    result["layers"]["trace.overhead_s"] = len(tracer.span_name) * span_cost()
    tracer.dump(path, label)
    return result


def end_to_end(workload, rounds, setup):
    units = [u for r in rounds for u in r]
    lat = [x for u in units for x in u["lat"]]
    busy = [sum(u["busy"] for u in r) for r in rounds]
    # every round runs the same units in the same order, so a latency
    # sample's place in its round names its item
    per_item: dict[tuple[int, int], list[float]] = {}
    for r in rounds:
        for k, u in enumerate(r):
            for j, x in enumerate(u["lat"]):
                per_item.setdefault((k, j), []).append(x)
    ms = 1000.0
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (sum(u["items"] for u in units) / sum(busy), "1/s"),
        "item_p50_ms": (statistics.median(map(statistics.median, per_item.values())) * ms, "ms"),
        "item_tail_ms": (percentile(lat, workload.tail_share) * ms, "ms"),
        "verify_s": (statistics.median(busy), "s"),
        "peak_rss_mb": (max(u["rss_kb"] for u in units) / 1024.0, "MB"),
    }


def per_layer(rounds):
    """Each figure summed over a round's units, median over rounds."""
    names = None
    per_round = []
    for units in rounds:
        sums: dict[str, float] = {}
        for u in units:
            for k, v in u.get("layers", {}).items():
                sums[k] = sums.get(k, 0) + v
        names = names or list(sums)
        per_round.append(sums)
    return {
        k: (statistics.median(s.get(k, 0) for s in per_round),
            "s" if k.endswith("_s") or k.endswith(".s") else "count")
        for k in names or []
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    import_snowpoly(os.getcwd())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.build(args.seed)
        print(time.perf_counter())
        return 0

    setup = None if args.trace else measure_setup(args.workload, args.seed, deadline)
    inputs = workload.build(args.seed)
    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        open(trace_path, "wb").close()
    rounds = run_rounds(workload, inputs, args.seconds, deadline, trace_path)

    units = [u for r in rounds for u in r]
    errors = [e for u in units for e in u["errors"]]
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    metrics = per_layer(rounds) if args.trace else end_to_end(workload, rounds, setup)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(u["items"] + u["failed"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
