"""Run two sets of benchmark runs of the same checkout and report, per
workload and end-to-end metric, whether they agree within the bounds in
BENCHMARK.json.

    python3 perfbench/compare.py --runs 10     # two sets of ten runs per workload

Both sets run every workload in BENCHMARK.json for its run_seconds, and
every run uses its own seed (set A: 1 .. runs, set B: runs + 1 .. 2 runs).
A metric's spread is the distance between the first and third quartile of
its values, as a share of their median. A set passes when every spread
stays within its metric's bound; two sets agree when, for every metric,
set B's median is not worse than set A's by more than the bound, and the
share of failed operations is the same. Raw results go to
.perfbench_out/compare.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(a: float, b: float, better: str) -> float:
    """How much b is worse than a, as a share of a."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    args = parser.parse_args(argv)

    results: dict[str, list[list[dict]]] = {w: [] for w in names}
    for s in range(2):
        for w in names:
            seeds = [1 + s * args.runs + i for i in range(args.runs)]
            results[w].append([one_run(w, seed, bench["run_seconds"]) for seed in seeds])
            print(f"set {'AB'[s]} {w}: done", file=sys.stderr, flush=True)
            os.makedirs(".perfbench_out", exist_ok=True)
            with open(os.path.join(".perfbench_out", "compare.json"), "w") as fh:
                json.dump(results, fh)

    ok = True
    print(f"{'workload':<13} {'metric':<13} {'unit':<5} {'set':<3} {'median':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w, sets in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                sp = spread(values)
                med = statistics.median(values)
                medians.append(med)
                good = sp <= bound
                verdict = "ok" if good else "SPREAD"
                if good and sp > bound / 3:
                    verdict = "ok (over a third of bound)"
                if k == 1:
                    shift = worse_by(medians[0], med, metric["better"])
                    if shift > bound:
                        good, verdict = False, f"WORSE by {shift:.3f}"
                    else:
                        verdict += f", B vs A {shift:+.3f}"
                ok = ok and good
                print(f"{w:<13} {name:<13} {metric['unit']:<5} {'AB'[k]:<3} {med:>12.5g} "
                      f"{sp:>7.3f} {bound:>6}  {verdict}")
        flat = [r for runs in sets for r in runs]
        shares = {r["failed"] / r["attempted"] for r in flat}
        correct = all(r["correct"] for r in flat)
        ok = ok and len(shares) == 1 and correct
        print(f"{w:<13} attempted {sum(r['attempted'] for r in flat)}, failed "
              f"{sum(r['failed'] for r in flat)}, failed shares {sorted(shares)}, "
              f"all correct: {correct}")
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
