#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs.

Runs N pairs per workload of each checkout's own perfbench/run.py, in
that checkout's root. Pair k of a workload uses the fresh seed
SEED0 + k (numbered on across workloads) and alternates which side
runs first: the parent on even k, the change on odd k. Every run is
printed as it finishes, as "workload seed side result-json"; the
summary follows in the format of the committed PERF_PAIRS_*.txt files:

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --pairs 10 --seed0 501

Every run lasts BENCHMARK.json's run_seconds. Quartiles are by linear
interpolation; a change "wins" a pair when its value is better in the
direction BENCHMARK.json gives. Exits 1 if any
run fails, prints no result line, reports "correct": false or
"failed" > 0; 2 on a usage error. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_one(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def g(x):
    return f"{x:.4g}"


def summary_line(workload, metric, pairs, better, bound):
    par = [p for p, _ in pairs]
    chg = [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
    pq1, pq3 = quartiles(par)
    cq1, cq3 = quartiles(chg)
    pmed, cmed = statistics.median(par), statistics.median(chg)
    ratio = cmed / pmed if pmed else float("nan")
    ratios = ", ".join(f"{c / p:.3g}" if p else "nan" for p, c in pairs)
    line = (f"#   {workload:<15} {metric:<12} pairs={len(pairs)} change-wins={wins} "
            f"parent med={g(pmed)} IQR={g(pq3 - pq1)} [{g(pq1)}, {g(pq3)}]  "
            f"change med={g(cmed)} [{g(cq1)}, {g(cq3)}] ratio={ratio:.3f}")
    if bound is not None:
        line += f" bound={bound}"
    return line + f" ratios=[{ratios}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the change checkout")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated workloads (default: all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    for w in workloads:
        if w not in known:
            ap.error(f"workload {w!r} is not in BENCHMARK.json")
    seconds = bench["run_seconds"]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": args.parent, "change": args.change}

    ok = True
    results = {}  # (workload, side) -> list of results, in pair order
    seed = args.seed0
    print("# workload seed side result", flush=True)
    for w in workloads:
        for k in range(args.pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                r = run_one(sides[side], w, seed, seconds, args.trace)
                results.setdefault((w, side), []).append(r)
                print(f"{w} {seed} {side} {json.dumps(r)}", flush=True)
                if r is None or r.get("correct") is not True or r.get("failed", 0) > 0:
                    ok = False
            seed += 1

    print("#\n# Summary (medians over the pairs; IQR = the parent runs' interquartile\n"
          "# range, quartiles by linear interpolation, [q1, q3] given per side;\n"
          "# ratio = change median / parent median; ratios = change/parent per\n"
          "# pair, in seed order):")
    for w in workloads:
        par, chg = results[(w, "parent")], results[(w, "change")]
        for m in metrics:
            name = m["name"]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(par, chg)
                     if p and c and name in p["metrics"] and name in c["metrics"]]
            if pairs:
                print(summary_line(w, name, pairs, m["better"], m.get("bound")))
        clean = all(r and r.get("failed", 0) == 0 for r in par + chg)
        correct = all(r and r.get("correct") is True for r in par + chg)
        print(f"#   {w:<15} failed=0 on every run: {clean}; "
              f"correct=true on every run: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
