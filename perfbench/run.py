#!/usr/bin/env python3
"""Network-day benchmark runner.

Builds perfbench/netbench.exe from the checkout's sources with dune,
runs one workload, checks that the metrics it printed are exactly the
ones BENCHMARK.json names (with their units), and prints the result as
the last line of stdout. Run from the repository root:

    python3 perfbench/run.py --workload replay-day --seed 1 --seconds 20 --trace 0

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

OWN_DIR = ".bench_build"  # everything the build writes for itself
BUILD_DIR = os.path.join(OWN_DIR, "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "netbench.exe")
BUILD_TIMEOUT_S = 700  # a cold build of lib/ takes about a minute
RUN_TIMEOUT_S = 170
SOURCE_ROOTS = ["dune-project", "dune", "lib", "perfbench"]


def source_digest():
    """SHA-256 over the program and benchmark sources, for the record."""
    h = hashlib.sha256()
    paths = []
    for root in SOURCE_ROOTS:
        if os.path.isfile(root):
            paths.append(root)
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
            paths.extend(os.path.join(d, f) for f in files)
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git"):
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() or None


def build(env):
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/netbench.exe"]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"run.py: workload {args.workload!r} is not in BENCHMARK.json")
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}

    # keep the files the build reads or writes for itself inside the checkout
    own = os.path.abspath(OWN_DIR)
    os.makedirs(os.path.join(own, "tmp"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.join(own, "tmp"),
               XDG_CACHE_HOME=os.path.join(own, "cache"),
               XDG_CONFIG_HOME=os.path.join(own, "config"))
    if not build(env):
        sys.exit("run.py: build failed")

    r = subprocess.run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"run.py: netbench exited with code {r.returncode}")
    result = json.loads(lines[-1])

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected.items()) - set(got.items()))
        extra = sorted(set(got.items()) - set(expected.items()))
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
              f"unexpected {extra}", file=sys.stderr)
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print("source " + json.dumps({"commit": commit(), "source_sha256": source_digest()}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
