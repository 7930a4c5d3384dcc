#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print
one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run builds
perfbench/main.exe in release mode into .bench_build/ (the dune cache is
disabled so nothing is written outside the checkout); span logs and WAL
files go to .bench_out/.  With --trace 0 the result carries every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer metric.
The last line of standard output is the result object; a provenance line
precedes it.  Exits non-zero without a result when the checkout cannot be
built or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TARGET = "perfbench/main.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "lib", "perfbench"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def env():
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"
    return e


def build():
    for path in SOURCES + ["BENCHMARK.json"]:
        if not os.path.exists(path):
            die("not a source checkout: %s is missing" % path)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, TARGET]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env(), timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed (dune exit %d)" % r.returncode)


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so results from a
    checkout that is not a git repository still name their code."""
    h = hashlib.sha256()
    for root in SOURCES:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(root) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def ocaml_version():
    try:
        r = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
        r = subprocess.run(["ocamlopt", "-version"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    build()
    os.makedirs(OUT_DIR, exist_ok=True)

    provenance = {
        "git_rev": git_rev(),
        "source_sha256_16": source_digest(),
        "ocaml": ocaml_version(),
        "dune_profile": "release",
        "nproc": os.cpu_count(),
        "jobs": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"provenance": provenance}), flush=True)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        die("run failed (exit %d)" % r.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # main.exe prints every metric it measured.  A per-layer metric the
    # workload never exercises reads 0; a missing end-to-end metric, or a
    # unit that disagrees with BENCHMARK.json, makes the result incorrect.
    measured = result["metrics"]
    correct = bool(result["correct"])
    out = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        got = measured.get(m["name"])
        if got is None and args.trace:
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            print("perfbench: metric %s missing or not in %s"
                  % (m["name"], m["unit"]), file=sys.stderr)
            correct = False
            got = {"value": 0, "unit": m["unit"]}
        out[m["name"]] = got
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
