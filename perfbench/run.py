#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (CMake, Release) into the build directory
on first use, runs the workload for S seconds of host time, and prints the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when an output check fails,
when the result does not carry every metric BENCHMARK.json names with its
unit, or when the simulator sources are missing.

--smoke is the benchmark's self-test: it runs every workload in a shrunken
size in both modes, asserts every metric is printed with its unit, and
asserts that deliberately broken checks (a bit-identity mismatch, a
conservation mismatch, a past-saturation load) exit non-zero.

Builds go to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
traced-run artifacts (spans.json, telemetry time series, stall mix) to
.../perfbench-out/<workload>-seed<N>/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT,
                          os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "noc_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "noc", "network.hpp")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail("build failed: " + " ".join(cmd), 3)


def source_id():
    """The git commit when the checkout is a repository, else a hash of the
    sources the benchmark builds (the benchmark may run from an export)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:12]


def run_binary(workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines)."""
    out_dir = os.path.join(BUILD_ROOT, "perfbench-out", f"{workload}-seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir, "--commit", source_id(), *extra]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    return r.returncode, r.stdout.splitlines()


def validate(lines, spec, trace):
    """Problems with the result line: its keys, and every metric of the
    mode present with the unit BENCHMARK.json gives it."""
    if not lines:
        return ["no output"]
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(res)}")
        return problems
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = res["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(m['name'] for m in want))}")
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {v.get('unit')!r}, want {m['unit']!r}")
        val = v.get("value")
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            problems.append(f"{m['name']}: value {val!r} is not a finite number")
        elif not trace and val == 0:
            problems.append(f"{m['name']}: end-to-end metric is 0")
    return problems


def smoke(spec):
    names = [w["name"] for w in spec["workloads"]]
    errors = []
    for w in names:
        for trace in (0, 1):
            code, lines = run_binary(w, 1, 1, trace, ["--smoke"])
            problems = validate(lines, spec, trace)
            if code != 0:
                problems.append(f"exit code {code}")
            elif json.loads(lines[-1])["correct"] is not True:
                problems.append("correct is not true")
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {w} trace={trace}: {status}")
            errors += [f"{w} trace={trace}: {p}" for p in problems]
    # Each deliberately broken check must fail the run.
    broken = [("uniform16_serial", "bitident"), ("fig5_chip4x4", "bitident"),
              ("coherence8_closed", "conservation"),
              ("uniform16_serial", "stationarity")]
    for w, what in broken:
        if w not in names:
            continue
        code, lines = run_binary(w, 1, 1, 0, ["--smoke", "--break-check", what])
        correct = None
        if lines and lines[-1].startswith("{"):
            correct = json.loads(lines[-1]).get("correct")
        ok = code != 0 and correct is False
        print(f"smoke {w} --break-check {what}: exit {code}, correct={correct} "
              f"-> {'ok' if ok else 'NOT DETECTED'}")
        if not ok:
            errors.append(f"{w}: broken {what} check was not detected")
    if errors:
        for e in errors:
            print("smoke FAILED: " + e, file=sys.stderr)
        return 1
    print("smoke: all workloads print every metric with its unit; "
          "broken checks exit non-zero")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    build()
    if args.smoke:
        return smoke(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    code, lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0:
        return code
    problems = validate(lines, spec, args.trace)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    return 4 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
