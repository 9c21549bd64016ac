#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one named workload.

    python3 perfbench/run.py --workload tpch_mix --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to .bench_build/perfbench
and needs the repository's src/ tree; without it the script exits non-zero
before printing a result. Each run writes its full result (meta block,
every metric, errors) to .bench_out/, and a traced run also writes a Chrome
trace there.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"} holding the end-to-end metrics named in BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). A per-layer metric the
workload does not exercise reads 0.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}; cannot build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return BUILD_DIR / "perfbench"


def source_digest():
    """sha256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    binary = build()
    env = dict(os.environ)
    # One thread: the shared pool runs inline. ThreadPool::ParallelFor can
    # return while its last worker is still locking the caller's stack-local
    # mutex, which aborted about one tpch_mix run in six with 4 workers.
    env["ADS_THREADS"] = "1"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    full = json.loads(lines[-1])
    full["meta"]["source_sha256"] = source_digest()
    full["meta"]["git_sha"] = git_sha()

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    correct = full["correct"]
    for entry in spec[kind]:
        name = entry["name"]
        measured = full["metrics"].get(name)
        if measured is not None and measured["value"] is not None:
            value = measured["value"]
        elif args.trace:
            value = 0  # the workload does not exercise this layer
        else:
            full["errors"].append(f"end-to-end metric {name} not measured")
            correct = False
            value = 0
        metrics[name] = {"value": value, "unit": entry["unit"]}
    result = {"correct": correct, "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=2) + "\n")
    for line in lines[:-1]:
        print(line)
    print(f"full result: {out}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
