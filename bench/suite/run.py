#!/usr/bin/env python3
"""Build seltrig_bench from this checkout and run one workload of it.

    python3 bench/suite/run.py --workload point_read --seed 7 --seconds 10 --trace 0

Configures and builds bench/suite (which compiles the engine from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the workload in
a fresh process and prints the benchmark's own report followed, as the last
line of stdout, by one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Scratch databases, the result file and
the trace stay inside the build directory. The exit status is non-zero, and
no JSON line is printed, when the sources are missing, the build fails, an
oracle fails, or a metric named in BENCHMARK.json is not reported.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Warm-up seconds before the measured window. olap_tpch always warms up with
# one full round of its seven queries instead.
WARMUP_S = 2
# A run must end within 180 s of its start once the binary is built.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "seltrig_bench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found under " + ROOT)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        return 1

    out_path = os.path.join(build_dir, "result-%s.json" % args.workload)
    if os.path.exists(out_path):
        os.remove(out_path)
    command = [
        os.path.join(build_dir, "seltrig_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--duration", repr(args.seconds),
        "--warmup", str(WARMUP_S),
        "--out", out_path,
    ]
    if args.trace:
        command += ["--trace", os.path.join(build_dir, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    start = time.monotonic()
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("seltrig_bench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    log("seltrig_bench ran %.1f s" % (time.monotonic() - start))
    if done.returncode != 0:
        log("seltrig_bench exited with %d" % done.returncode)
        return 1

    with open(out_path) as f:
        result = json.load(f)["results"][0]
    reported = result["per_layer"] if args.trace else result["metrics"]
    metrics = {}
    for wanted in spec["per_layer" if args.trace else "end_to_end"]:
        got = reported.get(wanted["name"])
        if got is None or got["unit"] != wanted["unit"]:
            log("metric %s (%s) not reported" % (wanted["name"], wanted["unit"]))
            return 1
        metrics[wanted["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
