#!/usr/bin/env python3
"""bench_suite_smoke: every seltrig_bench workload at a tiny scale, plus one
traced run, checking that each metric BENCHMARK.json names is printed with
its unit, every oracle passes (exit status 0) and the trace parses.

    python3 smoke.py --binary BUILD/seltrig_bench --benchmark-json BENCHMARK.json \
        --workdir SCRATCH
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

METRIC_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


def run(binary, workdir, workload, extra):
    env = dict(os.environ, TMPDIR=os.path.join(workdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    command = [binary, "--workload", workload, "--sf", "0.01", "--warmup", "0",
               "--duration", "1", "--out", os.path.join(workdir, workload + ".json")] + extra
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit("FAIL %s exited %d:\n%s%s" %
                         (workload, done.returncode, done.stdout, done.stderr))
    printed = {}
    for line in done.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    return printed


def expect_printed(printed, metrics, workload):
    for metric in metrics:
        if printed.get(metric["name"]) != metric["unit"]:
            raise SystemExit("FAIL %s: %s not printed with unit %s" %
                             (workload, metric["name"], metric["unit"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)
    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)

    for workload in spec["workloads"]:
        printed = run(args.binary, args.workdir, workload["name"], [])
        expect_printed(printed, spec["end_to_end"], workload["name"])
        print("ok %s" % workload["name"])

    trace_path = os.path.join(args.workdir, "trace.json")
    printed = run(args.binary, args.workdir, "point_read", ["--trace", trace_path])
    expect_printed(printed, spec["end_to_end"] + spec["per_layer"], "point_read --trace")
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    layers = {e["cat"] for e in spans}
    for layer in ("sql", "binder", "optimizer", "audit", "exec", "engine", "storage"):
        if layer not in layers:
            raise SystemExit("FAIL trace has no %s span" % layer)
    print("ok point_read --trace (%d spans)" % len(spans))
    shutil.rmtree(args.workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
