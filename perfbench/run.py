#!/usr/bin/env python3
"""Runs one workload of the FIGRET end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and the library under
src/) into .bench_build/ on first use, runs the measuring binary, prints
every metric it reports with its unit plus a host/build fingerprint, writes
the full record to .bench_build/results/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are exactly BENCHMARK.json's end_to_end list (--trace 0) or
per_layer list (--trace 1). Exits non-zero when the build fails, a metric is
missing, or an output check fails. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BIN_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BIN_DIR, "perfbench")
RUN_TIMEOUT_S = 170
# Two serving workers (or Harness threads) plus the producer thread.
THREADS = "2"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BIN_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BIN_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BIN_DIR, "-j3"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-3000:])
                fail("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """Hash of the library and benchmark sources: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # Only the checkout's own repository: git would otherwise search the
    # parent directories for one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()

    spans = os.path.join(BUILD, "traces",
                         "%s-seed%d.csv" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    env = dict(os.environ, FIGRET_THREADS=THREADS)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    if out.returncode != 0 or not out.stdout.strip():
        fail("benchmark binary exited with %d" % out.returncode)
    rec = json.loads(out.stdout.strip().splitlines()[-1])

    rec["fingerprint"] = {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": rec.pop("build_type"),
        "compiler": rec.pop("compiler"),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
    }
    print("perfbench %s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("fingerprint: " + json.dumps(rec["fingerprint"], sort_keys=True))
    for name, m in rec["metrics"].items():
        print("  %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    for name, ok in rec["checks"].items():
        print("  check %-34s %s" % (name, "ok" if ok else "FAILED"))
    print("  attempted %d, failed %d" % (rec["attempted"], rec["failed"]))
    if args.trace:
        print("spans: " + os.path.relpath(spans, ROOT))
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)

    metrics = {}
    for m in wanted:
        got = rec["metrics"].get(m["name"])
        if got is None:
            fail("metric %s was not reported" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s reported in %s, expected %s" %
                 (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = all(rec["checks"].values())
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    if not correct:
        fail("output check failed: " + ", ".join(
            k for k, ok in rec["checks"].items() if not ok))


if __name__ == "__main__":
    main()
