#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for 2 seconds, untraced and traced,
and asserts that each run's result line carries exactly the metrics
BENCHMARK.json names for that mode, each with its declared unit, that the
output checks passed, and that attempted >= 1. Then copies BENCHMARK.json
and perfbench/ alone into a scratch directory under .bench_build/ and
asserts that run.py exits non-zero there without printing a result.
Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace):
    out = run(ROOT, workload, trace)
    where = "%s --trace %d" % (workload, trace)
    assert out.returncode == 0, "%s exited %d:\n%s" % (
        where, out.returncode, out.stderr[-2000:])
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], where
    assert res["correct"] is True, where
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, where
    assert isinstance(res["failed"], int) and res["failed"] >= 0, where
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in wanted), where
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], "%s: %s unit %s" % (
            where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), where
        if not trace:
            assert got["value"] != 0, "%s: %s is 0" % (where, m["name"])
    # Every issue-named metric is printed with its unit in the human block.
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in out.stdout.splitlines()), where + " " + m["name"]
    print("ok  %-20s trace=%d  %d metrics" % (workload, trace, len(wanted)))


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "tor-web-serve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0, "bare directory run succeeded"
    last = out.stdout.strip().splitlines()[-1:] if out.stdout.strip() else []
    assert not any(l.startswith("{") for l in last), "bare run printed a result"
    print("ok  bare directory fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_bare_directory()


if __name__ == "__main__":
    main()
