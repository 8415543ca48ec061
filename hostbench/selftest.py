#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, both passes.

    python3 hostbench/selftest.py

Checks that run.py prints, as its last line, exactly the result object
BENCHMARK.json's consumers read (correct, attempted, failed, metrics), that the
metrics are exactly BENCHMARK.json's end-to-end or per-layer list with the
right units, that every run is correct, that a second invocation of one
build and seed reproduces the digest, that the span file parses, and that
run.py fails without a result where the library sources are missing.
Writes only under .bench_build/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_tunnel_tcp", "roaming_small_pkts", "city_metro", "city_storm")
SEED = 3


def run(cwd, workload, trace, seed=SEED):
    cmd = [sys.executable, os.path.join(cwd, "hostbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"], last.keys()
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    return last


def check_metrics(last, expected):
    assert list(last["metrics"]) == [m["name"] for m in expected], sorted(last["metrics"])
    for m in expected:
        got = last["metrics"][m["name"]]
        assert sorted(got) == ["unit", "value"] and got["unit"] == m["unit"], got


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    for workload in WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            last = result_line(proc)
            check_metrics(last, expected)
            assert last["correct"] and last["failed"] == 0, proc.stdout[-3000:]
            if trace == 0:
                for name in ("setup_s", "run_cost", "peak_rss_mb", "delivered_frac"):
                    assert last["metrics"][name]["value"] > 0, (workload, name)
            else:
                trace_file = os.path.join(ROOT, ".bench_build", "hostbench", "traces",
                                          f"{workload}-seed{SEED}.json")
                with open(trace_file) as f:
                    assert json.load(f)["traceEvents"], trace_file
            print(f"ok  {workload} trace={trace}: {last['attempted']} checks")

    # A second invocation checks its digest against the first one's.
    again = result_line(run(ROOT, "city_storm", 0))
    assert again["correct"], again
    print("ok  digest reproduced across invocations")

    # Without the library sources the build must fail, with no result line.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "hostbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "city_storm", 0)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok  fails without a result when the sources are missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
