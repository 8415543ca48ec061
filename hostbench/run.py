#!/usr/bin/env python3
"""hostbench: the simulator's host cost on four workloads.

Usage (from the repository root):

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Builds the benchmark binary from source (CMake, into .bench_build/hostbench),
then:

  --trace 0  runs the workload as fresh processes, one after another, for
             --seconds (at least three), rotating over SUB_SEEDS seeds
             derived from --seed, with the product defaults and no
             benchmark instrument attached. It reports the medians of
             setup_s, run_cost and peak_rss_mb, and delivered_frac.
             run_cost is the run's time in units of a reference chunk timed
             on the same CPU beside it (cpp/reference.h; README.md, "Why
             run_cost": identical runs swing by up to 2x on a shared host).
  --trace 1  measures the untraced run time, then runs the traced pass once
             and reports every per-layer metric, and writes the benchmark's
             spans to .bench_build/hostbench/traces/ as a Perfetto-loadable
             Chrome trace.

Every run checks the workload's invariants and its correctness digest: all
runs of one build with one workload seed must produce the same digest, within
this invocation and across invocations (digests are kept in
.bench_build/hostbench/digests.json, keyed by the binary's hash).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}, where
attempted and failed count correctness checks. The full result, with every
sample and the provenance (compiler, build type, git sha, source hash, cores,
CPU model, kernel), goes to .bench_build/hostbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")

WORKLOADS = ("bulk_tunnel_tcp", "roaming_small_pkts", "city_metro", "city_storm")
# Seed kept out of every tuning run: a later change confirms its claim on it.
HELD_OUT_SEED = 7919

MIN_RUNS = 3          # measured runs per invocation, whatever --seconds says
SUB_SEEDS = 8         # an invocation rotates over this many seeds derived from --seed
RUN_TIMEOUT_S = 150   # one workload process
TOTAL_BUDGET_S = 120  # after the build, stop starting new runs past this (exit < 180 s)


class BenchError(Exception):
    pass


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the binary; raises BenchError on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs])
    with open(log_path, "ab") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                raise BenchError(f"build step {' '.join(cmd[:2])} exited {rc}; see {log_path}")
    if not os.path.exists(BINARY):
        raise BenchError("build produced no binary")
    return BINARY


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_hash():
    """Hash of the sources the binary is built from: src/, hostbench/ and
    BENCHMARK.json. Identifies a build where no git metadata exists."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "BENCHMARK.json")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths.extend(os.path.join(dirpath, n) for n in sorted(filenames))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            h.update(sha256_file(p).encode())
    return h.hexdigest()


def git_info():
    """(sha, dirty) when ROOT is itself a git work tree, else (None, None)."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=20)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None, None
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        status = git("status", "--porcelain", "--untracked-files=no")
        return sha, bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(first_run):
    sha, dirty = git_info()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "compiler": first_run.get("compiler"),
        "build_type": first_run.get("build_type"),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_hash(),
        "binary_sha256": sha256_file(BINARY),
        "nproc": os.cpu_count(),
        "nproc_usable": usable,
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def run_binary(args):
    try:
        proc = subprocess.run([BINARY, *args], capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"hostbench {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise BenchError(f"hostbench {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"hostbench {' '.join(args)} printed no result")


class Checks:
    """Correctness checks attempted and failed, with the failures' names."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())

    def add_run(self, run, reference_digest):
        for c in run["checks"]:
            self.add(c["name"], c["ok"], c.get("detail", ""))
        self.add("digest matches the first run", run["digest"] == reference_digest,
                 f"{run['digest']} vs {reference_digest}")


def check_digest_store(checks, key, digest):
    """Cross-invocation check: one build and seed always give one digest."""
    path = os.path.join(BUILD, "digests.json")
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    known = store.get(key)
    checks.add("digest matches earlier invocations of this build", known in (None, digest),
               f"{digest} vs {known}")
    if known is None:
        store[key] = digest
        fd, tmp = tempfile.mkstemp(dir=BUILD)
        with os.fdopen(fd, "w") as f:
            json.dump(store, f, indent=1, sort_keys=True)
        os.replace(tmp, path)


def sub_seed(seed, k):
    """The k-th of the SUB_SEEDS workload seeds an invocation with `seed` runs."""
    return seed * SUB_SEEDS + k


def e2e_runs(args, seconds, started, checks):
    """Fresh-process runs for `seconds` (at least MIN_RUNS), rotating over the
    sub-seeds of --seed; every run's digest must match the first digest of its
    sub-seed."""
    runs = []
    first = {}
    begin = time.monotonic()
    while True:
        seed = sub_seed(args.seed, len(runs) % SUB_SEEDS)
        run = run_binary(["--workload", args.workload, "--seed", str(seed),
                          "--size", args.size])
        run["sub_seed"] = seed
        runs.append(run)
        first.setdefault(seed, run)
        checks.add_run(run, first[seed]["digest"])
        now = time.monotonic()
        if len(runs) >= MIN_RUNS and now - begin >= seconds:
            break
        if now - started > TOTAL_BUDGET_S:
            break
    return runs


def first_per_seed(runs):
    """The first run of each sub-seed, in the order they ran."""
    firsts = {}
    for run in runs:
        firsts.setdefault(run["sub_seed"], run)
    return list(firsts.values())


def spread(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        spec = load_spec()
        build()
        started = time.monotonic()
        checks = Checks()
        doc = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "trace": args.trace, "held_out_seed": HELD_OUT_SEED}

        if args.trace == 0:
            runs = e2e_runs(args, args.seconds, started, checks)
            firsts = first_per_seed(runs)
            samples = {name: [r[name] for r in runs]
                       for name in ("setup_s", "run_s", "run_cost", "peak_rss_mb")}
            delivered = sum(r["delivered_units"] for r in firsts)
            attempted = sum(r["attempted_units"] for r in firsts)
            values = {
                "setup_s": statistics.median(samples["setup_s"]),
                "run_cost": statistics.median(samples["run_cost"]),
                "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
                "delivered_frac": delivered / attempted if attempted else 0.0,
            }
            wanted = spec["end_to_end"]
            doc["samples"] = samples
            doc["spread"] = {name: spread(v) for name, v in samples.items()}
            doc["outcome"] = {str(r["sub_seed"]): {k: r[k] for k in (
                "events", "delivered_units", "attempted_units", "handoffs", "registrations")}
                for r in firsts}
            first = runs[0]
        else:
            # The untraced reference run time: the base of the traced pass's
            # rates, busy-share estimates and instrumentation overhead.
            runs = e2e_runs(args, args.seconds / 2, started, checks)
            firsts = first_per_seed(runs)
            seed = runs[0]["sub_seed"]
            ref_run_s = min(r["run_s"] for r in runs if r["sub_seed"] == seed)
            trace_dir = os.path.join(BUILD, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
            traced = run_binary(["--workload", args.workload, "--seed", str(seed),
                                 "--size", args.size, "--mode", "trace",
                                 "--ref-run-s", repr(ref_run_s), "--trace-out", trace_out])
            checks.add_run(traced, runs[0]["digest"])
            values = traced["layers"]
            wanted = spec["per_layer"]
            doc["ref_run_s"] = ref_run_s
            doc["traced_run_s"] = traced["run_s"]
            doc["trace_file"] = os.path.relpath(trace_out, ROOT)
            doc["profile"] = traced["profile"]
            first = traced

        binary_sha = sha256_file(BINARY)
        digests = {r["sub_seed"]: r["digest"] for r in firsts}
        for seed, digest in digests.items():
            check_digest_store(checks, f"{binary_sha}:{args.workload}:{args.size}:{seed}",
                               digest)
        metrics = {}
        for m in wanted:
            if m["name"] not in values:
                raise BenchError(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        failed = len(checks.failures)
        doc.update({"digests": digests, "provenance": provenance(first),
                    "checks_attempted": checks.attempted, "checks_failed": checks.failures,
                    "failed_frac": failed / checks.attempted, "metrics": metrics})
    except BenchError as e:
        print(f"hostbench: {e}", file=sys.stderr)
        return 1

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)

    print(f"hostbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("  digests " + " ".join(f"{seed}:{digest}" for seed, digest in digests.items()))
    for name, m in metrics.items():
        line = f"  {name:38s} {m['value']:<22.10g} {m['unit']}"
        if args.trace == 0 and name in doc["spread"]:
            s = doc["spread"][name]
            line += f"   (median of {s['n']}; min {s.get('min', s['median']):.6g}" \
                    f" median {s['median']:.6g} max {s.get('max', s['median']):.6g})"
        print(line)
    if args.trace == 0:
        s = doc["spread"]["run_s"]
        print(f"  {'run_s':38s} {s['median']:<22.10g} s      (median of {s['n']}; min "
              f"{s.get('min', s['median']):.6g} max {s.get('max', s['median']):.6g};"
              f" unbounded, see README.md)")
    print(f"  {'failed_frac':38s} {doc['failed_frac']:<22.10g} frac"
          f"   ({failed} of {checks.attempted} checks)")
    for f_name in checks.failures:
        print(f"  FAILED: {f_name}")
    print("provenance " + json.dumps(doc["provenance"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
