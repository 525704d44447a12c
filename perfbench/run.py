#!/usr/bin/env python3
"""The repository benchmark: build the driver from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is paper_sim, heap_gc or service_mixed (BENCHMARK.json says why each
exists). The first call configures and builds perfbench/CMakeLists.txt,
which compiles the program's libraries from src/, into .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls rebuild only what changed. The
driver's report goes to standard output and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics under --trace 0 and the per-layer metrics under --trace 1. A traced
run also writes its spans as a Chrome trace (Perfetto loads it) under the
build directory. `--workload all` runs every workload untraced and traced
and ends with a summary. The exit code is 0 only when the build succeeded
and every correctness check held.

The benchmark's own tests: python3 perfbench/test_bench.py
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_sim", "heap_gc", "service_mixed"]
# The driver must end within the 180 s a run is allowed, build excluded.
DRIVER_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def run_quiet(cmd, what):
    """Run a build step; on failure show its output on stderr and exit 2."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.stderr.write("perfbench: %s failed (exit %d)\n"
                         % (what, result.returncode))
        sys.exit(2)


def build():
    """Configure once, then build the driver; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "Makefile")):
        run_quiet(["cmake", "-S", HERE, "-B", out, "-G", "Unix Makefiles",
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "--target", "perfbench_driver",
               "-j", jobs], "build")
    return os.path.join(out, "perfbench_driver")


def source_fingerprint():
    """Commit hash when this is a git checkout, and a digest of the sources
    the driver is built from (which also identifies a non-git checkout)."""
    commit = "unknown"
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True).stdout.split()
        # Only this checkout's own repository, not one that encloses it.
        if (len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            commit = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "build.commit: %s\nbuild.source_sha256: %s\n" % (
        commit, digest.hexdigest())


def run_driver(driver, workload, seed, seconds, trace, extra=()):
    """One driver run; returns (exit code, stdout)."""
    out_dir = os.path.join(build_dir(), "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir] + list(extra)
    try:
        # run() kills the driver and waits for it if the timeout expires.
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s did not finish in %d s\n"
                         % (workload, DRIVER_TIMEOUT_S))
        return 1, ""
    return result.returncode, result.stdout


def run_all(driver, seed, seconds):
    """Every workload, untraced then traced, and a summary of both."""
    code = 0
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_driver(driver, workload, seed, seconds, trace)
            sys.stdout.write(out + "\n")
            lines = out.strip().splitlines()
            if rc != 0 or not lines:
                code = 1
                continue
            result = json.loads(lines[-1])
            entry = summary.setdefault(workload, {"attempted": 0, "failed": 0})
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry.setdefault("metrics", {}).update(result["metrics"])
    print("summary (end-to-end, untraced):")
    names = ["prims_per_s", "task_ns_per_prim_p50", "task_ns_per_prim_p90",
             "peak_rss_mb", "setup_s"]
    print("  %-32s" % "metric" + "".join("%16s" % w for w in summary))
    for name in names:
        cells = []
        for entry in summary.values():
            metric = entry["metrics"].get(name)
            cells.append("%16.4f" % metric["value"] if metric
                         else "%16s" % "-")
        unit = next((e["metrics"][name]["unit"] for e in summary.values()
                     if name in e["metrics"]), "")
        print("  %-32s" % ("%s (%s)" % (name, unit)) + "".join(cells))
    print("  %-32s" % "fail_ratio" + "".join(
        "%16.4f" % (e["failed"] / max(1, e["attempted"]))
        for e in summary.values()))
    attempted = sum(e["attempted"] for e in summary.values())
    failed = sum(e["failed"] for e in summary.values())
    metrics = {"%s/%s" % (w, k): v for w, e in summary.items()
               for k, v in e["metrics"].items()}
    print(json.dumps({"correct": code == 0 and failed == 0,
                      "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return code if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    driver = build()
    sys.stdout.write(source_fingerprint())
    sys.stdout.flush()
    if args.workload == "all":
        return run_all(driver, args.seed, args.seconds)
    code, out = run_driver(driver, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
