#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py

They build the driver as run.py does, then check that
  * every result carries exactly the metrics BENCHMARK.json names;
  * one seed run twice gives identical per-layer counts and digests;
  * a held-out seed, never used while the benchmark was tuned, passes
    every correctness check (fail_ratio 0);
  * a busy-wait injected in the benchmark's wrapper around one layer's
    calls shows up as that layer's self time in the traced run and moves
    the end-to-end metric past its bound;
  * a directory holding only BENCHMARK.json and perfbench/ makes the
    command fail without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SECONDS = 2
HELD_OUT_SEED = 90210
# Units of per-layer values that are pure functions of the seed; every
# other unit is host time.
DETERMINISTIC_UNITS = {"count", "ratio", "touches", "touches/prim"}
# Lock contention depends on the thread schedule.
SCHEDULE_DEPENDENT = {"multilisp.contended_ratio"}


def human_metric(out, name):
    """A metric from the human-readable report (first occurrence)."""
    match = re.search(r"^\s+%s\s+([-0-9.e+]+)\s" % re.escape(name), out, re.M)
    return float(match.group(1))


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = bench.build()
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)

    def run_driver(self, workload, seed, trace, *extra, seconds=SECONDS):
        code, out = bench.run_driver(self.driver, workload, seed, seconds,
                                     trace, extra)
        self.assertEqual(code, 0, out)
        result = json.loads(out.strip().splitlines()[-1])
        digest = re.search(r"^digest: ([0-9a-f]+)", out, re.M).group(1)
        return result, digest, out

    def test_same_seed_repeats_every_count_and_digest(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                first, digest1, _ = self.run_driver(workload, 7, 1)
                second, digest2, _ = self.run_driver(workload, 7, 1)
                self.assertEqual(list(first["metrics"]), names)
                self.assertEqual(digest1, digest2)
                compared = 0
                for name, metric in first["metrics"].items():
                    if (metric["unit"] in DETERMINISTIC_UNITS and
                            name not in SCHEDULE_DEPENDENT):
                        self.assertEqual(metric["value"],
                                         second["metrics"][name]["value"],
                                         name)
                        compared += metric["value"] != 0
                self.assertGreater(compared, 3)

    def test_held_out_seed_passes_every_check(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                result, _, out = self.run_driver(workload, HELD_OUT_SEED, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(human_metric(out, "fail_ratio"), 0.0)
                self.assertEqual(list(result["metrics"]), names)
                for name in names:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       name)

    def test_injected_slowdown_is_attributed_to_its_layer(self):
        # heap_gc spends roughly a tenth of its timed phase in gc calls.
        # Busy-waiting five times each gc call's own duration inside the
        # call's span must multiply gc self time (relative to small, which
        # is untouched) and cut prims_per_s by more than its bound.
        base, _, base_out = self.run_driver("heap_gc", 5, 1, seconds=6)
        slow, _, slow_out = self.run_driver(
            "heap_gc", 5, 1, "--inject-layer", "gc", "--inject-fraction", "5",
            seconds=6)

        def gc_over_small(result):
            metrics = result["metrics"]
            return (metrics["self.gc.ns_per_prim"]["value"] /
                    metrics["self.small.ns_per_prim"]["value"])

        self.assertGreater(gc_over_small(slow), 3.0 * gc_over_small(base))
        bound = next(m["bound"] for m in self.spec["end_to_end"]
                     if m["name"] == "prims_per_s")
        drop = 1.0 - (human_metric(slow_out, "prims_per_s") /
                      human_metric(base_out, "prims_per_s"))
        self.assertGreater(drop, bound)

    def test_fails_without_program_sources(self):
        scratch = tempfile.mkdtemp(dir=os.path.dirname(bench.build_dir()))
        try:
            shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(bench.HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "heap_gc",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"correct"', result.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main(verbosity=2)
