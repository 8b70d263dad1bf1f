#!/usr/bin/env python3
"""Self-test of the repository benchmark at a tiny size.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Builds the benchmark like run.py does, then checks that
  * two same-seed runs of each workload give identical simulated metrics,
    counters and digest, and that tracing does not change them;
  * a different seed changes the generated hop, scan and Zipf streams;
  * a slot corrupted with Runtime::debug_write makes the run fail its
    checks (ok_frac < 1, nonzero exit);
  * the RunReport carries fabric.* only on kv and fault.*/reliability.*
    only on chaos, and only chaos refuses ops;
  * run.py exits nonzero without a result when the simulator sources are
    missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step and paths)

# Tiny measured phases; scale keeps its 2048-node setup.
SIZES = {"scale": 0.34, "dis": 0.02, "kv": 0.02, "chaos": 0.1}
HOST = set(run.HOST_E2E) | set(run.HOST_LAYERS)


def bench(workload, seed, *flags):
    """Run the binary once; returns (exit status, parsed result)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--size", str(SIZES[workload])] + list(flags)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=run.CHILD_TIMEOUT_S)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def simulated(result, section):
    return {k: v["value"] for k, v in result[section].items()
            if k not in HOST}


class Benchmark(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        run.build()
        for w in SIZES:
            cls.results[w] = [bench(w, 5), bench(w, 5), bench(w, 6),
                              bench(w, 5, "--trace")]

    def test_runs_pass_their_checks(self):
        for w, rs in self.results.items():
            for rc, r in rs:
                self.assertEqual(rc, 0, (w, r.get("error")))
                self.assertTrue(r["correct"], w)
                self.assertEqual(r["failed"], 0, w)
                self.assertGreater(r["attempted"], 0, w)

    def test_same_seed_is_identical(self):
        for w, ((_, a), (_, b), _, (_, traced)) in self.results.items():
            self.assertEqual(a["digest"], b["digest"], w)
            self.assertEqual(simulated(a, "metrics"), simulated(b, "metrics"))
            self.assertEqual(simulated(a, "layers"), simulated(b, "layers"))
            # Tracing records; it must not perturb the simulation.
            self.assertEqual(a["digest"], traced["digest"], w)

    def test_seed_changes_the_streams(self):
        for w, ((_, a), _, (_, other), _) in self.results.items():
            self.assertNotEqual(a["inputs_digest"], other["inputs_digest"], w)
            self.assertNotEqual(a["digest"], other["digest"], w)

    def test_report_gates_layer_families(self):
        for w, ((_, a), _, _, _) in self.results.items():
            fams = set(a["report_families"])
            self.assertEqual("fabric" in fams, w == "kv", w)
            self.assertEqual("fault" in fams, w == "chaos", w)
            self.assertEqual("reliability" in fams, w == "chaos", w)

    def test_only_chaos_refuses_ops(self):
        for w, ((_, a), _, _, _) in self.results.items():
            ok = a["metrics"]["ok_frac"]["value"]
            if w == "chaos":
                self.assertGreater(a["refused"], 0)
                self.assertLess(ok, 1.0)
                self.assertEqual(a["layers"]["fault.detector.deaths"]["value"],
                                 1)
            else:
                self.assertEqual(a["refused"], 0, w)
                self.assertEqual(ok, 1.0, w)

    def test_traced_run_reports_tracer_lines(self):
        for w, (_, _, _, (_, traced)) in self.results.items():
            counts = sum(v["value"] for k, v in traced["layers"].items()
                         if k.startswith("trace.") and k.endswith(".count"))
            self.assertGreater(counts, 0, w)

    def test_corrupted_slot_fails_the_checks(self):
        for w in ("dis", "kv"):
            rc, r = bench(w, 5, "--corrupt-slot")
            self.assertEqual(rc, 1, w)
            self.assertFalse(r["correct"], w)
            self.assertGreater(r["failed"], 0, w)
            self.assertLess(r["metrics"]["ok_frac"]["value"], 1.0, w)

    def test_missing_sources_fail_without_a_result(self):
        empty = os.path.join(run.ROOT, ".bench_build", "selftest-empty")
        shutil.rmtree(empty, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), empty)
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "dis", "--seed", "1", "--seconds", "1", "--trace",
                            "0"], cwd=empty, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(empty)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
