#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v     (from the repo root)

They build the benchmark through perfbench/run.py (incremental), then:
  - run the binary's unit self-checks (percentile helper, the >= 10 samples
    tail rule, gate primitives, per-layer self time);
  - validate BENCHMARK.json against its format rules (keys, limits,
    names, units, bounds);
  - run every workload at a tiny scale, traced and untraced, and check that
    every emitted metric name is valid, listed in BENCHMARK.json with the
    same unit, and that the run is correct;
  - feed a corrupted label array to the gate (--corrupt-labels) and check
    that the run fails;
  - check that the command fails without a result when only the benchmark's
    own files are present.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = ["--scale", "10"]


def run(workload, trace, *extra, seconds="1", cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(BENCH["command"]), 32)
        for arg in BENCH["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg)
        self.assertTrue(1 <= len(BENCH["paths"]) <= 16)
        for p in BENCH["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue((ROOT / p).is_dir())
        self.assertIsInstance(BENCH["run_seconds"], int)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(BENCH["end_to_end"]) <= 16)
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(BENCH["per_layer"]) <= 128)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))
        names = [x["name"] for x in BENCH["workloads"] + BENCH["end_to_end"] +
                 BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)


class Binary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # A tiny run builds the binary; the self-checks then use it directly.
        proc = run(BENCH["workloads"][0]["name"], 0, *TINY)
        if proc.returncode != 0:
            raise RuntimeError("build or tiny run failed:\n" + proc.stderr)

    def test_selftest(self):
        proc = subprocess.run([str(BUILD_ROOT / "perfbench" / "perfbench"),
                               "--selftest"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def check_metrics(self, workload, trace):
        proc = run(workload, trace, *TINY)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out = result(proc)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(out["correct"], True)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        listed = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(out["metrics"]), [m["name"] for m in listed])
        for m in listed:
            got = out["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return out

    def test_tiny_untraced_runs(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(w["name"], 0)

    def test_tiny_traced_runs_write_spans(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(w["name"], 1)
                spans = json.loads((BUILD_ROOT / "out" /
                                    f"{w['name']}-seed7.spans.json")
                                   .read_text())
                self.assertIn("nproc", spans["stamp"])
                self.assertTrue(spans["spans"])
                for layer in ("gen", "graph", "queue", "service"):
                    self.assertIn(layer, spans["self_time_s"])

    def test_corrupted_labels_fail_the_run(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(w["name"], 0, *TINY, "--corrupt-labels")
                self.assertNotEqual(proc.returncode, 0)
                out = result(proc)
                self.assertIs(out["correct"], False)
                self.assertGreaterEqual(out["failed"], 1)
                self.assertIn("differ from the serial reference", proc.stderr)


class WithoutSources(unittest.TestCase):
    def test_fails_without_result(self):
        bare = BUILD_ROOT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in BENCH["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(BENCH["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertNotIn('"correct"', line)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
