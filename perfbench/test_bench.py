#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale:

    python3 perfbench/test_bench.py

Each workload must print every end-to-end metric (untraced) and every
per-layer metric (traced) by name with its unit, and a deliberately
corrupted expected result (or replayed final state) must make the run
fail. On read_write every query class must get checked against the
baseline engine. BENCHMARK.json must
keep to the benchmark contract, and a copy of the benchmark without the
program's sources must fail without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--scale", "tiny"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, universal_newlines=True,
                          timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, proc, spec_metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = result_line(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec_metrics})
        for m in spec_metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            # The human-readable line: name, value, unit.
            self.assertRegex(proc.stdout, r"(?m)^metric %s +\S+ +%s(\s|$)"
                             % (re.escape(m["name"]), re.escape(m["unit"])))
        self.assertIn("context ", proc.stdout)
        return result

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.check_metrics(run(w, "--trace", "0"),
                                            SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                       m["name"])

    def test_traced_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, "--trace", "1")
                self.check_metrics(proc, SPEC["per_layer"])
                self.assertIn("self time, load", proc.stdout)
                self.assertRegex(proc.stdout, r"traced vs \d+ untraced rounds")

    def check_fails(self, proc, message):
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("CORRECTNESS FAILURE", proc.stderr)
        self.assertIn(message, proc.stderr)
        self.assertIs(result_line(proc)["correct"], False)

    def test_corrupted_expected_result_fails_the_run(self):
        # read_write's expected results are the baseline engine's answers
        # on the sampled reads' snapshots: one sampled fingerprint is
        # corrupted there.
        messages = {"serve": "wire response differs",
                    "analytic": "rows/hash differ from the reference",
                    "read_write": "differs from the baseline engine on its "
                                  "snapshot"}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_fails(run(w, "--corrupt-expected"), messages[w])

    def test_corrupted_replay_fails_the_run(self):
        self.check_fails(run("read_write", "--corrupt-expected", "replay"),
                         "differs from the serial replay")
        # Elsewhere the writes are the traced run's probe writes.
        self.check_fails(run("analytic", "--trace", "1",
                             "--corrupt-expected", "replay"),
                         "differs from the serial replay")

    def test_every_read_write_class_is_checked(self):
        proc = run("read_write")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        for cls in ("triangle", "fig1"):
            found = re.search(r"(?m)^check %s +(\d+) of (\d+) sampled reads"
                              % cls, proc.stdout)
            self.assertIsNotNone(found, cls)
            self.assertGreater(int(found.group(1)), 0, cls)

    def test_fails_without_program_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        try:
            proc = run(WORKLOADS[0], cwd=alone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)

    def test_spec_keeps_to_the_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(SPEC)), 64 * 1024)
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertLessEqual(len(SPEC["command"]), 32)
        for arg in SPEC["command"]:
            self.assertFalse(arg.startswith("/") or ".." in arg, arg)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertRegex(m["unit"], UNIT)
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
