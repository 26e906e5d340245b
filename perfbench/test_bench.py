#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

- every end-to-end and per-layer metric of BENCHMARK.json is printed by
  run.py under the same name and unit, and nothing else is;
- a short run of each workload against the server passes verification,
  with --trace 0 and --trace 1;
- verification catches a corrupted body, in the measured phase and in
  the warm-up pass of every set-up;
- without the server's sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    r = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return r.returncode, r.stdout.strip().splitlines()


class Names(unittest.TestCase):
    def test_e2e_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.E2E_UNITS)

    def test_layer_names_and_units(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.LAYER_UNITS)

    def test_workloads(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))


class ShortRuns(unittest.TestCase):
    def check(self, workload, trace):
        code, lines = bench(
            "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)
        )
        self.assertEqual(code, 0, lines[-5:])
        res = json.loads(lines[-1])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreater(res["attempted"], 0)
        want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in res["metrics"].items()},
            {m["name"]: m["unit"] for m in want},
        )
        prefix = "layer" if trace else "e2e"
        for m in want:
            self.assertTrue(
                any(l.startswith(f"{prefix} {workload} {m['name']} = ") for l in lines), m
            )

    def test_all_workloads(self):
        for w in sorted(run.WORKLOADS):
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check(w, trace)


class Verification(unittest.TestCase):
    def test_corrupted_body_is_caught(self):
        """One flipped byte in the docroot fails the measured phase and
        the warm-up pass of every set-up, discarded ones included."""
        run.build([run.SERVE, run.LOADGEN, run.MKINPUT])
        inputs = run.make_inputs("hot-small", 3, 20000)
        bad = os.path.join(run.BUILD, "tmp-bad-docroot")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(os.path.join(inputs, "docroot"), bad)
        # the most popular file (rank 0), which every warm-up pass requests,
        # gets one byte flipped in the served copy
        with open(os.path.join(inputs, "files.tsv")) as f:
            url = f.readline().split("\t")[2].strip()
        with open(bad + url, "r+b") as f:
            f.seek(17)
            b = f.read(1)
            f.seek(17)
            f.write(bytes([b[0] ^ 0xFF]))
        allowed = sorted(os.sched_getaffinity(0))
        try:
            res = run.serve_run(
                "hot-small", inputs, (allowed[0], allowed[-1]), 1.0, 3, docroot=bad
            )
        finally:
            shutil.rmtree(bad, ignore_errors=True)
        self.assertGreater(res["bad_body"], 0)
        self.assertGreater(res["failed"], 0)
        self.assertGreaterEqual(len(res["setup_times"]), 3)
        self.assertGreaterEqual(res["warm_failed"], len(res["setup_times"]))


class Stripped(unittest.TestCase):
    def test_fails_without_sources(self):
        d = os.path.join(run.BUILD, "tmp-stripped")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = bench("--workload", "hot-small", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=d)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith("{"))


if __name__ == "__main__":
    unittest.main()
