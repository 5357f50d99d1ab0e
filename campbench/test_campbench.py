"""Tests of the campaign benchmark itself. Run from the repository root:

    python3 -m unittest discover -s campbench -p 'test_*.py'

CampbenchTest builds the benchmark (as run.py does) and takes a few
minutes; DeterminismRecordTest builds nothing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("campbench", "run.py")]
sys.path.insert(0, os.path.join(ROOT, "campbench"))
import run as campbench_run  # noqa: E402


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT, env=None):
    return subprocess.run(RUN + args, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class DeterminismRecordTest(unittest.TestCase):
    """run.py's record of earlier runs, without building anything."""

    def setUp(self):
        self.cwd = os.getcwd()
        self.tmp = tempfile.TemporaryDirectory()
        os.chdir(self.tmp.name)

    def tearDown(self):
        os.chdir(self.cwd)
        self.tmp.cleanup()

    @staticmethod
    def result(digest):
        return {"workload": "stbr-triage", "campaigns": [
            {"seed": 7, "digest": digest, "counts": {"iterations": 6000}}]}

    def check(self, digest, sources):
        with mock.patch.object(campbench_run, "source_hash",
                               return_value=sources):
            return campbench_run.check_determinism(self.result(digest))

    def test_same_sources_must_repeat_the_digest(self):
        self.assertEqual(self.check("aa", "src1"), (0, 0))
        self.assertEqual(self.check("aa", "src1"), (1, 0))
        self.assertEqual(self.check("bb", "src1"), (1, 1))

    def test_changed_sources_start_a_new_record(self):
        self.assertEqual(self.check("aa", "src1"), (0, 0))
        self.assertEqual(self.check("bb", "src2"), (0, 0))
        # Alternating runs of the two versions each match their own.
        self.assertEqual(self.check("aa", "src1"), (1, 0))
        self.assertEqual(self.check("bb", "src2"), (1, 0))


class CampbenchTest(unittest.TestCase):
    def test_ddfine_digest_is_jobs_invariant(self):
        proc = run(["--self-test"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json(proc)
        self.assertTrue(result["same"], result)
        self.assertEqual(result["jobs1"], result["jobs2"])
        self.assertEqual(result["failed"], 0)

    def test_end_to_end_metrics_match_benchmark_json(self):
        spec = bench_spec()
        proc = run(["--workload", "stbr-triage", "--seed", "3",
                    "--seconds", "1", "--trace", "0"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_match_benchmark_json(self):
        spec = bench_spec()
        proc = run(["--workload", "ddfine", "--seed", "3",
                    "--seconds", "1", "--trace", "1"])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json(proc)
        self.assertTrue(result["correct"])
        want = {m["name"]: m["unit"] for m in spec["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_fails_without_the_program_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: the build
        # must fail and no result may be printed.
        bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench_spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = run(["--workload", "stbr-triage", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
