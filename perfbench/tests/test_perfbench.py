"""Tests of the repo benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; the first test builds the benchmark.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("elephant", "many_flows", "conn_churn")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def command():
    """BENCHMARK.json's command, with its program resolved for this run."""
    cmd = list(spec()["command"])
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    return cmd


def run(args, cwd=ROOT, timeout=300):
    return subprocess.run(command() + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout,
                          check=False)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        proc = run(["--build-only"], timeout=900)
        if proc.returncode != 0:
            raise RuntimeError("benchmark build failed:\n" + proc.stderr[-3000:])
        cls.tmp = tempfile.mkdtemp(prefix="perfbench-test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def dump(self, workload, seed, frames=20000):
        path = os.path.join(self.tmp, "%s-%d.bin" % (workload, seed))
        proc = run(["--workload", workload, "--seed", str(seed), "--dump", str(frames),
                    "--dump-path", path])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        with open(path, "rb") as f:
            data = f.read()
        self.assertGreater(len(data), frames * 60 - 1)
        return hashlib.sha256(data).hexdigest()

    def test_same_seed_gives_identical_traffic(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.dump(workload, 7)
                self.assertEqual(first, self.dump(workload, 7))
                self.assertNotEqual(first, self.dump(workload, 8))

    def record(self, workload, trace):
        proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_emitted_metrics_match_benchmark_json(self):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    rec = self.record(workload, trace)
                    self.assertEqual(sorted(rec), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(rec["correct"])
                    self.assertGreaterEqual(rec["attempted"], 1)
                    got = {n: m["unit"] for n, m in rec["metrics"].items()}
                    self.assertEqual(got, want)

    def test_fails_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result, nonzero exit.
        bare = os.path.join(self.tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(command() + ["--workload", "elephant", "--seed", "1",
                                           "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=170, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
