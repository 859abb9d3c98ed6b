#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size (about a minute).

    python3 stackbench/test_stackbench.py

They check the result contract against BENCHMARK.json, that the
correctness gates pass, that virtual-time metrics repeat exactly for a
seed, that each traced run's layer budget sums to its end-to-end mean,
and that a LAKE_* variable in the environment is refused.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VIRTUAL = ("p50_us", "p99_us", "p999_us", "goodput_vps", "slo_rate_vps",
           "served_ratio")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=3, trace=0, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class StackBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = spec()
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def check_contract(self, res, entries):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        want = {m["name"]: m["unit"] for m in entries}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)

    def test_untraced_runs_meet_contract_and_repeat(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                a, b = run(w), run(w)
                self.assertEqual(a.returncode, 0, a.stderr)
                self.assertEqual(b.returncode, 0, b.stderr)
                ra, rb = result(a), result(b)
                self.check_contract(ra, self.spec["end_to_end"])
                for name in self.spec["end_to_end"]:
                    self.assertGreater(ra["metrics"][name["name"]]["value"],
                                       0, name["name"])
                for name in VIRTUAL:
                    self.assertEqual(ra["metrics"][name]["value"],
                                     rb["metrics"][name]["value"], name)

    def test_traced_runs_report_a_budget_that_sums(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                p = run(w, trace=1)
                self.assertEqual(p.returncode, 0, p.stderr)
                res = result(p)
                self.check_contract(res, self.spec["per_layer"])
                m = {k: v["value"] for k, v in res["metrics"].items()}
                virt = [v for k, v in m.items()
                        if k.startswith("budget.virt.") and
                        not k.endswith("total_ns")]
                self.assertTrue(all(v >= 0 for v in virt))
                self.assertAlmostEqual(sum(virt), m["budget.virt.total_ns"],
                                       delta=1e-6 * m["budget.virt.total_ns"])
                self.assertGreater(m["trace.overhead"], 0)
                self.assertGreater(m["ml.pool_slowdown"], 0)

    def test_known_state(self):
        m = {k: v["value"]
             for k, v in result(run("serve_gpu", trace=1))["metrics"].items()}
        self.assertEqual(m["remote.calls_per_batch"], 3)
        m = {k: v["value"]
             for k, v in result(run("capture_cpu", trace=1))["metrics"].items()}
        self.assertEqual(m["remote.calls"], 0)
        self.assertEqual(m["policy.gpu_batches"], 0)

    def test_lake_environment_is_refused(self):
        env = dict(os.environ, LAKE_CPU_THREADS="1")
        p = run(self.workloads[0], env=env)
        self.assertNotEqual(p.returncode, 0)
        self.assertIn("LAKE_CPU_THREADS", p.stderr)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
