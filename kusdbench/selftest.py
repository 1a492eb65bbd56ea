#!/usr/bin/env python3
"""Self-test of the kusd benchmark: every workload path and every check,
at a size that runs in well under a minute.

Run from the root of a checkout (it builds into .bench_build/ like the
benchmark itself):

    python3 kusdbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

ROOT = Path.cwd()


def row(engine="batched", n=100000000, k=32, bias=0.0, pt_mean=350.0,
        converged_rate="1.0000", status="ok", trials=8):
    return {"engine": engine, "n": str(n), "k": str(k), "bias": str(bias),
            "pt_mean": str(pt_mean), "converged_rate": converged_rate,
            "status": status, "trials": str(trials)}


class CheckHelpers(unittest.TestCase):
    def test_band_accepts_the_e16_ratio_and_rejects_far_off_ones(self):
        import math
        k, n = 32, 100000000
        at_e16 = run.E16_RATIO[k] * k * math.log(n)
        self.assertEqual(run.band_failures([row(pt_mean=at_e16)]), [])
        self.assertEqual(len(run.band_failures([row(pt_mean=at_e16 * 3)])), 1)
        self.assertEqual(len(run.band_failures([row(pt_mean=at_e16 / 3)])), 1)

    def test_band_skips_biased_round_based_and_other_k_rows(self):
        self.assertEqual(run.band_failures([row(bias=5.0, pt_mean=1e6)]), [])
        self.assertEqual(run.band_failures([row(engine="sync", pt_mean=1e6)]),
                         [])
        self.assertEqual(run.band_failures([row(k=16, pt_mean=1e6)]), [])

    def test_not_converged_counts_rates_and_timed_out_cells(self):
        self.assertEqual(run.not_converged([row()]), 0)
        self.assertEqual(run.not_converged([row(converged_rate="0.7500")]), 2)
        self.assertEqual(run.not_converged([row(status="timeout")]), 8)

    def test_master_seed_is_a_function_of_workload_and_seed(self):
        self.assertEqual(run.master_seed("ref_point", 1),
                         run.master_seed("ref_point", 1))
        self.assertNotEqual(run.master_seed("ref_point", 1),
                            run.master_seed("ref_point", 2))
        self.assertNotEqual(run.master_seed("ref_point", 1),
                            run.master_seed("graph_er", 1))

    def test_workloads_spell_out_every_work_deciding_option(self):
        for table in (run.WORKLOADS, run.SMALL_WORKLOADS):
            for name, flags in table.items():
                for option in ("--engine", "--n", "--k", "--bias",
                               "--trials", "--chunk-policy", "--chunk",
                               "--stripe-width", "--budget"):
                    self.assertIn(option, flags, name)
                self.assertNotIn("--lockstep-schedule", flags, name)
                self.assertNotIn("--seed", flags, name)
                self.assertNotIn("--threads", flags, name)
        self.assertEqual(set(run.WORKLOADS), set(run.SMALL_WORKLOADS))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


class Programs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bins = run.build(ROOT, ["kusd_cli", "kusdbench_serial",
                                    "kusdbench_trace"],
                             len(os.sched_getaffinity(0)))

    def test_programs_refuse_a_missing_work_deciding_flag(self):
        flags = list(run.SMALL_WORKLOADS["ref_point"])
        i = flags.index("--budget")
        del flags[i:i + 2]
        for program in ("kusdbench_serial", "kusdbench_trace"):
            proc = subprocess.run(
                [str(self.bins / program), *flags, "--seed", "1",
                 "--threads", "1"], capture_output=True, text=True)
            self.assertNotEqual(proc.returncode, 0, program)
            self.assertIn("--budget", proc.stderr)


class Workloads(unittest.TestCase):
    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "2", "--trace", str(trace),
             "--size", "small"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted})
        saved = json.loads(
            (ROOT / ".bench_out" / workload / "result.json").read_text())
        self.assertEqual(saved["provenance"]["workload"], workload)
        self.assertTrue(all(saved["checks"].values()))
        return result, saved

    def test_timed_passes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.run_bench(workload, 0)
                for name in ("wall_s", "serial_s", "setup_s"):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced_passes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.run_bench(workload, 1)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(m["rng.multinomial.calls"], 0)
                self.assertGreater(m["core.round_engine.attempts"], 0)
                self.assertLess(abs(m["trace.unaccounted_frac"]), 0.25)
                spans = json.loads(
                    (ROOT / ".bench_out" / workload / "spans.json")
                    .read_text())["spans"]
                names = {s["name"] for s in spans}
                self.assertTrue({"serial_pass", "replica.trial",
                                 "core.round_engine.chunk",
                                 "rng.replay"} <= names)


class Contract(unittest.TestCase):
    def test_fails_without_printing_a_result_when_sources_are_missing(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "kusdbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "kusdbench/run.py", "--workload",
                 "ref_point", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, env=env,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
