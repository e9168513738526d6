#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py          # from the repository root

The fast tests check the spec, BENCHMARK.json and metric-name validation.
OutputNamesTest builds the harness and runs every workload for a second in
both modes (about a minute once built); it also runs the C++ unit tests of
percentile selection and open-loop accounting (perfbench/selftest.cpp).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Every metric name the benchmark's design calls for, end-to-end (as printed
# in each run's report) and per layer.
REQUIRED_NAMES = """
examples_per_s step_ms_p50 latency_ms_p50 latency_ms_p90 goodput_rps setup_s
peak_rss_mb failed_frac step_ms_p90 latency_ms_p99
runtime.ops_per_step runtime.dispatch_self_us tensor.alloc_calls_per_step
autodiff.gradient_ms api.forward_ms state.update_ms
executor.us_per_node executor.run_ms_per_step graph.nodes_traced
graph.nodes_executed staging.call_us
graph.optimize_ms graph.fuse_ms staging.trace_ms staging.cache_hit_ratio
kernels.program_cache_hit_ratio
kernels.ms_per_step kernels.conv_gflops kernels.peak_gflops
runtime.drain_run_length_mean runtime.queue_wait_us
runtime.host_blocked_ms_per_step tensor.donations_per_step
tensor.freelist_hit_ratio
graph.plan_slab_kb graph.planned_allocs_per_step tensor.alloc_mb_per_step
tensor.high_water_mb
serving.submit_us_p50 serving.mean_batch_size serving.batched_frac
serving.queue_delay_us_mean serving.compute_us_per_batch
serving.latency_ms_p99 loadgen.lag_ms_p99 loadgen.lag_ms_max
profiler.overhead_frac profiler.dropped_events trace.unattributed_frac
""".split()


class NameValidationTest(unittest.TestCase):
    def test_accepts_the_allowed_alphabet(self):
        for name in ["setup_s", "runtime.ops_per_step", "a-b.c_d", "9lives",
                     "x" * 64]:
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_everything_else(self):
        for name in ["", "_lead", ".lead", "has space", "a/b", "ü", "a:b",
                     "x" * 65, "new\nline"]:
            self.assertFalse(run.valid_name(name), repr(name))

    def test_units(self):
        for unit in ["ms", "s", "1/s", "count", "GFLOP/s", "%", "ratio"]:
            self.assertTrue(run.valid_unit(unit), unit)
        for unit in ["", "m s", "u" * 17]:
            self.assertFalse(run.valid_unit(unit), unit)


class SpecTest(unittest.TestCase):
    def test_spec_has_no_problems(self):
        self.assertEqual(run.spec_problems(run.spec()), [])

    def test_benchmark_json_is_the_spec(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.assertEqual(json.load(f), run.spec())

    def test_spec_problems_catches_bad_entries(self):
        s = run.spec()
        s["per_layer"].append({"name": "bad name", "unit": "ms",
                               "better": "lower"})
        s["end_to_end"][0]["bound"] = 0.5
        problems = run.spec_problems(s)
        self.assertTrue(any("bad name" in p for p in problems))
        self.assertTrue(any("bound" in p for p in problems))

    def test_required_metrics_are_in_the_spec(self):
        # Report names such as step_ms_p50 map onto workload-neutral names;
        # every per-layer name is reported as is.
        spec_names = {m["name"] for m in run.spec()["per_layer"]}
        for name in REQUIRED_NAMES:
            if "." in name:
                self.assertIn(name, spec_names)


class CheckMetricsTest(unittest.TestCase):
    def good(self, trace):
        return {n: {"value": 1.0, "unit": u}
                for n, u in run.expected_metrics(trace)}

    def test_complete_report_passes(self):
        for trace in (0, 1):
            self.assertEqual(run.check_metrics(self.good(trace), trace), [])

    def test_missing_extra_bad_unit_and_bad_name(self):
        m = self.good(0)
        del m["latency_ms_p1"]
        m["surprise"] = {"value": 1.0, "unit": "ms"}
        m["peak_rss_mb"]["unit"] = "GB"
        m["bad name"] = {"value": 1.0, "unit": "ms"}
        problems = " | ".join(run.check_metrics(m, 0))
        self.assertIn("missing metric latency_ms_p1", problems)
        self.assertIn("unexpected metric surprise", problems)
        self.assertIn("unit of peak_rss_mb", problems)
        self.assertIn("invalid metric name 'bad name'", problems)


class OutputNamesTest(unittest.TestCase):
    """Runs each workload briefly and checks the names it prints."""

    @classmethod
    def setUpClass(cls):
        cls.build = run.build()

    def test_selftest_binary_passes(self):
        done = subprocess.run([os.path.join(self.build, "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_every_required_name_appears_in_the_output(self):
        output = ""
        for workload, _ in run.WORKLOADS + run.EXTRA_WORKLOADS:
            for trace in ("0", "1"):
                done = subprocess.run(
                    [sys.executable, os.path.join(run.HERE, "run.py"),
                     "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", trace],
                    capture_output=True, text=True, cwd=run.ROOT)
                self.assertEqual(done.returncode, 0,
                                 workload + done.stdout[-2000:] + done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0, workload)
                if trace == "1":
                    self.assertIn("layer_table_json", done.stdout)
                output += done.stdout
        words = set(output.split())
        missing = [n for n in REQUIRED_NAMES if n not in words]
        self.assertEqual(missing, [])


if __name__ == "__main__":
    unittest.main()
