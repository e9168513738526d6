#!/usr/bin/env python3
"""Wall-clock benchmark of the tfe runtime: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds perfbench/ (the library from
src/ plus the harness, Release) into .bench_build/, runs the harness's own
unit tests, then measures one workload:

  --trace 0  end-to-end metrics, untraced. setup_s is the median over
             fresh processes before and after the measuring one, since
             set-up runs once per process.
  --trace 1  per-layer metrics from a run that alternates untraced and
             traced steps, with the per-layer self-time table.

The harness replays a prefix of every training run under the least-optimised
configuration and compares loss and variables bitwise, and compares every
served response bitwise with a direct call. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 only when every check passed.

    python3 perfbench/run.py --write-spec   # regenerate BENCHMARK.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_SECONDS = 30

WORKLOADS = [
    ("l2hmc_staged",
     "Figure 4 L2HMC train step under tfe::function, one dispatch per step: "
     "executor per-node cost, static fusion, the memory planner; leaves "
     "eager dispatch idle"),
    ("resnet_async",
     "thin ResNet-50 trained eagerly with async dispatch: kernel-bound "
     "(conv); eager dispatch, autodiff and update, drain fusion, donation "
     "and large buffers"),
    ("serve_mlp",
     "open-loop Poisson 3000 req/s over 16 sessions into tfe::Serving: many "
     "small batched inference calls through executor and staging"),
]

# Runnable by hand, in both modes, but not part of BENCHMARK.json: this
# sync eager loop of thousands of tiny ops is the most sensitive to the
# shared host. Its p1 step time moved by 20-70% for minutes at a time with
# co-tenant load, past any bound the benchmark may set.
EXTRA_WORKLOADS = [
    ("l2hmc_eager",
     "Figure 4 L2HMC as a sync eager step: dispatch-bound, thousands of tiny "
     "ops; loads runtime, autodiff and small-tensor allocation, not the "
     "executor"),
]

# name, unit, better, bound (share of the parent's median). The gated
# latency is p1 (step time, or request latency from the due time): on a
# shared host the median and p5 move with co-tenant load, p1 far less.
END_TO_END = [
    ("latency_ms_p1", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# name, unit, better. Names follow <src module>.<quantity>; loadgen.*,
# profiler.* and trace.* describe the harness and the trace itself.
PER_LAYER = [
    ("runtime.ops_per_step", "count", "lower"),
    ("runtime.dispatch_self_us", "us", "lower"),
    ("tensor.alloc_calls_per_step", "count", "lower"),
    ("api.forward_ms", "ms", "lower"),
    ("autodiff.gradient_ms", "ms", "lower"),
    ("state.update_ms", "ms", "lower"),
    ("executor.us_per_node", "us", "lower"),
    ("executor.run_ms_per_step", "ms", "lower"),
    ("graph.nodes_traced", "count", "lower"),
    ("graph.nodes_executed", "count", "lower"),
    ("staging.call_us", "us", "lower"),
    ("graph.optimize_ms", "ms", "lower"),
    ("graph.fuse_ms", "ms", "lower"),
    ("staging.trace_ms", "ms", "lower"),
    ("staging.cache_hit_ratio", "ratio", "higher"),
    ("kernels.program_cache_hit_ratio", "ratio", "higher"),
    ("kernels.ms_per_step", "ms", "lower"),
    ("kernels.conv_gflops", "GFLOP/s", "higher"),
    ("kernels.peak_gflops", "GFLOP/s", "higher"),
    ("runtime.drain_run_length_mean", "count", "higher"),
    ("runtime.queue_wait_us", "us", "lower"),
    ("runtime.host_blocked_ms_per_step", "ms", "lower"),
    ("tensor.donations_per_step", "count", "higher"),
    ("tensor.freelist_hit_ratio", "ratio", "higher"),
    ("graph.plan_slab_kb", "kB", "lower"),
    ("graph.planned_allocs_per_step", "count", "higher"),
    ("tensor.alloc_mb_per_step", "MB", "lower"),
    ("tensor.high_water_mb", "MB", "lower"),
    ("serving.submit_us_p50", "us", "lower"),
    ("serving.mean_batch_size", "count", "higher"),
    ("serving.batched_frac", "ratio", "higher"),
    ("serving.queue_delay_us_mean", "us", "lower"),
    ("serving.compute_us_per_batch", "us", "lower"),
    ("serving.goodput_rps", "1/s", "higher"),
    ("serving.latency_ms_p50", "ms", "lower"),
    ("serving.latency_ms_p90", "ms", "lower"),
    ("serving.latency_ms_p99", "ms", "lower"),
    ("loadgen.lag_ms_p99", "ms", "lower"),
    ("loadgen.lag_ms_max", "ms", "lower"),
    ("train.examples_per_s", "1/s", "higher"),
    ("train.step_ms_p50", "ms", "lower"),
    ("train.step_ms_p90", "ms", "lower"),
    ("profiler.overhead_frac", "ratio", "lower"),
    ("profiler.dropped_events", "count", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
]

# Set-up is timed in this many fresh processes before the measuring one
# and this many plus one after it. Host contention comes and goes over
# seconds; splitting the samples evenly around the measured run keeps one
# busy moment from deciding the median.
SETUP_PROCESSES = 4
# Every process the script starts must end within this many seconds.
PROCESS_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def spec():
    """The benchmark's definition, as BENCHMARK.json holds it."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def spec_problems(s):
    """Every way `s` breaks the naming and size rules (empty when none)."""
    problems = []
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    names += [w["name"] for w in s["workloads"]]
    for name in names:
        if not valid_name(name):
            problems.append("bad name: %r" % name)
    if len(set(names)) != len(names):
        problems.append("duplicate names")
    for m in s["end_to_end"] + s["per_layer"]:
        if not valid_unit(m["unit"]):
            problems.append("bad unit: %r" % m["unit"])
        if m["better"] not in ("higher", "lower"):
            problems.append("bad direction for %s" % m["name"])
    for m in s["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append("bound out of range for %s" % m["name"])
    for w in s["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append("why too long for %s" % w["name"])
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in s["end_to_end"]):
        problems.append("setup_s missing")
    if not 2 <= len(s["workloads"]) <= 8:
        problems.append("workload count")
    return problems


def expected_metrics(trace):
    """(name, unit) pairs a run must report."""
    if trace:
        return [(n, u) for n, u, _ in PER_LAYER]
    return [(n, u) for n, u, _, _ in END_TO_END]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the harness; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src" % ROOT)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=900)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def run(cmd):
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_metrics(metrics, trace):
    """Problems with a run's reported metrics against the spec."""
    problems = []
    expected = dict(expected_metrics(trace))
    for name, entry in metrics.items():
        if not valid_name(name):
            problems.append("invalid metric name %r" % name)
        elif name not in expected:
            problems.append("unexpected metric %s" % name)
        elif entry.get("unit") != expected[name]:
            problems.append("unit of %s: %r" % (name, entry.get("unit")))
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append("value of %s is not a number" % name)
    for name in expected:
        if name not in metrics:
            problems.append("missing metric %s" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[n for n, _ in WORKLOADS + EXTRA_WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this file's spec")
    args = parser.parse_args()

    if args.write_spec:
        s = spec()
        problems = spec_problems(s)
        if problems:
            fail("; ".join(problems))
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(s, f, indent=2)
            f.write("\n")
        return
    if args.workload is None:
        parser.error("--workload is required")

    out = build()
    code, stdout, stderr = run([os.path.join(out, "perfbench_selftest")])
    if code != 0:
        fail("harness self-test failed:\n" + stdout + stderr)

    binary = os.path.join(out, "perfbench")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    setup = []

    def time_setup(processes):
        for _ in range(processes):
            code, stdout, stderr = run(base + ["--seconds", "1",
                                               "--setup-only"])
            result = last_json(stdout)
            if code != 0 or result is None:
                fail("set-up run failed:\n" + stdout + stderr)
            setup.append(result["setup_s"])

    if not args.trace:
        time_setup(SETUP_PROCESSES)

    started = time.monotonic()
    code, stdout, stderr = run(base + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)])
    result = last_json(stdout)
    sys.stderr.write(stderr)
    if result is None:
        fail("no result from the harness (exit %d):\n%s" % (code, stdout))
    for line in stdout.strip().splitlines()[:-1]:
        print(line)

    metrics = result["metrics"]
    if not args.trace:
        setup.append(result["setup_s"])
        time_setup(SETUP_PROCESSES + 1)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        print("setup_s samples: " + " ".join("%.4f" % s for s in setup))
    problems = check_metrics(metrics, args.trace)
    if problems:
        fail("; ".join(problems))
    print("host: %s  measured in %.1f s" % (json.dumps(result["host"]),
                                            time.monotonic() - started))

    correct = bool(result["correct"]) and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name]
                    for name, _ in expected_metrics(args.trace)},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
