// perfbench: one workload of the wall-clock benchmark per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only]
//
// Prints a human-readable report, then as its last line one JSON object
// with the run's metrics (end-to-end untraced, per-layer traced), the
// attempted/failed counts and the host. perfbench/run.py builds this binary
// and turns that line into the benchmark's result. Exits 1 when an output
// check failed or the measurement is invalid, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#else
#define PERFBENCH_SANITIZED 0
#endif

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--setup-only]\n",
               message);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (PERFBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a sanitizer build; timings "
                 "from it do not describe the program\n");
    return 2;
  }
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--workload" && (v = value())) {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && (v = value())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      options.seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      options.trace = std::strcmp(v, "0") != 0;
    } else {
      return Usage(("bad argument: " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::RunResult result;
  try {
    result = perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const bool correct = result.failed == 0 && result.valid;
  if (!options.setup_only) {
    std::printf("== %s  seed=%llu  %.0fs  %s\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? "traced" : "untraced");
    std::printf("%-34s %14.6g %s\n", "setup_s", result.setup_s, "s");
    for (const perfbench::Metric& m : result.report) {
      if (m.applicable) {
        std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      } else {
        std::printf("%-34s %14.6g %s  (fewer than 10 samples beyond it)\n",
                    m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::printf("%-34s %14.6g %s\n", "failed_frac",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<int64_t>(1, result.attempted)),
                "ratio");
    if (options.trace) {
      std::printf("-- per-layer metrics\n");
      for (const perfbench::Metric& m : result.metrics) {
        if (m.applicable) {
          std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value,
                      m.unit.c_str());
        } else {
          std::printf("%-34s %14s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
        }
      }
      std::printf("-- self time by layer (traced steps)\n%s",
                  result.table_text.c_str());
      std::printf("layer_table_json %s\n", result.table_json.c_str());
    }
    for (const std::string& note : result.notes) {
      std::printf("note: %s\n", note.c_str());
    }
    if (!result.valid) {
      std::printf("note: the profiler dropped events; the trace is invalid\n");
    }
  }

  std::string json = "{\"workload\": \"" + options.workload + "\"";
  json += ", \"correct\": " + std::string(correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"setup_s\": " + JsonNumber(result.setup_s);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}, \"host\": {\"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
          "\", \"compiler\": \"" __VERSION__ "\"}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
