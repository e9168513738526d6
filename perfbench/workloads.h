// The benchmark's workloads: three training loops and one open-loop
// serving run, each against the public tfe:: API on the native host
// profile. A run measures end-to-end metrics untraced, or with tracing the
// per-layer metrics, and checks every output it produced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Stop after the first checked step or response and report only setup_s.
  bool setup_only = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // False when the workload does not exercise what the metric measures;
  // the value is then 0 and the text report prints "n/a".
  bool applicable = true;
};

struct RunResult {
  double setup_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  // False when the measurement itself cannot be trusted (a traced run that
  // dropped profiler events), whatever the outputs were.
  bool valid = true;
  std::vector<Metric> metrics;
  // Workload-specific names (examples_per_s, goodput_rps, ...) with values,
  // for the human-readable report.
  std::vector<Metric> report;
  std::string table_text, table_json;
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

// Throws std::runtime_error on a harness failure (unknown workload, a
// library error outside the checked steps).
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
