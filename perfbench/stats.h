// Statistics and load-generation helpers of the wall-clock benchmark.
//
// Header-only and free of library dependencies so perfbench_selftest can
// test them without the runtime.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. `p` in (0, 100]. Returns 0 for no samples.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps exact ranks such as 0.9 * 100 from rounding up.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

// Samples strictly above the nearest-rank p-th percentile's position.
inline int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  int64_t rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  return n - rank;
}

// A tail percentile is reported only when at least this many samples lie
// beyond it; otherwise it is one or two unlucky samples, not a tail.
constexpr int64_t kMinSamplesBeyond = 10;

inline bool Reportable(int64_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

// The tail percentiles a report chooses from.
inline const std::vector<double> kTails = {90, 99, 99.9};

// The highest of the candidate percentiles (ascending) that is reportable
// for `n` samples, or 0 when none is.
inline double HighestReportablePercentile(
    int64_t n, const std::vector<double>& candidates) {
  double best = 0;
  for (double p : candidates) {
    if (Reportable(n, p)) best = p;
  }
  return best;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

// SplitMix64: the benchmark's own seeded generator. Inputs, schedules and
// row choices come from it, so a seed fixes them independently of the
// library's random streams.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Standard normal (Box-Muller).
  double Normal() {
    const double u1 = 1.0 - Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// Due times (seconds from the schedule's start) of a Poisson arrival
// process at `rate_per_s` over [0, duration_s).
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                           double duration_s) {
  Rng rng(seed);
  std::vector<double> due;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

// One open-loop request, all times in ms on one clock.
struct RequestRecord {
  double due_ms = 0;     // when the schedule said to send it
  double submit_ms = 0;  // when the generator actually sent it
  double done_ms = 0;    // when its response was observed
  bool ok = false;       // completed without error, output verified
};

struct OpenLoopSummary {
  int64_t requests = 0;  // due inside the window
  int64_t failed = 0;    // of those, errors or wrong outputs
  // Latency is timed from the due time, so a generator or system stall
  // also charges the requests queued behind it.
  double latency_ms_p1 = 0;
  double latency_ms_p50 = 0;
  double latency_ms_p90 = 0;
  double latency_ms_p99 = 0;
  // How late the generator sent requests (submit - due).
  // The highest of p90, p99 and p99.9 with at least ten samples beyond it
  // (0 when none has), and the latency there.
  double tail_percentile = 0;
  double latency_ms_tail = 0;
  double lag_ms_p99 = 0;
  double lag_ms_max = 0;
  // Requests completed correctly within the latency limit, per second of
  // schedule.
  double goodput_rps = 0;
};

// Summarizes the requests due in [window_start_ms, window_end_ms). A failed
// request counts against goodput and enters the latency percentiles as
// never meeting the limit (its latency is taken as infinite).
inline OpenLoopSummary SummarizeOpenLoop(
    const std::vector<RequestRecord>& records, double window_start_ms,
    double window_end_ms, double limit_ms) {
  OpenLoopSummary out;
  std::vector<double> latency, lag;
  int64_t good = 0;
  for (const RequestRecord& r : records) {
    if (r.due_ms < window_start_ms || r.due_ms >= window_end_ms) continue;
    ++out.requests;
    lag.push_back(r.submit_ms - r.due_ms);
    if (!r.ok) {
      ++out.failed;
      latency.push_back(INFINITY);
      continue;
    }
    const double l = r.done_ms - r.due_ms;
    latency.push_back(l);
    if (l <= limit_ms) ++good;
  }
  out.latency_ms_p1 = Percentile(latency, 1);
  out.latency_ms_p50 = Percentile(latency, 50);
  out.latency_ms_p90 = Percentile(latency, 90);
  out.latency_ms_p99 = Percentile(latency, 99);
  out.tail_percentile = HighestReportablePercentile(out.requests, kTails);
  out.latency_ms_tail = Percentile(latency, out.tail_percentile);
  out.lag_ms_p99 = Percentile(lag, 99);
  out.lag_ms_max = lag.empty() ? 0 : *std::max_element(lag.begin(), lag.end());
  const double seconds = (window_end_ms - window_start_ms) / 1000.0;
  out.goodput_rps = seconds > 0 ? static_cast<double>(good) / seconds : 0;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
