// Unit tests of the benchmark's statistics and open-loop accounting.
//
//   .bench_build/perfbench_selftest    (exit 0 when every check passes)
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileIsNearestRank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(Near(perfbench::Percentile(v, 50), 50));
  CHECK(Near(perfbench::Percentile(v, 90), 90));
  CHECK(Near(perfbench::Percentile(v, 99), 99));
  CHECK(Near(perfbench::Percentile(v, 100), 100));
  CHECK(Near(perfbench::Percentile({7}, 50), 7));
  CHECK(Near(perfbench::Percentile({}, 50), 0));
  // Ten samples: p50 is the 5th, p90 the 9th.
  std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(Near(perfbench::Percentile(ten, 50), 5));
  CHECK(Near(perfbench::Percentile(ten, 90), 9));
}

void TailNeedsTenSamplesBeyond() {
  CHECK(perfbench::SamplesBeyond(100, 90) == 10);
  CHECK(perfbench::Reportable(100, 90));
  CHECK(!perfbench::Reportable(99, 90));
  CHECK(!perfbench::Reportable(999, 99));
  CHECK(perfbench::Reportable(1000, 99));
  const std::vector<double> all = {50, 90, 99, 99.9};
  CHECK(perfbench::HighestReportablePercentile(19, all) == 0);
  CHECK(perfbench::HighestReportablePercentile(20, all) == 50);
  CHECK(perfbench::HighestReportablePercentile(150, all) == 90);
  CHECK(perfbench::HighestReportablePercentile(5000, all) == 99);
  CHECK(perfbench::HighestReportablePercentile(10000, all) == 99.9);
  CHECK(perfbench::HighestReportablePercentile(99, perfbench::kTails) == 0);
}

void ScheduleIsSeededPoisson() {
  const auto a = perfbench::PoissonSchedule(7, 3000, 2.0);
  const auto b = perfbench::PoissonSchedule(7, 3000, 2.0);
  const auto c = perfbench::PoissonSchedule(8, 3000, 2.0);
  CHECK(a == b);
  CHECK(a != c);
  // About 6000 arrivals; a Poisson count's sd is ~77.
  CHECK(a.size() > 5600 && a.size() < 6400);
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  CHECK(increasing);
  CHECK(a.back() < 2.0);
}

void LatencyCountsFromDueTime() {
  // The generator stalled: four requests due at 0..3 ms all went out at
  // 3 ms and each took 1 ms. Latency runs from the due time, so the stall
  // is charged to every request queued behind it, and the lag shows it.
  std::vector<perfbench::RequestRecord> r;
  for (int i = 0; i < 4; ++i) r.push_back({double(i), 3.0, 4.0, true});
  auto s = perfbench::SummarizeOpenLoop(r, 0, 10, 2.5);
  CHECK(s.requests == 4);
  CHECK(Near(s.latency_ms_p1, 1));  // latencies {4, 3, 2, 1}
  CHECK(Near(s.latency_ms_p50, 2));
  CHECK(Near(s.latency_ms_p99, 4));
  CHECK(Near(s.lag_ms_max, 3));
  CHECK(Near(s.lag_ms_p99, 3));
  // Only the requests due at 2 and 3 ms finished within 2.5 ms of due.
  CHECK(Near(s.goodput_rps, 2 / 0.010));
  CHECK(s.tail_percentile == 0);  // four samples support no tail
}

void TailIsTheHighestReportable() {
  // 1000 requests of latency 1..1000 ms: p99 has exactly ten beyond it,
  // p99.9 only one, so the report's tail is p99.
  std::vector<perfbench::RequestRecord> r;
  for (int i = 0; i < 1000; ++i) r.push_back({0.0, 0.0, i + 1.0, true});
  auto s = perfbench::SummarizeOpenLoop(r, 0, 1, 5);
  CHECK(s.tail_percentile == 99);
  CHECK(Near(s.latency_ms_tail, 990));
}

void WindowAndFailuresAreAccounted() {
  std::vector<perfbench::RequestRecord> r = {
      {-1.0, -1.0, 0.0, true},  // warm-up: outside the window
      {0.0, 0.0, 1.0, true},
      {1.0, 1.0, 2.0, false},  // failed: counts as missing the limit
      {2.0, 2.0, 3.0, true},
      {10.0, 10.0, 11.0, true},  // due at the window's end: excluded
  };
  auto s = perfbench::SummarizeOpenLoop(r, 0, 10, 5);
  CHECK(s.requests == 3);
  CHECK(s.failed == 1);
  CHECK(Near(s.goodput_rps, 2 / 0.010));
  CHECK(std::isinf(s.latency_ms_p99));
  CHECK(Near(s.latency_ms_p50, 1));
}

void RngIsSeeded() {
  perfbench::Rng a(3), b(3), c(4);
  CHECK(a.Next() == b.Next());
  CHECK(a.Next() != c.Next());
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += a.Normal();
  CHECK(std::fabs(sum / 10000) < 0.05);
}

}  // namespace

int main() {
  PercentileIsNearestRank();
  TailNeedsTenSamplesBeyond();
  ScheduleIsSeededPoisson();
  LatencyCountsFromDueTime();
  TailIsTheHighestReportable();
  WindowAndFailuresAreAccounted();
  RngIsSeeded();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
