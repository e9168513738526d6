// The per-layer ledger of a traced run.
//
// Two sources of spans feed it. The harness records a span around each
// public call it makes (model forward, tfe::gradient, ApplySgd, a staged
// call, Serving::Submit, tfe::sync, waiting for an async loss), and the library's profiler records
// dispatch, kernel, executor, trace and drain spans. The ledger drains the
// profiler with profiler::Collect(), nests every thread's spans by time, and
// charges each span's self time (its duration minus its direct children) to
// the src/ layer that owns it.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "profiler/profiler.h"

namespace perfbench {

namespace profiler = tfe::profiler;

// Layers are named after the src/ modules that own the time.
enum class Layer : int {
  kApi = 0,   // model code and ops:: wrappers (harness forward span)
  kAutodiff,  // tfe::gradient
  kState,     // ApplySgd (variable updates)
  kStaging,   // Function::operator(), tracing
  kServing,   // Serving::Submit
  kRuntime,   // dispatch, queue drains, host blocked in tfe::sync
  kExecutor,  // dataflow executor runs
  kKernels,   // kernel bodies
  kStep,      // the harness step span; its self time is unattributed
  kCount,
};
const char* LayerName(Layer layer);

// What a harness span wraps; picks out spans that metrics single out.
enum class Call : int {
  kStep = 0,
  kForward,
  kGradient,
  kUpdate,
  kStagedCall,
  kSubmit,
  kSync,
  kWait,
  kCount,
};
Layer LayerOf(Call call);

struct LedgerTotals {
  // Self time by layer: on the calling thread, and summed over the others.
  std::array<uint64_t, static_cast<int>(Layer::kCount)> calling_self_ns{};
  std::array<uint64_t, static_cast<int>(Layer::kCount)> other_self_ns{};
  uint64_t step_ns = 0;  // total duration of harness step spans
  int64_t steps = 0;

  int64_t dispatches = 0;
  uint64_t dispatch_self_ns = 0;  // dispatch span minus its children
  int64_t executor_runs = 0;      // outermost executor runs only
  uint64_t executor_ns = 0;
  int64_t executor_nodes = 0;
  uint64_t leaf_kernel_ns = 0;  // kernels with no kernel/executor child
  uint64_t conv_kernel_ns = 0;  // Conv2D and both of its backprops
  uint64_t trace_ns = 0;        // outermost trace spans
  int64_t staged_calls = 0;     // harness staged-call and submit spans
  uint64_t staged_call_self_ns = 0;  // minus their executor runs
  std::vector<double> submit_us;     // each Serving::Submit span
  // Harness span time by Call.
  std::array<uint64_t, static_cast<int>(Call::kCount)> call_ns{};
};

class Ledger {
 public:
  // Marks the thread that makes the public calls, so its profiler spans
  // nest with the harness spans. Call from that thread while the profiler
  // is on.
  void TagCallingThread();

  // Records a finished harness span. Thread-safe.
  void Record(Call call, uint64_t start_ns, uint64_t end_ns);

  // Drains the profiler and attributes every complete span collected so
  // far. Call only from one thread, and only when every span of interest
  // has ended (after a step's tfe::sync).
  void Absorb();

  const LedgerTotals& totals() const { return totals_; }
  void ResetTotals() { totals_ = LedgerTotals(); }
  // Profiler events dropped since construction. A traced run with any
  // drops is invalid: its ledger would silently undercount.
  uint64_t dropped_events() const;

  // The self-time table per traced unit (a step or a request), as aligned
  // text and as one JSON object.
  std::string TableText(double units, const char* unit) const;
  std::string TableJson(double units, const char* unit) const;

 private:
  struct HarnessSpan {
    Call call;
    uint64_t start_ns, end_ns;
  };
  std::mutex mu_;
  std::vector<HarnessSpan> pending_;  // guarded by mu_
  uint32_t marker_name_ = 0;
  int64_t calling_tid_ = -1;
  uint64_t dropped_at_start_ = profiler::DroppedEvents();
  LedgerTotals totals_;
};

// RAII harness span. With a null ledger, or the profiler off, it records
// nothing, so untraced runs and code being traced pay one branch.
class Span {
 public:
  Span(Ledger* ledger, Call call)
      : ledger_(profiler::enabled() ? ledger : nullptr),
        call_(call),
        start_ns_(ledger_ != nullptr ? profiler::NowNs() : 0) {}
  ~Span() {
    if (ledger_ != nullptr) ledger_->Record(call_, start_ns_, profiler::NowNs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
  Call call_;
  uint64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
