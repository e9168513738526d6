#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kApi: return "api";
    case Layer::kAutodiff: return "autodiff";
    case Layer::kState: return "state";
    case Layer::kStaging: return "staging";
    case Layer::kServing: return "serving";
    case Layer::kRuntime: return "runtime";
    case Layer::kExecutor: return "executor";
    case Layer::kKernels: return "kernels";
    case Layer::kStep: return "unattributed";
    case Layer::kCount: break;
  }
  return "?";
}

Layer LayerOf(Call call) {
  switch (call) {
    case Call::kStep: return Layer::kStep;
    case Call::kForward: return Layer::kApi;
    case Call::kGradient: return Layer::kAutodiff;
    case Call::kUpdate: return Layer::kState;
    case Call::kStagedCall: return Layer::kStaging;
    case Call::kSubmit: return Layer::kServing;
    case Call::kSync:
    case Call::kWait: return Layer::kRuntime;
    case Call::kCount: break;
  }
  return Layer::kStep;
}

namespace {

using profiler::EventKind;

struct Interval {
  uint64_t start = 0, end = 0;
  Layer layer = Layer::kStep;
  bool harness = false;
  Call call = Call::kStep;
  EventKind kind = EventKind::kDispatch;
  int64_t arg = 0;
  uint32_t name = 0;
  int parent = -1;
  uint64_t child_ns = 0;
  bool kernel_or_executor_child = false;
  bool under_executor = false;
  uint64_t executor_descendant_ns = 0;

  uint64_t dur() const { return end - start; }
  bool is(EventKind k) const { return !harness && kind == k; }
  bool is_staged_call() const {
    return harness && (call == Call::kStagedCall || call == Call::kSubmit);
  }
};

bool LayerOfKind(EventKind kind, Layer* layer) {
  switch (kind) {
    case EventKind::kDispatch:
    case EventKind::kQueueDrain:
    case EventKind::kRpcSend:
    case EventKind::kRpcRecv:
    case EventKind::kRemoteEnqueue:
    case EventKind::kRemoteResolve: *layer = Layer::kRuntime; return true;
    case EventKind::kKernel: *layer = Layer::kKernels; return true;
    case EventKind::kExecutorRun: *layer = Layer::kExecutor; return true;
    case EventKind::kTraceStage: *layer = Layer::kStaging; return true;
    default: return false;  // instants
  }
}

}  // namespace

void Ledger::TagCallingThread() {
  if (calling_tid_ >= 0) return;
  if (marker_name_ == 0) marker_name_ = profiler::Intern("perfbench.calling");
  profiler::RecordInstant(EventKind::kServing, marker_name_);
}

void Ledger::Record(Call call, uint64_t start_ns, uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back({call, start_ns, end_ns});
}

uint64_t Ledger::dropped_events() const {
  return profiler::DroppedEvents() - dropped_at_start_;
}

void Ledger::Absorb() {
  std::vector<profiler::CollectedEvent> events = profiler::Collect();
  std::vector<HarnessSpan> harness;
  {
    std::lock_guard<std::mutex> lock(mu_);
    harness.swap(pending_);
  }
  static const uint32_t conv_names[] = {
      profiler::Intern("Conv2D"), profiler::Intern("Conv2DBackpropInput"),
      profiler::Intern("Conv2DBackpropFilter")};

  std::map<int64_t, std::vector<Interval>> by_thread;
  for (const profiler::CollectedEvent& ce : events) {
    const profiler::Event& e = ce.event;
    if (calling_tid_ < 0 && marker_name_ != 0 && e.name == marker_name_) {
      calling_tid_ = ce.tid;
    }
    Interval iv;
    if (!LayerOfKind(e.kind, &iv.layer)) continue;
    iv.start = e.start_ns;
    iv.end = e.start_ns + e.dur_ns;
    iv.kind = e.kind;
    iv.arg = e.arg;
    iv.name = e.name;
    by_thread[ce.tid].push_back(iv);
  }
  for (const HarnessSpan& h : harness) {
    Interval iv;
    iv.start = h.start_ns;
    iv.end = h.end_ns;
    iv.harness = true;
    iv.call = h.call;
    iv.layer = LayerOf(h.call);
    by_thread[calling_tid_].push_back(iv);
    totals_.call_ns[static_cast<int>(h.call)] += iv.dur();
    if (h.call == Call::kStep) {
      totals_.step_ns += iv.dur();
      ++totals_.steps;
    }
    if (h.call == Call::kSubmit) totals_.submit_us.push_back(iv.dur() / 1e3);
  }

  for (auto& [tid, ivs] : by_thread) {
    const bool calling = tid == calling_tid_;
    // Spans on one thread nest; sort parents before their children.
    std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
      if (a.start != b.start) return a.start < b.start;
      if (a.end != b.end) return a.end > b.end;
      return a.harness && !b.harness;
    });
    std::vector<int> stack;
    for (int i = 0; i < static_cast<int>(ivs.size()); ++i) {
      Interval& iv = ivs[i];
      while (!stack.empty() && ivs[stack.back()].end <= iv.start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        Interval& parent = ivs[stack.back()];
        iv.parent = stack.back();
        parent.child_ns += iv.dur();
        if (iv.is(EventKind::kKernel) || iv.is(EventKind::kExecutorRun)) {
          parent.kernel_or_executor_child = true;
        }
        iv.under_executor =
            parent.under_executor || parent.is(EventKind::kExecutorRun);
      }
      if (iv.is(EventKind::kExecutorRun) && !iv.under_executor) {
        for (int a = iv.parent; a >= 0; a = ivs[a].parent) {
          if (ivs[a].is_staged_call()) ivs[a].executor_descendant_ns += iv.dur();
        }
      }
      stack.push_back(i);
    }

    bool has_trace_ancestor = false;
    for (const Interval& iv : ivs) {
      const uint64_t self = iv.dur() > iv.child_ns ? iv.dur() - iv.child_ns : 0;
      auto& self_by_layer =
          calling ? totals_.calling_self_ns : totals_.other_self_ns;
      self_by_layer[static_cast<int>(iv.layer)] += self;
      if (iv.is_staged_call()) {
        ++totals_.staged_calls;
        totals_.staged_call_self_ns += iv.dur() - std::min(
            iv.dur(), iv.executor_descendant_ns);
      }
      if (iv.harness) continue;
      switch (iv.kind) {
        case EventKind::kDispatch:
          ++totals_.dispatches;
          totals_.dispatch_self_ns += self;
          break;
        case EventKind::kExecutorRun:
          if (!iv.under_executor) {
            ++totals_.executor_runs;
            totals_.executor_ns += iv.dur();
            totals_.executor_nodes += iv.arg;
          }
          break;
        case EventKind::kKernel:
          if (!iv.kernel_or_executor_child) {
            totals_.leaf_kernel_ns += iv.dur();
            if (std::find(std::begin(conv_names), std::end(conv_names),
                          iv.name) != std::end(conv_names)) {
              totals_.conv_kernel_ns += iv.dur();
            }
          }
          break;
        case EventKind::kTraceStage:
          has_trace_ancestor = false;
          for (int a = iv.parent; a >= 0; a = ivs[a].parent) {
            if (ivs[a].is(EventKind::kTraceStage)) has_trace_ancestor = true;
          }
          if (!has_trace_ancestor) totals_.trace_ns += iv.dur();
          break;
        default:
          break;
      }
    }
  }
}

std::string Ledger::TableText(double units, const char* unit) const {
  const double per = std::max(1.0, units);
  const double wall_ms = totals_.step_ns / 1e6 / per;
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %12s/%-7s %8s %14s/%s\n", "layer",
                "self ms", unit, "share", "other thr ms", unit);
  out << line;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const double calling = totals_.calling_self_ns[l] / 1e6 / per;
    const double other = totals_.other_self_ns[l] / 1e6 / per;
    std::snprintf(line, sizeof(line), "%-14s %20.4f %7.1f%% %19.4f\n",
                  LayerName(static_cast<Layer>(l)), calling,
                  wall_ms > 0 ? 100.0 * calling / wall_ms : 0.0, other);
    out << line;
  }
  std::snprintf(line, sizeof(line), "%-14s %20.4f  (%.0f traced %ss)\n",
                "step wall", wall_ms, units, unit);
  out << line;
  return out.str();
}

std::string Ledger::TableJson(double units, const char* unit) const {
  const double per = std::max(1.0, units);
  std::ostringstream out;
  out << "{\"unit\": \"" << unit << "\", \"traced_units\": " << units
      << ", \"step_wall_ms\": " << totals_.step_ns / 1e6 / per
      << ", \"layers\": {";
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    out << (l == 0 ? "" : ", ") << "\"" << LayerName(static_cast<Layer>(l))
        << "\": {\"calling_thread_self_ms\": "
        << totals_.calling_self_ns[l] / 1e6 / per
        << ", \"other_threads_self_ms\": "
        << totals_.other_self_ns[l] / 1e6 / per << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
