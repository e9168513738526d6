#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "api/tfe.h"
#include "graph/memory_planner.h"
#include "graph/passes.h"
#include "ledger.h"
#include "models/l2hmc.h"
#include "models/mlp.h"
#include "models/resnet.h"
#include "stats.h"
#include "tensor/allocator.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using tfe::Tensor;
using tfe::Variable;
namespace ops = tfe::ops;
namespace models = tfe::models;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Distinct streams of the workload seed for each thing it drives.
uint64_t Derive(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + stream).Next();
}
// Library op seeds must be nonzero (zero selects the stateful stream).
int64_t OpSeed(uint64_t seed, uint64_t stream) {
  return static_cast<int64_t>(Derive(seed, stream) % 1000000007ull) + 1;
}

Tensor NormalTensor(Rng& rng, const tfe::Shape& shape) {
  std::vector<float> values(static_cast<size_t>(shape.num_elements()));
  for (float& v : values) v = static_cast<float>(rng.Normal());
  return ops::constant<float>(values, shape);
}

// Peak resident set size of this program image (VmHWM). getrusage's
// ru_maxrss would also count the launching process's peak from before exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

// The report name of a chosen tail percentile, e.g. "step_ms_tail_p99";
// percentile 0 means too few samples for any tail.
std::string TailName(const std::string& prefix, double percentile) {
  if (percentile <= 0) return prefix + "_tail";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_tail_p%g", percentile);
  return prefix + buf;
}

// ---- Library counters over a measured window --------------------------

class Counters {
 public:
  static Counters Read() {
    static const char* const kCounters[] = {
        "dispatch.ops",
        "allocator.alloc_calls",
        "allocator.donations",
        "allocator.freelist_hits",
        "allocator.freelist_misses",
        "allocator.plan.planned_allocs",
        "allocator.bytes_requested",
        "staging.cache_hits",
        "staging.cache_misses",
        "fusion.program_cache.hit",
        "fusion.program_cache.miss",
        "serving.batched_calls",
        "serving.batches",
        "serving.unbatched_calls",
        "kernel.Conv2DBackpropInput",
    };
    static const char* const kHistograms[] = {
        "fusion.run_length",
        "queue.dispatch_to_execute_ns",
        "serving.queue_delay_us",
    };
    auto& metrics = tfe::profiler::Metrics();
    Counters c;
    for (const char* name : kCounters) {
      c.values_[name] = static_cast<double>(metrics.GetCounter(name)->value());
    }
    for (const char* name : kHistograms) {
      tfe::profiler::Histogram* h = metrics.GetHistogram(name);
      c.values_[std::string(name) + ".count"] = static_cast<double>(h->count());
      c.values_[std::string(name) + ".sum"] = static_cast<double>(h->sum());
    }
    return c;
  }
  double operator()(const std::string& name) const { return values_.at(name); }
  Counters operator-(const Counters& begin) const {
    Counters d;
    for (const auto& [name, value] : values_) {
      d.values_[name] = value - begin.values_.at(name);
    }
    return d;
  }

 private:
  std::map<std::string, double> values_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double GaugeValue(const char* name) {
  return static_cast<double>(
      tfe::profiler::Metrics().GetGauge(name)->value());
}

// FLOP/s the host sustains on independent multiply-add chains, summed over
// one thread per core: the ceiling the kernels are measured against.
double ProbePeakGflops() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> gflops(threads, 0);
  volatile float multiplier = 0.999999f, addend = 1e-7f;
  auto worker = [&](unsigned t) {
    const float m = multiplier, a = addend;
    float acc[32];
    for (int j = 0; j < 32; ++j) acc[j] = 1.0f + 1e-3f * static_cast<float>(j);
    constexpr int64_t kIters = 1'000'000;
    const auto start = Clock::now();
    for (int64_t it = 0; it < kIters; ++it) {
      for (int j = 0; j < 32; ++j) acc[j] = acc[j] * m + a;
    }
    const double seconds = SecondsSince(start);
    float sum = 0;
    for (float v : acc) sum += v;
    volatile float sink = sum;
    (void)sink;
    gflops[t] = 2.0 * 32 * kIters / seconds / 1e9;
  };
  // The best of a few short trials: a peak, not an average over whatever
  // else the host was running.
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& th : pool) th.join();
    double total = 0;
    for (double g : gflops) total += g;
    best = std::max(best, total);
  }
  return best;
}

// ---- Metric assembly ----------------------------------------------------

// Every per-layer metric, in report order, with its unit. A run reports
// all of them; those its workload does not exercise read 0 and n/a.
const std::vector<std::pair<std::string, std::string>>& PerLayerUnits() {
  static const auto* units = new std::vector<std::pair<std::string, std::string>>{
      {"runtime.ops_per_step", "count"},
      {"runtime.dispatch_self_us", "us"},
      {"tensor.alloc_calls_per_step", "count"},
      {"api.forward_ms", "ms"},
      {"autodiff.gradient_ms", "ms"},
      {"state.update_ms", "ms"},
      {"executor.us_per_node", "us"},
      {"executor.run_ms_per_step", "ms"},
      {"graph.nodes_traced", "count"},
      {"graph.nodes_executed", "count"},
      {"staging.call_us", "us"},
      {"graph.optimize_ms", "ms"},
      {"graph.fuse_ms", "ms"},
      {"staging.trace_ms", "ms"},
      {"staging.cache_hit_ratio", "ratio"},
      {"kernels.program_cache_hit_ratio", "ratio"},
      {"kernels.ms_per_step", "ms"},
      {"kernels.conv_gflops", "GFLOP/s"},
      {"kernels.peak_gflops", "GFLOP/s"},
      {"runtime.drain_run_length_mean", "count"},
      {"runtime.queue_wait_us", "us"},
      {"runtime.host_blocked_ms_per_step", "ms"},
      {"tensor.donations_per_step", "count"},
      {"tensor.freelist_hit_ratio", "ratio"},
      {"graph.plan_slab_kb", "kB"},
      {"graph.planned_allocs_per_step", "count"},
      {"tensor.alloc_mb_per_step", "MB"},
      {"tensor.high_water_mb", "MB"},
      {"serving.submit_us_p50", "us"},
      {"serving.mean_batch_size", "count"},
      {"serving.batched_frac", "ratio"},
      {"serving.queue_delay_us_mean", "us"},
      {"serving.compute_us_per_batch", "us"},
      {"serving.goodput_rps", "1/s"},
      {"serving.latency_ms_p50", "ms"},
      {"serving.latency_ms_p90", "ms"},
      {"serving.latency_ms_p99", "ms"},
      {"loadgen.lag_ms_p99", "ms"},
      {"loadgen.lag_ms_max", "ms"},
      {"train.examples_per_s", "1/s"},
      {"train.step_ms_p50", "ms"},
      {"train.step_ms_p90", "ms"},
      {"profiler.overhead_frac", "ratio"},
      {"profiler.dropped_events", "count"},
      {"trace.unattributed_frac", "ratio"},
  };
  return *units;
}

// Collects per-layer values by name, then emits the full list in order.
class PerLayer {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::vector<Metric> Emit() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : PerLayerUnits()) {
      auto it = values_.find(name);
      const bool applicable = it != values_.end() && std::isfinite(it->second);
      out.push_back({name, applicable ? it->second : 0.0, unit, applicable});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// Shared per-layer values derived from library counters over a window of
// `units` steps (training) or requests (serving).
void SetCounterMetrics(const Counters& d, double units, PerLayer* out) {
  out->Set("runtime.ops_per_step", d("dispatch.ops") / units);
  out->Set("tensor.alloc_calls_per_step", d("allocator.alloc_calls") / units);
  out->Set("tensor.donations_per_step", d("allocator.donations") / units);
  out->Set("tensor.freelist_hit_ratio",
           Ratio(d("allocator.freelist_hits"),
                 d("allocator.freelist_hits") + d("allocator.freelist_misses")));
  out->Set("graph.planned_allocs_per_step",
           d("allocator.plan.planned_allocs") / units);
  out->Set("tensor.alloc_mb_per_step",
           d("allocator.bytes_requested") / units / (1 << 20));
  out->Set("graph.plan_slab_kb", GaugeValue("allocator.plan.slab_bytes") / 1024);
  out->Set("tensor.high_water_mb",
           GaugeValue("allocator.high_water_bytes") / (1 << 20));
  const double staged = d("staging.cache_hits") + d("staging.cache_misses");
  if (staged > 0) {
    out->Set("staging.cache_hit_ratio", d("staging.cache_hits") / staged);
  }
  const double programs =
      d("fusion.program_cache.hit") + d("fusion.program_cache.miss");
  if (programs > 0) {
    out->Set("kernels.program_cache_hit_ratio",
             d("fusion.program_cache.hit") / programs);
  }
  if (d("fusion.run_length.count") > 0) {
    out->Set("runtime.drain_run_length_mean",
             d("fusion.run_length.sum") / d("fusion.run_length.count"));
  }
  if (d("queue.dispatch_to_execute_ns.count") > 0) {
    out->Set("runtime.queue_wait_us",
             d("queue.dispatch_to_execute_ns.sum") /
                 d("queue.dispatch_to_execute_ns.count") / 1e3);
  }
}

// Per-layer values from the ledger's span totals.
void SetLedgerMetrics(const Ledger& ledger, double units, PerLayer* out) {
  const LedgerTotals& t = ledger.totals();
  if (t.dispatches > 0) {
    out->Set("runtime.dispatch_self_us", t.dispatch_self_ns / 1e3 / t.dispatches);
  }
  if (t.executor_runs > 0) {
    out->Set("executor.us_per_node",
             Ratio(t.executor_ns / 1e3, static_cast<double>(t.executor_nodes)));
    out->Set("executor.run_ms_per_step", t.executor_ns / 1e6 / units);
    out->Set("graph.nodes_executed",
             static_cast<double>(t.executor_nodes) / t.executor_runs);
  }
  if (t.staged_calls > 0) {
    out->Set("staging.call_us", t.staged_call_self_ns / 1e3 / t.staged_calls);
  }
  if (t.leaf_kernel_ns > 0) out->Set("kernels.ms_per_step", t.leaf_kernel_ns / 1e6 / units);
  out->Set("profiler.dropped_events", static_cast<double>(ledger.dropped_events()));
}

// Times passes::Optimize and FusedExecutionVariant on fresh clones of the
// concrete function's as-traced graph (the median of three), and counts the
// traced nodes.
void MeasureGraphPasses(tfe::Function& fn, const std::vector<Tensor>& args,
                        PerLayer* out) {
  std::shared_ptr<tfe::GraphFunction> concrete =
      fn.GetConcreteFunction(args).value();
  const auto& traced = concrete->autodiff_source();
  if (traced == nullptr) return;
  out->Set("graph.nodes_traced", traced->graph().num_nodes());
  std::vector<double> optimize_ms, fuse_ms;
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  for (int i = 0; i < 3; ++i) {
    auto clone = std::make_shared<tfe::GraphFunction>(
        concrete->name() + "__perfbench_" + std::to_string(i));
    if (!tfe::CloneGraphFunctionInto(*traced, *clone).ok()) return;
    const auto t0 = Clock::now();
    if (!tfe::passes::Optimize(*clone).ok()) return;
    const auto t1 = Clock::now();
    tfe::passes::FusedExecutionVariant(ctx, ctx->HostCpu(), clone);
    const auto t2 = Clock::now();
    optimize_ms.push_back(MsBetween(t0, t1));
    fuse_ms.push_back(MsBetween(t1, t2));
  }
  out->Set("graph.optimize_ms", Percentile(optimize_ms, 50));
  out->Set("graph.fuse_ms", Percentile(fuse_ms, 50));
}

// ---- Training workloads -------------------------------------------------

tfe::EagerContext::Options ContextOptions(uint64_t seed, bool async) {
  tfe::EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  options.host_profile = tfe::HostProfile::Native();
  options.random_seed = Derive(seed, 1);
  options.async = async;
  return options;
}

// The least-optimised configuration outputs are checked against: sync
// eager, serial kernels, no fusion, no donation, no memory planning, and the
// system allocator.
class ReferenceConfig {
 public:
  explicit ReferenceConfig(uint64_t seed) {
    tfe::memplan::OverrideMemoryPlanning(false);
    tfe::OverrideDefaultAllocatorKind(tfe::AllocatorKind::kSystem);
    tfe::EagerContext::Options options = ContextOptions(seed, /*async=*/false);
    options.fuse_elementwise = false;
    options.buffer_donation = false;
    options.intra_op_parallelism = false;
    tfe::EagerContext::ResetGlobal(options);
  }
  ~ReferenceConfig() {
    tfe::memplan::ClearMemoryPlanningOverride();
    tfe::ClearAllocatorKindOverride();
  }
  ReferenceConfig(const ReferenceConfig&) = delete;
  ReferenceConfig& operator=(const ReferenceConfig&) = delete;
};

// Every variable reachable from `root`, in the object graph's (sorted)
// order: the trained weights and also state such as batch-norm moving
// statistics.
void CollectAllVariables(const tfe::Checkpointable& root,
                         std::vector<Variable>* out) {
  for (const auto& [name, variable] : root.tracked_variables()) {
    out->push_back(variable);
  }
  for (const auto& [name, child] : root.children()) {
    CollectAllVariables(*child, out);
  }
}

// One train step through the public API, with a harness span around each
// public call: forward, wait for the loss, gradient, update.
Tensor EagerTrainStep(Ledger* ledger, const std::function<Tensor()>& loss_fn,
                      const std::vector<Variable>& variables, double lr) {
  tfe::GradientTape tape;
  Tensor loss;
  {
    Span span(ledger, Call::kForward);
    loss = loss_fn();
  }
  tape.StopRecording();
  if (!loss.is_symbolic()) {
    // Async dispatch returns before the forward pass has run; the gradient
    // would block here anyway, so the wait is timed as its own span.
    Span span(ledger, Call::kWait);
    tfe::Status status = loss.Materialize();
    if (!status.ok()) throw std::runtime_error(status.ToString());
  }
  std::vector<Tensor> grads;
  {
    Span span(ledger, Call::kGradient);
    grads = tfe::gradient(tape, loss, variables);
  }
  {
    Span span(ledger, Call::kUpdate);
    models::ApplySgd(variables, grads, lr);
  }
  return loss;
}

class Trainer {
 public:
  virtual ~Trainer() = default;
  // Dispatches one train step and returns its loss (possibly pending).
  virtual Tensor Step(Ledger* ledger) = 0;
  virtual std::vector<Variable> CheckedVariables() const = 0;
  virtual int64_t batch() const = 0;
  // The staged step function and its arguments, when the step is staged.
  virtual tfe::Function* staged() { return nullptr; }
  virtual std::vector<Tensor> staged_args() const { return {}; }
  // FLOPs of one step's convolutions, given how many input-gradient convs
  // it ran.
  virtual double ConvFlopsPerStep(double input_grad_convs) const { return 0; }
};

// Figure 4's model: 2-D target, 10 leapfrog steps, 10 chains, fixed
// sample_seed so eager and staged steps draw the same numbers.
class L2hmcTrainer : public Trainer {
 public:
  static constexpr int64_t kChains = 10;
  static constexpr double kLearningRate = 1e-3;

  L2hmcTrainer(uint64_t seed, bool staged) {
    models::L2hmcDynamics::Config config;
    config.seed = OpSeed(seed, 10);
    config.sample_seed = OpSeed(seed, 11);
    dynamics_ = std::make_unique<models::L2hmcDynamics>(config);
    Rng rng(Derive(seed, 12));
    x_ = NormalTensor(rng, {kChains, config.dim});
    if (staged) {
      staged_ = std::make_unique<tfe::Function>(
          tfe::Function::TensorCallable(
              [this](const std::vector<Tensor>& args) -> std::vector<Tensor> {
                return {EagerTrainStep(
                    nullptr, [&] { return dynamics_->Loss(args[0]); },
                    dynamics_->variables(), kLearningRate)};
              }),
          "l2hmc_train_step");
    }
  }

  Tensor Step(Ledger* ledger) override {
    if (staged_ != nullptr) {
      Span span(ledger, Call::kStagedCall);
      return (*staged_)({x_})[0];
    }
    return EagerTrainStep(
        ledger, [&] { return dynamics_->Loss(x_); }, dynamics_->variables(),
        kLearningRate);
  }
  std::vector<Variable> CheckedVariables() const override {
    std::vector<Variable> out;
    CollectAllVariables(*dynamics_, &out);
    return out;
  }
  int64_t batch() const override { return kChains; }
  tfe::Function* staged() override { return staged_.get(); }
  std::vector<Tensor> staged_args() const override { return {x_}; }

 private:
  std::unique_ptr<models::L2hmcDynamics> dynamics_;
  Tensor x_;
  std::unique_ptr<tfe::Function> staged_;
};

// A thin ResNet-50: a quarter of the channels, one bottleneck per stage,
// 16 images of 32x32x3.
class ResNetTrainer : public Trainer {
 public:
  static constexpr int64_t kBatch = 16, kImage = 32, kClasses = 10;
  static constexpr double kLearningRate = 1e-2;

  explicit ResNetTrainer(uint64_t seed) {
    config_.num_classes = kClasses;
    config_.blocks_per_stage = {1, 1, 1, 1};
    config_.width_divisor = 4;
    config_.seed = OpSeed(seed, 20);
    model_ = std::make_unique<models::ResNet50>(config_);
    Rng rng(Derive(seed, 21));
    images_ = NormalTensor(rng, {kBatch, kImage, kImage, 3});
    std::vector<int64_t> labels(kBatch);
    for (int64_t& label : labels) label = static_cast<int64_t>(rng.Below(kClasses));
    labels_ = ops::constant<int64_t>(labels, {kBatch});
  }

  Tensor Step(Ledger* ledger) override {
    return EagerTrainStep(
        ledger, [&] { return model_->Loss(images_, labels_, true); },
        model_->variables(), kLearningRate);
  }
  std::vector<Variable> CheckedVariables() const override {
    std::vector<Variable> out;
    CollectAllVariables(*model_, &out);
    return out;
  }
  int64_t batch() const override { return kBatch; }

  double ConvFlopsPerStep(double input_grad_convs) const override {
    // Mirrors ResNet50's topology: 7x7/2 stem, 3x3/2 max-pool, then per
    // stage a 1x1 -> 3x3 (strided) -> 1x1 bottleneck with a strided 1x1
    // projection shortcut. SAME padding: out = ceil(in / stride).
    struct Conv {
      int64_t k, cin, cout, stride, in;
    };
    auto out_size = [](int64_t in, int64_t s) { return (in + s - 1) / s; };
    const int64_t d = config_.width_divisor;
    std::vector<Conv> convs = {{7, 3, 64 / d, 2, kImage}};
    int64_t size = out_size(out_size(kImage, 2), 2);
    int64_t in_ch = 64 / d;
    const int64_t bottleneck[] = {64, 128, 256, 512};
    const int64_t stride[] = {1, 2, 2, 2};
    for (int s = 0; s < 4; ++s) {
      const int64_t b = bottleneck[s] / d, out_ch = 4 * bottleneck[s] / d;
      convs.push_back({1, in_ch, b, 1, size});
      convs.push_back({3, b, b, stride[s], size});
      const int64_t next = out_size(size, stride[s]);
      convs.push_back({1, b, out_ch, 1, next});
      convs.push_back({1, in_ch, out_ch, stride[s], size});
      size = next;
      in_ch = out_ch;
    }
    double forward = 0, stem = 0;
    for (const Conv& c : convs) {
      const double o = static_cast<double>(out_size(c.in, c.stride));
      const double flops = 2.0 * kBatch * o * o * c.k * c.k * c.cin * c.cout;
      forward += flops;
      if (&c == &convs.front()) stem = flops;
    }
    // Forward and filter gradient for every conv; the input gradient for
    // all but the stem unless the step computed that one too.
    const double skipped_input_grads =
        static_cast<double>(convs.size()) - input_grad_convs;
    return 3 * forward - (skipped_input_grads >= 1 ? stem : 0);
  }

 private:
  models::ResNet50::Config config_;
  std::unique_ptr<models::ResNet50> model_;
  Tensor images_, labels_;
};

std::unique_ptr<Trainer> MakeTrainer(const std::string& workload,
                                     uint64_t seed, bool reference) {
  if (workload == "l2hmc_eager") return std::make_unique<L2hmcTrainer>(seed, false);
  if (workload == "l2hmc_staged") {
    return std::make_unique<L2hmcTrainer>(seed, /*staged=*/!reference);
  }
  return std::make_unique<ResNetTrainer>(seed);
}

// Loss and every variable after a step, as raw bits.
struct StateSnapshot {
  float loss = 0;
  std::vector<std::vector<float>> variables;

  bool BitwiseEquals(const StateSnapshot& other) const {
    if (std::memcmp(&loss, &other.loss, sizeof(float)) != 0) return false;
    if (variables.size() != other.variables.size()) return false;
    for (size_t i = 0; i < variables.size(); ++i) {
      const auto& a = variables[i];
      const auto& b = other.variables[i];
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  }
};

StateSnapshot Snapshot(const Trainer& trainer, float loss) {
  StateSnapshot snapshot;
  snapshot.loss = loss;
  for (const Variable& v : trainer.CheckedVariables()) {
    snapshot.variables.push_back(tfe::tensor_util::ToVector<float>(v.value()));
  }
  return snapshot;
}

// Runs one step to completion and reads its loss. Returns false when the
// step failed.
bool RunStep(Trainer& trainer, Ledger* ledger, float* loss_out,
             std::string* error) {
  try {
    Span step(ledger, Call::kStep);
    Tensor loss = trainer.Step(ledger);
    tfe::Status status;
    {
      Span span(ledger, Call::kSync);
      status = tfe::sync();
    }
    if (!status.ok()) {
      *error = status.ToString();
      return false;
    }
    *loss_out = loss.scalar<float>();
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

// Number of leading steps replayed under the reference configuration and
// compared bitwise (loss and every variable).
int CheckedPrefix(const std::string& workload) {
  return workload == "resnet_async" ? 3 : 5;
}

RunResult RunTraining(const RunOptions& options) {
  RunResult result;
  const std::string& workload = options.workload;
  const int prefix = CheckedPrefix(workload);
  Ledger ledger;
  PerLayer layer;

  const auto setup_start = Clock::now();
  tfe::EagerContext::ResetGlobal(
      ContextOptions(options.seed, workload == "resnet_async"));
  if (options.trace) {
    tfe::profiler::Start();
    ledger.TagCallingThread();
  }
  std::unique_ptr<Trainer> trainer = MakeTrainer(workload, options.seed, false);
  std::vector<StateSnapshot> measured = {Snapshot(*trainer, 0)};
  std::string error;
  int64_t failed = 0, attempted = 0;
  auto checked_step = [&]() {
    float loss = NAN;
    ++attempted;
    if (!RunStep(*trainer, nullptr, &loss, &error)) ++failed;
    measured.push_back(Snapshot(*trainer, loss));
  };
  checked_step();
  result.setup_s = SecondsSince(setup_start);
  if (options.setup_only) {
    result.attempted = attempted;
    result.failed = failed;
    return result;
  }

  if (options.trace) {
    tfe::profiler::Stop();
    ledger.Absorb();
    if (ledger.totals().trace_ns > 0) {
      layer.Set("staging.trace_ms", ledger.totals().trace_ns / 1e6);
    }
    if (trainer->staged() != nullptr) {
      MeasureGraphPasses(*trainer->staged(), trainer->staged_args(), &layer);
    }
    ledger.ResetTotals();
  }
  for (int i = 1; i < prefix; ++i) checked_step();

  // Steady state. A traced run alternates untraced and traced steps, so
  // the two halves see the same conditions and their ratio is the
  // profiler's overhead.
  std::vector<double> untraced_ms, traced_ms;
  const Counters before = Counters::Read();
  const auto loop_start = Clock::now();
  int64_t steps = 0;
  while (SecondsSince(loop_start) < options.seconds) {
    const bool traced = options.trace && steps % 2 == 1;
    if (traced) tfe::profiler::Start();
    float loss = NAN;
    const auto t0 = Clock::now();
    const bool ok = RunStep(*trainer, traced ? &ledger : nullptr, &loss, &error);
    const double ms = MsBetween(t0, Clock::now());
    if (traced) {
      tfe::profiler::Stop();
      ledger.Absorb();
    }
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ++steps;
    ++attempted;
    if (!ok || !std::isfinite(loss)) ++failed;
  }
  const Counters delta = Counters::Read() - before;
  const double peak_rss_mb = PeakRssMb();
  const double batch = static_cast<double>(trainer->batch());

  const double examples_per_s = batch * 1e3 / Mean(untraced_ms);
  const double p1 = Percentile(untraced_ms, 1);
  const double p50 = Percentile(untraced_ms, 50);
  const double p90 = Percentile(untraced_ms, 90);

  if (options.trace) {
    const LedgerTotals& t = ledger.totals();
    const double traced = static_cast<double>(traced_ms.size());
    SetCounterMetrics(delta, static_cast<double>(steps), &layer);
    SetLedgerMetrics(ledger, traced, &layer);
    auto call_ms = [&](Call call) {
      return t.call_ns[static_cast<int>(call)] / 1e6 / traced;
    };
    if (trainer->staged() == nullptr) {
      layer.Set("api.forward_ms", call_ms(Call::kForward));
      layer.Set("autodiff.gradient_ms", call_ms(Call::kGradient));
      layer.Set("state.update_ms", call_ms(Call::kUpdate));
    }
    layer.Set("runtime.host_blocked_ms_per_step",
              call_ms(Call::kWait) + call_ms(Call::kSync));
    if (t.conv_kernel_ns > 0) {
      const double flops = trainer->ConvFlopsPerStep(
          delta("kernel.Conv2DBackpropInput") / traced);
      layer.Set("kernels.conv_gflops", flops * traced / t.conv_kernel_ns);
    }
    layer.Set("kernels.peak_gflops", ProbePeakGflops());
    layer.Set("train.examples_per_s", examples_per_s);
    layer.Set("train.step_ms_p50", p50);
    layer.Set("train.step_ms_p90", p90);
    layer.Set("profiler.overhead_frac",
              Percentile(traced_ms, 50) / Percentile(untraced_ms, 50) - 1);
    layer.Set("trace.unattributed_frac",
              Ratio(t.calling_self_ns[static_cast<int>(Layer::kStep)],
                    t.step_ns));
    result.metrics = layer.Emit();
    result.table_text = ledger.TableText(traced, "step");
    result.table_json = ledger.TableJson(traced, "step");
    result.valid = ledger.dropped_events() == 0;
  } else {
    // The gated latency is the fast end of the distribution. On a shared
    // host, contention on the core slows a step by up to 1.8x for seconds
    // at a time, so the median and even p5 report how busy the neighbours
    // were; p1 still reads the program's own step cost.
    result.metrics = {
        {"latency_ms_p1", p1, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }
  const int64_t n = static_cast<int64_t>(untraced_ms.size());
  const double tail = HighestReportablePercentile(n, kTails);
  result.report = {
      {"examples_per_s", examples_per_s, "1/s"},
      {"step_ms_p1", p1, "ms"},
      {"step_ms_p50", p50, "ms"},
      {"step_ms_p90", p90, "ms", Reportable(n, 90)},
      {TailName("step_ms", tail), Percentile(untraced_ms, tail), "ms",
       tail > 0},
      {"step_samples", static_cast<double>(n), "count"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  trainer.reset();

  // Replay the prefix under the reference configuration.
  {
    ReferenceConfig reference(options.seed);
    std::unique_ptr<Trainer> ref = MakeTrainer(workload, options.seed, true);
    std::vector<StateSnapshot> expected = {Snapshot(*ref, 0)};
    std::string ref_error;
    for (int i = 0; i < prefix; ++i) {
      float loss = NAN;
      if (!RunStep(*ref, nullptr, &loss, &ref_error)) {
        throw std::runtime_error("reference step failed: " + ref_error);
      }
      expected.push_back(Snapshot(*ref, loss));
    }
    for (int i = 0; i <= prefix; ++i) {
      if (!measured[i].BitwiseEquals(expected[i])) {
        result.notes.push_back(
            i == 0 ? "initial variables differ from the reference"
                   : "step " + std::to_string(i) +
                         ": loss or variables differ from the reference");
        ++failed;
      }
    }
  }
  if (!error.empty()) result.notes.push_back("last step error: " + error);
  result.attempted = attempted;
  result.failed = failed;
  return result;
}

// ---- Open-loop serving --------------------------------------------------

constexpr int kSessions = 16;
constexpr int64_t kFeatures = 16;
constexpr int kHiddenLayers = 24;
constexpr int kRowPool = 256;
constexpr double kRatePerS = 3000;
constexpr double kWarmupS = 1.0;
constexpr double kGoodputLimitMs = 5.0;
// A traced serving run alternates untraced and traced windows this long.
constexpr double kTraceWindowS = 0.25;

// bench_serving's deep, narrow MLP: 25 layers of width 16, so per-request
// cost is dispatch through the executor, which batching amortizes.
tfe::Function MakeServeFunction(uint64_t seed) {
  Tensor w_in = ops::random_normal({kFeatures, 16}, 0, 0.1, OpSeed(seed, 30));
  std::vector<Tensor> hidden_w, hidden_b;
  for (int layer = 0; layer < kHiddenLayers; ++layer) {
    hidden_w.push_back(
        ops::random_normal({16, 16}, 0, 0.1, OpSeed(seed, 100 + layer)));
    hidden_b.push_back(
        ops::random_normal({16}, 0, 0.1, OpSeed(seed, 200 + layer)));
  }
  Tensor w_out = ops::random_normal({16, 16}, 0, 0.1, OpSeed(seed, 31));
  return tfe::function(
      [w_in, hidden_w, hidden_b, w_out](const std::vector<Tensor>& args) {
        Tensor h = ops::matmul(args[0], w_in);
        for (size_t layer = 0; layer < hidden_w.size(); ++layer) {
          h = ops::relu(
              ops::add(ops::matmul(h, hidden_w[layer]), hidden_b[layer]));
        }
        return std::vector<Tensor>{ops::softmax(ops::matmul(h, w_out))};
      },
      "serve_mlp");
}

// The direct, unbatched call a served response must equal bitwise.
std::vector<float> DirectCall(tfe::Function& fn, const Tensor& row) {
  std::vector<Tensor> out = fn({row});
  tfe::Status status = out[0].Materialize();
  if (!status.ok()) throw std::runtime_error(status.ToString());
  return tfe::tensor_util::ToVector<float>(out[0]);
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool Matches(const tfe::Status& status, const std::vector<Tensor>& outputs,
             const std::vector<float>& expected) {
  return status.ok() && tfe::serving::Serving::Await(outputs).ok() &&
         SameBits(tfe::tensor_util::ToVector<float>(outputs[0]), expected);
}

RunResult RunServing(const RunOptions& options) {
  RunResult result;
  Ledger ledger;
  PerLayer layer;

  const auto setup_start = Clock::now();
  tfe::EagerContext::ResetGlobal(ContextOptions(options.seed, /*async=*/true));
  if (options.trace) tfe::profiler::Start();
  tfe::Function fn = MakeServeFunction(options.seed);
  tfe::serving::Serving server;
  std::vector<tfe::serving::SessionId> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(server.OpenSession("tenant" + std::to_string(s)).value());
  }
  Rng rows_rng(Derive(options.seed, 40));
  std::vector<Tensor> rows;
  for (int r = 0; r < kRowPool; ++r) {
    rows.push_back(NormalTensor(rows_rng, {1, kFeatures}));
  }
  int64_t attempted = 1, failed = 0;
  {
    auto first = server.Submit(sessions[0], fn, {rows[0]});
    const std::vector<float> expected = DirectCall(fn, rows[0]);
    if (!first.ok() || !Matches(first.status(), *first, expected)) ++failed;
  }
  result.setup_s = SecondsSince(setup_start);
  if (options.setup_only) {
    result.attempted = attempted;
    result.failed = failed;
    return result;
  }
  if (options.trace) {
    tfe::profiler::Stop();
    ledger.Absorb();
    if (ledger.totals().trace_ns > 0) {
      layer.Set("staging.trace_ms", ledger.totals().trace_ns / 1e6);
    }
    MeasureGraphPasses(fn, {rows[0]}, &layer);
    ledger.ResetTotals();
  }
  std::vector<std::vector<float>> expected;
  for (const Tensor& row : rows) expected.push_back(DirectCall(fn, row));

  const std::vector<double> schedule = PoissonSchedule(
      Derive(options.seed, 41), kRatePerS, kWarmupS + options.seconds);
  Rng pick(Derive(options.seed, 42));
  std::vector<int> row_of(schedule.size());
  for (int& r : row_of) r = static_cast<int>(pick.Below(kRowPool));
  std::vector<RequestRecord> records(schedule.size());

  struct Submitted {
    size_t index = 0;
    tfe::Status status;
    std::vector<Tensor> outputs;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Submitted> inflight;  // guarded by mu
  bool generator_done = false;     // guarded by mu

  const Counters before = Counters::Read();
  const auto base = Clock::now() + std::chrono::milliseconds(20);
  {
    // Open loop: the generator sends each request when it is due, whatever
    // the state of earlier ones; this thread awaits them in order.
    std::jthread generator([&] {
      bool tracing = false;
      for (size_t i = 0; i < schedule.size(); ++i) {
        const auto due = base + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(schedule[i]));
        if (options.trace) {
          const bool want =
              static_cast<int64_t>(schedule[i] / kTraceWindowS) % 2 == 1;
          if (want && !tracing) {
            tfe::profiler::Start();
            ledger.TagCallingThread();
          } else if (!want && tracing) {
            tfe::profiler::Stop();
          }
          tracing = want;
        }
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        Submitted s;
        s.index = i;
        {
          Span span(options.trace ? &ledger : nullptr, Call::kSubmit);
          auto out = server.Submit(sessions[i % kSessions], fn,
                                   {rows[row_of[i]]});
          if (out.ok()) {
            s.outputs = std::move(out).value();
          } else {
            s.status = out.status();
          }
        }
        records[i].due_ms = schedule[i] * 1e3;
        records[i].submit_ms = MsBetween(base, sent);
        {
          std::lock_guard<std::mutex> lock(mu);
          inflight.push_back(std::move(s));
        }
        cv.notify_one();
      }
      if (tracing) tfe::profiler::Stop();
      {
        std::lock_guard<std::mutex> lock(mu);
        generator_done = true;
      }
      cv.notify_one();
    });

    auto last_absorb = Clock::now();
    for (;;) {
      Submitted s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || generator_done; });
        if (inflight.empty()) break;
        s = std::move(inflight.front());
        inflight.pop_front();
      }
      const bool resolved =
          s.status.ok() && tfe::serving::Serving::Await(s.outputs).ok();
      const auto done = Clock::now();
      records[s.index].done_ms = MsBetween(base, done);
      records[s.index].ok =
          resolved && Matches(s.status, s.outputs, expected[row_of[s.index]]);
      if (options.trace && MsBetween(last_absorb, done) > 100) {
        ledger.Absorb();
        last_absorb = Clock::now();
      }
    }
  }
  if (options.trace) ledger.Absorb();
  const Counters delta = Counters::Read() - before;
  const double peak_rss_mb = PeakRssMb();

  for (const RequestRecord& r : records) {
    ++attempted;
    if (!r.ok) ++failed;
  }
  result.attempted = attempted;
  result.failed = failed;

  const double window_start = kWarmupS * 1e3;
  const double window_end = (kWarmupS + options.seconds) * 1e3;
  auto traced_window = [](const RequestRecord& r) {
    return static_cast<int64_t>(r.due_ms / 1e3 / kTraceWindowS) % 2 == 1;
  };
  std::vector<RequestRecord> untraced, traced;
  for (const RequestRecord& r : records) {
    (options.trace && traced_window(r) ? traced : untraced).push_back(r);
  }
  const OpenLoopSummary all =
      SummarizeOpenLoop(records, window_start, window_end, kGoodputLimitMs);
  const OpenLoopSummary calm =
      SummarizeOpenLoop(untraced, window_start, window_end, kGoodputLimitMs);

  if (options.trace) {
    const OpenLoopSummary busy =
        SummarizeOpenLoop(traced, window_start, window_end, kGoodputLimitMs);
    const LedgerTotals& t = ledger.totals();
    SetCounterMetrics(delta, static_cast<double>(records.size()), &layer);
    SetLedgerMetrics(ledger, static_cast<double>(traced.size()), &layer);
    layer.Set("serving.submit_us_p50", Percentile(t.submit_us, 50));
    const double batched = delta("serving.batched_calls");
    const double unbatched = delta("serving.unbatched_calls");
    layer.Set("serving.mean_batch_size",
              Ratio(batched + unbatched, delta("serving.batches") + unbatched));
    layer.Set("serving.batched_frac", Ratio(batched, batched + unbatched));
    layer.Set("serving.queue_delay_us_mean",
              Ratio(delta("serving.queue_delay_us.sum"),
                    delta("serving.queue_delay_us.count")));
    if (t.executor_runs > 0) {
      layer.Set("serving.compute_us_per_batch",
                t.executor_ns / 1e3 / t.executor_runs);
    }
    layer.Set("serving.goodput_rps", all.goodput_rps);
    layer.Set("serving.latency_ms_p50", calm.latency_ms_p50);
    layer.Set("serving.latency_ms_p90", calm.latency_ms_p90);
    layer.Set("serving.latency_ms_p99", calm.latency_ms_p99);
    layer.Set("loadgen.lag_ms_p99", all.lag_ms_p99);
    layer.Set("loadgen.lag_ms_max", all.lag_ms_max);
    layer.Set("kernels.peak_gflops", ProbePeakGflops());
    layer.Set("profiler.overhead_frac",
              busy.latency_ms_p50 / calm.latency_ms_p50 - 1);
    result.metrics = layer.Emit();
    result.table_text = ledger.TableText(traced.size(), "request");
    result.table_json = ledger.TableJson(traced.size(), "request");
    result.valid = ledger.dropped_events() == 0;
  } else {
    result.metrics = {
        {"latency_ms_p1", all.latency_ms_p1, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }
  result.report = {
      {"goodput_rps", all.goodput_rps, "1/s"},
      {"latency_ms_p1", calm.latency_ms_p1, "ms"},
      {"latency_ms_p50", calm.latency_ms_p50, "ms"},
      {"latency_ms_p90", calm.latency_ms_p90, "ms",
       Reportable(calm.requests, 90)},
      {"latency_ms_p99", calm.latency_ms_p99, "ms",
       Reportable(calm.requests, 99)},
      {TailName("latency_ms", calm.tail_percentile), calm.latency_ms_tail,
       "ms", calm.tail_percentile > 0},
      {"requests", static_cast<double>(calm.requests), "count"},
      {"offered_rps", kRatePerS, "1/s"},
      {"loadgen.lag_ms_p99", all.lag_ms_p99, "ms"},
      {"loadgen.lag_ms_max", all.lag_ms_max, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* names = new std::vector<std::string>{
      "l2hmc_eager", "l2hmc_staged", "resnet_async", "serve_mlp"};
  return *names;
}

RunResult RunWorkload(const RunOptions& options) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::runtime_error("unknown workload: " + options.workload);
  }
  return options.workload == "serve_mlp" ? RunServing(options)
                                         : RunTraining(options);
}

}  // namespace perfbench
