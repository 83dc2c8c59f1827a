// Shared pieces of the perfbench binary: command-line options, a seeded
// generator, the in-memory span tracer, latency statistics, the report
// digest used by the correctness checks, and the result a workload hands
// back to main() for printing.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/predictor.h"
#include "service/prediction_service.h"

namespace perfbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_build";
};

/// Set-ups per untraced run; setup_s reports their median.
inline constexpr int kSetupRepeats = 3;

/// The algorithms every workload predicts.
inline const std::vector<std::string> kAlgorithms = {
    "pagerank",     "connected_components", "topk_ranking",
    "neighborhood", "semiclustering",       "rwr_proximity"};

/// SplitMix64: the benchmark's own seeded generator (request orders, the
/// churn stream), so inputs depend on --seed and nothing else.
class SeededGen {
 public:
  explicit SeededGen(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded span: a layer call made by the benchmark.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  /// Index of the causing span in Tracer::spans(), -1 for a root.
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Keeps spans in memory; Write() dumps them as Chrome trace-event JSON
/// when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t id);

  /// Runs fn() inside a span and returns its result.
  template <typename Fn>
  auto Time(const char* name, int64_t parent, uint64_t request, Fn&& fn) {
    const int64_t id = Begin(name, parent, request);
    struct Closer {
      Tracer* tracer;
      int64_t id;
      ~Closer() { tracer->End(id); }
    } closer{this, id};
    return fn();
  }

  /// Durations (microseconds) of every closed span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Sum of the durations of spans called `name` whose request is
  /// `request`, which must be the latest request that recorded spans.
  double RequestTotalUs(const std::string& name, uint64_t request) const;

  predict::Status Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double Median(std::vector<double> values);

/// Operations per block of the tail and throughput statistics.
inline constexpr size_t kBlockOps = 250;

/// The timed operations, in the order they ran.
struct OpLog {
  std::vector<double> latency_ms;
  /// Predictions each operation completed.
  std::vector<double> predictions;

  void Add(double ms, double completed) {
    latency_ms.push_back(ms);
    predictions.push_back(completed);
  }
};

/// End-to-end summary of an OpLog. The run is cut into blocks of at
/// least kBlockOps consecutive operations (one block if it is shorter);
/// tail and throughput are medians of the per-block values, so a short
/// stall of the host moves one block, not the run's figure.
struct LatencySummary {
  /// Median over all operations.
  double p50_ms = 0.0;
  /// Per block: latency at the highest percentile with >= 10 samples
  /// beyond it.
  double tail_ms = 0.0;
  double tail_percentile = 0.0;
  /// Per block: predictions completed / time inside the operations.
  double predictions_per_s = 0.0;
  size_t samples = 0;
  size_t blocks = 0;
};
LatencySummary Summarize(const OpLog& ops);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// 64-bit FNV-1a digest of the deterministic content of a report: the
/// fields churn_gate's Canonical() compares (plus the scenario), which
/// leave out sample_wall_seconds, accounting and the stages_* counters
/// (properties of the execution, not of the prediction).
uint64_t Digest(const predict::Result<predict::PredictionReport>& result);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Extra facts printed on the info line (sample counts, guards, ...).
  std::map<std::string, std::string> info;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, Metric{value, unit}});
  }
  /// Records a failed correctness check or guard.
  void Fail(const std::string& what);
};

/// Builds a workload's set-up with `build` (returning
/// Result<std::unique_ptr<T>>): kSetupRepeats times in an untraced run,
/// each from scratch, recording each duration in `setups_s`; once in a
/// traced run. Returns the last set-up, or null after recording the
/// failure in `result`.
template <typename Build>
auto RepeatSetup(const BenchOptions& options, Build&& build,
                 std::vector<double>& setups_s, WorkloadResult& result)
    -> decltype(build().MoveValue()) {
  decltype(build().MoveValue()) setup;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    setup.reset();
    const auto start = Clock::now();
    auto built = build();
    if (!built.ok()) {
      result.Fail("setup: " + built.status().ToString());
      return nullptr;
    }
    setup = std::move(built).MoveValue();
    setups_s.push_back(SecondsBetween(start, Clock::now()));
  }
  return setup;
}

/// The end-to-end metrics every workload reports from its untraced run.
void AddEndToEnd(WorkloadResult& result, const std::vector<double>& setups_s,
                 const OpLog& ops);

/// Counts a traced run gathers beside its spans.
struct LayerCounters {
  // sampling: RunIncremental replays.
  uint64_t segments_total = 0;
  uint64_t segments_reused = 0;
  // service: cache_stats() deltas taken around the timed operations.
  predict::ServiceCacheStats cache;
  /// Request latency minus the replayed layer calls the request paid for.
  std::vector<double> overhead_us;
  // bsp: RunAlgorithmByName replays on the sample.
  std::vector<double> supersteps;
  uint64_t dense_steps = 0;
  uint64_t total_steps = 0;
  std::vector<double> dense_step_us;
  std::vector<double> sparse_step_us;
  double messages = 0.0;
  double engine_seconds = 0.0;
  // core: model tier of each distinct request, from its traced answers.
  std::map<std::string, predict::models::ModelTier> tiers;
  // bench: latencies of the interleaved traced / untraced operations,
  // per kind of operation (a workload whose operations differ, such as
  // cold_predict's 18 requests, compares each kind with itself).
  std::map<size_t, std::vector<double>> traced_ms;
  std::map<size_t, std::vector<double>> untraced_ms;
  /// Share of the operation time spent in the layer the workload
  /// targets (definition per workload, see perfbench/README.md).
  double layer_share = 0.0;

  void AddRun(const predict::bsp::RunStats& stats);
  void AddAnswer(const predict::PredictionReport& report);
};

/// Adds every per-layer metric, in BENCHMARK.json order, and writes the
/// spans to <out_dir>/trace-<workload>-<seed>.json. Span-derived timings
/// are medians per call; a layer the workload never called reports 0.
void FinishTrace(WorkloadResult& result, const BenchOptions& options,
                 const Tracer& tracer, const LayerCounters& counters);

/// Replays the back half of one request (extrapolate, fit, bootstrap,
/// then the whole AssemblePredictionReport) as spans under `parent`.
/// Returns the assemble span's duration in microseconds (0 on error).
double ReplayCore(Tracer& tracer, int64_t parent, uint64_t request,
                  const predict::PredictionPipeline& stages,
                  const predict::Graph& graph, const std::string& algorithm,
                  const std::string& dataset,
                  const predict::pipeline::SampleArtifact& sample,
                  const predict::pipeline::TransformArtifact& transform,
                  const predict::pipeline::ProfileArtifact& profile);

/// Replays the engine run of ProfileStage on the sample through
/// RunAlgorithmByName and records its RunStats.
void ReplayEngine(Tracer& tracer, int64_t parent, uint64_t request,
                  const std::string& algorithm,
                  const predict::pipeline::SampleArtifact& sample,
                  const predict::pipeline::TransformArtifact& transform,
                  const predict::bsp::EngineOptions& engine,
                  LayerCounters& counters);

/// Issues `request` once more against the warm service and records the
/// service's own cost: its latency minus `assemble_us`.
void ReplayWarmPredict(Tracer& tracer, int64_t parent, uint64_t request_id,
                       predict::PredictionService& service,
                       const predict::PredictionRequest& request,
                       double assemble_us, LayerCounters& counters);

/// Adds the difference of two cache_stats() snapshots to `sum`.
void AccumulateCacheDelta(predict::ServiceCacheStats& sum,
                          const predict::ServiceCacheStats& before,
                          const predict::ServiceCacheStats& after);

WorkloadResult RunColdPredict(const BenchOptions& options);
WorkloadResult RunChurnPeriphery(const BenchOptions& options);
WorkloadResult RunCachedWhatif(const BenchOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
