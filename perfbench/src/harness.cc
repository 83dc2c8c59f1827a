#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "algorithms/runner.h"
#include "core/distribution.h"

namespace perfbench {

using namespace predict;

uint64_t SeededGen::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.end_us - span.start_us);
  }
  return out;
}

double Tracer::RequestTotalUs(const std::string& name,
                              uint64_t request) const {
  // Requests record their spans one after another: scan back over the
  // latest request's run of spans only.
  double total = 0.0;
  for (auto it = spans_.rbegin(); it != spans_.rend() && it->request == request;
       ++it) {
    if (name == it->name) total += it->end_us - it->start_us;
  }
  return total;
}

Status Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start_us,
                 s.end_us - s.start_us, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot close " + path);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LatencySummary Summarize(const OpLog& ops) {
  LatencySummary summary;
  const size_t n = ops.latency_ms.size();
  summary.samples = n;
  if (n == 0) return summary;
  summary.p50_ms = Median(ops.latency_ms);
  summary.blocks = std::max<size_t>(1, n / kBlockOps);
  std::vector<double> tails;
  std::vector<double> rates;
  for (size_t b = 0; b < summary.blocks; ++b) {
    const size_t begin = b * n / summary.blocks;
    const size_t end = (b + 1) * n / summary.blocks;
    std::vector<double> block(ops.latency_ms.begin() + begin,
                              ops.latency_ms.begin() + end);
    double busy_ms = 0.0;
    double predictions = 0.0;
    for (size_t i = begin; i < end; ++i) {
      busy_ms += ops.latency_ms[i];
      predictions += ops.predictions[i];
    }
    rates.push_back(busy_ms > 0 ? 1e3 * predictions / busy_ms : 0.0);
    std::sort(block.begin(), block.end());
    // Ten samples strictly beyond index size - 11; with fewer than 11
    // samples the maximum is the best the block supports.
    const size_t index = block.size() > 10 ? block.size() - 11
                                           : block.size() - 1;
    tails.push_back(block[index]);
    summary.tail_percentile = 100.0 * static_cast<double>(index + 1) /
                              static_cast<double>(block.size());
  }
  summary.tail_ms = Median(tails);
  summary.predictions_per_s = Median(rates);
  return summary;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string Canonical(const Result<PredictionReport>& result) {
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  const PredictionReport& r = *result;
  char buf[96];
  std::string out = r.algorithm + "|" + r.dataset + "|" + r.scenario + "|";
  out += std::to_string(r.predicted_iterations) + "|";
  for (const double s : r.per_iteration_seconds) {
    std::snprintf(buf, sizeof(buf), "%.17g,", s);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|%.17g",
                r.predicted_superstep_seconds, r.distribution.p50_seconds,
                r.distribution.p95_seconds);
  out += buf;
  out += "|" + r.runtime_model_description + "|" + r.transform_description;
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

uint64_t Digest(const Result<PredictionReport>& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : Canonical(result)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void WorkloadResult::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
  std::string& failures = info["failures"];
  if (!failures.empty()) failures += "; ";
  failures += what;
}

void AddEndToEnd(WorkloadResult& result, const std::vector<double>& setups_s,
                 const OpLog& ops) {
  const LatencySummary summary = Summarize(ops);
  result.Add("setup_s", Median(setups_s), "s");
  result.Add("latency_p50_ms", summary.p50_ms, "ms");
  result.Add("latency_tail_ms", summary.tail_ms, "ms");
  result.Add("predictions_per_s", summary.predictions_per_s, "1/s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.2f", summary.tail_percentile);
  result.info["latency_tail_percentile"] = buf;
  result.info["latency_samples"] = std::to_string(summary.samples);
  result.info["latency_blocks"] = std::to_string(summary.blocks);
  result.info["setup_repeats"] = std::to_string(setups_s.size());
}

void LayerCounters::AddRun(const bsp::RunStats& stats) {
  supersteps.push_back(static_cast<double>(stats.num_supersteps()));
  for (const bsp::SuperstepStats& step : stats.supersteps) {
    ++total_steps;
    if (step.dense_path) {
      ++dense_steps;
      dense_step_us.push_back(1e6 * step.host_seconds);
    } else {
      sparse_step_us.push_back(1e6 * step.host_seconds);
    }
    messages += static_cast<double>(step.Totals().total_messages());
    engine_seconds += step.host_seconds;
  }
}

void LayerCounters::AddAnswer(const PredictionReport& report) {
  tiers[report.algorithm + "|" + report.dataset + "|" + report.scenario] =
      report.model_selection.tier;
}

void AccumulateCacheDelta(ServiceCacheStats& sum,
                          const ServiceCacheStats& before,
                          const ServiceCacheStats& after) {
  sum.sample_hits += after.sample_hits - before.sample_hits;
  sum.sample_misses += after.sample_misses - before.sample_misses;
  sum.profile_hits += after.profile_hits - before.profile_hits;
  sum.profile_misses += after.profile_misses - before.profile_misses;
  sum.incremental_sample_updates +=
      after.incremental_sample_updates - before.incremental_sample_updates;
  sum.incremental_segments_reused +=
      after.incremental_segments_reused - before.incremental_segments_reused;
}

void FinishTrace(WorkloadResult& result, const BenchOptions& options,
                 const Tracer& tracer, const LayerCounters& c) {
  const auto ms = [&](const char* span) {
    return Median(tracer.DurationsUs(span)) / 1e3;
  };
  const auto us = [&](const char* span) {
    return Median(tracer.DurationsUs(span));
  };
  result.Add("graph.apply_ms", ms("graph.apply"), "ms");
  result.Add("graph.compact_ms", ms("graph.compact"), "ms");
  result.Add("graph.fingerprint_ms", ms("graph.fingerprint"), "ms");
  result.Add("graph.dirty_diff_ms", ms("graph.dirty_diff"), "ms");
  result.Add("graph.copy_ms", ms("graph.copy"), "ms");
  result.Add("graph.induced_subgraph_ms", ms("graph.induced_subgraph"), "ms");
  result.Add("sampling.walk_ms", ms("sampling.walk"), "ms");
  result.Add("sampling.incremental_ms", ms("sampling.incremental"), "ms");
  result.Add("sampling.segments_reused_frac",
             Ratio(static_cast<double>(c.segments_reused),
                   static_cast<double>(c.segments_total)),
             "frac");
  result.Add("service.incremental_updates",
             static_cast<double>(c.cache.incremental_sample_updates), "count");
  result.Add("pipeline.profile_ms", ms("pipeline.profile"), "ms");
  result.Add("bsp.supersteps", Median(c.supersteps), "count");
  result.Add("bsp.dense_frac",
             Ratio(static_cast<double>(c.dense_steps),
                   static_cast<double>(c.total_steps)),
             "frac");
  result.Add("bsp.dense_step_us", Median(c.dense_step_us), "us");
  result.Add("bsp.sparse_step_us", Median(c.sparse_step_us), "us");
  result.Add("bsp.messages_per_s", Ratio(c.messages, c.engine_seconds), "1/s");
  result.Add("core.extrapolate_us", us("core.extrapolate"), "us");
  result.Add("core.fit_us", us("core.fit"), "us");
  result.Add("core.bootstrap_us", us("core.bootstrap"), "us");
  result.Add("core.assemble_us", us("core.assemble"), "us");
  for (const auto& [name, tier] :
       {std::pair{"core.tier.paper", models::ModelTier::kPaper},
        std::pair{"core.tier.mean", models::ModelTier::kMean},
        std::pair{"core.tier.ernest", models::ModelTier::kErnest},
        std::pair{"core.tier.interpolation",
                  models::ModelTier::kInterpolation}}) {
    double count = 0.0;
    for (const auto& entry : c.tiers) count += entry.second == tier ? 1 : 0;
    result.Add(name, count, "count");
  }
  result.Add("service.overhead_us", Median(c.overhead_us), "us");
  result.Add("service.sample_hit_frac",
             Ratio(static_cast<double>(c.cache.sample_hits),
                   static_cast<double>(c.cache.sample_hits +
                                       c.cache.sample_misses)),
             "frac");
  result.Add("service.profile_hit_frac",
             Ratio(static_cast<double>(c.cache.profile_hits),
                   static_cast<double>(c.cache.profile_hits +
                                       c.cache.profile_misses)),
             "frac");
  std::vector<double> ratios;
  size_t traced_ops = 0;
  size_t untraced_ops = 0;
  for (const auto& [kind, traced] : c.traced_ms) {
    traced_ops += traced.size();
    const auto it = c.untraced_ms.find(kind);
    if (it == c.untraced_ms.end()) continue;
    const double untraced = Median(it->second);
    if (untraced > 0) ratios.push_back(Median(traced) / untraced);
  }
  for (const auto& entry : c.untraced_ms) untraced_ops += entry.second.size();
  result.Add("bench.trace_overhead_frac",
             ratios.empty() ? 0.0 : Median(ratios) - 1.0, "frac");
  result.Add("bench.layer_share", c.layer_share, "frac");
  result.info["traced_ops"] = std::to_string(traced_ops);
  result.info["untraced_ops"] = std::to_string(untraced_ops);

  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  const Status written = tracer.Write(path);
  result.info["trace_file"] = written.ok() ? path : written.ToString();
}

double ReplayCore(Tracer& tracer, int64_t parent, uint64_t request,
                  const PredictionPipeline& stages, const Graph& graph,
                  const std::string& algorithm, const std::string& dataset,
                  const pipeline::SampleArtifact& sample,
                  const pipeline::TransformArtifact& transform,
                  const pipeline::ProfileArtifact& profile) {
  auto extrapolation = tracer.Time("core.extrapolate", parent, request, [&] {
    return stages.extrapolate.Run(graph, sample, profile);
  });
  auto model = tracer.Time("core.fit", parent, request, [&] {
    return stages.fit.Run(profile, algorithm, dataset);
  });
  if (extrapolation.ok() && model.ok() && model->runtime_model != nullptr) {
    const double scale_out =
        static_cast<double>(extrapolation->extrapolated_profile.num_workers);
    std::vector<double> per_iteration;
    for (const IterationProfile& it :
         extrapolation->extrapolated_profile.iterations) {
      per_iteration.push_back(model->runtime_model->PredictIterationSeconds(
          it.critical_features, scale_out));
    }
    tracer.Time("core.bootstrap", parent, request, [&] {
      return BootstrapDistribution(per_iteration, model->residuals,
                                   profile.straggler_spread, stages.bootstrap);
    });
  }
  const int64_t id = tracer.Begin("core.assemble", parent, request);
  const auto start = Clock::now();
  auto report = AssemblePredictionReport(stages, graph, algorithm, dataset,
                                         sample, transform, profile);
  const double assemble_us = 1e6 * SecondsBetween(start, Clock::now());
  tracer.End(id);
  return report.ok() ? assemble_us : 0.0;
}

void ReplayEngine(Tracer& tracer, int64_t parent, uint64_t request,
                  const std::string& algorithm,
                  const pipeline::SampleArtifact& sample,
                  const pipeline::TransformArtifact& transform,
                  const bsp::EngineOptions& engine, LayerCounters& counters) {
  RunOptions run_options;
  run_options.engine = engine;
  run_options.config_overrides = transform.sample_config;
  auto run = tracer.Time("bsp.run", parent, request, [&] {
    return RunAlgorithmByName(algorithm, sample.sample.subgraph, run_options);
  });
  if (run.ok()) counters.AddRun(run->stats);
}

void ReplayWarmPredict(Tracer& tracer, int64_t parent, uint64_t request_id,
                       PredictionService& service,
                       const PredictionRequest& request, double assemble_us,
                       LayerCounters& counters) {
  const int64_t id = tracer.Begin("service.warm_predict", parent, request_id);
  const auto start = Clock::now();
  auto report = service.Predict(request);
  const double latency_us = 1e6 * SecondsBetween(start, Clock::now());
  tracer.End(id);
  if (report.ok() && assemble_us > 0) {
    counters.overhead_us.push_back(latency_us - assemble_us);
  }
}

}  // namespace perfbench
