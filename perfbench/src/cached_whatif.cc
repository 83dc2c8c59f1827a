// cached_whatif: what-if traffic served entirely from warm caches.
//
// wiki and uk x 6 algorithms x the 5 built-in scenarios = 60 requests
// against a 2-thread service whose caches were warmed in set-up. A
// history store of actual pagerank and connected_components runs on a
// separate small graph, at several worker counts, puts the baseline
// scenario's answers on the scale-out tiers of the model zoo. The
// operation is one PredictBatch of all 60 requests: sampler, engine and
// graph do no work, only the service and the back half of the pipeline
// (extrapolate, fit, bootstrap) do.

#include <memory>

#include "algorithms/runner.h"
#include "bsp/thread_pool.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace predict;

const std::vector<std::string> kDatasets = {"wiki", "uk"};

/// History worker counts: 4 configurations put pagerank on the Ernest
/// (NNLS) tier, 6 put connected_components on interpolation.
const std::vector<uint32_t> kPagerankWorkers = {8, 16, 24, 29};
const std::vector<uint32_t> kComponentsWorkers = {8, 12, 16, 20, 24, 29};

Result<HistoryStore> BuildHistory() {
  PREDICT_ASSIGN_OR_RETURN(Graph graph,
                           GeneratePreferentialAttachment({20000, 8, 0.3, 123}));
  HistoryStore store;
  const auto run = [&](const std::string& algorithm,
                       const std::vector<uint32_t>& workers,
                       const AlgorithmConfig& config) -> Status {
    for (const uint32_t w : workers) {
      RunOptions options;
      options.engine = PaperClusterOptions();
      options.engine.num_threads = 0;
      options.engine.num_workers = w;
      options.config_overrides = config;
      PREDICT_ASSIGN_OR_RETURN(AlgorithmRunResult result,
                               RunAlgorithmByName(algorithm, graph, options));
      store.Add(ProfileFromRunStats(algorithm, "history", graph.num_vertices(),
                                    graph.num_edges(), result.stats));
    }
    return Status::OK();
  };
  PREDICT_RETURN_NOT_OK(run(
      "pagerank", kPagerankWorkers,
      {{"tau", 0.001 / static_cast<double>(graph.num_vertices())}}));
  PREDICT_RETURN_NOT_OK(run("connected_components", kComponentsWorkers, {}));
  return store;
}

PredictorOptions WhatifOptions(const HistoryStore* history) {
  PredictorOptions options;
  options.engine = PaperClusterOptions();
  options.engine.num_threads = 0;
  options.history = history;
  return options;
}

struct WhatifSetup {
  std::vector<Graph> graphs;  // parallel to kDatasets
  HistoryStore history;
  std::unique_ptr<PredictionService> service;
  std::vector<PredictionRequest> requests;
  /// Digests of the warm-up answers: every timed answer must match.
  std::vector<uint64_t> first_digests;
  std::vector<PredictionReport> first_answers;
};

Result<std::unique_ptr<WhatifSetup>> BuildSetup() {
  auto setup = std::make_unique<WhatifSetup>();
  for (const std::string& name : kDatasets) {
    PREDICT_ASSIGN_OR_RETURN(Graph graph, MakeDataset(name, 1.0));
    setup->graphs.push_back(std::move(graph));
  }
  PREDICT_ASSIGN_OR_RETURN(setup->history, BuildHistory());
  PredictionServiceOptions service_options;
  service_options.predictor = WhatifOptions(&setup->history);
  service_options.num_threads = 2;
  setup->service = std::make_unique<PredictionService>(service_options);
  for (size_t d = 0; d < kDatasets.size(); ++d) {
    for (const std::string& algorithm : kAlgorithms) {
      for (const bsp::ClusterScenario& scenario : bsp::BuiltinScenarios()) {
        PredictionRequest request;
        request.algorithm = algorithm;
        request.graph = &setup->graphs[d];
        request.dataset = kDatasets[d];
        request.scenario = scenario;
        setup->requests.push_back(std::move(request));
      }
    }
  }
  // Warm-up fills both caches, one request at a time: profile runs that
  // overlap on pool threads leave the allocator's per-thread arenas
  // fragmented in a timing-dependent way, and the process's peak memory
  // then varied by 30% between runs.
  for (const PredictionRequest& request : setup->requests) {
    auto report = setup->service->Predict(request);
    if (!report.ok()) return report.status();
  }
  // The run's first answers, served warm.
  for (auto& report : setup->service->PredictBatch(setup->requests)) {
    if (!report.ok()) return report.status();
    setup->first_digests.push_back(Digest(report));
    setup->first_answers.push_back(std::move(report).MoveValue());
  }
  return setup;
}

}  // namespace

WorkloadResult RunCachedWhatif(const BenchOptions& options) {
  WorkloadResult result;
  std::vector<double> setups_s;
  const std::unique_ptr<WhatifSetup> setup =
      RepeatSetup(options, BuildSetup, setups_s, result);
  if (setup == nullptr) return result;
  PredictionService& service = *setup->service;
  const std::vector<PredictionRequest>& requests = setup->requests;

  // Guard: at least one answer on the scale-out (NNLS) tier.
  bool nnls = false;
  for (const PredictionReport& report : setup->first_answers) {
    nnls = nnls || report.model_selection.tier == models::ModelTier::kErnest;
  }
  if (!nnls) result.Fail("guard: no answer on the Ernest (NNLS) tier");

  // Replay inputs (traced run): the artifacts the warm caches hold.
  const PredictorOptions with_history = WhatifOptions(&setup->history);
  const PredictionPipeline stages(with_history);
  const PredictionPipeline history_free(WhatifOptions(nullptr));
  const std::string baseline_key = bsp::EngineOptionsKey(with_history.engine);
  std::vector<pipeline::SampleArtifact> samples;
  std::vector<pipeline::TransformArtifact> transforms;
  std::vector<pipeline::ProfileArtifact> profiles;
  if (options.trace) {
    for (const Graph& graph : setup->graphs) {
      auto sample = stages.sample.Run(graph);
      if (!sample.ok()) {
        result.Fail("replay sample: " + sample.status().ToString());
        return result;
      }
      samples.push_back(std::move(sample).MoveValue());
    }
    for (const PredictionRequest& request : requests) {
      const size_t d = request.graph == &setup->graphs[0] ? 0 : 1;
      auto transform = stages.transform.Run(request.algorithm, {},
                                            samples[d].realized_ratio());
      if (!transform.ok()) {
        result.Fail("replay transform: " + transform.status().ToString());
        return result;
      }
      auto profile = stages.profile.RunWithEngine(
          request.algorithm, request.dataset, samples[d], *transform,
          request.scenario->ToEngineOptions(0));
      if (!profile.ok()) {
        result.Fail("replay profile: " + profile.status().ToString());
        return result;
      }
      transforms.push_back(std::move(transform).MoveValue());
      profiles.push_back(std::move(profile).MoveValue());
    }
  }

  Tracer tracer(options.trace);
  LayerCounters counters;
  double request_us = 0.0;
  double traced_capacity_us = 0.0;
  // PredictBatch runs on the pool threads and the calling thread.
  const double participants =
      static_cast<double>(service.options().num_threads + 1);

  OpLog ops;
  uint64_t mismatched_ops = 0;
  const auto loop_start = Clock::now();
  for (uint64_t id = 1;
       SecondsBetween(loop_start, Clock::now()) <= options.seconds; ++id) {
    const bool traced = options.trace && id % 2 == 0;
    const ServiceCacheStats before = service.cache_stats();
    const int64_t op = traced ? tracer.Begin("op", -1, id) : -1;
    const auto start = Clock::now();
    const std::vector<Result<PredictionReport>> reports =
        traced ? tracer.Time("service.predict_batch", op, id,
                             [&] { return service.PredictBatch(requests); })
               : service.PredictBatch(requests);
    const double latency_s = SecondsBetween(start, Clock::now());
    tracer.End(op);
    AccumulateCacheDelta(counters.cache, before, service.cache_stats());

    ++result.attempted;
    bool same = reports.size() == requests.size();
    double completed = 0;
    for (size_t i = 0; i < reports.size(); ++i) {
      completed += reports[i].ok() ? 1 : 0;
      same = same && Digest(reports[i]) == setup->first_digests[i];
    }
    ops.Add(1e3 * latency_s, completed);
    if (!same) ++mismatched_ops;
    if (!options.trace) continue;
    if (!traced) {
      counters.untraced_ms[0].push_back(1e3 * latency_s);
      continue;
    }
    counters.traced_ms[0].push_back(1e3 * latency_s);
    traced_capacity_us += 1e6 * latency_s * participants;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!reports[i].ok()) continue;
      counters.AddAnswer(*reports[i]);
      const PredictionRequest& request = requests[i];
      const size_t d = request.graph == &setup->graphs[0] ? 0 : 1;
      const PredictionPipeline& assemble_stages = StagesForDeployment(
          bsp::ScenarioKey(*request.scenario), baseline_key, stages,
          history_free);
      const double assemble_us = ReplayCore(
          tracer, op, id, assemble_stages, *request.graph, request.algorithm,
          request.dataset, samples[d], transforms[i], profiles[i]);
      ReplayWarmPredict(tracer, op, id, service, request, assemble_us,
                        counters);
    }
    request_us += tracer.RequestTotalUs("service.warm_predict", id);
  }
  counters.layer_share =
      traced_capacity_us > 0 ? request_us / traced_capacity_us : 0.0;

  if (!options.trace) {
    AddEndToEnd(result, setups_s, ops);
  }

  // Guard: timed batches never miss a cache.
  if (counters.cache.sample_misses != 0 || counters.cache.profile_misses != 0) {
    result.Fail("guard: cache misses in timed batches");
  }

  // Correctness, outside the timed loop. Every timed answer matched the
  // run's first answers (above); those are checked against a cache-free
  // Predictor for every scenario of each dataset, under a seeded pick of
  // algorithm per dataset, plus pagerank (the NNLS-tier answers). The
  // sweeps fan out over a pool; the answers do not depend on it.
  result.failed = mismatched_ops;
  if (mismatched_ops != 0) {
    result.Fail(std::to_string(mismatched_ops) +
                " batches differ from the first answers");
  }
  const std::vector<bsp::ClusterScenario>& scenarios = bsp::BuiltinScenarios();
  const size_t offset = SeededGen(options.seed).Below(kAlgorithms.size());
  Predictor predictor(with_history);
  bsp::ThreadPool pool(2);
  size_t checked = 0;
  for (size_t d = 0; d < kDatasets.size(); ++d) {
    std::vector<size_t> algorithms = {0};  // pagerank
    const size_t picked = (offset + d) % kAlgorithms.size();
    if (picked != 0) algorithms.push_back(picked);
    for (const size_t a : algorithms) {
      const size_t first = (d * kAlgorithms.size() + a) * scenarios.size();
      const auto reference = predictor.PredictAcrossScenarios(
          kAlgorithms[a], setup->graphs[d], kDatasets[d], {}, scenarios,
          &pool);
      for (size_t s = 0; s < scenarios.size(); ++s, ++checked) {
        if (Digest(reference[s]) == setup->first_digests[first + s]) continue;
        // Every timed batch repeated the first answers, so all were wrong.
        result.failed = result.attempted;
        result.Fail(kAlgorithms[a] + "/" + kDatasets[d] + "/" +
                    scenarios[s].name + " differs from Predictor");
      }
    }
  }
  result.info["checked_requests"] = std::to_string(checked);
  result.info["requests_per_op"] = std::to_string(requests.size());

  if (options.trace) FinishTrace(result, options, tracer, counters);
  return result;
}

}  // namespace perfbench
