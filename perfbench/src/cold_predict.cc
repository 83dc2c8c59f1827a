// cold_predict: every request pays for sampling and a full profile run.
//
// lj, wiki and uk at scale 1.0 x 6 algorithms, the paper cluster, the
// default BRJ sampler at 10%, no history, engine.num_threads = 2. A round
// clears the service's caches and issues the 18 requests one Predict at
// a time in a seeded order; the operation is one Predict. The sample
// cache is off, so every request walks and extracts its own sample and
// the seeded order never decides which request pays for it. Only whole
// rounds run, so every run weighs the 18 requests equally.

#include <memory>
#include <numeric>

#include "datasets/datasets.h"
#include "graph/transforms.h"
#include "harness.h"
#include "sampling/sampler.h"

namespace perfbench {
namespace {

using namespace predict;

const std::vector<std::string> kDatasets = {"lj", "wiki", "uk"};

PredictorOptions ColdOptions() {
  PredictorOptions options;
  options.engine = PaperClusterOptions();
  options.engine.num_threads = 2;
  return options;
}

struct ColdSetup {
  std::vector<Graph> graphs;  // parallel to kDatasets
  std::unique_ptr<PredictionService> service;
  std::vector<PredictionRequest> requests;
  std::vector<size_t> dataset_of;  // request -> index into graphs
};

Result<std::unique_ptr<ColdSetup>> BuildSetup() {
  auto setup = std::make_unique<ColdSetup>();
  for (const std::string& name : kDatasets) {
    PREDICT_ASSIGN_OR_RETURN(Graph graph, MakeDataset(name, 1.0));
    setup->graphs.push_back(std::move(graph));
  }
  PredictionServiceOptions service_options;
  service_options.predictor = ColdOptions();
  service_options.num_threads = 0;  // one Predict at a time, inline
  service_options.enable_sample_cache = false;
  setup->service = std::make_unique<PredictionService>(service_options);
  for (size_t d = 0; d < kDatasets.size(); ++d) {
    for (const std::string& algorithm : kAlgorithms) {
      PredictionRequest request;
      request.algorithm = algorithm;
      request.graph = &setup->graphs[d];
      request.dataset = kDatasets[d];
      setup->requests.push_back(std::move(request));
      setup->dataset_of.push_back(d);
    }
  }
  return setup;
}

}  // namespace

WorkloadResult RunColdPredict(const BenchOptions& options) {
  WorkloadResult result;
  std::vector<double> setups_s;
  const std::unique_ptr<ColdSetup> setup =
      RepeatSetup(options, BuildSetup, setups_s, result);
  if (setup == nullptr) return result;
  PredictionService& service = *setup->service;
  const PredictionPipeline stages(ColdOptions());

  Tracer tracer(options.trace);
  LayerCounters counters;
  std::vector<std::unique_ptr<pipeline::SampleArtifact>> samples(
      kDatasets.size());
  double profile_us = 0.0;
  double traced_op_us = 0.0;

  SeededGen gen(options.seed);
  std::vector<size_t> order(setup->requests.size());
  std::iota(order.begin(), order.end(), 0);
  OpLog ops;
  std::vector<std::pair<size_t, uint64_t>> answers;  // request, digest
  uint64_t op_id = 0;

  const auto loop_start = Clock::now();
  double last_round_s = 0.0;
  for (uint64_t round = 0;; ++round) {
    const double elapsed = SecondsBetween(loop_start, Clock::now());
    if (round > 0 && elapsed + last_round_s > options.seconds) break;
    const auto round_start = Clock::now();
    service.ClearCaches();
    gen.Shuffle(order);
    for (const size_t index : order) {
      const PredictionRequest& request = setup->requests[index];
      // Each request is traced in every other round, so the traced and
      // untraced halves weigh the 18 requests alike.
      const bool traced = options.trace && (round + index) % 2 == 0;
      const uint64_t id = ++op_id;

      const ServiceCacheStats before = service.cache_stats();
      const int64_t op = traced ? tracer.Begin("op", -1, id) : -1;
      const auto start = Clock::now();
      Result<PredictionReport> report =
          traced ? tracer.Time("service.predict", op, id,
                               [&] { return service.Predict(request); })
                 : service.Predict(request);
      const double latency_s = SecondsBetween(start, Clock::now());
      tracer.End(op);
      const ServiceCacheStats after = service.cache_stats();
      AccumulateCacheDelta(counters.cache, before, after);

      ops.Add(1e3 * latency_s, report.ok() ? 1 : 0);
      ++result.attempted;
      answers.push_back({index, Digest(report)});
      if (!options.trace) continue;
      if (!traced) {
        counters.untraced_ms[index].push_back(1e3 * latency_s);
        continue;
      }
      counters.traced_ms[index].push_back(1e3 * latency_s);
      if (!report.ok()) continue;
      counters.AddAnswer(*report);

      // Replay the layers this request paid for, under the op's span.
      const size_t d = setup->dataset_of[index];
      const Graph& graph = setup->graphs[d];
      if (after.sample_misses > before.sample_misses) {
        auto vertices = tracer.Time("sampling.walk", op, id, [&] {
          return SampleVertices(graph, stages.sample.options());
        });
        if (vertices.ok()) {
          tracer.Time("graph.induced_subgraph", op, id,
                      [&] { return InducedSubgraph(graph, *vertices); });
        }
      }
      if (samples[d] == nullptr) {
        auto sample = stages.sample.Run(graph);
        if (!sample.ok()) continue;
        samples[d] = std::make_unique<pipeline::SampleArtifact>(
            std::move(sample).MoveValue());
      }
      auto transform = stages.transform.Run(request.algorithm, {},
                                            samples[d]->realized_ratio());
      if (!transform.ok()) continue;
      auto profile = tracer.Time("pipeline.profile", op, id, [&] {
        return stages.profile.Run(request.algorithm, request.dataset,
                                  *samples[d], *transform);
      });
      if (!profile.ok()) continue;
      profile_us += tracer.RequestTotalUs("pipeline.profile", id);
      traced_op_us += 1e6 * latency_s;
      ReplayEngine(tracer, op, id, request.algorithm, *samples[d], *transform,
                   stages.profile.engine(), counters);
      ReplayCore(tracer, op, id, stages, graph, request.algorithm,
                 request.dataset, *samples[d], *transform, *profile);
      // The service's own cost: the request minus the layers it paid for.
      double layers_us = 0.0;
      for (const char* name : {"sampling.walk", "graph.induced_subgraph",
                               "pipeline.profile", "core.assemble"}) {
        layers_us += tracer.RequestTotalUs(name, id);
      }
      counters.overhead_us.push_back(1e6 * latency_s - layers_us);
    }
    last_round_s = SecondsBetween(round_start, Clock::now());
  }
  counters.layer_share = traced_op_us > 0 ? profile_us / traced_op_us : 0.0;

  if (!options.trace) {
    AddEndToEnd(result, setups_s, ops);
  }

  // Guard: a cold round never serves a profile from the cache.
  if (counters.cache.profile_hits != 0) {
    result.Fail("guard: " + std::to_string(counters.cache.profile_hits) +
                " profile-cache hits in cold rounds");
  }

  // Correctness, outside the timed loop: every answer against a
  // cache-free Predictor on the same input.
  Predictor predictor(ColdOptions());
  std::vector<uint64_t> reference;
  for (const PredictionRequest& request : setup->requests) {
    auto report = predictor.PredictRuntime(request.algorithm, *request.graph,
                                           request.dataset);
    if (!report.ok()) {
      result.Fail("reference " + request.algorithm + "/" + request.dataset +
                  ": " + report.status().ToString());
    }
    reference.push_back(Digest(report));
  }
  uint64_t mismatches = 0;
  for (const auto& [index, digest] : answers) {
    if (digest != reference[index]) ++mismatches;
  }
  result.failed = mismatches;
  if (mismatches != 0) {
    result.Fail(std::to_string(mismatches) + " answers differ from Predictor");
  }
  result.info["rounds_requests"] = std::to_string(setup->requests.size());

  if (options.trace) FinishTrace(result, options, tracer, counters);
  return result;
}

}  // namespace perfbench
