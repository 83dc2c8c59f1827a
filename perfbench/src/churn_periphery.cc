// churn_periphery: the write path beside the read path.
//
// wiki, canonicalized into an EvolvingGraph; the RJ sampler at 10% with
// 512-step walk segments (as churn_gate uses); a 2-thread service pool
// over an inline engine. A round applies one pre-generated batch of 1%
// edge churn confined to vertices the base walk never touched, compacts
// (Current()), and re-predicts the 6 algorithms on the new version with
// one PredictBatch. The operation is one round, Apply and compaction
// included.

#include <memory>

#include "datasets/datasets.h"
#include "graph/delta.h"
#include "harness.h"
#include "sampling/sampler.h"

namespace perfbench {
namespace {

using namespace predict;

constexpr double kChurnFraction = 0.01;
/// Churn batches generated per second of --seconds. Rounds take about
/// 1/30 s here, so a run normally applies the whole stream and ends
/// early: every run then measures the same number of rounds, and the
/// memory the service keeps per graph version adds up to the same peak.
/// On a slower host the time limit ends the stream instead.
constexpr double kBatchesPerSecond = 20.0;

PredictorOptions ChurnOptions() {
  PredictorOptions options;
  options.sampler.kind = SamplerKind::kRandomJump;
  options.sampler.sampling_ratio = 0.1;
  options.sampler.seed = 5;
  options.sampler.walk_segment_steps = 512;
  options.engine = PaperClusterOptions();
  options.engine.num_threads = 0;
  return options;
}

/// Seeded periphery churn: `rounds` batches, each deleting and inserting
/// fraction/2 of |E| edges between vertices outside `avoid`. Each batch
/// is valid on the version the previous batches produce: deletes pick
/// live edges, inserts pick absent ones not deleted in the same batch.
std::vector<EdgeDeltaBatch> MakePeripheryChurn(const Graph& base,
                                               const std::vector<uint8_t>& avoid,
                                               size_t rounds, uint64_t seed) {
  struct OutEdge {
    VertexId dst = 0;
    uint32_t live = 0;           // multiplicity in the current version
    uint32_t deleted_batch = 0;  // 1 + index of the last batch deleting it
  };
  // Per-source out-lists of periphery edges (short: lookups scan them).
  std::vector<std::vector<OutEdge>> out(base.num_vertices());
  const auto find = [&](VertexId src, VertexId dst) -> OutEdge* {
    for (OutEdge& e : out[src]) {
      if (e.dst == dst) return &e;
    }
    return nullptr;
  };
  std::vector<VertexId> periphery;
  std::vector<std::pair<VertexId, VertexId>> edges;  // live, deletable
  for (VertexId src = 0; src < base.num_vertices(); ++src) {
    if (avoid[src] != 0) continue;
    periphery.push_back(src);
    base.ForEachOutNeighbor(src, [&](VertexId dst) {
      if (avoid[dst] != 0) return;
      edges.push_back({src, dst});
      OutEdge* e = find(src, dst);
      if (e == nullptr) e = &out[src].emplace_back(OutEdge{dst, 0, 0});
      ++e->live;
    });
  }
  const size_t half = static_cast<size_t>(
      kChurnFraction * static_cast<double>(base.num_edges()) / 2.0);
  SeededGen gen(seed);
  std::vector<EdgeDeltaBatch> batches(rounds);
  for (size_t b = 0; b < rounds; ++b) {
    EdgeDeltaBatch& batch = batches[b];
    batch.reserve(2 * half);
    const uint32_t tag = static_cast<uint32_t>(b + 1);
    for (size_t i = 0; i < half && !edges.empty(); ++i) {
      const size_t pick = gen.Below(edges.size());
      const auto [src, dst] = edges[pick];
      edges[pick] = edges.back();
      edges.pop_back();
      OutEdge* e = find(src, dst);
      --e->live;
      e->deleted_batch = tag;
      batch.push_back(EdgeDelta::Delete(src, dst));
    }
    const size_t first_insert = edges.size();
    while (edges.size() - first_insert < half) {
      const VertexId src = periphery[gen.Below(periphery.size())];
      const VertexId dst = periphery[gen.Below(periphery.size())];
      if (src == dst) continue;
      OutEdge* e = find(src, dst);
      if (e == nullptr) {
        e = &out[src].emplace_back(OutEdge{dst, 0, 0});
      } else if (e->live != 0 || e->deleted_batch == tag) {
        continue;
      }
      e->live = 1;
      edges.push_back({src, dst});
      batch.push_back(EdgeDelta::Insert(src, dst));
    }
  }
  return batches;
}

struct ChurnSetup {
  Graph base;
  std::vector<EdgeDeltaBatch> batches;
  std::unique_ptr<EvolvingGraph> evolving;
  std::unique_ptr<PredictionService> service;
};

std::vector<PredictionRequest> MakeRequests(const Graph& graph) {
  std::vector<PredictionRequest> requests;
  for (const std::string& algorithm : kAlgorithms) {
    PredictionRequest request;
    request.algorithm = algorithm;
    request.graph = &graph;
    request.dataset = "wiki";
    requests.push_back(std::move(request));
  }
  return requests;
}

Result<std::unique_ptr<ChurnSetup>> BuildSetup(const BenchOptions& options) {
  auto setup = std::make_unique<ChurnSetup>();
  PREDICT_ASSIGN_OR_RETURN(Graph wiki, MakeDataset("wiki", 1.0));
  setup->base = EvolvingGraph::Canonicalize(std::move(wiki));
  SampleWalkRecord record;
  PREDICT_RETURN_NOT_OK(
      SampleGraphRecorded(setup->base, ChurnOptions().sampler, &record)
          .status());
  const size_t rounds = static_cast<size_t>(kBatchesPerSecond *
                                            options.seconds) + 1;
  setup->batches =
      MakePeripheryChurn(setup->base, record.touched, rounds, options.seed);
  setup->evolving = std::make_unique<EvolvingGraph>(setup->base);

  PredictionServiceOptions service_options;
  service_options.predictor = ChurnOptions();
  service_options.num_threads = 2;
  setup->service = std::make_unique<PredictionService>(service_options);
  // Warm-up: cold predicts on the base version fill the profile cache and
  // leave the incremental-sampling state primed. One at a time, so the
  // process's peak memory does not depend on how profile runs overlap.
  for (const PredictionRequest& request : MakeRequests(setup->base)) {
    auto report = setup->service->Predict(request);
    if (!report.ok()) return report.status();
  }
  return setup;
}

/// What the benchmark keeps to replay the sampling layer of a round.
struct ReplayState {
  Graph previous;
  SampleWalkRecord record;
  std::unique_ptr<pipeline::SampleArtifact> sample;
  std::vector<pipeline::TransformArtifact> transforms;  // per algorithm
  std::vector<pipeline::ProfileArtifact> profiles;      // per algorithm
};

Result<std::unique_ptr<ReplayState>> BuildReplay(
    const Graph& base, const PredictionPipeline& stages) {
  auto state = std::make_unique<ReplayState>();
  state->previous = base;
  PREDICT_ASSIGN_OR_RETURN(pipeline::SampleArtifact sample,
                           stages.sample.RunRecorded(base, &state->record));
  state->sample =
      std::make_unique<pipeline::SampleArtifact>(std::move(sample));
  for (const std::string& algorithm : kAlgorithms) {
    PREDICT_ASSIGN_OR_RETURN(
        pipeline::TransformArtifact transform,
        stages.transform.Run(algorithm, {}, state->sample->realized_ratio()));
    PREDICT_ASSIGN_OR_RETURN(
        pipeline::ProfileArtifact profile,
        stages.profile.Run(algorithm, "wiki", *state->sample, transform));
    state->transforms.push_back(std::move(transform));
    state->profiles.push_back(std::move(profile));
  }
  return state;
}

}  // namespace

WorkloadResult RunChurnPeriphery(const BenchOptions& options) {
  WorkloadResult result;
  std::vector<double> setups_s;
  const std::unique_ptr<ChurnSetup> setup =
      RepeatSetup(options, [&] { return BuildSetup(options); }, setups_s, result);
  if (setup == nullptr) return result;
  EvolvingGraph& evolving = *setup->evolving;
  PredictionService& service = *setup->service;
  const PredictionPipeline stages(ChurnOptions());

  Tracer tracer(options.trace);
  LayerCounters counters;
  std::unique_ptr<ReplayState> replay;
  if (options.trace) {
    auto built = BuildReplay(setup->base, stages);
    if (!built.ok()) {
      result.Fail("replay setup: " + built.status().ToString());
      return result;
    }
    replay = std::move(built).MoveValue();
  }
  double graph_us = 0.0;
  double traced_op_us = 0.0;

  OpLog ops;
  uint64_t guard_misses = 0;
  // Mid-stream check point: the version after the last power-of-two
  // round, with the digests served for it.
  Graph checkpoint;
  std::vector<uint64_t> checkpoint_digests;
  std::vector<uint64_t> last_digests;
  uint64_t rounds = 0;

  const auto loop_start = Clock::now();
  for (const EdgeDeltaBatch& batch : setup->batches) {
    if (SecondsBetween(loop_start, Clock::now()) > options.seconds) break;
    const uint64_t id = ++rounds;
    const bool traced = options.trace && id % 2 == 0;
    Tracer* t = traced ? &tracer : nullptr;
    const auto span = [&](const char* name, int64_t parent, auto&& fn) {
      return t != nullptr ? t->Time(name, parent, id, fn) : fn();
    };

    const ServiceCacheStats before = service.cache_stats();
    const int64_t op = traced ? tracer.Begin("op", -1, id) : -1;
    const auto start = Clock::now();
    const Status applied =
        span("graph.apply", op, [&] { return evolving.Apply(batch); });
    Result<const Graph*> current =
        span("graph.compact", op, [&] { return evolving.Current(); });
    std::vector<Result<PredictionReport>> reports;
    if (applied.ok() && current.ok()) {
      if (traced) {
        span("graph.fingerprint", op, [&] { return (*current)->Fingerprint(); });
      }
      reports = span("service.predict_batch", op, [&] {
        return service.PredictBatch(MakeRequests(**current));
      });
    }
    const double latency_s = SecondsBetween(start, Clock::now());
    tracer.End(op);
    const ServiceCacheStats after = service.cache_stats();
    ServiceCacheStats delta;
    AccumulateCacheDelta(delta, before, after);
    AccumulateCacheDelta(counters.cache, before, after);

    ++result.attempted;
    bool round_ok = applied.ok() && current.ok();
    double completed = 0;
    last_digests.clear();
    for (const auto& report : reports) {
      round_ok = round_ok && report.ok();
      completed += report.ok() ? 1 : 0;
      last_digests.push_back(Digest(report));
    }
    ops.Add(1e3 * latency_s, completed);
    if (!round_ok) {
      ++result.failed;
      result.Fail("round " + std::to_string(id) + " returned an error");
      break;
    }
    // Guard: the round took the incremental path and every re-predict
    // was served a cached profile.
    if (delta.incremental_sample_updates != 1 ||
        delta.profile_hits != kAlgorithms.size()) {
      ++guard_misses;
    }
    if ((id & (id - 1)) == 0) {
      checkpoint = **current;
      checkpoint_digests = last_digests;
    }
    if (!options.trace) continue;

    // Replay, every round so the replay state follows the stream; spans
    // only on traced rounds.
    const Graph& graph = **current;
    const std::vector<VertexId> dirty = span("graph.dirty_diff", op, [&] {
      return DirtyOutVertices(replay->previous, graph);
    });
    SampleWalkRecord updated;
    pipeline::SampleStage::IncrementalStats inc;
    auto sample = span("sampling.incremental", op, [&] {
      return stages.sample.RunIncremental(graph, dirty, replay->record,
                                          &updated, &inc);
    });
    span("graph.copy", op, [&] {
      replay->previous = graph;
      return 0;
    });
    if (sample.ok()) {
      replay->record = std::move(updated);
      *replay->sample = std::move(sample).MoveValue();
    }
    if (!traced) {
      counters.untraced_ms[0].push_back(1e3 * latency_s);
      continue;
    }
    counters.traced_ms[0].push_back(1e3 * latency_s);
    counters.segments_total += inc.segments_total;
    counters.segments_reused += inc.segments_reused;
    traced_op_us += 1e6 * latency_s;
    for (const char* name : {"graph.apply", "graph.compact",
                             "graph.fingerprint", "graph.dirty_diff",
                             "graph.copy"}) {
      graph_us += tracer.RequestTotalUs(name, id);
    }
    const std::vector<PredictionRequest> requests = MakeRequests(graph);
    for (size_t a = 0; a < kAlgorithms.size(); ++a) {
      counters.AddAnswer(*reports[a]);
      const double assemble_us = ReplayCore(
          tracer, op, id, stages, graph, kAlgorithms[a], "wiki",
          *replay->sample, replay->transforms[a], replay->profiles[a]);
      ReplayWarmPredict(tracer, op, id, service, requests[a], assemble_us,
                        counters);
    }
  }
  counters.layer_share = traced_op_us > 0 ? graph_us / traced_op_us : 0.0;

  if (!options.trace) {
    AddEndToEnd(result, setups_s, ops);
  }
  result.info["rounds"] = std::to_string(rounds);
  result.info["batches"] = std::to_string(setup->batches.size());
  if (guard_misses != 0) {
    result.Fail("guard: " + std::to_string(guard_misses) +
                " rounds missed the incremental path or a profile hit");
  }

  // Correctness, outside the timed loop: the mid-stream and the final
  // version against a cache-free Predictor.
  Predictor predictor(ChurnOptions());
  const auto check = [&](const Graph& graph,
                         const std::vector<uint64_t>& digests,
                         const char* which) {
    bool same = digests.size() == kAlgorithms.size();
    for (size_t a = 0; same && a < kAlgorithms.size(); ++a) {
      const auto reference =
          predictor.PredictRuntime(kAlgorithms[a], graph, "wiki");
      same = reference.ok() && Digest(reference) == digests[a];
    }
    if (!same) {
      ++result.failed;  // one round's answers
      result.Fail(std::string(which) + " version differs from Predictor");
    }
  };
  if (rounds > 0) {
    check(checkpoint, checkpoint_digests, "mid-stream");
    auto final_version = evolving.Current();
    if (final_version.ok()) check(**final_version, last_digests, "final");
  }

  if (options.trace) FinishTrace(result, options, tracer, counters);
  return result;
}

}  // namespace perfbench
