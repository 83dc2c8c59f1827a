// perfbench: the prediction service's benchmark binary.
//
//   perfbench --workload cold_predict|churn_periphery|cached_whatif
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload as a single closed-loop client and prints, as its
// last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 runs
// the traced variant and reports the per-layer metrics, writing the
// spans to DIR/trace-<workload>-<seed>.json. The line before it holds
// extra facts about the run ({"info": {...}}).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

using perfbench::BenchOptions;
using perfbench::WorkloadResult;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          !std::isfinite(options.seconds) || options.seconds <= 0) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("missing --workload");

  WorkloadResult result;
  if (options.workload == "cold_predict") {
    result = perfbench::RunColdPredict(options);
  } else if (options.workload == "churn_periphery") {
    result = perfbench::RunChurnPeriphery(options);
  } else if (options.workload == "cached_whatif") {
    result = perfbench::RunCachedWhatif(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (result.metrics.empty()) {
    std::fprintf(stderr, "perfbench: %s measured nothing\n",
                 options.workload.c_str());
    return 1;
  }

  std::string info = "{\"info\": {";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    info += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
    first = false;
  }
  std::printf("%s}}\n", info.c_str());

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            number + ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}
