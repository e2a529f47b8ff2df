// skewbench: the repository benchmark of the skewopt global-local flow.
//
//   skewbench --workload table5|delta --seed N --seconds S --trace 0|1
//             [--inject-fault]
//
// Workloads (see BENCHMARK.json for why each exists):
//   table5  the paper's Table 5 experiment through core::Flow::run
//   delta   warm DELTA re-optimization through an in-process
//           ClusterFrontend
//
// Each run sets up, measures whole passes for about S seconds, checks every
// result, and prints as its last stdout line one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones: each job run again as its
// public stages (bit-identity to the untraced result asserted), side
// replays of the LP and scoring shares, and an explicit unattributed_ms
// residual. --inject-fault corrupts one expected result (self-check).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using namespace skewbench;

const char* kEndToEnd[][2] = {
    {"setup_s", "s"},          {"pass_s", "s"},
    {"job_p50_ms", "ms"},      {"job_tail_ms", "ms"},
    {"ok_rate", "ratio"},      {"variation_norm", "ratio"},
    {"peak_rss_mb", "MB"},
};

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--inject-fault") {
      a->inject_fault = true;
    } else if (!has_value) {
      return false;
    } else if (k == "--workload") {
      a->workload = argv[++i];
    } else if (k == "--seed") {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

void printNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: skewbench --workload table5|delta "
                 "--seed N --seconds S --trace 0|1 [--inject-fault]\n");
    return 2;
  }
  bool correct = true;
  Report rep;
  try {
    if (args.workload == "table5")
      rep = runTable5(args, &correct);
    else if (args.workload == "delta")
      rep = runDelta(args, &correct);
    else {
      std::fprintf(stderr, "skewbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skewbench: %s\n", e.what());
    return 1;
  }
  if (rep.failed > 0) correct = false;

  // Emit exactly the metric set of the run's kind, in BENCHMARK.json order;
  // a layer a workload bypasses reads 0.
  std::vector<std::pair<std::string, std::string>> names;
  if (args.trace)
    names = perLayerNames();
  else
    for (const auto& n : kEndToEnd) names.emplace_back(n[0], n[1]);
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < names.size(); ++i) {
    double value = 0.0;
    for (const Report::Metric& m : rep.metrics)
      if (m.name == names[i].first) value = m.value;
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", names[i].first.c_str());
    printNumber(value);
    std::printf(", \"unit\": \"%s\"}", names[i].second.c_str());
  }
  std::printf("}}\n");
  return 0;
}
