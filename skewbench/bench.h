// Shared pieces of the skewopt benchmark: clocks and percentiles, the
// result line, result digests, and the staged (traced) flow runner with its
// per-layer ledger. Everything here drives the optimizer through its public
// entry points only; no timing code lives inside src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/flow.h"
#include "eco/stage_lut.h"
#include "serve/json.h"
#include "tech/tech.h"

namespace skewbench {

using namespace skewopt;

inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of an unsorted sample (p in [0, 1]).
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Median over jobs of each job's median latency across passes: the
/// closed-loop workloads repeat one fixed job list, so a single slow pass
/// moves no job's median.
double medianOfJobMedians(const std::map<int, std::vector<double>>& by_job);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check hook: corrupt one expected value so the run must count a
  /// wrong result (see selfcheck.py).
  bool inject_fault = false;
};

/// One workload run's outcome: printed as the last stdout line.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< failed, rejected, timed-out or wrong results
  struct Metric {
    std::string name, unit;
    double value = 0.0;
  };
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
};

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// Digest of a served result under loadgen's rule: resultToJson minus the
/// wall-clock stage_ms object and the solver-effort fields (lp_solves,
/// lp_warm_hits) that differ between a cold run and a warm replay.
std::string servedDigest(const serve::json::Value& result);
std::string servedDigest(const core::FlowResult& r);

/// Everything result-bearing in a FlowResult, exactly (hex floats): used to
/// prove a staged run bit-identical to Flow::run / the served run.
std::string exactDigest(const core::FlowResult& r);

// ---------------------------------------------------------------------------
// Staged flow: Flow::run re-expressed as its public stages, timed per layer.

/// Per-layer accumulators of a traced run. Times are wall milliseconds.
struct Ledger {
  double sta_ms = 0.0;        ///< Timer::analyzeDesign + warm timer seeding
  std::size_t sta_calls = 0;
  double check_ms = 0.0;      ///< check::gateDesign input/output gates
  double metrics_ms = 0.0;    ///< Objective construction + metric evaluation
  double global_ms = 0.0;     ///< GlobalOptimizer::run
  double lp_build_ms = 0.0;   ///< extractGlobalLp replay (live builds only)
  double lp_solve_ms = 0.0;   ///< lp::solve replay (live solves only)
  std::size_t lp_iterations = 0;
  std::size_t lp_warm_tries = 0, lp_warm_hits = 0;
  std::size_t lp_replays = 0, realize_memo_hits = 0;
  bool lp_replay_faithful = true;  ///< replayed iterations == run's
  double local_ms = 0.0;      ///< LocalOptimizer::run
  double score_ms = 0.0;      ///< enumerate + scoreBatch replay x rounds
  std::size_t moves_scored = 0;
  std::size_t golden_evals = 0, commits = 0;
  double testgen_ms = 0.0;
  double staged_ms = 0.0;     ///< wall of the staged calls (no replays)
  double replay_ms = 0.0;     ///< wall of the side replays
  std::size_t jobs = 0;
};

struct StagedJob {
  const tech::TechModel* tech = nullptr;
  const eco::StageDelayLut* lut = nullptr;
  core::FlowOptions options;
  core::FlowMode mode = core::FlowMode::kGlobalLocal;
  const core::DeltaLatencyModel* model = nullptr;
  const core::FlowWarmState* warm_in = nullptr;
  core::FlowWarmState* warm_out = nullptr;
};

/// Runs the job's stages in Flow::run order (input gate, timing, objective,
/// before-metrics, global, local, after-metrics, output gate) on `d`,
/// accumulating layer times and the LP / scoring side replays into `ledger`.
/// The result must equal Flow::run's bit for bit; callers check that.
core::FlowResult runStaged(network::Design& d, const StagedJob& job,
                           Ledger* ledger);

/// Appends the per-layer metrics derived from `ledger`, scaled by `per`
/// (1 / passes or 1 / jobs), with `wall_ms` the traced wall the layers
/// must add up to (unattributed_ms is the residual).
void addLayerMetrics(Report* rep, const Ledger& ledger, double per,
                     double wall_ms);

// ---------------------------------------------------------------------------
// Workloads

Report runTable5(const Args& args, bool* correct);
Report runDelta(const Args& args, bool* correct);

/// The metrics every traced run prints, in BENCHMARK.json order; a
/// workload that bypasses a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& perLayerNames();

/// Median set-up time (seconds) over repetitions of `setup`: at least 3,
/// and more for a cheap set-up, until about three seconds were spent
/// (at most 101), so the median is steady even when one set-up takes
/// milliseconds.
template <typename F>
double medianSetupS(F&& setup) {
  std::vector<double> s;
  double total = 0.0;
  while (s.size() < 3 || (total < 3.0 && s.size() < 101)) {
    const double t0 = nowS();
    setup();
    s.push_back(nowS() - t0);
    total += s.back();
  }
  return median(s);
}

}  // namespace skewbench
