// Workload `table5`: the paper's whole Table 5 experiment at the default
// bench scale — CLS1v1, CLS1v2 and CLS2v1 x {global, local, global-local},
// nine Flow::run jobs per pass, one caller, closed loop, with the trained
// DeltaLatencyModel. The serve and cluster layers are bypassed.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <random>

#include "bench.h"
#include "testgen/testgen.h"

namespace skewbench {

namespace {

constexpr std::array<const char*, 3> kCases = {"CLS1v1", "CLS1v2", "CLS2v1"};
constexpr std::array<core::FlowMode, 3> kModes = {
    core::FlowMode::kGlobal, core::FlowMode::kLocal,
    core::FlowMode::kGlobalLocal};

/// Every row's sum of variations and worst local skew, recorded bit-exactly
/// from the optimizer this benchmark was defined on ([case][mode]); they are
/// the rows bench_table5_main prints for the same tree.
struct Expected {
  double sum_variation_ps;
  double worst_local_skew_ps;
};
constexpr Expected kExpected[3][3] = {
    {{0x1.222acb4baaa86p+10, 0x1.026729061b8ep+7},
     {0x1.bffafb619e781p+9, 0x1.97b99500305p+6},
     {0x1.961f728cb8146p+9, 0x1.eb74996460b1p+6}},
    {{0x1.6cec45c04fbc3p+10, 0x1.69d3282a4b56p+7},
     {0x1.9a740e6d45fb3p+10, 0x1.862777db5e29p+7},
     {0x1.123f2e00cb7dbp+10, 0x1.69d3282a4b56p+7}},
    {{0x1.1fa5830b03306p+12, 0x1.2d72072ada912p+9},
     {0x1.ffd07aca19af8p+11, 0x1.cab939b3e5e04p+8},
     {0x1.f94db544b955p+10, 0x1.2d745ebf1f584p+9}},
};

// The default bench scale (bench/bench_common.h), frozen here so the
// workload cannot drift with the repository's own benches.
testgen::TestcaseOptions testcaseOptions(const char* name) {
  testgen::TestcaseOptions o;
  o.sinks = std::string(name) == "CLS2v1" ? 160 : 120;
  o.max_pairs = 120;
  o.seed = 1;
  return o;
}

core::FlowOptions flowOptions() {
  core::FlowOptions f;
  f.global.u_sweep = {0.05, 0.2, 0.4};
  f.local.max_iterations = 6;
  f.local.max_chunks_per_round = 20;
  return f;
}

core::TrainOptions trainOptions() {
  core::TrainOptions t;
  t.cases = 24;
  t.moves_per_case = 24;
  return t;
}

double worstSkew(const core::DesignMetrics& m) {
  return *std::max_element(m.local_skew_ps.begin(), m.local_skew_ps.end());
}

struct Job {
  std::size_t c = 0, m = 0;
};

}  // namespace

Report runTable5(const Args& args, bool* correct) {
  // Set-up: tech model, stage LUT and the delta-latency model (trained per
  // corner on artificial testcases), repeated so set-up time is a median.
  std::optional<tech::TechModel> tech;
  std::optional<eco::StageDelayLut> lut;
  core::DeltaLatencyModel model;
  std::vector<double> train_ms;
  const double setup_s = medianSetupS([&] {
    tech.emplace(tech::TechModel::make28nm());
    lut.emplace(*tech);
    model = core::DeltaLatencyModel();
    const double t0 = nowS();
    model.train(*tech, {0, 1, 2, 3}, trainOptions());
    train_ms.push_back((nowS() - t0) * 1e3);
  });

  // Inputs: the three base designs and their original metrics.
  const sta::Timer timer(*tech);
  std::vector<network::Design> bases;
  std::vector<core::DesignMetrics> orig;
  const double tg0 = nowS();
  for (const char* name : kCases)
    bases.push_back(testgen::makeTestcase(*tech, name, testcaseOptions(name)));
  const double testgen_ms = (nowS() - tg0) * 1e3;
  for (const network::Design& b : bases)
    orig.push_back(core::computeMetrics(b, core::Objective(b, timer), timer));

  Expected expected[3][3];
  std::copy(&kExpected[0][0], &kExpected[0][0] + 9, &expected[0][0]);
  if (args.inject_fault)
    expected[0][0].sum_variation_ps =
        std::nextafter(expected[0][0].sum_variation_ps, 1e300);

  std::vector<Job> order;
  for (std::size_t c = 0; c < kCases.size(); ++c)
    for (std::size_t m = 0; m < kModes.size(); ++m) order.push_back({c, m});
  std::mt19937_64 rng(args.seed);

  const core::FlowOptions fopts = flowOptions();
  Report rep;
  std::vector<double> pass_s, latencies_ms;
  std::map<int, std::vector<double>> by_job;
  Ledger ledger;
  double untraced_ms = 0.0;
  std::size_t identical = 0;
  double variation_norm = 0.0;

  const double start = nowS();
  do {
    std::shuffle(order.begin(), order.end(), rng);
    core::DesignMetrics after[3][3];
    bool pass_ok = true;
    const double p0 = nowS();
    for (const Job& j : order) {
      network::Design d = bases[j.c];
      const core::Flow flow(*tech, *lut, fopts);
      const double t0 = nowS();
      const core::FlowResult r = flow.run(d, kModes[j.m], &model);
      const double ms = (nowS() - t0) * 1e3;
      latencies_ms.push_back(ms);
      by_job[static_cast<int>(j.c * kModes.size() + j.m)].push_back(ms);
      untraced_ms += ms;
      after[j.c][j.m] = r.after;
      const Expected& e = expected[j.c][j.m];
      const bool ok = r.after.sum_variation_ps == e.sum_variation_ps &&
                      worstSkew(r.after) == e.worst_local_skew_ps;
      if (!ok) {
        std::printf("table5: %s/%s sum=%a worst_skew=%a differs from the "
                    "recorded row\n",
                    kCases[j.c], core::flowModeName(kModes[j.m]),
                    r.after.sum_variation_ps, worstSkew(r.after));
        pass_ok = false;
      }
      ++rep.attempted;
      if (!ok) ++rep.failed;

      if (args.trace) {
        network::Design sd = bases[j.c];
        StagedJob sj;
        sj.tech = &*tech;
        sj.lut = &*lut;
        sj.options = fopts;
        sj.mode = kModes[j.m];
        sj.model = &model;
        const core::FlowResult s = runStaged(sd, sj, &ledger);
        if (exactDigest(s) == exactDigest(r)) ++identical;
      }
    }
    const double wall = nowS() - p0;
    pass_s.push_back(wall);

    // The paper's shape: global-local is best on every case, and every
    // optimized corner stays inside the 1.05x + 12 ps local-skew envelope.
    for (std::size_t c = 0; c < kCases.size(); ++c) {
      const double gl = after[c][2].sum_variation_ps;
      if (!(gl < after[c][0].sum_variation_ps &&
            gl < after[c][1].sum_variation_ps)) {
        std::printf("table5: %s global-local is not the best flow\n",
                    kCases[c]);
        pass_ok = false;
      }
      for (std::size_t m = 0; m < kModes.size(); ++m)
        for (std::size_t k = 0; k < orig[c].local_skew_ps.size(); ++k)
          if (after[c][m].local_skew_ps[k] >
              1.05 * orig[c].local_skew_ps[k] + 12.0) {
            std::printf("table5: %s/%s corner %zu leaves the local-skew "
                        "envelope\n",
                        kCases[c], core::flowModeName(kModes[m]), k);
            pass_ok = false;
          }
    }
    if (!pass_ok) *correct = false;
    variation_norm = 0.0;
    for (std::size_t c = 0; c < kCases.size(); ++c)
      variation_norm += after[c][2].sum_variation_ps / orig[c].sum_variation_ps;
    variation_norm /= static_cast<double>(kCases.size());
    if (pass_s.size() == 1)
      for (std::size_t c = 0; c < kCases.size(); ++c)
        for (std::size_t m = 0; m < kModes.size(); ++m)
          std::printf("row %s %s sum=%a worst_skew=%a\n", kCases[c],
                      core::flowModeName(kModes[m]),
                      after[c][m].sum_variation_ps, worstSkew(after[c][m]));
  } while (nowS() - start < args.seconds);

  const double passes = static_cast<double>(pass_s.size());
  if (!args.trace) {
    rep.add("setup_s", "s", setup_s);
    rep.add("pass_s", "s", median(pass_s));
    rep.add("job_p50_ms", "ms", medianOfJobMedians(by_job));
    rep.add("job_tail_ms", "ms", percentile(latencies_ms, 0.60));
    rep.add("ok_rate", "ratio",
            1.0 - static_cast<double>(rep.failed) /
                      static_cast<double>(rep.attempted));
    rep.add("variation_norm", "ratio", variation_norm);
    rep.add("peak_rss_mb", "MB", peakRssMb());
    return rep;
  }
  addLayerMetrics(&rep, ledger, 1.0 / passes, ledger.staged_ms / passes);
  rep.add("ml.train_ms", "ms", median(train_ms));
  rep.add("testgen.make_ms", "ms", testgen_ms);
  rep.add("trace.overhead_pct", "%",
          ((ledger.staged_ms + ledger.replay_ms) / untraced_ms - 1.0) * 100.0);
  rep.add("trace.staged_identical", "ratio",
          static_cast<double>(identical) / static_cast<double>(ledger.jobs));
  if (identical != ledger.jobs || !ledger.lp_replay_faithful) {
    std::printf("table5: staged run differs from Flow::run on %zu of %zu "
                "jobs (lp replay faithful: %d)\n",
                ledger.jobs - identical, ledger.jobs,
                ledger.lp_replay_faithful ? 1 : 0);
    *correct = false;
  }
  std::printf("ledger: per pass %.1f ms staged; score %.1f ms, golden trials "
              "and rounds %.1f ms, lp build %.1f + solve %.1f ms, realize "
              "%.1f ms\n",
              ledger.staged_ms / passes, ledger.score_ms / passes,
              (ledger.local_ms - ledger.score_ms) / passes,
              ledger.lp_build_ms / passes, ledger.lp_solve_ms / passes,
              (ledger.global_ms - ledger.lp_build_ms - ledger.lp_solve_ms) /
                  passes);
  return rep;
}

}  // namespace skewbench
