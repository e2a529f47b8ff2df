#include "core/global_opt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "check/check.h"
#include "obs/clock.h"
#include "pinned.h"
#include "support/fnv.h"
#include "testgen/testgen.h"

namespace skewopt::core {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

const eco::StageDelayLut& sharedLut() {
  static eco::StageDelayLut lut(sharedTech());
  return lut;
}

network::Design makeDesign(std::size_t sinks = 80, std::uint64_t seed = 1,
                           std::size_t max_pairs = 90) {
  testgen::TestcaseOptions o;
  o.sinks = sinks;
  o.seed = seed;
  // The evaluation universe is the top-critical pair set (paper footnote
  // 9); the LP covers the same set, so cap generation accordingly.
  o.max_pairs = max_pairs;
  return testgen::makeCls1(sharedTech(), "v1", o);
}

TEST(ArcRoutedLength, AtLeastDirect) {
  const network::Design d = makeDesign(60);
  for (const network::Arc& a : d.tree.extractArcs())
    EXPECT_GE(arcRoutedLength(d, a) + 1e-6, a.direct_len_um);
}

class GlobalOptTest : public ::testing::Test {
 protected:
  sta::Timer timer_{sharedTech()};
};

TEST_F(GlobalOptTest, LpFeasibleAndBelowOriginal) {
  network::Design d = makeDesign();
  const Objective objective(d, timer_);
  GlobalOptions o;
  GlobalOptimizer opt(sharedTech(), sharedLut(), o);
  const GlobalResult r = opt.run(d, objective);
  // Delta = 0 is always feasible, so the min-sum-V LP must be solvable and
  // its optimum no larger than the original sum over the selected pairs.
  EXPECT_GT(r.lp_rows, 0u);
  EXPECT_LE(r.lp_min_sum_ps, r.lp_orig_sum_ps + 1e-6);
  EXPECT_GE(r.lp_min_sum_ps, -1e-6);
}

TEST_F(GlobalOptTest, NeverDegradesObjective) {
  network::Design d = makeDesign();
  const Objective objective(d, timer_);
  const double before = objective.evaluate(d, timer_).sum_variation_ps;
  GlobalOptions o;
  GlobalOptimizer opt(sharedTech(), sharedLut(), o);
  const GlobalResult r = opt.run(d, objective);
  const double after = objective.evaluate(d, timer_).sum_variation_ps;
  EXPECT_LE(after, before + 1e-6);
  EXPECT_NEAR(r.sum_after_ps, after, 1e-6);
  EXPECT_NEAR(r.sum_before_ps, before, 1e-6);
}

TEST_F(GlobalOptTest, ReducesVariationAcrossSeeds) {
  // Individual instances can reject every ECO candidate (realization
  // noise), so assert statistically over seeds: most improve, and the
  // average reduction is substantial.
  std::size_t improved = 0;
  double total_before = 0.0, total_after = 0.0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    network::Design d = makeDesign(100, seed);
    const Objective objective(d, timer_);
    GlobalOptimizer opt(sharedTech(), sharedLut());
    const GlobalResult r = opt.run(d, objective);
    if (r.improved) {
      ++improved;
      EXPECT_GT(r.arcs_changed, 0u);
    }
    total_before += r.sum_before_ps;
    total_after += r.sum_after_ps;
  }
  EXPECT_GE(improved, 2u);
  EXPECT_LT(total_after, 0.85 * total_before);
}

TEST_F(GlobalOptTest, LocalSkewPreserved) {
  network::Design d = makeDesign(100, 3);
  const Objective objective(d, timer_);
  const VariationReport before = objective.evaluate(d, timer_);
  GlobalOptions o;
  GlobalOptimizer opt(sharedTech(), sharedLut(), o);
  opt.run(d, objective);
  const VariationReport after = objective.evaluate(d, timer_);
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
    EXPECT_LE(after.local_skew_ps[ki],
              before.local_skew_ps[ki] * o.local_skew_tolerance +
                  o.local_skew_allowance_ps + 1e-9)
        << "corner index " << ki;
}

TEST_F(GlobalOptTest, TreeStaysValidAndDrivable) {
  network::Design d = makeDesign(100, 4);
  const Objective objective(d, timer_);
  GlobalOptimizer opt(sharedTech(), sharedLut());
  opt.run(d, objective);
  std::string err;
  EXPECT_TRUE(d.tree.validate(&err)) << err;
  // No max-cap violations introduced (paper footnote 8).
  for (const std::size_t k : d.corners)
    EXPECT_LE(timer_.worstLoadRatio(d.tree, d.routing, k), 1.10);
}

TEST_F(GlobalOptTest, CandidateSweepRecorded) {
  network::Design d = makeDesign(80, 5);
  const Objective objective(d, timer_);
  GlobalOptions o;
  o.u_sweep = {0.1, 0.5};
  GlobalOptimizer opt(sharedTech(), sharedLut(), o);
  const GlobalResult r = opt.run(d, objective);
  EXPECT_LE(r.candidates.size(), 2u);
  EXPECT_GE(r.candidates.size(), 1u);
  for (const auto& [u, realized] : r.candidates) {
    EXPECT_GE(u, r.lp_min_sum_ps - 1e-6);
    EXPECT_LE(u, r.lp_orig_sum_ps + 1e-6);
  }
}

TEST_F(GlobalOptTest, ConcurrentRealizationEqualsEachPointAlone) {
  // Realization fans the sweep points out on the shared pool, and a
  // one-point sweep realizes inline. With cold sweep solves no point's LP
  // depends on another's, so every candidate of the full sweep must equal
  // its one-point run bitwise, and the chosen design must be that run's.
  const network::Design base = makeDesign(100, 2);
  const Objective objective(base, timer_);
  GlobalOptions o;
  o.warm_start_sweep = false;
  network::Design all_d = base;
  const GlobalResult all =
      GlobalOptimizer(sharedTech(), sharedLut(), o).run(all_d, objective);
  ASSERT_EQ(all.candidates.size(), o.u_sweep.size());

  for (std::size_t i = 0; i < o.u_sweep.size(); ++i) {
    GlobalOptions one = o;
    one.u_sweep = {o.u_sweep[i]};
    network::Design one_d = base;
    const GlobalResult r =
        GlobalOptimizer(sharedTech(), sharedLut(), one).run(one_d, objective);
    ASSERT_EQ(r.candidates.size(), 1u) << i;
    EXPECT_EQ(r.candidates[0], all.candidates[i]) << i;
    if (all.improved && all.chosen_u_ps == r.candidates[0].first) {
      EXPECT_TRUE(r.improved) << i;
      EXPECT_EQ(r.sum_after_ps, all.sum_after_ps) << i;
      EXPECT_EQ(r.arcs_changed, all.arcs_changed) << i;
      EXPECT_EQ(pinned::designDigest(one_d), pinned::designDigest(all_d))
          << i;
    }
  }
}

TEST_F(GlobalOptTest, WarmStartMatchesColdOnSeededGlobalLps) {
  // Cold and warm solves of the real Eqs. (4)-(11) LPs must agree on
  // status and objective at every sweep point, across seeds.
  for (const std::uint64_t seed : {1, 4}) {
    const network::Design d = makeDesign(80, seed);
    const Objective objective(d, timer_);
    const GlobalOptimizer opt(sharedTech(), sharedLut());
    GlobalLpProbe probe = opt.extractGlobalLp(d, objective);
    ASSERT_GT(probe.sweep.numRows(), 0) << "seed " << seed;

    const lp::Solution vsol = lp::solve(probe.min_v);
    ASSERT_EQ(vsol.status, lp::Status::Optimal) << "seed " << seed;
    lp::Basis chain = vsol.basis;
    chain.status.push_back(lp::BasisStatus::Basic);
    for (const double t : {0.05, 0.2, 0.4}) {
      const double u =
          vsol.objective + t * (probe.orig_sum_ps - vsol.objective);
      probe.sweep.setRowBounds(probe.budget_row, -lp::kInf, u);
      const lp::Solution cold = lp::solve(probe.sweep);
      const lp::Solution warm = lp::solve(probe.sweep, {}, &chain);
      ASSERT_EQ(warm.status, cold.status) << "seed " << seed << " t " << t;
      if (cold.status != lp::Status::Optimal) continue;
      EXPECT_TRUE(warm.warm_started) << "seed " << seed << " t " << t;
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-6 * std::max(1.0, std::abs(cold.objective)))
          << "seed " << seed << " t " << t;
      chain = warm.basis;
    }
  }
}

TEST_F(GlobalOptTest, LpSolveStatsRecorded) {
  network::Design d = makeDesign(80, 5);
  const Objective objective(d, timer_);
  GlobalOptions o;
  o.u_sweep = {0.1, 0.5};
  GlobalOptimizer opt(sharedTech(), sharedLut(), o);
  const GlobalResult r = opt.run(d, objective);
  // Pass 1 plus one entry per attempted sweep point.
  ASSERT_GE(r.lp_solves.size(), 1u);
  EXPECT_EQ(r.lp_solves[0].u_ps, 0.0);
  EXPECT_FALSE(r.lp_solves[0].warm_started);
  EXPECT_TRUE(r.lp_solves[0].optimal);
  EXPECT_GE(r.lp_solves[0].refactorizations, 1);
  for (std::size_t i = 1; i < r.lp_solves.size(); ++i) {
    EXPECT_GT(r.lp_solves[i].u_ps, 0.0) << i;
    EXPECT_GE(r.lp_solves[i].solve_ms, 0.0) << i;
  }
  // Every sweep solve was offered a warm basis and is accounted for.
  EXPECT_EQ(static_cast<std::size_t>(r.lp_warm_hits + r.lp_warm_misses),
            r.lp_solves.size() - 1);
}

std::atomic<std::uint64_t> g_stepping_ns{0};
/// Fake clock that advances on every read, so any timed interval — even
/// one around a few bookkeeping instructions — measures nonzero.
std::uint64_t steppingClock() { return g_stepping_ns.fetch_add(1'000'003); }

TEST_F(GlobalOptTest, ReplayedSolvesReportZeroSolveTime) {
  // A second run fed the first run's warm state on the same design
  // replays every solve. A replayed solve has no solve span, so its
  // solve_ms is 0 — pass 1 included, even though its replay check
  // deserializes a basis.
  const network::Design base = makeDesign(80, 5);
  const Objective objective(base, timer_);
  GlobalOptions o;
  o.u_sweep = {0.1, 0.5};
  const GlobalOptimizer opt(sharedTech(), sharedLut(), o);
  obs::setClockForTest(&steppingClock);
  GlobalWarmState warm;
  network::Design d1 = base;
  const GlobalResult cold = opt.run(d1, objective, nullptr, nullptr, &warm);
  network::Design d2 = base;
  const GlobalResult r = opt.run(d2, objective, nullptr, &warm, nullptr);
  obs::setClockForTest(nullptr);

  ASSERT_GE(r.lp_solves.size(), 2u);
  EXPECT_EQ(r.lp_solves.size(), cold.lp_solves.size());
  EXPECT_EQ(static_cast<std::size_t>(r.lp_replays), r.lp_solves.size());
  for (std::size_t i = 0; i < r.lp_solves.size(); ++i) {
    EXPECT_GT(cold.lp_solves[i].solve_ms, 0.0) << i;  // live: timed
    EXPECT_EQ(r.lp_solves[i].solve_ms, 0.0) << i;
  }
  EXPECT_EQ(r.sum_after_ps, cold.sum_after_ps);
}

TEST_F(GlobalOptTest, CorruptLoggedBasisSolvesLiveFromThatEntryOn) {
  // A solve-log entry whose basis bytes fail to deserialize is solved live,
  // and so is every later one: the replays stop at the corrupt entry and
  // the run still equals the cold one — pass 1 first, then the last sweep
  // point.
  const network::Design base = makeDesign(80, 5);
  const Objective objective(base, timer_);
  GlobalOptions o;
  o.u_sweep = {0.1, 0.5};
  const GlobalOptimizer opt(sharedTech(), sharedLut(), o);
  GlobalWarmState warm;
  network::Design cold_d = base;
  const GlobalResult cold = opt.run(cold_d, objective, nullptr, nullptr, &warm);
  ASSERT_EQ(warm.solves.size(), cold.lp_solves.size());
  ASSERT_GE(warm.solves.size(), 2u);

  for (const std::size_t bad : {std::size_t{0}, warm.solves.size() - 1}) {
    GlobalWarmState corrupt = warm;
    std::vector<unsigned char>& bytes = corrupt.solves[bad].basis;
    ASSERT_GT(bytes.size(), 9u);
    bytes[bytes.size() / 2] ^= 0xff;
    network::Design d = base;
    const GlobalResult r = opt.run(d, objective, nullptr, &corrupt, nullptr);
    EXPECT_EQ(r.lp_replays, static_cast<int>(bad)) << bad;
    ASSERT_EQ(r.lp_solves.size(), cold.lp_solves.size()) << bad;
    for (std::size_t i = 0; i < r.lp_solves.size(); ++i)
      EXPECT_EQ(r.lp_solves[i].iterations, cold.lp_solves[i].iterations)
          << bad << " solve " << i;
    EXPECT_EQ(r.lp_min_sum_ps, cold.lp_min_sum_ps) << bad;
    EXPECT_EQ(r.candidates, cold.candidates) << bad;
    EXPECT_EQ(r.improved, cold.improved) << bad;
    EXPECT_EQ(r.chosen_u_ps, cold.chosen_u_ps) << bad;
    EXPECT_EQ(r.sum_after_ps, cold.sum_after_ps) << bad;
    EXPECT_EQ(pinned::designDigest(d), pinned::designDigest(cold_d)) << bad;
  }
}

TEST_F(GlobalOptTest, EmptyPairsIsNoOp) {
  network::Design d = makeDesign(40, 6);
  d.pairs.clear();
  const network::Design snapshot = d;
  // Alphas need pairs; construct objective from a paired twin instead.
  network::Design paired = makeDesign(40, 6);
  const Objective objective(paired, timer_);
  GlobalOptimizer opt(sharedTech(), sharedLut());
  const GlobalResult r = opt.run(d, objective);
  EXPECT_FALSE(r.improved);
  EXPECT_EQ(d.tree.numNodes(), snapshot.tree.numNodes());
}

// Pins the sparse simplex's trajectory on the three bench-scale CLS LP
// chains (pass 1 cold, then the warm {0.05, 0.2, 0.4} sweep, as
// BM_USweepWarmStart runs it): per solve the iteration, phase-1 and
// refactorization counts, the warm-start flag and an FNV-1a-64 over the x
// bits, the objective bits and the final basis. Solver speedups must keep
// the pivot path, so these literals only change with a deliberate change
// of the algorithm.
struct LpTrajectory {
  int iterations, phase1_iterations, refactorizations;
  bool warm_started;
  pinned::Hex digest;
};

std::string pinText(const LpTrajectory& t) {
  return pinned::braced(t.iterations, t.phase1_iterations, t.refactorizations,
                        t.warm_started, t.digest);
}

LpTrajectory trajectoryOf(const lp::Solution& s) {
  support::Fnv1a64 h;
  for (const double v : s.x) h.f64(v);
  h.f64(s.objective);
  for (const lp::BasisStatus b : s.basis.status) {
    const auto byte = static_cast<unsigned char>(b);
    h.bytes(&byte, 1);
  }
  return {s.iterations, s.phase1_iterations, s.refactorizations,
          s.warm_started, h.value()};
}

/// Asserts that an optimal solve passes the optimality certificate with
/// every residual at least 100x inside its tolerance.
void expectCertified(const lp::Model& m, const lp::Solution& s,
                     const std::string& label) {
  ASSERT_EQ(s.status, lp::Status::Optimal) << label;
  check::DiagnosticEngine engine;
  check::checkLpOptimality(m, s, engine);
  EXPECT_TRUE(engine.empty()) << label << "\n" << engine.text();
  const check::LpResiduals r = check::lpResiduals(m, s);
  EXPECT_LE(r.primal, 1e-2 * check::kLpPrimalTol) << label;
  EXPECT_LE(r.dual, 1e-2 * check::kLpDualTol) << label;
  EXPECT_LE(r.complementarity, 1e-2 * check::kLpComplementarityTol) << label;
  EXPECT_LE(r.gap, 1e-2 * check::kLpGapTol) << label;
}

/// A bench-scale CLS testcase (seed 1).
network::Design clsDesign(const std::string& name) {
  testgen::TestcaseOptions to;
  to.sinks = name == "CLS2v1" ? 160 : 120;
  to.max_pairs = 120;
  to.seed = 1;
  return testgen::makeTestcase(sharedTech(), name, to);
}

/// The global LP pair of a bench-scale CLS testcase.
GlobalLpProbe clsProbe(const std::string& name) {
  const network::Design d = clsDesign(name);
  const sta::Timer timer(sharedTech());
  const Objective objective(d, timer);
  const GlobalOptimizer opt(sharedTech(), sharedLut());
  return opt.extractGlobalLp(d, objective);
}

std::vector<LpTrajectory> solveSweepChain(const std::string& name,
                                          const lp::SolverOptions& o) {
  GlobalLpProbe probe = clsProbe(name);
  std::vector<LpTrajectory> out;
  const lp::Solution vsol = lp::solve(probe.min_v, o);
  out.push_back(trajectoryOf(vsol));
  expectCertified(probe.min_v, vsol, name + " pass 1");
  lp::Basis chain = vsol.basis;
  chain.status.push_back(lp::BasisStatus::Basic);
  for (const double t : {0.05, 0.2, 0.4}) {
    const double u = vsol.objective + t * (probe.orig_sum_ps - vsol.objective);
    probe.sweep.setRowBounds(probe.budget_row, -lp::kInf, u);
    const lp::Solution s = lp::solve(probe.sweep, o, &chain);
    out.push_back(trajectoryOf(s));
    expectCertified(probe.sweep, s, name + " sweep t=" + std::to_string(t));
    chain = s.basis;
  }
  return out;
}

TEST(LpTrajectoryTest, PinnedOnBenchScaleClsChains) {
  const std::vector<LpTrajectory> cls1v1 = {
      {765, 575, 7, false, 0x18fa6f1f8493db6dULL},
      {259, 0, 3, true, 0x4a259136600b5cb3ULL},
      {309, 101, 3, true, 0xa69b2529407affadULL},
      {304, 124, 3, true, 0x97fda5914da3bc7dULL},
  };
  const std::vector<LpTrajectory> cls1v2 = {
      {832, 587, 7, false, 0x2f3b1c984486fc8eULL},
      {403, 0, 4, true, 0x58262af835f5d62dULL},
      {314, 83, 3, true, 0x8011998d16cf42adULL},
      {532, 220, 5, true, 0xc5b4871594703b26ULL},
  };
  const std::vector<LpTrajectory> cls2v1 = {
      {906, 718, 8, false, 0x980b8ee116eec03bULL},
      {231, 0, 2, true, 0x48118421e8c12fbaULL},
      {375, 134, 4, true, 0x9794eff0920efd98ULL},
      {444, 224, 4, true, 0x9e03e1941391cb4bULL},
  };
  pinned::expectPinned("CLS1v1", solveSweepChain("CLS1v1", {}), cls1v1);
  pinned::expectPinned("CLS1v2", solveSweepChain("CLS1v2", {}), cls1v2);
  pinned::expectPinned("CLS2v1", solveSweepChain("CLS2v1", {}), cls2v1);
}

TEST(LpTrajectoryTest, PinnedUnderDantzigPricing) {
  lp::SolverOptions o;
  o.pricing = lp::SolverOptions::Pricing::kDantzig;
  pinned::expectPinned("CLS1v2", solveSweepChain("CLS1v2", o),
                       std::vector<LpTrajectory>{
                           {924, 765, 8, false, 0x50ea7e3d2b0a6485ULL},
                           {763, 0, 7, true, 0x4fc5d6d2802ceb52ULL},
                           {640, 198, 6, true, 0xccaa9dfa2c8a4107ULL},
                           {599, 315, 5, true, 0xcdc758bb48f74f2dULL},
                       });
}

TEST(LpTrajectoryTest, PinnedUnderFrequentRefactorization) {
  // A small eta cap refactorizes every few pivots, so the Devex update
  // that precedes a refactorization runs many times.
  lp::SolverOptions o;
  o.refactor_every = 8;
  pinned::expectPinned("CLS1v2", solveSweepChain("CLS1v2", o),
                       std::vector<LpTrajectory>{
                           {841, 581, 105, false, 0x7ade3197174fb3aeULL},
                           {437, 0, 54, true, 0x35ccbe5e96878ce3ULL},
                           {297, 98, 37, true, 0x130f026e99135edfULL},
                           {475, 190, 59, true, 0x85f71bd3302e7fb0ULL},
                       });
}

// A cold Dantzig solve of the CLS1v1 sweep model at t = 0.05 pivots its
// basic values out of their bounds during phase 2. Unless phase 2 hands
// such a point back to phase 1, the solve reports Unbounded (objective
// -3.7e21) at the default stall limit, and a 27.8 ps-infeasible "optimum"
// of 1014.07 at stall_limit 100000. Devex reaches the true optimum
// directly.
TEST(LpPhase2Feasibility, DantzigSweepSolveRecoversTheOptimum) {
  GlobalLpProbe probe = clsProbe("CLS1v1");
  const lp::Solution vsol = lp::solve(probe.min_v);
  ASSERT_EQ(vsol.status, lp::Status::Optimal);
  const double u =
      vsol.objective + 0.05 * (probe.orig_sum_ps - vsol.objective);
  probe.sweep.setRowBounds(probe.budget_row, -lp::kInf, u);
  for (const int stall_limit : {500, 100000}) {
    lp::SolverOptions o;
    o.pricing = lp::SolverOptions::Pricing::kDantzig;
    o.stall_limit = stall_limit;
    const lp::Solution s = lp::solve(probe.sweep, o);
    const std::string label = "stall_limit " + std::to_string(stall_limit);
    ASSERT_EQ(s.status, lp::Status::Optimal) << label;
    EXPECT_NEAR(s.objective, 1065.920456, 1e-6) << label;
    expectCertified(probe.sweep, s, label);
  }
}

// Pins Algorithm-1 realization on the three bench-scale CLS cases (seed 1,
// cold run, default sweep): per sweep candidate the bits of U and of its
// realized full-objective sum, plus the rebuilt-arc count of the pick, the
// chosen U and an FNV-1a-64 over the final design's nodes (validity,
// parent, position bits, cell). The literals were captured when cold runs
// still re-timed each rebuilt arc by a full re-analysis, so they tie the
// incremental realization to that path's exact answers.
struct RealizePin {
  std::vector<std::pair<pinned::Hex, pinned::Hex>> candidates;
  std::size_t arcs_changed;
  pinned::Hex chosen_u_bits;
  pinned::Hex design_digest;
};

std::string pinText(const RealizePin& p) {
  return pinned::braced(p.candidates, p.arcs_changed, p.chosen_u_bits,
                        p.design_digest);
}

void expectRealized(const std::string& name, const RealizePin& want) {
  network::Design d = clsDesign(name);
  const Objective objective(d, sta::Timer(sharedTech()));
  const GlobalResult r =
      GlobalOptimizer(sharedTech(), sharedLut()).run(d, objective);
  RealizePin got{{},
                 r.arcs_changed,
                 std::bit_cast<std::uint64_t>(r.chosen_u_ps),
                 pinned::designDigest(d)};
  for (const auto& [u, sum] : r.candidates)
    got.candidates.emplace_back(std::bit_cast<std::uint64_t>(u),
                                std::bit_cast<std::uint64_t>(sum));
  pinned::expectPinned(name, got, want);
}

TEST(GlobalRealizePinned, Cls1v1) {
  expectRealized("CLS1v1",
                 {{{0x406473264d6a2aa3ULL, 0x4093aab92c2927faULL},
                   {0x40787740cf95a016ULL, 0x409222acb4baaa86ULL},
                   {0x4085ba142db5d738ULL, 0x4093114af312d656ULL}},
                  29,
                  0x40787740cf95a016ULL,
                  0x925600675d34ca5eULL});
}

TEST(GlobalRealizePinned, Cls1v2) {
  expectRealized("CLS1v2",
                 {{{0x406d0ea9112eb048ULL, 0x4096cec45c04fbc3ULL},
                   {0x408319165567f4b0ULL, 0x4099f014e7d7001bULL},
                   {0x409170288b718016ULL, 0x40992b40ed2b79e1ULL}},
                  35,
                  0x406d0ea9112eb048ULL,
                  0x29690def43c3374fULL});
}

TEST(GlobalRealizePinned, Cls2v1) {
  expectRealized("CLS2v1",
                 {{{0x4095e42820f25574ULL, 0x40b2f964616e6623ULL},
                   {0x40a1625f8a26579cULL, 0x40b1fa5830b03306ULL},
                   {0x40a9f81981b7e8caULL, 0x40b3a1e1905ed582ULL}},
                  36,
                  0x40a1625f8a26579cULL,
                  0x8f040b3a419b86d3ULL});
}

}  // namespace
}  // namespace skewopt::core
