#include "core/local_opt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/global_opt.h"
#include "core/moves.h"
#include "core/predictor.h"
#include "obs/trace.h"
#include "pinned.h"
#include "sta/incremental.h"
#include "support/thread_pool.h"
#include "testgen/testgen.h"

namespace skewopt::core {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

network::Design makeDesign(std::size_t sinks = 70, std::uint64_t seed = 1) {
  testgen::TestcaseOptions o;
  o.sinks = sinks;
  o.seed = seed;
  return testgen::makeCls1(sharedTech(), "v1", o);
}

class LocalOptTest : public ::testing::Test {
 protected:
  sta::Timer timer_{sharedTech()};
};

TEST_F(LocalOptTest, NeverDegradesObjective) {
  network::Design d = makeDesign();
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 4;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.run(d, objective, nullptr);
  EXPECT_LE(r.sum_after_ps, r.sum_before_ps + 1e-6);
  EXPECT_NEAR(objective.evaluate(d, timer_).sum_variation_ps, r.sum_after_ps,
              1e-6);
}

TEST_F(LocalOptTest, HistoryMonotoneAndTyped) {
  network::Design d = makeDesign(80, 2);
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 6;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.run(d, objective, nullptr);
  double prev = r.sum_before_ps;
  for (const LocalIteration& it : r.history) {
    EXPECT_LT(it.sum_after_ps, prev);  // every committed move improved
    EXPECT_NEAR(it.sum_after_ps - prev, it.realized_delta_ps, 1e-6);
    EXPECT_LT(it.predicted_delta_ps, 0.0);  // only predicted-improving tried
    prev = it.sum_after_ps;
  }
  EXPECT_NEAR(prev, r.sum_after_ps, 1e-6);
  EXPECT_GT(r.golden_evaluations, 0u);
}

TEST_F(LocalOptTest, FindsImprovementsOnRealTestcase) {
  network::Design d = makeDesign(80, 3);
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 5;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.run(d, objective, nullptr);
  EXPECT_TRUE(r.improved);
  EXPECT_FALSE(r.history.empty());
}

TEST_F(LocalOptTest, LocalSkewGuarded) {
  network::Design d = makeDesign(80, 4);
  const Objective objective(d, timer_);
  const VariationReport before = objective.evaluate(d, timer_);
  LocalOptions o;
  o.max_iterations = 6;
  LocalOptimizer opt(sharedTech(), o);
  opt.run(d, objective, nullptr);
  const VariationReport after = objective.evaluate(d, timer_);
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
    EXPECT_LE(after.local_skew_ps[ki],
              before.local_skew_ps[ki] * o.local_skew_tolerance + 1.0 + 1e-9);
}

TEST_F(LocalOptTest, TreeValidAfterOptimization) {
  network::Design d = makeDesign(60, 5);
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 4;
  LocalOptimizer opt(sharedTech(), o);
  opt.run(d, objective, nullptr);
  std::string err;
  EXPECT_TRUE(d.tree.validate(&err)) << err;
}

TEST_F(LocalOptTest, RandomBaselineWeaker) {
  // The Figure 8 claim: guided local optimization beats random moves given
  // the same golden-evaluation budget.
  network::Design guided = makeDesign(80, 6);
  network::Design random = guided;
  const Objective objective(guided, timer_);
  LocalOptions o;
  o.max_iterations = 5;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult rg = opt.run(guided, objective, nullptr);
  const LocalResult rr = opt.runRandom(random, objective, 77);
  EXPECT_LE(rg.sum_after_ps, rr.sum_after_ps + 1e-6)
      << "random search should not beat the predictor-guided flow";
}

TEST_F(LocalOptTest, RandomRunNeverDegrades) {
  network::Design d = makeDesign(60, 7);
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 4;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.runRandom(d, objective, 5);
  EXPECT_LE(r.sum_after_ps, r.sum_before_ps + 1e-6);
}

TEST_F(LocalOptTest, ParallelTrialsBitIdenticalToSerial) {
  // The paper implements the top-R moves in R threads; our parallel path
  // must commit exactly what the serial path commits.
  network::Design serial = makeDesign(70, 9);
  network::Design parallel = serial;
  const Objective objective(serial, timer_);
  LocalOptions o;
  o.max_iterations = 3;
  o.parallel_trials = false;
  const LocalResult rs = LocalOptimizer(sharedTech(), o).run(serial, objective, nullptr);
  o.parallel_trials = true;
  const LocalResult rp =
      LocalOptimizer(sharedTech(), o).run(parallel, objective, nullptr);
  EXPECT_DOUBLE_EQ(rs.sum_after_ps, rp.sum_after_ps);
  EXPECT_EQ(rs.history.size(), rp.history.size());
  EXPECT_EQ(rs.golden_evaluations, rp.golden_evaluations);
  EXPECT_EQ(serial.tree.numNodes(), parallel.tree.numNodes());
}

TEST_F(LocalOptTest, SerialAndParallelCommitIdenticalHistories) {
  // Beyond the aggregate check above: every committed move must match
  // entry-for-entry, even when more trial workers than cores interleave.
  network::Design serial = makeDesign(70, 11);
  network::Design parallel = serial;
  const Objective objective(serial, timer_);
  LocalOptions o;
  o.max_iterations = 4;
  o.parallel_trials = false;
  const LocalResult rs =
      LocalOptimizer(sharedTech(), o).run(serial, objective, nullptr);
  o.parallel_trials = true;
  o.threads = 4;  // force real interleaving even on single-core hosts
  const LocalResult rp =
      LocalOptimizer(sharedTech(), o).run(parallel, objective, nullptr);
  ASSERT_EQ(rs.history.size(), rp.history.size());
  for (std::size_t i = 0; i < rs.history.size(); ++i) {
    EXPECT_EQ(rs.history[i].round, rp.history[i].round);
    EXPECT_EQ(rs.history[i].type, rp.history[i].type);
    EXPECT_DOUBLE_EQ(rs.history[i].predicted_delta_ps,
                     rp.history[i].predicted_delta_ps);
    EXPECT_DOUBLE_EQ(rs.history[i].realized_delta_ps,
                     rp.history[i].realized_delta_ps);
    EXPECT_DOUBLE_EQ(rs.history[i].sum_after_ps, rp.history[i].sum_after_ps);
  }
  EXPECT_DOUBLE_EQ(rs.sum_after_ps, rp.sum_after_ps);
  EXPECT_EQ(rs.golden_evaluations, rp.golden_evaluations);
}

void expectTimingsEqual(const std::vector<sta::CornerTiming>& a,
                        const std::vector<sta::CornerTiming>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t ki = 0; ki < a.size(); ++ki) {
    ASSERT_EQ(a[ki].arrival.size(), b[ki].arrival.size()) << what;
    for (std::size_t i = 0; i < a[ki].arrival.size(); ++i) {
      EXPECT_EQ(a[ki].arrival[i], b[ki].arrival[i])
          << what << " arrival corner " << ki << " node " << i;
      EXPECT_EQ(a[ki].slew[i], b[ki].slew[i])
          << what << " slew corner " << ki << " node " << i;
      EXPECT_EQ(a[ki].in_arrival[i], b[ki].in_arrival[i])
          << what << " in_arrival corner " << ki << " node " << i;
      EXPECT_EQ(a[ki].in_slew[i], b[ki].in_slew[i])
          << what << " in_slew corner " << ki << " node " << i;
      EXPECT_EQ(a[ki].driver_load[i], b[ki].driver_load[i])
          << what << " driver_load corner " << ki << " node " << i;
    }
  }
}

TEST_F(LocalOptTest, ScopedRetimeRollbackBitIdentical) {
  // The overlay must equal a fresh full analysis of the edited design, and
  // rollback + undo must restore timing and design bit-identically — the
  // invariant the copy-free trial engine rests on.
  const network::Design original = makeDesign(70, 12);
  const std::vector<sta::CornerTiming> fresh_original =
      sta::IncrementalTimer(sharedTech(), original).timings();

  std::vector<Move> moves = enumerateAllMoves(original, {});
  ASSERT_FALSE(moves.empty());
  // A spread of candidates covering all three move types.
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < moves.size(); i += moves.size() / 7 + 1)
    picks.push_back(i);

  network::Design d = original;
  sta::IncrementalTimer base(sharedTech(), d);
  sta::ScopedRetime overlay(base);
  for (const std::size_t pi : picks) {
    const Move& m = moves[pi];
    const UndoRecord undo = applyMoveUndoable(d, m);
    overlay.retime(d, undo.dirty);
    const std::vector<sta::CornerTiming> fresh_edited =
        sta::IncrementalTimer(sharedTech(), d).timings();
    expectTimingsEqual(base.timings(), fresh_edited, "overlay vs fresh");
    overlay.rollback();
    undoMove(d, undo);
    expectTimingsEqual(base.timings(), fresh_original, "rollback vs base");
  }
  // After every trial was undone the design itself is back to the original.
  std::string err;
  ASSERT_TRUE(d.tree.validate(&err)) << err;
  expectTimingsEqual(sta::IncrementalTimer(sharedTech(), d).timings(),
                     fresh_original, "undone design vs original");
}

// ---------------------------------------------------------------------------
// Incremental round scoring: MovePredictor::scoreRound keeps each move's
// group predictions across rounds. Every round it must equal a memo-free
// MovePredictor::scoreBatch on the same design and baseline, bit for bit.

/// The three Table 5 cases at the benches' default scale.
network::Design benchCase(const char* name) {
  testgen::TestcaseOptions o;
  o.sinks = std::string(name) == "CLS2v1" ? 160 : 120;
  o.max_pairs = 120;
  o.seed = 1;
  return testgen::makeTestcase(sharedTech(), name, o);
}

/// A small trained delta-latency model covering all four corners.
const DeltaLatencyModel& smallModel() {
  static const DeltaLatencyModel m = [] {
    DeltaLatencyModel model;
    TrainOptions t;
    t.cases = 8;
    t.moves_per_case = 12;
    model.train(sharedTech(), {0, 1, 2, 3}, t);
    return model;
  }();
  return m;
}

void expectScoresEqual(std::span<const double> got,
                       std::span<const double> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i]))
      ++bad;
  EXPECT_EQ(bad, 0u) << what << ": " << bad << " of " << got.size()
                     << " scores differ from a full rescore";
}

void expectHistoriesEqual(const LocalResult& a, const LocalResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].round, b.history[i].round);
    EXPECT_EQ(a.history[i].type, b.history[i].type);
    EXPECT_EQ(a.history[i].predicted_delta_ps, b.history[i].predicted_delta_ps);
    EXPECT_EQ(a.history[i].realized_delta_ps, b.history[i].realized_delta_ps);
    EXPECT_EQ(a.history[i].sum_after_ps, b.history[i].sum_after_ps);
  }
  EXPECT_EQ(a.sum_after_ps, b.sum_after_ps);
  EXPECT_EQ(a.golden_evaluations, b.golden_evaluations);
  EXPECT_EQ(a.candidate_moves, b.candidate_moves);
}

/// (case, start from the global-optimized design, small trained model).
using ScoringCase = std::tuple<const char*, bool, bool>;

class IncrementalScoring : public ::testing::TestWithParam<ScoringCase> {
 protected:
  sta::Timer timer_{sharedTech()};
};

TEST_P(IncrementalScoring, MatchesFullRescoreEveryRound) {
  const auto [name, global_first, trained] = GetParam();
  network::Design d = benchCase(name);
  const Objective objective(d, timer_);
  if (global_first) {
    static const eco::StageDelayLut lut(sharedTech());
    GlobalOptions g;
    g.u_sweep = {0.05, 0.2, 0.4};
    GlobalOptimizer(sharedTech(), lut, g).run(d, objective);
  }
  const DeltaLatencyModel* model = trained ? &smallModel() : nullptr;

  LocalOptions o;
  o.max_iterations = 6;
  o.threads = 4;
  std::size_t rounds = 0, reused = 0;
  o.on_scored = [&](const LocalRoundView& v) {
    const MovePredictor fresh(v.design, timer_, objective, model, 0,
                              &v.baseline);
    std::vector<double> want(v.moves.size());
    fresh.scoreBatch(v.moves, want, &support::ThreadPool::shared());
    expectScoresEqual(v.scores, want,
                      std::string(name) + " round " +
                          std::to_string(v.round));
    EXPECT_EQ(v.stats.computed + v.stats.reused, v.moves.size());
    ++rounds;
    reused += v.stats.reused;
  };
  const LocalResult r = LocalOptimizer(sharedTech(), o).run(d, objective, model);
  EXPECT_EQ(rounds, r.history.size() + (r.history.size() < 6 ? 1 : 0));
  if (rounds > 1) {
    EXPECT_GT(reused, 0u) << "no cached prediction was reused";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table5Cases, IncrementalScoring,
    ::testing::Combine(::testing::Values("CLS1v1", "CLS1v2", "CLS2v1"),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<ScoringCase>& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_GlobalLocal" : "_Local") +
             (std::get<2>(info.param) ? "_Model" : "_Analytic");
    });

TEST_F(LocalOptTest, IncrementalHistoryMatchesFullRescoreReference) {
  // The reference run replaces every round's cached scores with a fresh
  // full rescore; both must rank, trial and commit exactly the same moves,
  // serial and pooled alike.
  for (const bool parallel : {false, true}) {
    network::Design cached = makeDesign(90, 13);
    network::Design reference = cached;
    const Objective objective(cached, timer_);
    LocalOptions o;
    o.max_iterations = 5;
    o.parallel_trials = parallel;
    o.threads = parallel ? 4 : 0;
    const LocalResult rc =
        LocalOptimizer(sharedTech(), o).run(cached, objective, &smallModel());
    o.on_scored = [&](const LocalRoundView& v) {
      const MovePredictor fresh(v.design, timer_, objective, &smallModel(), 0,
                                &v.baseline);
      fresh.scoreBatch(v.moves, v.scores, &support::ThreadPool::shared());
    };
    const LocalResult rr = LocalOptimizer(sharedTech(), o).run(
        reference, objective, &smallModel());
    expectHistoriesEqual(rc, rr);
    EXPECT_FALSE(rc.history.empty());
    EXPECT_EQ(objective.evaluate(cached, timer_).sum_variation_ps,
              objective.evaluate(reference, timer_).sum_variation_ps);
  }
}

TEST_F(LocalOptTest, IncrementalScoringAcrossForcedCommitsOfEveryType) {
  // Drive scoreRound directly through commits the optimizer might not pick:
  // a type-III reassignment (tree surgery: child lists, sink counts and
  // driver loads move), then type II and type I. After each commit the
  // cached scores must equal a full rescore.
  for (const DeltaLatencyModel* model :
       {static_cast<const DeltaLatencyModel*>(nullptr), &smallModel()}) {
    network::Design d = benchCase("CLS1v1");
    const Objective objective(d, timer_);
    sta::IncrementalTimer base(sharedTech(), d);
    MovePredictor predictor(d, timer_, objective, model, 0, &base.timings());
    ScoreCache cache;
    support::ThreadPool pool(3);
    std::vector<double> got, want;
    const MoveType kCommits[] = {MoveType::kReassign,
                                 MoveType::kChildDisplaceSize,
                                 MoveType::kReassign, MoveType::kSizeDisplace};
    for (std::size_t step = 0; step <= std::size(kCommits); ++step) {
      if (step > 0) predictor.refresh(base.timings());
      const std::vector<Move> moves = enumerateAllMoves(d);
      got.assign(moves.size(), 0.0);
      want.assign(moves.size(), 0.0);
      const MovePredictor::RoundStats st =
          predictor.scoreRound(moves, got, &cache, &pool);
      predictor.scoreBatch(moves, want);
      expectScoresEqual(got, want, "after commit " + std::to_string(step));
      if (step == 0) {
        EXPECT_EQ(st.reused, 0u);
      } else {
        EXPECT_GT(st.reused, 0u) << "commit " << step;
        EXPECT_GT(st.computed, 0u) << "commit " << step;
      }
      if (step == std::size(kCommits)) break;
      // Commit the middle candidate of the wanted type.
      std::vector<std::size_t> of_type;
      for (std::size_t i = 0; i < moves.size(); ++i)
        if (moves[i].type == kCommits[step]) of_type.push_back(i);
      ASSERT_FALSE(of_type.empty());
      const Move& m = moves[of_type[of_type.size() / 2]];
      base.update(d, applyMoveTracked(d, m));
    }
  }
}

/// The sinks a move's groups shift, sorted, by a subtree walk.
std::vector<int> touchedSinks(const network::ClockTree& tree,
                              const MoveAnalyzer& analyzer, const Move& m) {
  std::vector<int> out;
  for (const ImpactGroup& g : analyzer.analyze(m)) {
    std::vector<int> under = subtreeSinks(tree, g.root);
    std::ranges::sort(under);
    if (g.exclude >= 0) {
      std::vector<int> skip = subtreeSinks(tree, g.exclude);
      std::ranges::sort(skip);
      std::vector<int> rest;
      std::ranges::set_difference(under, skip, std::back_inserter(rest));
      under = std::move(rest);
    }
    out.insert(out.end(), under.begin(), under.end());
  }
  std::ranges::sort(out);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

using MoveId = std::tuple<int, int, int, int, int, double, double>;
MoveId moveId(const Move& m) {
  return {static_cast<int>(m.type), m.node, m.size_step, m.child,
          m.new_parent, m.delta.x, m.delta.y};
}

TEST_F(LocalOptTest, IncrementalKeptScoresTouchOnlyUnchangedPairs) {
  // A kept score is last round's score of the same move. An independent
  // walk shows why that is exact: the move shifts the same sinks as last
  // round, and every pair at those sinks has last round's base skews and
  // variation. Commits of types III, I and II; after I and II some scores
  // must be kept.
  network::Design d = benchCase("CLS1v1");
  const Objective objective(d, timer_);
  sta::IncrementalTimer base(sharedTech(), d);
  MovePredictor predictor(d, timer_, objective, &smallModel(), 0,
                          &base.timings());
  ScoreCache cache;
  support::ThreadPool pool(3);
  const MoveType kCommits[] = {MoveType::kReassign, MoveType::kSizeDisplace,
                               MoveType::kChildDisplaceSize};
  std::map<MoveId, std::pair<std::uint64_t, std::vector<int>>> last;
  VariationReport last_report;
  std::vector<double> got, want;
  for (std::size_t step = 0; step <= std::size(kCommits); ++step) {
    if (step > 0) predictor.refresh(base.timings());
    const std::vector<Move> moves = enumerateAllMoves(d);
    got.assign(moves.size(), 0.0);
    want.assign(moves.size(), 0.0);
    const MovePredictor::RoundStats st =
        predictor.scoreRound(moves, got, &cache, &pool);
    predictor.scoreBatch(moves, want);
    expectScoresEqual(got, want, "after commit " + std::to_string(step));
    const VariationReport report =
        objective.evaluateFromTimings(d, base.timings());
    std::vector<std::vector<std::size_t>> pairs_of(d.tree.numNodes());
    for (std::size_t pi = 0; pi < d.pairs.size(); ++pi) {
      pairs_of[static_cast<std::size_t>(d.pairs[pi].launch)].push_back(pi);
      pairs_of[static_cast<std::size_t>(d.pairs[pi].capture)].push_back(pi);
    }
    std::map<MoveId, std::pair<std::uint64_t, std::vector<int>>> now;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      std::vector<int> sinks =
          touchedSinks(d.tree, predictor.analyzer(), moves[i]);
      if (cache.kept(i)) {
        ++kept;
        const auto it = last.find(moveId(moves[i]));
        ASSERT_NE(it, last.end()) << "kept a move new this round";
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), it->second.first);
        EXPECT_EQ(sinks, it->second.second) << "move " << i;
        for (const int snk : sinks)
          for (const std::size_t pi : pairs_of[static_cast<std::size_t>(snk)]) {
            EXPECT_EQ(report.v_pair_ps[pi], last_report.v_pair_ps[pi]);
            for (std::size_t ki = 0; ki < report.skew_ps.size(); ++ki)
              EXPECT_EQ(report.skew_ps[ki][pi], last_report.skew_ps[ki][pi]);
          }
      }
      now[moveId(moves[i])] = {std::bit_cast<std::uint64_t>(got[i]),
                               std::move(sinks)};
    }
    EXPECT_EQ(kept, st.kept) << "commit " << step;
    EXPECT_LE(st.kept, st.reused) << "commit " << step;
    if (step >= 2) {
      EXPECT_GT(st.kept, 0u) << "commit " << step;
    }
    last = std::move(now);
    last_report = report;
    if (step == std::size(kCommits)) break;
    std::vector<std::size_t> of_type;
    for (std::size_t i = 0; i < moves.size(); ++i)
      if (moves[i].type == kCommits[step]) of_type.push_back(i);
    ASSERT_FALSE(of_type.empty());
    base.update(d, applyMoveTracked(d, moves[of_type[of_type.size() / 2]]));
  }
}

TEST_F(LocalOptTest, IncrementalScoreRoundBitsEqualAcrossSliceCounts) {
  // scoreRound hands out move chunks from one counter, so which slice
  // scores a move varies run to run; the scores and counts must not. One
  // run per slice count (no pool: 1; pools of 1, 3 and 4 threads: 2, 4
  // and 5), each through the same commits.
  std::vector<std::vector<std::uint64_t>> bits[4];
  std::vector<std::array<std::size_t, 4>> counts[4];
  support::ThreadPool p1(1), p3(3), p4(4);
  support::ThreadPool* pools[4] = {nullptr, &p1, &p3, &p4};
  for (std::size_t run = 0; run < 4; ++run) {
    network::Design d = benchCase("CLS1v2");
    const Objective objective(d, timer_);
    sta::IncrementalTimer base(sharedTech(), d);
    MovePredictor predictor(d, timer_, objective, &smallModel(), 0,
                            &base.timings());
    ScoreCache cache;
    const MoveType kCommits[] = {MoveType::kSizeDisplace, MoveType::kReassign,
                                 MoveType::kChildDisplaceSize};
    for (std::size_t step = 0; step <= std::size(kCommits); ++step) {
      if (step > 0) predictor.refresh(base.timings());
      const std::vector<Move> moves = enumerateAllMoves(d);
      std::vector<double> out(moves.size(), 0.0);
      const MovePredictor::RoundStats st =
          predictor.scoreRound(moves, out, &cache, pools[run]);
      std::vector<std::uint64_t>& b = bits[run].emplace_back();
      for (const double v : out) b.push_back(std::bit_cast<std::uint64_t>(v));
      counts[run].push_back({st.computed, st.reused, st.kept, st.nets});
      if (step == std::size(kCommits)) break;
      std::vector<std::size_t> of_type;
      for (std::size_t i = 0; i < moves.size(); ++i)
        if (moves[i].type == kCommits[step]) of_type.push_back(i);
      ASSERT_FALSE(of_type.empty());
      base.update(d, applyMoveTracked(d, moves[of_type[of_type.size() / 2]]));
    }
  }
  for (std::size_t run = 1; run < 4; ++run) {
    EXPECT_EQ(bits[run], bits[0]) << "pool " << run;
    EXPECT_EQ(counts[run], counts[0]) << "pool " << run;
  }
}

TEST_F(LocalOptTest, IncrementalReuseFloorOnCls1v2) {
  // A regression to "invalidate everything" stays correct and silently
  // slow; this deterministic count catches it. On bench-scale CLS1v2 at
  // least half of all moves scored in rounds >= 1 must reuse their cached
  // group predictions.
  network::Design d = benchCase("CLS1v2");
  const Objective objective(d, timer_);
  LocalOptions o;
  o.max_iterations = 6;
  std::size_t later = 0, reused = 0, kept = 0;
  o.on_scored = [&](const LocalRoundView& v) {
    if (v.round == 0) {
      EXPECT_EQ(v.stats.reused, 0u);
      EXPECT_EQ(v.stats.kept, 0u);
      return;
    }
    later += v.moves.size();
    reused += v.stats.reused;
    kept += v.stats.kept;
  };
  LocalOptimizer(sharedTech(), o).run(d, objective, nullptr);
  ASSERT_GT(later, 0u) << "the run never reached a second round";
  EXPECT_GE(2 * reused, later) << reused << " of " << later << " reused";
  EXPECT_GT(kept, 0u) << "no cached score was kept";
}

TEST_F(LocalOptTest, ScoreSpanCountsBeforeStateNetsRepeatably) {
  // The local.score span's `nets` arg is the number of before-state nets
  // the round built for its stale moves and its `kept` arg the number of
  // cached scores kept: the round's RoundStats, and the same sequences on
  // every run of a fixed seed.
  using Counts = std::pair<std::int64_t, std::int64_t>;  // (nets, kept)
  std::vector<Counts> spans[2];
  std::vector<Counts> stats[2];
  for (int run = 0; run < 2; ++run) {
    network::Design d = makeDesign(70, 5);
    const Objective objective(d, timer_);
    LocalOptions o;
    o.max_iterations = 4;
    o.threads = 4;
    o.on_scored = [&](const LocalRoundView& v) {
      stats[run].emplace_back(static_cast<std::int64_t>(v.stats.nets),
                              static_cast<std::int64_t>(v.stats.kept));
    };
    obs::Tracer& tracer = obs::Tracer::global();
    const std::uint64_t since = obs::nowNs();
    tracer.start();
    LocalOptimizer(sharedTech(), o).run(d, objective, &smallModel());
    tracer.stop();
    for (const obs::TraceEvent& e : tracer.collect(since)) {
      if (std::string(e.name) != "local.score") continue;
      ASSERT_STREQ(e.args[2].key, "nets");
      ASSERT_STREQ(e.args[3].key, "kept");
      spans[run].emplace_back(e.args[2].i, e.args[3].i);
    }
  }
  ASSERT_GT(spans[0].size(), 1u);
  EXPECT_GT(spans[0][0].first, 0);
  EXPECT_EQ(spans[0][0].second, 0);
  EXPECT_EQ(spans[0], stats[0]);
  EXPECT_EQ(spans[0], spans[1]);
}

TEST_F(LocalOptTest, ZeroIterationsIsNoOp) {
  network::Design d = makeDesign(50, 8);
  const Objective objective(d, timer_);
  const double before = objective.evaluate(d, timer_).sum_variation_ps;
  LocalOptions o;
  o.max_iterations = 0;
  LocalOptimizer opt(sharedTech(), o);
  const LocalResult r = opt.run(d, objective, nullptr);
  EXPECT_DOUBLE_EQ(r.sum_after_ps, before);
  EXPECT_TRUE(r.history.empty());
}

struct RandomCommit {
  std::size_t round;
  int type;
  pinned::Hex realized_bits, sum_after_bits;
};

std::string pinText(const RandomCommit& c) {
  return pinned::braced(c.round, c.type, c.realized_bits, c.sum_after_bits);
}

// Pins Figure 8's random baseline on bench-scale CLS1v1 (120 sinks, 120
// pairs, seed 1; 6 rounds, trial seed 97, as bench_fig8_local_trace runs
// it): per committed move its round, type and the bits of the realized
// change and the sum after it, then the run's golden-evaluation count and
// an FNV-1a-64 over the final design's nodes. The literals were captured
// when each random trial still evaluated a full design copy.
TEST(RandomBaselinePinned, HistoryOnBenchScaleCls1v1) {
  testgen::TestcaseOptions to;
  to.sinks = 120;
  to.max_pairs = 120;
  to.seed = 1;
  network::Design d = testgen::makeTestcase(sharedTech(), "CLS1v1", to);
  const Objective objective(d, sta::Timer(sharedTech()));
  LocalOptions o;
  o.max_iterations = 6;
  const LocalResult r =
      LocalOptimizer(sharedTech(), o).runRandom(d, objective, 97);

  std::vector<RandomCommit> got;
  for (const LocalIteration& it : r.history)
    got.push_back({it.round, static_cast<int>(it.type),
                   std::bit_cast<std::uint64_t>(it.realized_delta_ps),
                   std::bit_cast<std::uint64_t>(it.sum_after_ps)});
  const std::vector<RandomCommit> want = {
      {0, 1, 0xbee32452f0000000ULL, 0x40991ab7bd56ec03ULL},
      {1, 1, 0xc01249a6ab0d9700ULL, 0x4099086e16abde6cULL},
      {2, 0, 0xc0028d49286a0000ULL, 0x4098ff277217a96cULL},
      {4, 1, 0xc0621ca3a9d49fe0ULL, 0x4096bb92fcdd1570ULL},
      {5, 1, 0xc02f2eff0de8ae80ULL, 0x40967d34fec14413ULL},
  };
  pinned::expectPinned("history", got, want);
  pinned::expectPinned("golden_evaluations", r.golden_evaluations, 30u);
  pinned::expectPinned("design_digest", pinned::Hex(pinned::designDigest(d)),
                       pinned::Hex(0x60a6d6d0ba422fa1ULL));
}

}  // namespace
}  // namespace skewopt::core
