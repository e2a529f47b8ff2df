#include "core/predictor.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/moves.h"
#include "obs/trace.h"
#include "pinned.h"
#include "support/fnv.h"
#include "support/thread_pool.h"
#include "testgen/testgen.h"

namespace skewopt::core {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

TEST(Moves, EnumerationMatchesTable2) {
  testgen::TestcaseOptions o;
  o.sinks = 60;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  std::size_t type1 = 0, type2 = 0, type3 = 0;
  for (const int b : d.tree.buffers()) {
    for (const Move& m : enumerateMoves(d, b)) {
      switch (m.type) {
        case MoveType::kSizeDisplace:
          ++type1;
          EXPECT_EQ(std::abs(m.delta.x) + std::abs(m.delta.y) > 0, true);
          EXPECT_GE(m.size_step, -1);
          EXPECT_LE(m.size_step, 1);
          break;
        case MoveType::kChildDisplaceSize:
          ++type2;
          EXPECT_GE(m.child, 0);
          EXPECT_NE(m.size_step, 0);
          break;
        case MoveType::kReassign:
          ++type3;
          EXPECT_GE(m.new_parent, 0);
          // Same-level constraint of Table 2.
          EXPECT_EQ(d.tree.level(m.new_parent),
                    d.tree.level(d.tree.node(m.node).parent));
          break;
      }
    }
  }
  EXPECT_GT(type1, 0u);
  EXPECT_GT(type2, 0u);
  // Type-III moves require same-level drivers within 50um; they exist in a
  // clustered design but are rarer.
  EXPECT_GE(type3, 0u);
}

TEST(Moves, PerBufferBudgetNearPaper45) {
  // Figure 6 talks about 45 candidate moves per buffer; our enumeration
  // must be in that ballpark (24 type-I + up to 16 type-II + up to 5
  // type-III).
  testgen::TestcaseOptions o;
  o.sinks = 60;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  for (const int b : d.tree.buffers()) {
    const std::size_t n = enumerateMoves(d, b).size();
    EXPECT_LE(n, 45u);
  }
}

TEST(Moves, ApplyMoveKeepsTreeValidAndReroutes) {
  testgen::TestcaseOptions o;
  o.sinks = 50;
  network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  geom::Rng rng(3);
  const std::vector<Move> moves = enumerateAllMoves(d);
  ASSERT_FALSE(moves.empty());
  for (int i = 0; i < 30; ++i) {
    const Move& m = moves[rng.index(moves.size())];
    network::Design copy = d;
    applyMove(copy, m);
    std::string err;
    ASSERT_TRUE(copy.tree.validate(&err)) << m.describe(d) << ": " << err;
    // Timing still runs (all touched nets rerouted).
    sta::Timer timer(sharedTech());
    EXPECT_NO_THROW(timer.analyzeDesign(copy));
  }
}

TEST(MoveAnalyzer, GroupsCoverMoveSemantics) {
  testgen::TestcaseOptions o;
  o.sinks = 50;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  sta::Timer timer(sharedTech());
  MoveAnalyzer analyzer(d, timer);
  for (const Move& m : enumerateAllMoves(d)) {
    const std::vector<ImpactGroup> groups = analyzer.analyze(m);
    ASSERT_FALSE(groups.empty());
    std::size_t primaries = 0;
    for (const ImpactGroup& g : groups) {
      if (g.primary) ++primaries;
      ASSERT_EQ(g.delta.size(), d.corners.size());
      for (const auto& per_corner : g.delta)
        for (const double v : per_corner) EXPECT_TRUE(std::isfinite(v));
    }
    EXPECT_EQ(primaries, 1u);
    if (m.type == MoveType::kReassign) {
      EXPECT_EQ(groups.size(), 3u);
    }
  }
}

TEST(MoveAnalyzer, FeaturesMatchPaperLayout) {
  testgen::TestcaseOptions o;
  o.sinks = 50;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  sta::Timer timer(sharedTech());
  MoveAnalyzer analyzer(d, timer);
  const std::vector<Move> moves = enumerateAllMoves(d);
  ASSERT_FALSE(moves.empty());
  const Move& m = moves.front();
  const std::vector<ImpactGroup> groups = analyzer.analyze(m);
  const ImpactGroup* primary = nullptr;
  for (const ImpactGroup& g : groups)
    if (g.primary) primary = &g;
  ASSERT_NE(primary, nullptr);
  const auto f = analyzer.features(m, *primary, 0);
  static_assert(kNumFeatures == 7);
  for (std::size_t i = 0; i < kNumAnalytic; ++i)
    EXPECT_DOUBLE_EQ(f[i], primary->delta[0][i]);
  EXPECT_GE(f[4], 1.0);              // fanout count
  EXPECT_GE(f[5], 0.0);              // bbox area
  EXPECT_GT(f[6], 0.0);              // aspect in (0,1]
  EXPECT_LE(f[6], 1.0);
}

TEST(MoveAnalyzer, AnalyticalEstimatesTrackGolden) {
  // On artificial cases the analytical estimator must correlate with the
  // golden delta (the ML model then shrinks the residual).
  geom::Rng rng(11);
  sta::Timer timer(sharedTech());
  double sxy = 0, sxx = 0, syy = 0, sx = 0, sy = 0;
  std::size_t n = 0;
  for (int c = 0; c < 4; ++c) {
    testgen::ArtificialCase ac =
        testgen::makeArtificialCase(sharedTech(), rng, c % 2 == 0);
    ac.design.corners = {0, 2};
    std::vector<Move> moves = enumerateMoves(ac.design, ac.target);
    moves.resize(std::min<std::size_t>(moves.size(), 20));
    const std::vector<MoveSample> samples =
        collectMoveSamples(ac.design, timer, moves);
    for (const MoveSample& s : samples) {
      const double x = s.features[0][0];  // flute+elmore estimate at c0
      const double y = s.golden_delta[0];
      sxy += x * y;
      sxx += x * x;
      syy += y * y;
      sx += x;
      sy += y;
      ++n;
    }
  }
  ASSERT_GT(n, 30u);
  const double nn = static_cast<double>(n);
  const double corr = (sxy - sx * sy / nn) /
                      (std::sqrt(sxx - sx * sx / nn) *
                           std::sqrt(syy - sy * sy / nn) +
                       1e-12);
  EXPECT_GT(corr, 0.5) << "analytical estimator uncorrelated with golden";
}

TEST(DeltaLatencyModel, TrainsAndBeatsPureAnalytical) {
  sta::Timer timer(sharedTech());
  DeltaLatencyModel model;
  TrainOptions t;
  t.cases = 14;
  t.moves_per_case = 16;
  t.mlp.epochs = 120;
  t.seed = 21;
  const std::size_t samples = model.train(sharedTech(), {0, 2}, t);
  EXPECT_GT(samples, 100u);
  EXPECT_TRUE(model.trainedFor(0));
  EXPECT_TRUE(model.trainedFor(2));
  EXPECT_FALSE(model.trainedFor(1));

  // Holdout artifacts exist and model error beats the analytical estimate
  // baseline would... compare |pred - golden| vs |golden| spread.
  const auto& hold = model.holdout(0);
  ASSERT_GT(hold.golden.size(), 10u);
  const double model_mae = ml::meanAbsError(hold.predicted, hold.golden);
  double spread = 0.0;
  for (const double g : hold.golden) spread += std::abs(g);
  spread /= static_cast<double>(hold.golden.size());
  EXPECT_LT(model_mae, spread) << "model no better than predicting zero";
}

TEST(MovePredictor, VariationDeltaMatchesGoldenDirectionally) {
  testgen::TestcaseOptions o;
  o.sinks = 50;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  sta::Timer timer(sharedTech());
  const Objective objective(d, timer);
  MovePredictor predictor(d, timer, objective, nullptr);
  const VariationReport before = objective.evaluate(d, timer);

  // Over a batch of moves, predicted improvement must rank real
  // improvement better than chance: check that among the 5 best-predicted
  // moves at least one genuinely improves.
  std::vector<Move> moves = enumerateAllMoves(d);
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t i = 0; i < moves.size(); ++i)
    scored.push_back({predictor.predictedVariationDelta(moves[i]), i});
  std::sort(scored.begin(), scored.end());
  ASSERT_GE(scored.size(), 5u);
  bool improved = false;
  for (std::size_t i = 0; i < 5; ++i) {
    network::Design copy = d;
    applyMove(copy, moves[scored[i].second]);
    const VariationReport after = objective.evaluate(copy, timer);
    if (after.sum_variation_ps < before.sum_variation_ps) improved = true;
  }
  EXPECT_TRUE(improved);
}

TEST(MovePredictor, ScoreBatchBitIdenticalToPerMoveScores) {
  // scoreBatch only restructures loops (route built once per net, corner
  // lanes evaluated together); every score must equal the scalar
  // predictedVariationDelta exactly, serial and pooled alike.
  testgen::TestcaseOptions o;
  o.sinks = 50;
  const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
  sta::Timer timer(sharedTech());
  const Objective objective(d, timer);
  MovePredictor predictor(d, timer, objective, nullptr);
  const std::vector<Move> moves = enumerateAllMoves(d);
  ASSERT_FALSE(moves.empty());

  std::vector<double> serial(moves.size());
  predictor.scoreBatch(moves, serial);
  support::ThreadPool pool(4);
  std::vector<double> pooled(moves.size());
  predictor.scoreBatch(moves, pooled, &pool);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const double scalar = predictor.predictedVariationDelta(moves[i]);
    EXPECT_EQ(serial[i], scalar) << "serial move " << i;
    EXPECT_EQ(pooled[i], scalar) << "pooled move " << i;
  }
}

TEST(GoldenDelta, TinyMoveTinyDelta) {
  geom::Rng rng(31);
  testgen::ArtificialCase ac =
      testgen::makeArtificialCase(sharedTech(), rng, true);
  ac.design.corners = {0};
  sta::Timer timer(sharedTech());
  Move m;
  m.type = MoveType::kSizeDisplace;
  m.node = ac.target;
  m.delta = {0.2, 0.0};  // sub-site nudge
  m.size_step = 0;
  const std::vector<MoveSample> samples =
      collectMoveSamples(ac.design, timer, {m});
  ASSERT_EQ(samples.size(), 1u);
  ASSERT_EQ(samples[0].golden_delta.size(), 1u);
  // Only legalization + jog noise.
  EXPECT_LT(std::abs(samples[0].golden_delta[0]), 8.0);
}


// ---- sample collection vs. a copy-and-full-analysis reference ------------

/// The golden delta of one move the direct way: apply it to a copy of the
/// design, re-analyze both designs in full, and average the latency change
/// over the sinks of the moved node's subtree, per active corner.
std::vector<double> referenceGoldenDelta(const network::Design& d,
                                         const sta::Timer& timer,
                                         const Move& m) {
  const std::vector<sta::CornerTiming> before = timer.analyzeDesign(d);
  network::Design copy = d;
  applyMove(copy, m);
  const std::vector<sta::CornerTiming> after = timer.analyzeDesign(copy);
  const std::vector<int> sinks = subtreeSinks(d.tree, m.node);
  std::vector<double> out(d.corners.size(), 0.0);
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
    double acc = 0.0;
    for (const int snk : sinks)
      acc += after[ki].arrival[static_cast<std::size_t>(snk)] -
             before[ki].arrival[static_cast<std::size_t>(snk)];
    out[ki] = sinks.empty() ? 0.0 : acc / static_cast<double>(sinks.size());
  }
  return out;
}

TEST(CollectMoveSamples, GoldenDeltasMatchCopyAndFullAnalysisBitForBit) {
  sta::Timer timer(sharedTech());
  for (const bool last_stage : {false, true}) {
    geom::Rng rng(last_stage ? 43 : 41);
    testgen::ArtificialCase ac =
        testgen::makeArtificialCase(sharedTech(), rng, last_stage);
    ac.design.corners = {0, 1, 2, 3};
    const std::vector<Move> moves = enumerateMoves(ac.design, ac.target);
    ASSERT_GT(moves.size(), 10u);
    const std::vector<MoveSample> samples =
        collectMoveSamples(ac.design, timer, moves);

    // Every move with a primary impact group yields one sample, in order.
    MoveAnalyzer analyzer(ac.design, timer);
    std::size_t expected = 0;
    for (const Move& m : moves)
      for (const ImpactGroup& g : analyzer.analyze(m))
        if (g.primary) ++expected;
    ASSERT_EQ(samples.size(), expected) << "last_stage=" << last_stage;

    for (std::size_t i = 0; i < samples.size(); ++i) {
      const std::vector<double> ref =
          referenceGoldenDelta(ac.design, timer, samples[i].move);
      ASSERT_EQ(samples[i].golden_delta.size(), ref.size());
      for (std::size_t ki = 0; ki < ref.size(); ++ki)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(samples[i].golden_delta[ki]),
                  std::bit_cast<std::uint64_t>(ref[ki]))
            << "last_stage=" << last_stage << " sample " << i << " corner "
            << ki;
    }
  }
}

// ---- pinned model bits ----------------------------------------------------

/// FNV-1a-64 over the bits of a corner's holdout predictions and goldens.
std::string holdoutDigest(const DeltaLatencyModel::Holdout& h) {
  support::Fnv1a64 x;
  for (const double v : h.predicted) x.f64(v);
  for (const double v : h.golden) x.f64(v);
  return pinned::hexDigits(x.value());
}

/// Fixed model inputs in the feature layout of MoveAnalyzer::features,
/// shaped like training samples: a small move under a 2-cell fanout and a
/// large one under a 31-cell fanout.
constexpr std::array<std::array<double, kNumFeatures>, 2> kPinFeatures = {{
    {2.5, 2.25, 2.5, 2.25, 2.0, 9000.0, 0.5},
    {30.0, 31.0, 62.5, 63.5, 31.0, 35000.0, 0.75},
}};

TrainOptions pinnedTrainOptions(TrainOptions::Family family) {
  TrainOptions t;
  t.cases = 10;
  t.moves_per_case = 16;
  t.mlp.epochs = 60;
  t.seed = 29;
  t.family = family;
  return t;
}

// The trained model's bits at a small scale, captured from the serial
// trainer: training speedups (task scheduling, buffer reuse) must keep
// every floating-point operation, so these literals change only with a
// deliberate change of the sample set or of a regressor.
TEST(DeltaLatencyModelPinned, HsmPredictionsAndHoldoutBits) {
  DeltaLatencyModel model;
  const std::vector<std::size_t> corners = {0, 2, 3};
  EXPECT_EQ(model.train(sharedTech(), corners,
                        pinnedTrainOptions(TrainOptions::Family::kHsm)),
            160u);
  const char* kPredict[3][2] = {{"c014ae49861f1175", "4043cd170f7576b5"},
                                {"bffdb4c0070e1bf8", "40449a9cc63a9385"},
                                {"bff2e576205df2d4", "4044b6a7adf066c0"}};
  const char* kHoldout[3] = {"73655f06f9c4e55b", "32f1b6688248f760",
                             "c71cb4b8f7452aaa"};
  for (std::size_t c = 0; c < corners.size(); ++c) {
    const std::string corner = "corner" + std::to_string(corners[c]);
    for (std::size_t f = 0; f < kPinFeatures.size(); ++f)
      pinned::expectPinned(
          corner + ".feature" + std::to_string(f),
          pinned::hexBits(model.predict(corners[c], kPinFeatures[f])),
          kPredict[c][f]);
    pinned::expectPinned(corner + ".holdout",
                         holdoutDigest(model.holdout(corners[c])),
                         kHoldout[c]);
  }
}

TEST(DeltaLatencyModelPinned, AnnAndSvrFamiliesPredictionBits) {
  const TrainOptions::Family families[2] = {TrainOptions::Family::kAnn,
                                            TrainOptions::Family::kSvr};
  const char* kPredict[2][2] = {{"c029f8ee6257ab36", "4045d0000b6321ea"},
                                {"c001a41c6bd16c1c", "40416b64d170dc21"}};
  const char* kHoldout[2] = {"19b16529cd94bc6d", "55becbb6aefdb2e5"};
  for (std::size_t fam = 0; fam < 2; ++fam) {
    DeltaLatencyModel model;
    model.train(sharedTech(), {1}, pinnedTrainOptions(families[fam]));
    const std::string family = "family" + std::to_string(fam);
    for (std::size_t f = 0; f < kPinFeatures.size(); ++f)
      pinned::expectPinned(family + ".feature" + std::to_string(f),
                           pinned::hexBits(model.predict(1, kPinFeatures[f])),
                           kPredict[fam][f]);
    pinned::expectPinned(family + ".holdout",
                         holdoutDigest(model.holdout(1)), kHoldout[fam]);
  }
}

// DeltaLatencyModel::predictBatch runs a corner's rows four at a time
// through the regressor; for every batch size 1..9 each row must carry
// predict()'s bits, for all three families at every trained corner.
TEST(DeltaLatencyModel, PredictBatchEqualsPredictForEveryLaneRemainder) {
  const TrainOptions::Family families[3] = {TrainOptions::Family::kHsm,
                                            TrainOptions::Family::kAnn,
                                            TrainOptions::Family::kSvr};
  const std::vector<std::size_t> corners = {0, 1, 2, 3};
  // Rows between and beyond the two pinned feature vectors.
  std::vector<std::array<double, kNumFeatures>> rows(9);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double t = 0.15 * static_cast<double>(i) - 0.1;
    for (std::size_t j = 0; j < kNumFeatures; ++j)
      rows[i][j] = kPinFeatures[0][j] +
                   t * (kPinFeatures[1][j] - kPinFeatures[0][j]);
  }
  for (const TrainOptions::Family family : families) {
    TrainOptions t = pinnedTrainOptions(family);
    t.cases = 6;
    DeltaLatencyModel model;
    model.train(sharedTech(), corners, t);
    for (const std::size_t k : corners) {
      ASSERT_TRUE(model.trainedFor(k));
      for (std::size_t n = 1; n <= rows.size(); ++n) {
        std::vector<double> got(n, -1.0);
        model.predictBatch(k, rows.data(), n, got.data());
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(pinned::hexBits(got[i]),
                    pinned::hexBits(model.predict(k, rows[i])))
              << "family " << static_cast<int>(family) << " corner " << k
              << " n=" << n << " row " << i;
      }
    }
  }
}

// Training runs every regressor fit as its own pool task: one `ml.fit`
// span per fit task (HSM: an MLP and an SVR on the validation split and on
// the full set; a leaf family: one fit), each (corner, model, split) once,
// under one `predictor.train` and one `predictor.collect`.
TEST(DeltaLatencyModelTrace, OneFitSpanPerFitTask) {
  const std::vector<std::size_t> corners = {0, 2, 3};
  struct Case {
    TrainOptions::Family family;
    std::size_t tasks_per_corner;
  };
  for (const Case& c : {Case{TrainOptions::Family::kHsm, 4},
                        Case{TrainOptions::Family::kSvr, 1}}) {
    TrainOptions t = pinnedTrainOptions(c.family);
    t.mlp.epochs = 5;
    obs::Tracer& tracer = obs::Tracer::global();
    const std::uint64_t since = obs::nowNs();
    tracer.start();
    DeltaLatencyModel model;
    const std::size_t samples = model.train(sharedTech(), corners, t);
    tracer.stop();

    std::size_t trains = 0, collects = 0;
    std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, int> fits;
    for (const obs::TraceEvent& e : tracer.collect(since)) {
      const std::string name = e.name;
      if (name == "predictor.train") {
        ++trains;
        EXPECT_STREQ(e.args[0].key, "corners");
        EXPECT_EQ(e.args[0].i, 3);
        EXPECT_STREQ(e.args[1].key, "samples");
        EXPECT_EQ(e.args[1].i, static_cast<std::int64_t>(samples));
      } else if (name == "predictor.collect") {
        ++collects;
      } else if (name == "ml.fit") {
        ASSERT_STREQ(e.args[0].key, "corner");
        ASSERT_STREQ(e.args[1].key, "model");
        ASSERT_STREQ(e.args[2].key, "split");
        ASSERT_STREQ(e.args[3].key, "iters");
        EXPECT_GE(e.args[3].i, 1);
        ++fits[{e.args[0].i, e.args[1].i, e.args[2].i}];
      }
    }
    EXPECT_EQ(trains, 1u);
    EXPECT_EQ(collects, 1u);
    std::size_t total = 0;
    for (const auto& [key, count] : fits) {
      EXPECT_EQ(count, 1) << "corner " << std::get<0>(key) << " model "
                          << std::get<1>(key) << " split "
                          << std::get<2>(key);
      total += static_cast<std::size_t>(count);
    }
    EXPECT_EQ(total, corners.size() * c.tasks_per_corner);
  }
}

// Each `ml.fit` span's `iters` (MLP epochs run before early stop, SVR
// coordinate-descent sweeps) is a function of the data and the seed alone:
// two trainings with the same options report the same count per fit,
// whichever pool thread ran it.
TEST(DeltaLatencyModelTrace, FitItersRepeatAcrossTrainings) {
  const TrainOptions t = pinnedTrainOptions(TrainOptions::Family::kHsm);
  using Key = std::tuple<std::int64_t, std::int64_t, std::int64_t>;
  auto trainIters = [&] {
    obs::Tracer& tracer = obs::Tracer::global();
    const std::uint64_t since = obs::nowNs();
    tracer.start();
    DeltaLatencyModel model;
    model.train(sharedTech(), {0, 2}, t);
    tracer.stop();
    std::map<Key, std::int64_t> iters;
    for (const obs::TraceEvent& e : tracer.collect(since))
      if (std::string(e.name) == "ml.fit")
        iters[{e.args[0].i, e.args[1].i, e.args[2].i}] = e.args[3].i;
    return iters;
  };
  const std::map<Key, std::int64_t> first = trainIters();
  ASSERT_EQ(first.size(), 8u);  // 2 corners x HSM's 4 fits
  for (const auto& [key, n] : first) {
    const bool svr = std::get<1>(key) == 1;
    EXPECT_GE(n, 1);
    EXPECT_LE(n, static_cast<std::int64_t>(svr ? t.svr.max_sweeps
                                                : t.mlp.epochs));
  }
  EXPECT_EQ(trainIters(), first);
}

// ---- pinned analysis bits ---------------------------------------------------

/// A small HSM model for corners 0 and 2; a design's other active corners
/// score with the analytical fallback.
const DeltaLatencyModel& pinnedScoringModel() {
  static const DeltaLatencyModel m = [] {
    DeltaLatencyModel model;
    TrainOptions t = pinnedTrainOptions(TrainOptions::Family::kHsm);
    t.cases = 6;
    t.mlp.epochs = 20;
    model.train(sharedTech(), {0, 2}, t);
    return model;
  }();
  return m;
}

/// A type-III search box wide enough that reassignments are common.
MoveEnumOptions surgeryEnumeration() {
  MoveEnumOptions e;
  e.surgery_box_um = 800.0;
  e.max_reassign = 40;
  return e;
}

/// Two designs: CLS1v1 with the default enumeration, and a larger CLS1v2
/// with a wide type-III search box, where about one move in six is a
/// reassignment (one in ~3000 under the default box).
struct PinnedCase {
  network::Design design;
  std::vector<Move> moves;
};
PinnedCase pinnedCase(bool reassign_heavy) {
  testgen::TestcaseOptions o;
  o.sinks = reassign_heavy ? 200 : 60;
  o.max_pairs = 80;
  o.seed = 7;
  PinnedCase c{testgen::makeCls1(sharedTech(), reassign_heavy ? "v2" : "v1", o),
               {}};
  c.moves = enumerateAllMoves(
      c.design, reassign_heavy ? surgeryEnumeration() : MoveEnumOptions{});
  return c;
}

// The analysis bits of every move of two designs. Speedups of the analysis
// (the before-state net table, the scalar downstream window) must keep
// every floating-point operation a score depends on, in order, so these
// literals change only with a deliberate change of the estimators.
TEST(MoveAnalyzerPinned, GroupFeatureAndScoreBits) {
  const char* kWant[2][3] = {
      {"77302de94691d1e5", "01e6460b9a6cfc6a", "38b46e291103beac"},
      {"3a6d08ceb7137446", "3e3c9f49344a1bb2", "966025603509b0c3"}};
  sta::Timer timer(sharedTech());
  for (const bool heavy : {false, true}) {
    const PinnedCase c = pinnedCase(heavy);
    const MoveAnalyzer analyzer(c.design, timer);
    support::Fnv1a64 groups, features;
    const auto i64 = [](int v) {
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    };
    for (const Move& m : c.moves) {
      for (const ImpactGroup& g : analyzer.analyze(m)) {
        groups.u64(i64(g.root));
        groups.u64(i64(g.exclude));
        groups.u64(g.primary ? 1 : 0);
        for (const auto& per_corner : g.delta)
          for (const double v : per_corner) groups.f64(v);
        if (!g.primary) continue;
        for (std::size_t ki = 0; ki < c.design.corners.size(); ++ki)
          for (const double v : analyzer.features(m, g, ki)) features.f64(v);
      }
    }
    const Objective objective(c.design, timer);
    const MovePredictor predictor(c.design, timer, objective,
                                  &pinnedScoringModel());
    std::vector<double> scores(c.moves.size());
    predictor.scoreBatch(c.moves, scores);
    support::Fnv1a64 score_bits;
    for (const double v : scores) score_bits.f64(v);
    const std::size_t ci = heavy ? 1 : 0;
    const std::string at = "case" + std::to_string(ci);
    pinned::expectPinned(at + ".groups", pinned::hexDigits(groups.value()),
                         kWant[ci][0]);
    pinned::expectPinned(at + ".features",
                         pinned::hexDigits(features.value()), kWant[ci][1]);
    pinned::expectPinned(at + ".scores",
                         pinned::hexDigits(score_bits.value()), kWant[ci][2]);
  }
}

// ---- the before-state net table ---------------------------------------------

/// CLS1v1 with a wide type-III search box: every move type, and
/// reassignments that rewire two drivers' nets when committed.
PinnedCase surgeryCase() {
  testgen::TestcaseOptions o;
  o.sinks = 60;
  o.max_pairs = 80;
  o.seed = 7;
  PinnedCase c{testgen::makeCls1(sharedTech(), "v1", o), {}};
  c.moves = enumerateAllMoves(c.design, surgeryEnumeration());
  return c;
}

bool sameGroupBits(const std::vector<ImpactGroup>& a,
                   const std::vector<ImpactGroup>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (a[g].root != b[g].root || a[g].exclude != b[g].exclude ||
        a[g].primary != b[g].primary || a[g].delta.size() != b[g].delta.size())
      return false;
    for (std::size_t ki = 0; ki < a[g].delta.size(); ++ki)
      for (std::size_t e = 0; e < kNumAnalytic; ++e)
        if (std::bit_cast<std::uint64_t>(a[g].delta[ki][e]) !=
            std::bit_cast<std::uint64_t>(b[g].delta[ki][e]))
          return false;
  }
  return true;
}

/// The middle move of a type, as the optimizer could commit it.
const Move& middleOfType(const std::vector<Move>& moves, MoveType type) {
  std::vector<const Move*> of_type;
  for (const Move& m : moves)
    if (m.type == type) of_type.push_back(&m);
  if (of_type.empty()) throw std::logic_error("no move of the wanted type");
  return *of_type[of_type.size() / 2];
}

// The table lives for one refresh(): after a commit and a refresh(), the
// analyzer's table-backed analyze() equals a freshly constructed
// analyzer's, bit for bit, for every move. Only every other move requests
// its nets, so table reads and the analyzer's own estimates mix.
TEST(MoveAnalyzer, BeforeNetTableAfterCommitAndRefreshMatchesFreshAnalyzer) {
  PinnedCase c = surgeryCase();
  sta::Timer timer(sharedTech());
  support::ThreadPool pool(4);
  MoveAnalyzer analyzer(c.design, timer);
  for (const MoveType commit :
       {MoveType::kReassign, MoveType::kSizeDisplace,
        MoveType::kChildDisplaceSize}) {
    for (const Move& m : c.moves) analyzer.requestBeforeNets(m);
    EXPECT_GT(analyzer.buildBeforeNets(&pool), 0u);
    applyMove(c.design, middleOfType(c.moves, commit));
    analyzer.refresh();
    c.moves = enumerateAllMoves(c.design, surgeryEnumeration());
    for (std::size_t i = 0; i < c.moves.size(); i += 2)
      analyzer.requestBeforeNets(c.moves[i]);
    EXPECT_GT(analyzer.buildBeforeNets(&pool), 0u);

    const MoveAnalyzer fresh(c.design, timer);
    std::size_t bad = 0;
    for (const Move& m : c.moves)
      if (!sameGroupBits(analyzer.analyze(m), fresh.analyze(m))) ++bad;
    EXPECT_EQ(bad, 0u) << bad << " of " << c.moves.size()
                       << " moves differ after a type "
                       << static_cast<int>(commit) << " commit";
  }
}

// Pool slices share the table read-only: scoreRound scores bit for bit the
// same on one slice as on a 4-thread pool, on a cold cache and after a
// commit, and builds the same number of before-state nets. A round whose
// every move is reused builds none.
TEST(MovePredictor, ScoreRoundSerialEqualsPooledWithBeforeNetTable) {
  PinnedCase c = surgeryCase();
  sta::Timer timer(sharedTech());
  const Objective objective(c.design, timer);
  support::ThreadPool pool(4);
  MovePredictor serial(c.design, timer, objective, &pinnedScoringModel());
  MovePredictor pooled(c.design, timer, objective, &pinnedScoringModel());
  ScoreCache serial_cache, pooled_cache;
  std::vector<double> a, b;
  for (int step = 0; step < 3; ++step) {
    if (step == 1)
      applyMove(c.design, middleOfType(c.moves, MoveType::kReassign));
    if (step > 0) {
      serial.refresh();
      pooled.refresh();
      c.moves = enumerateAllMoves(c.design, surgeryEnumeration());
    }
    a.assign(c.moves.size(), 0.0);
    b.assign(c.moves.size(), 1.0);
    const MovePredictor::RoundStats sa =
        serial.scoreRound(c.moves, a, &serial_cache, nullptr);
    const MovePredictor::RoundStats sb =
        pooled.scoreRound(c.moves, b, &pooled_cache, &pool);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (std::bit_cast<std::uint64_t>(a[i]) !=
          std::bit_cast<std::uint64_t>(b[i]))
        ++bad;
    EXPECT_EQ(bad, 0u) << "step " << step;
    EXPECT_EQ(sa.computed, sb.computed) << "step " << step;
    EXPECT_EQ(sa.nets, sb.nets) << "step " << step;
    if (step < 2) {
      EXPECT_GT(sa.nets, 0u) << "step " << step;
    } else {
      EXPECT_EQ(sa.reused, c.moves.size());
      EXPECT_EQ(sa.nets, 0u);
    }
  }
}

}  // namespace
}  // namespace skewopt::core
