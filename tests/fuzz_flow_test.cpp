// Randomized end-to-end robustness: arbitrary interleavings of edits,
// optimizations, serialization and re-timing must preserve the structural
// and physical invariants — the kind of long-soak property test a
// production EDA flow ships with.
#include <gtest/gtest.h>

#include <sstream>

#include "check/check.h"
#include "core/flow.h"
#include "network/io.h"
#include "sta/incremental.h"
#include "testgen/testgen.h"

namespace skewopt {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}
const eco::StageDelayLut& sharedLut() {
  static eco::StageDelayLut lut(sharedTech());
  return lut;
}

void checkInvariants(const network::Design& d, const char* where) {
  std::string err;
  ASSERT_TRUE(d.tree.validate(&err)) << where << ": " << err;
  const sta::Timer timer(sharedTech());
  // Timing must run and produce finite, positive sink latencies.
  for (const std::size_t k : d.corners) {
    const sta::CornerTiming t = timer.analyze(d.tree, d.routing, k);
    for (const int s : d.tree.sinks()) {
      const double a = t.arrival[static_cast<std::size_t>(s)];
      ASSERT_TRUE(std::isfinite(a)) << where;
      ASSERT_GT(a, 0.0) << where;
      ASSERT_LT(a, 1e6) << where << ": absurd latency " << a;
    }
  }
  // Pairs must reference live sinks.
  for (const network::SinkPair& p : d.pairs) {
    ASSERT_TRUE(d.tree.isValid(p.launch)) << where;
    ASSERT_TRUE(d.tree.isValid(p.capture)) << where;
  }
  // The checker subsystem must agree, at its deepest level, after every
  // stage of every interleaving — its strongest no-false-positive soak.
  check::DiagnosticEngine engine;
  engine.setContext(where);
  check::CheckOptions copts;
  copts.level = check::Level::kDeep;
  check::checkDesign(d, copts, engine);
  check::checkDesignTiming(d, timer, engine);
  ASSERT_FALSE(engine.hasErrors()) << where << ":\n" << engine.text();
}

class FuzzFlow : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFlow, RandomOperationSequenceKeepsInvariants) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  geom::Rng rng(seed * 1299721 + 17);

  testgen::TestcaseOptions o;
  o.sinks = 40 + rng.index(40);
  o.max_pairs = 50;
  o.seed = seed + 1;
  network::Design d =
      rng.uniform() < 0.5
          ? testgen::makeCls1(sharedTech(), rng.uniform() < 0.5 ? "v1" : "v2", o)
          : testgen::makeCls2(sharedTech(), o);
  checkInvariants(d, "after generation");

  const sta::Timer timer(sharedTech());
  core::Objective objective(d, timer);

  for (int op_count = 0; op_count < 8; ++op_count) {
    const int op = static_cast<int>(rng.index(5));
    switch (op) {
      case 0: {  // a few random local moves
        const std::vector<core::Move> moves = core::enumerateAllMoves(d);
        if (moves.empty()) break;
        core::applyMove(d, moves[rng.index(moves.size())]);
        checkInvariants(d, "after random move");
        break;
      }
      case 1: {  // short local optimization burst
        core::LocalOptions lo;
        lo.max_iterations = 1;
        lo.max_chunks_per_round = 2;
        core::LocalOptimizer(sharedTech(), lo).run(d, objective, nullptr);
        checkInvariants(d, "after local burst");
        break;
      }
      case 2: {  // global optimization with a single sweep point
        core::GlobalOptions go;
        go.u_sweep = {0.2};
        core::GlobalOptimizer(sharedTech(), sharedLut(), go)
            .run(d, objective);
        checkInvariants(d, "after global");
        break;
      }
      case 3: {  // serialization round-trip mid-flow
        std::stringstream ss;
        network::writeDesign(d, ss);
        network::Design reloaded = network::readDesign(sharedTech(), ss);
        checkInvariants(reloaded, "after round-trip");
        const double a = sta::sumNormalizedSkewVariation(d, timer);
        const double b = sta::sumNormalizedSkewVariation(reloaded, timer);
        ASSERT_NEAR(a, b, 1e-6) << "round-trip changed timing";
        break;
      }
      case 4: {  // incremental timing consistency after an edit
        sta::IncrementalTimer inc(sharedTech(), d);
        const std::vector<core::Move> moves = core::enumerateAllMoves(d);
        if (moves.empty()) break;
        const core::Move& m = moves[rng.index(moves.size())];
        const std::vector<int> dirty = core::applyMoveTracked(d, m);
        inc.update(d, dirty);
        const sta::CornerTiming ref =
            timer.analyze(d.tree, d.routing, d.corners[0]);
        for (const int s : d.tree.sinks())
          ASSERT_DOUBLE_EQ(
              inc.timing(0).arrival[static_cast<std::size_t>(s)],
              ref.arrival[static_cast<std::size_t>(s)])
              << "incremental drift";
        break;
      }
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFlow, ::testing::Range(1, 7));

}  // namespace
}  // namespace skewopt
