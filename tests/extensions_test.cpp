// Tests for the extensions beyond the paper's core flow: the continuous
// buffer-placement explorer (the paper's future-work item (ii)) and the
// incremental timer.
#include <gtest/gtest.h>

#include "core/placement_explorer.h"
#include "sta/incremental.h"
#include "eco/eco.h"
#include "testgen/testgen.h"

namespace skewopt {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

network::Design makeDesign(std::uint64_t seed = 1) {
  testgen::TestcaseOptions o;
  o.sinks = 60;
  o.max_pairs = 60;
  o.seed = seed;
  return testgen::makeCls1(sharedTech(), "v1", o);
}

TEST(PlacementExplorer, FindsAtLeastAsGoodAsTypeIMoves) {
  const network::Design d = makeDesign();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d, timer);
  core::BufferPlacementExplorer explorer(d, timer, objective);
  core::MovePredictor predictor(d, timer, objective, nullptr);

  // For a handful of buffers: the continuous scan's predicted optimum must
  // be no worse than the best fixed type-I probe (it is a superset search).
  const std::vector<int> bufs = d.tree.buffers();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < bufs.size() && checked < 5; i += 7, ++checked) {
    const int b = bufs[i];
    double best_type1 = 0.0;
    for (const core::Move& m : core::enumerateMoves(d, b)) {
      if (m.type != core::MoveType::kSizeDisplace) continue;
      best_type1 =
          std::min(best_type1, predictor.predictedVariationDelta(m));
    }
    core::ExplorerOptions eo;
    eo.coarse_step_um = 10.0;  // grid includes the 10um type-I probes
    const core::PlacementChoice c = explorer.explore(b, eo);
    // Small slack: the explorer clamps probes into the floorplan while the
    // raw type-I probes do not, which perturbs boundary buffers slightly.
    EXPECT_LE(c.predicted_delta_ps, best_type1 + 0.2) << "buffer " << b;
    EXPECT_GT(c.probes, 50u);
  }
}

TEST(PlacementExplorer, ApplyRealizesPrediction) {
  network::Design d = makeDesign(2);
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d, timer);
  const double before = objective.evaluate(d, timer).sum_variation_ps;
  core::BufferPlacementExplorer explorer(d, timer, objective);

  // Pick the buffer with the best predicted improvement and apply it.
  int best_buf = -1;
  core::PlacementChoice best;
  for (const int b : d.tree.buffers()) {
    const core::PlacementChoice c = explorer.explore(b);
    if (c.predicted_delta_ps < best.predicted_delta_ps) {
      best = c;
      best_buf = b;
    }
  }
  ASSERT_GE(best_buf, 0);
  ASSERT_LT(best.predicted_delta_ps, 0.0);
  core::BufferPlacementExplorer::apply(d, best_buf, best);
  std::string err;
  EXPECT_TRUE(d.tree.validate(&err)) << err;
  const double after = objective.evaluate(d, timer).sum_variation_ps;
  // Realization noise allowed, but the sign should mostly hold for the
  // best-of-all-buffers choice.
  EXPECT_LT(after, before + 15.0);
}

TEST(PlacementExplorer, StaysInsideFloorplan) {
  network::Design d = makeDesign(3);
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d, timer);
  core::BufferPlacementExplorer explorer(d, timer, objective);
  core::ExplorerOptions eo;
  eo.radius_um = 500.0;  // deliberately bigger than the block margin
  eo.coarse_step_um = 100.0;
  const int b = d.tree.buffers().front();
  const core::PlacementChoice c = explorer.explore(b, eo);
  EXPECT_TRUE(d.floorplan.contains(c.position));
}

TEST(IncrementalTimer, BitIdenticalToFullAnalysisAcrossMoves) {
  network::Design d = makeDesign(6);
  const sta::Timer full(sharedTech());
  sta::IncrementalTimer inc(sharedTech(), d);

  geom::Rng rng(42);
  for (int step = 0; step < 40; ++step) {
    const std::vector<core::Move> moves = core::enumerateAllMoves(d);
    ASSERT_FALSE(moves.empty());
    const core::Move& m = moves[rng.index(moves.size())];
    const std::vector<int> dirty = core::applyMoveTracked(d, m);
    ASSERT_FALSE(dirty.empty());
    inc.update(d, dirty);

    for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
      const sta::CornerTiming ref =
          full.analyze(d.tree, d.routing, d.corners[ki]);
      const sta::CornerTiming& got = inc.timing(ki);
      ASSERT_EQ(got.arrival.size(), ref.arrival.size());
      for (std::size_t i = 0; i < ref.arrival.size(); ++i) {
        const int id = static_cast<int>(i);
        if (!d.tree.isValid(id)) continue;
        ASSERT_DOUBLE_EQ(got.arrival[i], ref.arrival[i])
            << "step " << step << " node " << i << " (" << m.describe(d)
            << ")";
        ASSERT_DOUBLE_EQ(got.slew[i], ref.slew[i]);
      }
    }
  }
}

TEST(IncrementalTimer, HandlesNodeGrowthFromEcoRebuild) {
  // ECO arc rebuilds insert brand-new nodes; the incremental state must
  // grow and still match a full analysis when updated from the arc source.
  network::Design d = makeDesign(7);
  const eco::StageDelayLut lut(sharedTech());
  const sta::Timer full(sharedTech());
  sta::IncrementalTimer inc(sharedTech(), d);

  // Rebuild the longest arc.
  const std::vector<network::Arc> arcs = d.tree.extractArcs();
  const network::Arc* longest = &arcs.front();
  for (const network::Arc& a : arcs)
    if (a.direct_len_um > longest->direct_len_um) longest = &a;
  eco::EcoEngine eng(sharedTech(), lut);
  std::vector<double> want, slews, loads;
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
    const sta::CornerTiming& t = inc.timing(ki);
    want.push_back(
        1.1 * (t.arrival[static_cast<std::size_t>(longest->dst)] -
               t.arrival[static_cast<std::size_t>(longest->src)]));
    slews.push_back(t.slew[static_cast<std::size_t>(longest->src)]);
    loads.push_back(3.0);
  }
  const eco::ArcSolution sol = eng.selectSolution(
      d.corners, want, longest->direct_len_um, slews, loads);
  ASSERT_TRUE(sol.valid);
  eng.rebuildArc(d, *longest, sol);
  inc.update(d, {longest->src});

  for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
    const sta::CornerTiming ref =
        full.analyze(d.tree, d.routing, d.corners[ki]);
    const sta::CornerTiming& got = inc.timing(ki);
    for (std::size_t i = 0; i < ref.arrival.size(); ++i) {
      const int id = static_cast<int>(i);
      if (!d.tree.isValid(id)) continue;
      ASSERT_DOUBLE_EQ(got.arrival[i], ref.arrival[i]) << i;
    }
  }
}

TEST(IncrementalTimer, MinimalRootsDedup) {
  // Passing a driver plus one of its descendants must not break anything
  // (the descendant's retime is covered by the ancestor's).
  network::Design d = makeDesign(8);
  sta::IncrementalTimer inc(sharedTech(), d);
  const int buf = d.tree.buffers().front();
  const geom::Point p = d.tree.node(buf).pos;
  d.tree.moveNode(buf, {p.x + 12, p.y});
  d.routing.rebuildAround(d.tree, buf);
  inc.update(d, {d.tree.node(buf).parent, buf, buf});
  const sta::Timer full(sharedTech());
  const sta::CornerTiming ref = full.analyze(d.tree, d.routing, d.corners[0]);
  for (std::size_t i = 0; i < ref.arrival.size(); ++i)
    ASSERT_DOUBLE_EQ(inc.timing(0).arrival[i], ref.arrival[i]) << i;
}

}  // namespace
}  // namespace skewopt
