// Tests for the incremental timer, the extension beyond the paper's core
// flow that every golden re-time goes through.
#include <gtest/gtest.h>

#include "core/moves.h"
#include "eco/eco.h"
#include "sta/incremental.h"
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
