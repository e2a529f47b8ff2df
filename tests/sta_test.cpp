#include "sta/timer.h"

#include <gtest/gtest.h>

#include "sta/incremental.h"

#include "network/design.h"
#include "rc/rc.h"
#include "testgen/testgen.h"

namespace skewopt::sta {
namespace {

using network::ClockTree;
using network::Design;
using network::Routing;

class StaTest : public ::testing::Test {
 protected:
  tech::TechModel tech_ = tech::TechModel::make28nm();
  Timer timer_{tech_};
};

TEST_F(StaTest, SourceDirectToSinkIsPureWire) {
  ClockTree t({0, 0});
  t.addSink(0, {100, 0});
  Routing r(0.0);  // jogless for exact hand-check
  r.rebuildAll(t);
  const CornerTiming ct = timer_.analyze(t, r, 0);
  const tech::WireParams& w = tech_.wire(0);
  const double expect =
      rc::uniformWireElmore(100.0, w.res_kohm_per_um, w.cap_ff_per_um,
                            tech_.sinkCapFf(0));
  EXPECT_NEAR(ct.arrival[1], expect, 1e-9);
  EXPECT_GT(ct.slew[1], timer_.sourceSlew());  // wire degrades slew
}

TEST_F(StaTest, BufferAddsTableDelay) {
  ClockTree t({0, 0});
  const int b = t.addBuffer(0, {0, 0}, 2);  // colocated: no wire to buffer
  t.addSink(b, {50, 0});
  Routing r(0.0);
  r.rebuildAll(t);
  const CornerTiming ct = timer_.analyze(t, r, 0);
  const tech::WireParams& w = tech_.wire(0);
  const double load =
      50.0 * w.cap_ff_per_um + tech_.sinkCapFf(0);
  const double gate =
      tech_.cell(2).delay[0].lookup(timer_.sourceSlew(), load);
  const double wire = rc::uniformWireElmore(
      50.0, w.res_kohm_per_um, w.cap_ff_per_um, tech_.sinkCapFf(0));
  EXPECT_NEAR(ct.arrival[2], gate + wire, 1e-6);
  EXPECT_NEAR(ct.driver_load[b], load, 1e-9);
}

TEST_F(StaTest, CornerOrderingOnGateDominatedPath) {
  // A buffer chain with negligible wire: latency tracks the gate derate,
  // so c1 (ss 0.75V) is slowest and c3 (ff 1.32V) fastest.
  ClockTree t({0, 0});
  int prev = 0;
  for (int i = 0; i < 6; ++i) prev = t.addBuffer(prev, {2.0 * i, 0}, 2);
  const int s = t.addSink(prev, {14, 0});
  Routing r(0.0);
  r.rebuildAll(t);
  const double l0 = timer_.analyze(t, r, 0).arrival[static_cast<std::size_t>(s)];
  const double l1 = timer_.analyze(t, r, 1).arrival[static_cast<std::size_t>(s)];
  const double l2 = timer_.analyze(t, r, 2).arrival[static_cast<std::size_t>(s)];
  const double l3 = timer_.analyze(t, r, 3).arrival[static_cast<std::size_t>(s)];
  EXPECT_GT(l1, l0);
  EXPECT_LT(l2, l0);
  EXPECT_LT(l3, l2);
}

TEST_F(StaTest, WireAndGatePathsScaleDifferently) {
  // The essential multi-corner property: a wire-heavy path's c2/c0 latency
  // ratio is much larger than a gate-heavy path's.
  ClockTree gate_tree({0, 0});
  int prev = 0;
  for (int i = 0; i < 8; ++i) prev = gate_tree.addBuffer(prev, {i * 1.0, 0}, 1);
  const int gs = gate_tree.addSink(prev, {9, 0});
  Routing gr(0.0);
  gr.rebuildAll(gate_tree);

  ClockTree wire_tree({0, 0});
  const int wb = wire_tree.addBuffer(0, {0, 0}, 4);
  const int ws = wire_tree.addSink(wb, {400, 0});
  (void)wb;
  Routing wr(0.0);
  wr.rebuildAll(wire_tree);

  const double g0 = timer_.analyze(gate_tree, gr, 0).arrival[static_cast<std::size_t>(gs)];
  const double g2 = timer_.analyze(gate_tree, gr, 2).arrival[static_cast<std::size_t>(gs)];
  const double w0 = timer_.analyze(wire_tree, wr, 0).arrival[static_cast<std::size_t>(ws)];
  const double w2 = timer_.analyze(wire_tree, wr, 2).arrival[static_cast<std::size_t>(ws)];
  EXPECT_GT(w2 / w0, g2 / g0 + 0.1);
}

TEST_F(StaTest, ArcDelaysSumToSinkLatency) {
  geom::Rng rng(31);
  ClockTree t({0, 0});
  std::vector<int> bufs = {t.addBuffer(0, {20, 20}, 2)};
  for (int i = 0; i < 20; ++i)
    bufs.push_back(t.addBuffer(bufs[rng.index(bufs.size())],
                               rng.pointIn(geom::Rect{0, 0, 300, 300}),
                               static_cast<int>(1 + rng.index(4))));
  std::vector<int> sinks;
  for (int i = 0; i < 25; ++i)
    sinks.push_back(t.addSink(bufs[rng.index(bufs.size())],
                              rng.pointIn(geom::Rect{0, 0, 300, 300})));
  Routing r;
  r.rebuildAll(t);
  const CornerTiming ct = timer_.analyze(t, r, 1);

  const std::vector<network::Arc> arcs = t.extractArcs();
  std::vector<int> arc_by_dst(t.numNodes(), -1);
  for (const network::Arc& a : arcs)
    arc_by_dst[static_cast<std::size_t>(a.dst)] = a.id;
  for (const int s : sinks) {
    double sum = 0.0;
    int cur = s;
    while (cur != t.root()) {
      const network::Arc& a =
          arcs[static_cast<std::size_t>(arc_by_dst[static_cast<std::size_t>(cur)])];
      sum += ct.arrival[static_cast<std::size_t>(a.dst)] -
             ct.arrival[static_cast<std::size_t>(a.src)];
      cur = a.src;
    }
    EXPECT_NEAR(sum, ct.arrival[static_cast<std::size_t>(s)], 1e-6);
  }
}

TEST_F(StaTest, MovingSinkFartherIncreasesItsLatency) {
  ClockTree t({0, 0});
  const int b = t.addBuffer(0, {10, 10}, 2);
  const int s1 = t.addSink(b, {40, 10});
  t.addSink(b, {20, 30});
  Routing r(0.0);
  r.rebuildAll(t);
  const double before =
      timer_.analyze(t, r, 0).arrival[static_cast<std::size_t>(s1)];
  t.moveNode(s1, {140, 10});
  r.rebuildAround(t, s1);
  const double after =
      timer_.analyze(t, r, 0).arrival[static_cast<std::size_t>(s1)];
  EXPECT_GT(after, before);
}

TEST_F(StaTest, WorstLoadRatioFlagsOverload) {
  ClockTree t({0, 0});
  const int b = t.addBuffer(0, {0, 0}, 0);  // weakest cell
  for (int i = 0; i < 40; ++i) t.addSink(b, {100.0 + i, 100.0});
  Routing r;
  r.rebuildAll(t);
  EXPECT_GT(timer_.worstLoadRatio(t, r, 0), 1.0);

  ClockTree ok({0, 0});
  const int b2 = ok.addBuffer(0, {0, 0}, 4);
  ok.addSink(b2, {20, 0});
  Routing r2;
  r2.rebuildAll(ok);
  EXPECT_LT(timer_.worstLoadRatio(ok, r2, 0), 1.0);
}

TEST_F(StaTest, PowerAndAreaAccounting) {
  Design d("t", &tech_, {0, 0});
  d.corners = {0, 1};
  const int b = d.tree.addBuffer(0, {10, 0}, 2);
  d.tree.addSink(b, {50, 0});
  d.routing.rebuildAll(d.tree);
  const double p1 = clockTreePowerMw(d, 0);
  const double a1 = clockCellAreaUm2(d);
  EXPECT_GT(p1, 0.0);
  EXPECT_DOUBLE_EQ(a1, tech_.cell(2).area_um2);
  // Another buffer adds power and area.
  const int b2 = d.tree.addBuffer(b, {30, 0}, 3);
  d.tree.reassignDriver(2, b2);
  d.routing.rebuildAll(d.tree);
  EXPECT_GT(clockTreePowerMw(d, 0), p1);
  EXPECT_GT(clockCellAreaUm2(d), a1);
}

TEST_F(StaTest, SlewPropagatesMonotonically) {
  // Along a chain without buffers the slew only degrades (PERI adds in
  // quadrature); buffers restore it.
  ClockTree t({0, 0});
  const int s = t.addSink(0, {600, 0});
  Routing r(0.0);
  r.rebuildAll(t);
  const CornerTiming ct = timer_.analyze(t, r, 0);
  EXPECT_GT(ct.slew[static_cast<std::size_t>(s)], timer_.sourceSlew());
}

TEST_F(StaTest, MissingNetThrows) {
  ClockTree t({0, 0});
  t.addSink(0, {10, 0});
  Routing r;  // never rebuilt
  EXPECT_THROW(timer_.analyze(t, r, 0), std::logic_error);
}

// ---------------------------------------------------------------------------
// Corner-batched propagation differentials: propagateFromAllCorners must
// match one propagateFrom per corner bit for bit (EXPECT_EQ on doubles).
// ---------------------------------------------------------------------------

void expectTimingsIdentical(const CornerTiming& a, const CornerTiming& b,
                            const char* what) {
  ASSERT_EQ(a.arrival.size(), b.arrival.size()) << what;
  for (std::size_t i = 0; i < a.arrival.size(); ++i) {
    EXPECT_EQ(a.arrival[i], b.arrival[i]) << what << " arrival node " << i;
    EXPECT_EQ(a.slew[i], b.slew[i]) << what << " slew node " << i;
    EXPECT_EQ(a.in_arrival[i], b.in_arrival[i])
        << what << " in_arrival node " << i;
    EXPECT_EQ(a.in_slew[i], b.in_slew[i]) << what << " in_slew node " << i;
    EXPECT_EQ(a.driver_load[i], b.driver_load[i])
        << what << " driver_load node " << i;
  }
}

// Parameterized over the three CLS testcases; the batched full analysis of
// every active corner must equal the scalar per-corner analyses.
class BatchPropagationDiff : public ::testing::TestWithParam<const char*> {};
TEST_P(BatchPropagationDiff, FullDesignAllCornersBitIdentical) {
  const tech::TechModel tech = tech::TechModel::make28nm();
  const Timer timer(tech);
  testgen::TestcaseOptions o;
  o.sinks = 48;
  o.max_pairs = 60;
  const network::Design d = testgen::makeTestcase(tech, GetParam(), o);
  const std::vector<CornerTiming> batched = timer.analyzeDesign(d);
  ASSERT_EQ(batched.size(), d.corners.size());
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
    const CornerTiming scalar =
        timer.analyze(d.tree, d.routing, d.corners[ki]);
    expectTimingsIdentical(batched[ki], scalar, GetParam());
  }
}
INSTANTIATE_TEST_SUITE_P(ClsCases, BatchPropagationDiff,
                         ::testing::Values("CLS1v1", "CLS1v2", "CLS2v1"));

TEST_F(StaTest, BatchSubtreePropagationBitIdentical) {
  // Re-propagating a buffer subtree through the batched path must leave
  // exactly the same state as the per-corner scalar path.
  testgen::TestcaseOptions o;
  o.sinks = 32;
  const Design d = testgen::makeCls1(tech_, "v1", o);
  std::vector<CornerTiming> scalar;
  for (const std::size_t k : d.corners)
    scalar.push_back(timer_.analyze(d.tree, d.routing, k));
  std::vector<CornerTiming> batched = scalar;  // same pre-state

  // Pick the first buffer with children as the dirty root.
  int start = -1;
  for (std::size_t i = 0; i < d.tree.numNodes() && start < 0; ++i) {
    const int id = static_cast<int>(i);
    if (!d.tree.isValid(id)) continue;
    const auto& n = d.tree.node(id);
    if (n.kind == network::NodeKind::Buffer && !n.children.empty()) start = id;
  }
  ASSERT_GE(start, 0);

  PropagateScratch scratch;
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
    timer_.propagateFrom(d.tree, d.routing, d.corners[ki], start,
                         &scalar[ki], &scratch);
  PropagateScratch batch_scratch;
  timer_.propagateFromAllCorners(d.tree, d.routing, d.corners, start,
                                 batched, &batch_scratch);
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
    expectTimingsIdentical(batched[ki], scalar[ki], "subtree");
}

TEST_F(StaTest, SeededTimerBitIdenticalToFullAnalysis) {
  // The cross-job warm-start entry point: seed an IncrementalTimer from a
  // prior run's timing snapshot and re-propagate only the edit-dirtied
  // subtree. The result must be bit-identical to a full analysis of the
  // edited design.
  testgen::TestcaseOptions o;
  o.sinks = 32;
  Design d = testgen::makeCls1(tech_, "v1", o);
  const IncrementalTimer full(tech_, d);

  // No edit, empty dirty set: the seed IS the timing state.
  const IncrementalTimer same(tech_, d, full.timings(), {});
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
    expectTimingsIdentical(same.timing(ki), full.timing(ki), "no-edit seed");

  // Move a sink (the DELTA moved-sink edit), dirty its parent's subtree.
  const int sink = d.tree.sinks().front();
  const int parent = d.tree.node(sink).parent;
  ASSERT_GE(parent, 0);
  const geom::Point at = d.tree.node(sink).pos;
  d.tree.moveNode(sink, {at.x + 3.0, at.y + 2.0});
  d.routing.rebuildAround(d.tree, sink);
  const IncrementalTimer fresh(tech_, d);
  const IncrementalTimer seeded(tech_, d, full.timings(), {parent});
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
    expectTimingsIdentical(seeded.timing(ki), fresh.timing(ki),
                           "moved-sink seed");

  // Shape guards: wrong corner count or node count is rejected, never
  // silently mistimed.
  std::vector<CornerTiming> short_snapshot = full.timings();
  short_snapshot.pop_back();
  EXPECT_THROW(IncrementalTimer(tech_, d, short_snapshot, {}),
               std::invalid_argument);
  std::vector<CornerTiming> narrow = full.timings();
  narrow[0].arrival.pop_back();
  EXPECT_THROW(IncrementalTimer(tech_, d, narrow, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace skewopt::sta
