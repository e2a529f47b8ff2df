// Edge cases and failure-injection across modules: degenerate inputs,
// limit behavior, and error paths that the mainline suites do not reach.
#include <gtest/gtest.h>

#include "core/predictor.h"
#include "cts/cts.h"
#include "lp/lp.h"
#include "ml/ml.h"
#include "route/route.h"
#include "sta/report.h"

#include <sstream>
#include <stdexcept>
#include "testgen/testgen.h"

namespace skewopt {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

TEST(PredictorEdge, TrainRejectsBadCornerListsBeforeAnyWork) {
  core::DeltaLatencyModel model;
  core::TrainOptions t;
  t.cases = 4;
  t.moves_per_case = 8;
  t.mlp.epochs = 5;
  t.family = core::TrainOptions::Family::kAnn;
  model.train(sharedTech(), {1}, t);
  ASSERT_TRUE(model.trainedFor(1));
  const std::size_t n = sharedTech().numCorners();
  // An out-of-range id would index past the per-corner tables; a repeated
  // one would count each sample twice.
  EXPECT_THROW(model.train(sharedTech(), {0, n}, t), std::invalid_argument);
  EXPECT_THROW(model.train(sharedTech(), {0, 0}, t), std::invalid_argument);
  EXPECT_THROW(model.train(sharedTech(), {2, 1, 2}, t), std::invalid_argument);
  // Rejected before any work: the previous model is untouched.
  EXPECT_TRUE(model.trainedFor(1));
  EXPECT_FALSE(model.trainedFor(0));
}

TEST(RouteEdge, EmptyPinSet) {
  const route::SteinerTree t = route::greedySteiner({5, 5}, {});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.wirelength(), 0.0);
  const route::SteinerTree st = route::singleTrunk({5, 5}, {});
  EXPECT_EQ(st.pin_node.size(), 0u);
  const route::SteinerTree er = route::ecoRoute({5, 5}, {});
  EXPECT_DOUBLE_EQ(er.wirelength(), 0.0);
}

TEST(RouteEdge, CoincidentPins) {
  // All pins on the driver: zero wirelength, everything still reachable.
  std::vector<geom::Point> pins(4, geom::Point{7, 7});
  const route::SteinerTree t = route::greedySteiner({7, 7}, pins);
  EXPECT_DOUBLE_EQ(t.wirelength(), 0.0);
  for (std::size_t i = 0; i < pins.size(); ++i)
    EXPECT_DOUBLE_EQ(t.pathLength(i), 0.0);
}

TEST(RouteEdge, PathLengthRejectsBadPin) {
  const route::SteinerTree t = route::greedySteiner({0, 0}, {{5, 5}});
  EXPECT_THROW(t.pathLength(3), std::out_of_range);
}

TEST(LpEdge, IterationLimitReported) {
  // A paper-shaped LP with an absurdly small budget of iterations.
  geom::Rng rng(3);
  lp::Model m;
  for (int j = 0; j < 30; ++j) m.addVar(0, 10, rng.uniform(-1, 1));
  for (int r = 0; r < 20; ++r) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < 30; ++j) terms.push_back({j, rng.uniform(-1, 1)});
    m.addRow(-lp::kInf, rng.uniform(1.0, 5.0), std::move(terms));
  }
  lp::SolverOptions o;
  o.max_iterations = 1;
  const lp::Solution s = lp::solve(m, o);
  EXPECT_EQ(s.status, lp::Status::IterLimit);
  EXPECT_EQ(s.x.size(), 30u);
  EXPECT_STREQ(lp::statusName(s.status), "iteration-limit");
}

TEST(LpEdge, StatusNamesComplete) {
  EXPECT_STREQ(lp::statusName(lp::Status::Optimal), "optimal");
  EXPECT_STREQ(lp::statusName(lp::Status::Infeasible), "infeasible");
  EXPECT_STREQ(lp::statusName(lp::Status::Unbounded), "unbounded");
}

TEST(LpEdge, EmptyModelOptimal) {
  lp::Model m;
  const lp::Solution s = lp::solve(m);
  EXPECT_EQ(s.status, lp::Status::Optimal);
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(CtsEdge, SingleSink) {
  network::Design d("one", &sharedTech(), {0, 0});
  d.corners = {0, 1};
  d.floorplan = geom::Region{{geom::Rect{0, 0, 100, 100}}};
  cts::CtsEngine engine(sharedTech());
  const cts::CtsResult r = engine.synthesize(d, {{50, 50}});
  ASSERT_EQ(r.sink_ids.size(), 1u);
  std::string err;
  EXPECT_TRUE(d.tree.validate(&err)) << err;
  const sta::Timer timer(sharedTech());
  const sta::CornerTiming t = timer.analyze(d.tree, d.routing, 0);
  EXPECT_GT(t.arrival[static_cast<std::size_t>(r.sink_ids[0])], 0.0);
}

TEST(CtsEdge, TwoSinksBalance) {
  // Asymmetric two-sink case: the balancer must close most of the gap.
  network::Design d("two", &sharedTech(), {0, 0});
  d.corners = {0};
  d.floorplan = geom::Region{{geom::Rect{0, 0, 800, 800}}};
  cts::CtsEngine engine(sharedTech());
  const cts::CtsResult r = engine.synthesize(d, {{30, 30}, {700, 700}});
  EXPECT_LT(r.balanced_skew_ps, 60.0);
}

TEST(TechEdge, CompressionValidation) {
  EXPECT_THROW(tech::TechModel::make28nm(1.0), std::invalid_argument);
  EXPECT_THROW(tech::TechModel::make28nm(-0.1), std::invalid_argument);
  const tech::TechModel flat = tech::TechModel::make28nm(0.75);
  // Compression pulls every derate toward 1.
  for (std::size_t k = 1; k < flat.numCorners(); ++k) {
    const double base = sharedTech().gateDerate(k);
    const double comp = flat.gateDerate(k);
    EXPECT_LT(std::abs(comp - 1.0), std::abs(base - 1.0)) << k;
  }
}

TEST(StaEdge, VariationHelperEmptyPairs) {
  network::Design d("empty", &sharedTech(), {0, 0});
  d.corners = {0, 1};
  const int b = d.tree.addBuffer(0, {10, 10}, 2);
  d.tree.addSink(b, {20, 20});
  d.routing.rebuildAll(d.tree);
  const sta::Timer timer(sharedTech());
  EXPECT_DOUBLE_EQ(sta::sumNormalizedSkewVariation(d, timer), 0.0);
}

TEST(StaEdge, ReportOnTinyDesign) {
  network::Design d("tiny", &sharedTech(), {0, 0});
  d.corners = {0};
  const int b = d.tree.addBuffer(0, {10, 10}, 2);
  const int s1 = d.tree.addSink(b, {20, 20});
  const int s2 = d.tree.addSink(b, {30, 10});
  d.routing.rebuildAll(d.tree);
  d.pairs.push_back({s1, s2, 1.0});
  const sta::Timer timer(sharedTech());
  std::ostringstream os;
  EXPECT_NO_THROW(sta::writeTimingReport(os, d, timer));
  EXPECT_NE(os.str().find("corner c0"), std::string::npos);
}

TEST(GeomEdge, EmptyRegionClamp) {
  const geom::Region empty;
  const geom::Point p{3, 4};
  const geom::Point q = empty.clamp(p);
  EXPECT_DOUBLE_EQ(q.x, 3.0);
  EXPECT_DOUBLE_EQ(q.y, 4.0);
  EXPECT_FALSE(empty.contains(p));
  EXPECT_TRUE(empty.bbox().empty());
}

TEST(TestgenEdge, TinySinkCounts) {
  // Generators must survive very small FF counts (degenerate hierarchies).
  for (const std::size_t n : {4u, 7u, 13u}) {
    testgen::TestcaseOptions o;
    o.sinks = n;
    const network::Design d = testgen::makeCls1(sharedTech(), "v1", o);
    EXPECT_EQ(d.tree.sinks().size(), n);
    std::string err;
    EXPECT_TRUE(d.tree.validate(&err)) << n << ": " << err;
  }
}

TEST(MlEdge, SingleFeatureSingleSampleClasses) {
  // Tiny datasets must not crash any family.
  ml::Dataset d;
  d.x = ml::Matrix(4, 1);
  for (std::size_t i = 0; i < 4; ++i) d.x.at(i, 0) = static_cast<double>(i);
  d.y = {0.0, 1.0, 2.0, 3.0};
  ml::MlpOptions mo;
  mo.epochs = 10;
  ml::MlpRegressor mlp(mo);
  EXPECT_NO_THROW(mlp.fit(d));
  ml::SvrRbf svr;
  EXPECT_NO_THROW(svr.fit(d));
  EXPECT_TRUE(std::isfinite(mlp.predict(d.x.row(0))));
  EXPECT_TRUE(std::isfinite(svr.predict(d.x.row(0))));
}

}  // namespace
}  // namespace skewopt
