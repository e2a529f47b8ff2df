#include "rc/rc.h"

#include <gtest/gtest.h>

#include "geom/geom.h"

namespace skewopt::rc {
namespace {

TEST(RcTree, SingleLumpElmore) {
  RcTree t;
  const std::size_t n = t.addNode(0, 2.0, 5.0);  // 2 kOhm into 5 fF
  const std::vector<double> d = elmoreDelays(t);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[n], 10.0);  // R*C = 10 ps
}

TEST(RcTree, ChainElmoreHandComputed) {
  // root -R1=1-> a(2fF) -R2=3-> b(4fF)
  RcTree t;
  const std::size_t a = t.addNode(0, 1.0, 2.0);
  const std::size_t b = t.addNode(a, 3.0, 4.0);
  const std::vector<double> d = elmoreDelays(t);
  // Elmore(a) = R1*(2+4) = 6; Elmore(b) = 6 + R2*4 = 18.
  EXPECT_DOUBLE_EQ(d[a], 6.0);
  EXPECT_DOUBLE_EQ(d[b], 18.0);
}

TEST(RcTree, BranchingElmoreSharedResistance) {
  // root -R=2-> s(1fF) with two children: x(3fF via 1k), y(5fF via 4k).
  RcTree t;
  const std::size_t s = t.addNode(0, 2.0, 1.0);
  const std::size_t x = t.addNode(s, 1.0, 3.0);
  const std::size_t y = t.addNode(s, 4.0, 5.0);
  const std::vector<double> d = elmoreDelays(t);
  const double ds = 2.0 * (1 + 3 + 5);
  EXPECT_DOUBLE_EQ(d[s], ds);
  EXPECT_DOUBLE_EQ(d[x], ds + 1.0 * 3.0);
  EXPECT_DOUBLE_EQ(d[y], ds + 4.0 * 5.0);
}

TEST(RcTree, AddCapIncreasesUpstreamDelay) {
  RcTree t;
  const std::size_t a = t.addNode(0, 1.0, 1.0);
  const std::size_t b = t.addNode(a, 1.0, 1.0);
  const double before = elmoreDelays(t)[b];
  t.addCap(b, 10.0);
  EXPECT_GT(elmoreDelays(t)[b], before);
  EXPECT_DOUBLE_EQ(t.totalCap(), 12.0);
}

TEST(Moments, FirstMomentIsNegElmore) {
  RcTree t;
  const std::size_t a = t.addNode(0, 2.0, 3.0);
  const std::size_t b = t.addNode(a, 1.0, 7.0);
  const Moments m = Moments::compute(t);
  const std::vector<double> d = elmoreDelays(t);
  EXPECT_DOUBLE_EQ(-m.m1[a], d[a]);
  EXPECT_DOUBLE_EQ(-m.m1[b], d[b]);
  EXPECT_GT(m.m2[b], 0.0);  // second moment positive for RC trees
}

/// D2M at every node, through Moments::compute and d2mFromMoments as the
/// move analyzer computes it.
std::vector<double> d2mViaMoments(const RcTree& t) {
  const Moments m = Moments::compute(t);
  std::vector<double> d(m.m1.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = d2mFromMoments(m.m1[i], m.m2[i]);
  return d;
}

TEST(D2m, SingleLumpMatchesTheory) {
  // One-pole RC: m1 = -RC, m2 = (RC)^2, D2M = RC * ln2 (the exact median of
  // the single-pole response).
  RcTree t;
  const std::size_t n = t.addNode(0, 2.0, 5.0);
  const std::vector<double> d = d2mViaMoments(t);
  EXPECT_NEAR(d[n], 10.0 * 0.6931471805599453, 1e-9);
}

TEST(D2m, NeverExceedsElmoreOnTrees) {
  // D2M <= Elmore is the metric's design property on RC trees.
  geom::Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    RcTree t;
    std::vector<std::size_t> nodes = {0};
    for (int i = 0; i < 12; ++i)
      nodes.push_back(t.addNode(nodes[rng.index(nodes.size())],
                                rng.uniform(0.1, 3.0),
                                rng.uniform(0.5, 10.0)));
    const std::vector<double> e = elmoreDelays(t);
    const std::vector<double> d = d2mViaMoments(t);
    for (std::size_t n = 1; n < t.size(); ++n)
      EXPECT_LE(d[n], e[n] + 1e-9) << "trial " << trial << " node " << n;
  }
}

TEST(Peri, ExtendsSlewQuadratically) {
  EXPECT_DOUBLE_EQ(periSlew(0.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(periSlew(6.0, 8.0), 10.0);
  EXPECT_DOUBLE_EQ(periSlew(5.0, 0.0), 5.0);
}

TEST(Peri, WireSlewLn9) {
  EXPECT_NEAR(wireSlewFromElmore(10.0), 21.972245773362196, 1e-9);
}

TEST(UniformWire, PiModelFormula) {
  // 100um at 0.002 kOhm/um & 0.2 fF/um into 10 fF:
  // R = 0.2 kOhm, C = 20 fF, delay = 0.2 * (10 + 10) = 4 ps.
  EXPECT_DOUBLE_EQ(uniformWireElmore(100.0, 0.002, 0.2, 10.0), 4.0);
  EXPECT_DOUBLE_EQ(uniformWireElmore(0.0, 0.002, 0.2, 10.0), 0.0);
}

TEST(UniformWire, QuadraticInLength) {
  const double d1 = uniformWireElmore(100.0, 0.002, 0.2, 0.0);
  const double d2 = uniformWireElmore(200.0, 0.002, 0.2, 0.0);
  EXPECT_NEAR(d2 / d1, 4.0, 1e-9);  // pure-wire delay is quadratic
}

TEST(RcTree, RejectsBadParent) {
  RcTree t;
  EXPECT_THROW(t.addNode(5, 1.0, 1.0), std::out_of_range);
}

// Property: Elmore delay is monotone under any cap increase anywhere on the
// node's root path side (adding cap anywhere never decreases any delay).
class ElmoreMonotoneProp : public ::testing::TestWithParam<int> {};
TEST_P(ElmoreMonotoneProp, CapIncreaseNeverSpeedsUp) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 1);
  RcTree t;
  std::vector<std::size_t> nodes = {0};
  for (int i = 0; i < 10; ++i)
    nodes.push_back(t.addNode(nodes[rng.index(nodes.size())],
                              rng.uniform(0.1, 2.0), rng.uniform(0.5, 6.0)));
  const std::vector<double> before = elmoreDelays(t);
  const std::size_t bump = nodes[rng.index(nodes.size())];
  t.addCap(bump, 5.0);
  const std::vector<double> after = elmoreDelays(t);
  for (std::size_t n = 0; n < t.size(); ++n)
    EXPECT_GE(after[n] + 1e-12, before[n]);
}
INSTANTIATE_TEST_SUITE_P(Seeds, ElmoreMonotoneProp, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// SoA batch kernels: every lane must be bit-identical (EXPECT_EQ on
// doubles, exact) to the scalar pass on the equivalent single-lane tree.
// ---------------------------------------------------------------------------

/// Builds a random tree as `lanes` scalar RcTrees (one per lane, with
/// per-lane R/C scaling) plus the equivalent RcTreeBatch.
struct LaneFixture {
  std::vector<RcTree> scalar;
  RcTreeBatch batch;

  LaneFixture(std::uint64_t seed, std::size_t lanes, int n_nodes)
      : scalar(lanes), batch(lanes) {
    geom::Rng rng(seed);
    std::vector<std::size_t> nodes = {0};
    std::vector<double> res(lanes), cap(lanes);
    for (int i = 0; i < n_nodes; ++i) {
      const std::size_t parent = nodes[rng.index(nodes.size())];
      const double r = rng.uniform(0.05, 0.5);
      const double c = rng.uniform(0.5, 5.0);
      for (std::size_t k = 0; k < lanes; ++k) {
        const double s = 0.8 + 0.13 * static_cast<double>(k);
        res[k] = r * s;
        cap[k] = c / s;
        scalar[k].addNode(parent, res[k], cap[k]);
      }
      nodes.push_back(batch.addNode(parent, res.data(), cap.data()));
    }
    // Extra pin caps at a few nodes, per lane.
    for (int i = 0; i < 5; ++i) {
      const std::size_t at = nodes[rng.index(nodes.size())];
      const double c = rng.uniform(0.5, 3.0);
      for (std::size_t k = 0; k < lanes; ++k) {
        cap[k] = c * (1.0 + 0.07 * static_cast<double>(k));
        scalar[k].addCap(at, cap[k]);
      }
      batch.addCap(at, cap.data());
    }
  }
};

TEST(RcTreeBatch, MomentsBitIdenticalToScalarPerLane) {
  const LaneFixture f(11, 4, 40);
  MomentsBatch mb;
  std::vector<double> scratch;
  elmoreMomentsBatch(f.batch, mb, scratch);
  for (std::size_t k = 0; k < 4; ++k) {
    const Moments m = Moments::compute(f.scalar[k]);
    ASSERT_EQ(mb.m1.size(), m.m1.size() * 4);
    for (std::size_t n = 0; n < m.m1.size(); ++n) {
      EXPECT_EQ(mb.m1[n * 4 + k], m.m1[n]) << "m1 lane " << k << " node " << n;
      EXPECT_EQ(mb.m2[n * 4 + k], m.m2[n]) << "m2 lane " << k << " node " << n;
    }
  }
}

TEST(RcTreeBatch, ElmoreDelaysBitIdenticalToScalarPerLane) {
  const LaneFixture f(29, 3, 25);
  std::vector<double> delays, cdown;
  elmoreDelaysBatch(f.batch, delays, cdown);
  std::vector<double> sd, sc;
  for (std::size_t k = 0; k < 3; ++k) {
    elmoreDelaysInto(f.scalar[k], sd, sc);
    for (std::size_t n = 0; n < sd.size(); ++n)
      EXPECT_EQ(delays[n * 3 + k], sd[n]) << "lane " << k << " node " << n;
  }
}

TEST(RcTreeBatch, TotalCapMatchesScalarPerLane) {
  const LaneFixture f(7, 4, 30);
  double tot[4];
  f.batch.totalCapInto(tot);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(tot[k], f.scalar[k].totalCap());
}

TEST(RcTreeBatch, ResetKeepsLanesAndClears) {
  RcTreeBatch t(2);
  const double r[2] = {1.0, 2.0}, c[2] = {3.0, 4.0};
  t.addNode(0, r, c);
  EXPECT_EQ(t.size(), 2u);
  t.reset(4);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lanes(), 4u);
  EXPECT_THROW(t.addNode(5, r, c), std::out_of_range);
  EXPECT_THROW(t.reset(0), std::invalid_argument);
}

TEST(RcTreeBatch, SingleLaneMatchesRcTreeExactly) {
  // lanes=1 is the degenerate case: the batch tree is the scalar tree.
  RcTree s;
  RcTreeBatch b(1);
  const double r = 2.0, c = 5.0;
  s.addNode(0, r, c);
  b.addNode(0, &r, &c);
  std::vector<double> bd, bc, sd, sc;
  elmoreDelaysBatch(b, bd, bc);
  elmoreDelaysInto(s, sd, sc);
  ASSERT_EQ(bd.size(), sd.size());
  for (std::size_t n = 0; n < sd.size(); ++n) EXPECT_EQ(bd[n], sd[n]);
}

}  // namespace
}  // namespace skewopt::rc
