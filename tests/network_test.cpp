#include <gtest/gtest.h>

#include <set>

#include "network/clock_tree.h"
#include "network/routing.h"

namespace skewopt::network {
namespace {

ClockTree smallTree() {
  // src -> b1 -> {b2 -> {s1, s2}, b3 -> b4 -> s3}
  ClockTree t({0, 0});
  const int b1 = t.addBuffer(0, {10, 0}, 1, "b1");
  const int b2 = t.addBuffer(b1, {20, 10}, 0, "b2");
  t.addSink(b2, {30, 10}, "s1");
  t.addSink(b2, {30, 20}, "s2");
  const int b3 = t.addBuffer(b1, {20, -10}, 0, "b3");
  const int b4 = t.addBuffer(b3, {30, -10}, 0, "b4");
  t.addSink(b4, {40, -10}, "s3");
  return t;
}

TEST(ClockTree, ConstructionAndValidate) {
  ClockTree t = smallTree();
  std::string err;
  EXPECT_TRUE(t.validate(&err)) << err;
  EXPECT_EQ(t.sinks().size(), 3u);
  EXPECT_EQ(t.numBuffers(), 4u);
  EXPECT_EQ(t.node(t.root()).kind, NodeKind::Source);
}

TEST(ClockTree, Levels) {
  ClockTree t = smallTree();
  EXPECT_EQ(t.level(0), 0);
  EXPECT_EQ(t.level(1), 1);   // b1
  EXPECT_EQ(t.level(2), 2);   // b2
  EXPECT_EQ(t.level(6), 3);   // b4
  EXPECT_EQ(t.level(7), 3);   // s3 counts buffers above it
}

TEST(ClockTree, PathToRoot) {
  ClockTree t = smallTree();
  const std::vector<int> p = t.pathToRoot(7);  // s3
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p.front(), 7);
  EXPECT_EQ(p.back(), 0);
}

TEST(ClockTree, MoveAndResize) {
  ClockTree t = smallTree();
  t.moveNode(1, {11, 1});
  EXPECT_DOUBLE_EQ(t.node(1).pos.x, 11.0);
  t.resize(1, 3);
  EXPECT_EQ(t.node(1).cell, 3);
  EXPECT_THROW(t.moveNode(0, {1, 1}), std::invalid_argument);  // source
  EXPECT_THROW(t.resize(3, 1), std::invalid_argument);         // sink
}

TEST(ClockTree, ReassignDriver) {
  ClockTree t = smallTree();
  t.reassignDriver(6, 2);  // b4 under b2
  std::string err;
  EXPECT_TRUE(t.validate(&err)) << err;
  EXPECT_EQ(t.node(6).parent, 2);
  // Cycle prevention: cannot move b1 under its own descendant.
  EXPECT_THROW(t.reassignDriver(1, 6), std::invalid_argument);
  // Sinks can be reassigned too.
  t.reassignDriver(3, 5);
  EXPECT_TRUE(t.validate(&err)) << err;
}

TEST(ClockTree, RemoveInteriorBuffer) {
  ClockTree t = smallTree();
  // b3 (id 5) is single-child: remove splices b4 under b1.
  t.removeInteriorBuffer(5);
  std::string err;
  EXPECT_TRUE(t.validate(&err)) << err;
  EXPECT_EQ(t.node(6).parent, 1);
  EXPECT_FALSE(t.isValid(5));
  EXPECT_EQ(t.numBuffers(), 3u);
  // b2 has two children: not removable this way.
  EXPECT_THROW(t.removeInteriorBuffer(2), std::invalid_argument);
}

TEST(ClockTree, RemoveLeafBuffer) {
  ClockTree t({0, 0});
  const int b = t.addBuffer(0, {1, 1}, 0);
  t.removeLeafBuffer(b);
  EXPECT_FALSE(t.isValid(b));
  std::string err;
  EXPECT_TRUE(t.validate(&err)) << err;
}

TEST(ClockTree, ArcsDecomposition) {
  ClockTree t = smallTree();
  const std::vector<Arc> arcs = t.extractArcs();
  // Arcs: src->b1; b1->b2; b1->[b3,b4]->s3 (both b3 and b4 are
  // single-child, hence interior); b2->s1; b2->s2.
  ASSERT_EQ(arcs.size(), 5u);
  std::set<int> interiors;
  std::size_t sink_terminated = 0;
  for (const Arc& a : arcs) {
    EXPECT_TRUE(t.node(a.src).kind != NodeKind::Sink);
    for (const int i : a.interior) {
      EXPECT_EQ(t.node(i).children.size(), 1u);
      EXPECT_TRUE(interiors.insert(i).second) << "interior node in 2 arcs";
    }
    if (t.node(a.dst).kind == NodeKind::Sink) ++sink_terminated;
    EXPECT_GE(a.direct_len_um, 0.0);
  }
  EXPECT_EQ(sink_terminated, 3u);
  EXPECT_EQ(interiors.count(5), 1u);  // b3 interior of b1->s3
  EXPECT_EQ(interiors.count(6), 1u);  // b4 interior of b1->s3
}

TEST(ClockTree, ArcsCoverEveryPath) {
  ClockTree t = smallTree();
  const std::vector<Arc> arcs = t.extractArcs();
  std::vector<int> arc_by_dst(t.numNodes(), -1);
  for (const Arc& a : arcs) arc_by_dst[static_cast<std::size_t>(a.dst)] = a.id;
  for (const int s : t.sinks()) {
    // Walk anchors from the sink to the root; every step must be an arc.
    int cur = s;
    int steps = 0;
    while (cur != t.root()) {
      const int aid = arc_by_dst[static_cast<std::size_t>(cur)];
      ASSERT_GE(aid, 0);
      cur = arcs[static_cast<std::size_t>(aid)].src;
      ASSERT_LT(++steps, 100);
    }
    EXPECT_GE(steps, 2);
  }
}

TEST(ClockTree, ValidateCatchesDeadParent) {
  ClockTree t = smallTree();
  t.removeLeafBuffer(t.addBuffer(1, {5, 5}, 0));
  std::string err;
  EXPECT_TRUE(t.validate(&err)) << err;
}

TEST(Routing, RebuildAllAndNets) {
  ClockTree t = smallTree();
  Routing r;
  r.rebuildAll(t);
  EXPECT_EQ(r.numNets(), 5u);  // src, b1..b4 all drive something
  EXPECT_NE(r.net(0), nullptr);
  EXPECT_EQ(r.net(3), nullptr);  // sink drives nothing
  EXPECT_GT(r.totalWirelength(), 0.0);
}

TEST(Routing, RebuildAroundAfterMove) {
  ClockTree t = smallTree();
  Routing r;
  r.rebuildAll(t);
  const double before = r.totalWirelength();
  t.moveNode(2, {60, 40});
  r.rebuildAround(t, 2);
  EXPECT_NE(r.totalWirelength(), before);
}

TEST(Routing, ExtraAccumulatesAndReads) {
  ClockTree t = smallTree();
  Routing r;
  r.rebuildAll(t);
  const double before = r.totalWirelength();
  const double jog = r.extraOf(2, 0);  // router jogs may already be present
  r.addExtra(2, 0, 25.0);
  r.addExtra(2, 0, 5.0);
  EXPECT_NEAR(r.extraOf(2, 0), jog + 30.0, 1e-9);
  EXPECT_NEAR(r.totalWirelength(), before + 30.0, 1e-6);
  EXPECT_THROW(r.addExtra(99, 0, 1.0), std::out_of_range);
}

TEST(Routing, PinOrderMatchesChildren) {
  ClockTree t = smallTree();
  Routing r;
  r.rebuildAll(t);
  const route::SteinerTree* net = r.net(2);
  ASSERT_NE(net, nullptr);
  const auto& kids = t.node(2).children;
  ASSERT_EQ(net->pin_node.size(), kids.size());
  for (std::size_t i = 0; i < kids.size(); ++i) {
    EXPECT_DOUBLE_EQ(net->nodes[net->pin_node[i]].x, t.node(kids[i]).pos.x);
    EXPECT_DOUBLE_EQ(net->nodes[net->pin_node[i]].y, t.node(kids[i]).pos.y);
  }
}

TEST(ClockTree, StressEditsKeepValid) {
  geom::Rng rng(17);
  ClockTree t({0, 0});
  std::vector<int> bufs = {t.addBuffer(0, {5, 5}, 0)};
  for (int i = 0; i < 60; ++i)
    bufs.push_back(t.addBuffer(bufs[rng.index(bufs.size())],
                               rng.pointIn(geom::Rect{0, 0, 100, 100}),
                               static_cast<int>(rng.index(5))));
  for (int i = 0; i < 80; ++i)
    t.addSink(bufs[rng.index(bufs.size())],
              rng.pointIn(geom::Rect{0, 0, 100, 100}));
  std::string err;
  ASSERT_TRUE(t.validate(&err)) << err;
  for (int i = 0; i < 200; ++i) {
    const int b = bufs[rng.index(bufs.size())];
    if (!t.isValid(b)) continue;
    const int op = static_cast<int>(rng.index(3));
    if (op == 0) {
      t.moveNode(b, rng.pointIn(geom::Rect{0, 0, 100, 100}));
    } else if (op == 1) {
      t.resize(b, static_cast<int>(rng.index(5)));
    } else {
      const int np = bufs[rng.index(bufs.size())];
      if (t.isValid(np) && np != b && !t.isAncestorOrSelf(b, np) &&
          t.node(b).parent != np)
        t.reassignDriver(b, np);
    }
    ASSERT_TRUE(t.validate(&err)) << "op " << op << " iter " << i << ": " << err;
  }
}

}  // namespace
}  // namespace skewopt::network
