#include "core/predictor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "rc/rc.h"
#include "route/route.h"
#include "sta/incremental.h"
#include "support/thread_pool.h"
#include "testgen/testgen.h"

namespace skewopt::core {

using network::ClockNode;
using network::ClockTree;
using network::Design;
using network::NodeKind;

const char* analyticName(std::size_t idx) {
  switch (idx) {
    case 0: return "flute+elmore";
    case 1: return "flute+d2m";
    case 2: return "trunk+elmore";
    case 3: return "trunk+d2m";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MoveAnalyzer
// ---------------------------------------------------------------------------

struct MoveAnalyzer::BatchDriverSpec {
  bool is_source = false;
  const tech::Cell* cell = nullptr;  // null iff source
  geom::Point pos;
  double source_slew = 0.0;     // used when is_source
  std::vector<double> in_slew;  // at the driver's input pin, per active corner
};

struct MoveAnalyzer::BatchChildSpec {
  int id = -1;
  geom::Point pos;
  std::vector<double> cap;  // pin cap per active corner
};

namespace {

// Before-state table slots: not requested, or requested and not built.
constexpr std::uint32_t kNoNet = ~std::uint32_t{0};
constexpr std::uint32_t kWanted = kNoNet - 1;

// ScoreCache::source_ of a move with no reusable cached groups.
constexpr std::uint32_t kStale = ~std::uint32_t{0};

/// One slice per pool thread plus the caller, or a single inline slice
/// without a pool. Slice s owns the items i = s, s + slices, ...
std::size_t sliceCount(const support::ThreadPool* pool, std::size_t n) {
  return (pool != nullptr && n > 1) ? std::min(n, pool->size() + 1) : 1;
}

void forEachSlice(support::ThreadPool* pool, std::size_t slices,
                  const std::function<void(std::size_t)>& fn) {
  if (slices == 1)
    fn(0);
  else
    pool->runSlices(slices, fn);
}

std::size_t childIndex(const ClockNode& driver, int child) {
  return static_cast<std::size_t>(
      std::ranges::find(driver.children, child) - driver.children.begin());
}

}  // namespace

MoveAnalyzer::MoveAnalyzer(const Design& d, const sta::Timer& timer,
                           const std::vector<sta::CornerTiming>* baseline)
    : design_(&d), timer_(&timer) {
  if (baseline != nullptr)
    refresh(*baseline);
  else
    refresh();
}

void MoveAnalyzer::refresh() {
  timing_ = timer_->analyzeDesign(*design_);
  resetRoundState();
}

void MoveAnalyzer::refresh(const std::vector<sta::CornerTiming>& baseline) {
  timing_ = baseline;
  resetRoundState();
}

void MoveAnalyzer::resetRoundState() {
  // Subtree sink counts for fanout weighting.
  const ClockTree& tree = design_->tree;
  subtree_sink_count_.assign(tree.numNodes(), 0);
  // Nodes are appended under existing parents, so ids are topologically
  // ordered; accumulate bottom-up.
  for (std::size_t i = tree.numNodes(); i-- > 0;) {
    const int id = static_cast<int>(i);
    if (!tree.isValid(id)) continue;
    const ClockNode& n = tree.node(id);
    if (n.kind == NodeKind::Sink) subtree_sink_count_[i] = 1;
    if (n.parent >= 0)
      subtree_sink_count_[static_cast<std::size_t>(n.parent)] +=
          subtree_sink_count_[i];
  }
  for (std::vector<std::uint32_t>& slot : before_slot_)
    slot.assign(tree.numNodes(), kNoNet);
  for (std::vector<int>& ids : wanted_) ids.clear();
  before_nets_.clear();
}

void MoveAnalyzer::estimateNetBatch(
    const BatchDriverSpec& drv, const std::vector<BatchChildSpec>& children,
    int route_model, NetEstimatesBatch& est) const {
  const std::size_t nk = design_->corners.size();

  // One estimate's working buffers, reused by every net on this thread.
  thread_local struct {
    std::vector<geom::Point> pins;
    rc::RcTreeBatch rct;
    rc::MomentsBatch mom;
    std::vector<double> lane, scratch;
  } ws;
  // The route depends only on pin positions — one build serves all corners.
  std::vector<geom::Point>& pins = ws.pins;
  pins.clear();
  for (const BatchChildSpec& c : children) pins.push_back(c.pos);
  const route::SteinerTree net = (route_model == 0)
                                     ? route::greedySteiner(drv.pos, pins)
                                     : route::singleTrunk(drv.pos, pins);

  // Shared-topology RC with one lane per corner; RcTreeBatch::addNode
  // appends sequentially, so rc node n == steiner node n.
  rc::RcTreeBatch& rct = ws.rct;
  rct.reset(nk);
  std::vector<double>& lane = ws.lane;
  lane.resize(2 * nk);
  double* res_l = lane.data();
  double* cap_l = lane.data() + nk;
  for (std::size_t n = 1; n < net.size(); ++n) {
    const double len = net.edgeLength(n);
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const tech::WireParams& w = design_->tech->wire(design_->corners[ki]);
      res_l[ki] = len * w.res_kohm_per_um;
      cap_l[ki] = len * w.cap_ff_per_um / 2.0;
    }
    // Mirrors the scalar builder's rc_of[] semantics: a parent with a
    // higher steiner index is unvisited there (rc_of 0), so the edge hangs
    // off the driving point.
    const std::size_t p = static_cast<std::size_t>(net.parent[n]);
    const std::size_t rp = p < n ? p : 0;
    rct.addNode(rp, res_l, cap_l);
    rct.addCap(rp, cap_l);
  }
  for (std::size_t i = 0; i < children.size(); ++i)
    rct.addCap(net.pin_node[i], children[i].cap.data());

  const rc::MomentsBatch& mom = ws.mom;
  rc::elmoreMomentsBatch(rct, ws.mom, ws.scratch);

  est.lanes = nk;
  est.load.resize(nk);
  rct.totalCapInto(est.load.data());
  est.gate_delay.assign(nk, 0.0);
  est.out_slew.assign(nk, 0.0);
  if (drv.is_source) {
    for (std::size_t ki = 0; ki < nk; ++ki) est.out_slew[ki] = drv.source_slew;
  } else {
    tech::LutHint dh, sh;
    drv.cell->delay_packed.lookupEach(design_->corners, drv.in_slew.data(),
                                      est.load.data(), est.gate_delay.data(),
                                      &dh);
    drv.cell->out_slew_packed.lookupEach(design_->corners, drv.in_slew.data(),
                                         est.load.data(), est.out_slew.data(),
                                         &sh);
  }
  const std::size_t nc = children.size();
  est.wire_elm.resize(nc * nk);
  est.wire_d2m.resize(nc * nk);
  est.in_slew.resize(nc * nk);
  for (std::size_t i = 0; i < nc; ++i) {
    const std::size_t rcn = net.pin_node[i];
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const double m1 = mom.m1[rcn * nk + ki];
      const double elm = -m1;
      est.wire_elm[i * nk + ki] = elm;
      est.wire_d2m[i * nk + ki] =
          rc::d2mFromMoments(m1, mom.m2[rcn * nk + ki]);
      est.in_slew[i * nk + ki] =
          rc::periSlew(est.out_slew[ki], rc::wireSlewFromElmore(elm));
    }
  }
}

double MoveAnalyzer::downstreamGateDelta(int node, double in_slew_new,
                                         double in_slew_old, std::size_t ki,
                                         int depth) const {
  const ClockNode& n = design_->tree.node(node);
  if (n.kind != NodeKind::Buffer) return 0.0;  // sinks: wire handled upstream
  const std::size_t k = design_->corners[ki];
  const tech::Cell& cell =
      design_->tech->cell(static_cast<std::size_t>(n.cell));
  const double load = timing_[ki].driver_load[static_cast<std::size_t>(node)];
  const double gate_old = cell.delay[k].lookup(in_slew_old, load);
  double out = cell.delay[k].lookup(in_slew_new, load) - gate_old;
  if (depth >= 2 || n.children.empty()) return out;

  // Propagate the slew change one level down (wire step slews recovered
  // from the golden analysis since the net itself is untouched).
  const double oslew_old = cell.out_slew[k].lookup(in_slew_old, load);
  const double os_new = cell.out_slew[k].lookup(in_slew_new, load);
  std::size_t total = 0;
  double child_acc = 0.0;
  for (const int c : n.children) {
    const double in_old =
        timing_[ki].in_slew[static_cast<std::size_t>(c)];
    const double step2 =
        std::max(0.0, in_old * in_old - oslew_old * oslew_old);
    const double sub = downstreamGateDelta(
        c, std::sqrt(step2 + os_new * os_new), in_old, ki, depth + 1);
    const std::size_t wgt =
        std::max<std::size_t>(1, subtree_sink_count_[static_cast<std::size_t>(c)]);
    child_acc += sub * static_cast<double>(wgt);
    total += wgt;
  }
  if (total > 0) out += child_acc / static_cast<double>(total);
  return out;
}

namespace {
double pinCapOf(const Design& d, int id, std::size_t k, int cell_override) {
  const ClockNode& n = d.tree.node(id);
  if (n.kind == NodeKind::Sink) return d.tech->sinkCapFf(k);
  const int cell = (cell_override >= 0) ? cell_override : n.cell;
  return d.tech->cell(static_cast<std::size_t>(cell)).pin_cap_ff[k];
}
}  // namespace

MoveAnalyzer::BatchDriverSpec MoveAnalyzer::driverSpec(int id) const {
  const ClockNode& n = design_->tree.node(id);
  BatchDriverSpec ds;
  ds.pos = n.pos;
  if (n.kind == NodeKind::Source) {
    ds.is_source = true;
    ds.source_slew = timer_->sourceSlew();
  } else {
    ds.cell = &design_->tech->cell(static_cast<std::size_t>(n.cell));
    ds.in_slew.resize(timing_.size());
    for (std::size_t ki = 0; ki < timing_.size(); ++ki)
      ds.in_slew[ki] = timing_[ki].in_slew[static_cast<std::size_t>(id)];
  }
  return ds;
}

std::vector<double> MoveAnalyzer::capLanes(int id, int cell_override) const {
  std::vector<double> cap(design_->corners.size());
  for (std::size_t ki = 0; ki < cap.size(); ++ki)
    cap[ki] = pinCapOf(*design_, id, design_->corners[ki], cell_override);
  return cap;
}

std::vector<MoveAnalyzer::BatchChildSpec> MoveAnalyzer::childSpecs(
    int driver, int skip, int extra) const {
  const ClockTree& tree = design_->tree;
  std::vector<BatchChildSpec> cs;
  for (const int c : tree.node(driver).children) {
    if (c == skip) continue;
    cs.push_back({c, tree.node(c).pos, capLanes(c, -1)});
  }
  if (extra >= 0)
    cs.push_back({extra, tree.node(extra).pos, capLanes(extra, -1)});
  return cs;
}

MoveAnalyzer::NetEstimatesBatch MoveAnalyzer::estimateBeforeNet(
    BeforeKind kind, int id, int rm, const NetEstimatesBatch* p_net) const {
  NetEstimatesBatch est;
  if (kind == kDriverNet) {
    estimateNetBatch(driverSpec(id), childSpecs(id, -1, -1), rm, est);
    return est;
  }
  // Buffer b's current net, fed by its driver net's child slew.
  const ClockNode& b = design_->tree.node(id);
  const std::size_t b_idx = childIndex(design_->tree.node(b.parent), id);
  BatchDriverSpec bd;
  bd.cell = &design_->tech->cell(static_cast<std::size_t>(b.cell));
  bd.pos = b.pos;
  bd.in_slew.resize(timing_.size());
  for (std::size_t ki = 0; ki < timing_.size(); ++ki)
    bd.in_slew[ki] = p_net->childSlew(b_idx, ki);
  estimateNetBatch(bd, childSpecs(id, -1, -1), rm, est);
  return est;
}

const MoveAnalyzer::NetEstimatesBatch& MoveAnalyzer::beforeNet(
    BeforeKind kind, int id, int rm, const NetEstimatesBatch* p_net,
    NetEstimatesBatch& tmp) const {
  const std::uint32_t slot = before_slot_[kind][static_cast<std::size_t>(id)];
  if (slot < kWanted)
    return before_nets_[2 * std::size_t{slot} + static_cast<std::size_t>(rm)];
  tmp = estimateBeforeNet(kind, id, rm, p_net);
  return tmp;
}

void MoveAnalyzer::requestBeforeNets(const Move& m) {
  const ClockTree& tree = design_->tree;
  auto want = [&](BeforeKind kind, int id) {
    std::uint32_t& slot = before_slot_[kind][static_cast<std::size_t>(id)];
    if (slot != kNoNet) return;
    slot = kWanted;
    wanted_[kind].push_back(id);
  };
  want(kDriverNet, tree.node(m.node).parent);
  if (m.type != MoveType::kReassign)
    want(kBufferNet, m.node);
  else if (!tree.node(m.new_parent).children.empty())
    want(kDriverNet, m.new_parent);
}

std::size_t MoveAnalyzer::buildBeforeNets(support::ThreadPool* pool) {
  std::size_t built = 0;
  // Driver nets first: a buffer net reads its driver's from the table.
  for (const BeforeKind kind : {kDriverNet, kBufferNet}) {
    std::vector<int>& ids = wanted_[kind];
    const std::size_t base = before_nets_.size() / 2;
    before_nets_.resize(2 * (base + ids.size()));
    const std::size_t slices = sliceCount(pool, ids.size());
    forEachSlice(pool, slices, [&](std::size_t sl) {
      NetEstimatesBatch p_tmp;
      for (std::size_t i = sl; i < ids.size(); i += slices) {
        for (int rm = 0; rm < 2; ++rm) {
          const NetEstimatesBatch* p_net =
              kind == kDriverNet
                  ? nullptr
                  : &beforeNet(kDriverNet, design_->tree.node(ids[i]).parent,
                               rm, nullptr, p_tmp);
          before_nets_[2 * (base + i) + static_cast<std::size_t>(rm)] =
              estimateBeforeNet(kind, ids[i], rm, p_net);
        }
      }
    });
    for (std::size_t i = 0; i < ids.size(); ++i)
      before_slot_[kind][static_cast<std::size_t>(ids[i])] =
          static_cast<std::uint32_t>(base + i);
    built += 2 * ids.size();
    ids.clear();
  }
  return built;
}

std::vector<ImpactGroup> MoveAnalyzer::analyze(const Move& m) const {
  const Design& d = *design_;
  const ClockTree& tree = d.tree;
  const std::size_t nk = d.corners.size();
  std::vector<ImpactGroup> groups;
  NetEstimatesBatch tmp[2];  // before-state nets the table lacks
  // The after-move nets, in one set of buffers per thread.
  thread_local NetEstimatesBatch after[2];

  auto weightOf = [&](int id) {
    return static_cast<double>(std::max<std::size_t>(
        1, subtree_sink_count_[static_cast<std::size_t>(id)]));
  };

  if (m.type == MoveType::kSizeDisplace ||
      m.type == MoveType::kChildDisplaceSize) {
    const int b = m.node;
    const int p = tree.node(b).parent;
    const geom::Point new_pos{tree.node(b).pos.x + m.delta.x,
                              tree.node(b).pos.y + m.delta.y};
    const int b_cell_new = (m.type == MoveType::kSizeDisplace)
                               ? tree.node(b).cell + m.size_step
                               : tree.node(b).cell;
    const int child_resized =
        (m.type == MoveType::kChildDisplaceSize) ? m.child : -1;

    ImpactGroup primary;
    primary.root = b;
    primary.primary = true;
    primary.delta.assign(nk, {});
    ImpactGroup sibling;
    sibling.root = p;
    sibling.exclude = b;
    sibling.delta.assign(nk, {});
    const std::vector<int>& pk = tree.node(p).children;
    const std::vector<int>& bk = tree.node(b).children;
    const bool has_siblings = pk.size() > 1;

    // p's net after the move: b moved / resized.
    const BatchDriverSpec pd = driverSpec(p);
    const std::size_t b_idx = childIndex(tree.node(p), b);
    std::vector<BatchChildSpec> pk_new = childSpecs(p, -1, -1);
    pk_new[b_idx].pos = new_pos;
    pk_new[b_idx].cap = capLanes(b, b_cell_new);
    // b's net after the move: type II resizes one child's pin.
    std::vector<BatchChildSpec> bk_new = childSpecs(b, -1, -1);
    for (BatchChildSpec& cs : bk_new)
      if (cs.id == child_resized)
        cs.cap = capLanes(cs.id, tree.node(cs.id).cell + m.size_step);

    BatchDriverSpec bd_new;
    bd_new.cell = &d.tech->cell(static_cast<std::size_t>(b_cell_new));
    bd_new.pos = new_pos;
    bd_new.in_slew.resize(nk);
    std::vector<double> down(bk.size());

    for (int rm = 0; rm < 2; ++rm) {
      const NetEstimatesBatch& p_old =
          beforeNet(kDriverNet, p, rm, nullptr, tmp[0]);
      NetEstimatesBatch& p_new = after[0];
      estimateNetBatch(pd, pk_new, rm, p_new);
      for (std::size_t ki = 0; ki < nk; ++ki)
        bd_new.in_slew[ki] = p_new.childSlew(b_idx, ki);
      const NetEstimatesBatch& b_old =
          beforeNet(kBufferNet, b, rm, &p_old, tmp[1]);
      NetEstimatesBatch& b_new = after[1];
      estimateNetBatch(bd_new, bk_new, rm, b_new);

      for (std::size_t ki = 0; ki < nk; ++ki) {
        for (std::size_t ci = 0; ci < bk.size(); ++ci)
          down[ci] = downstreamGateDelta(bk[ci], b_new.childSlew(ci, ki),
                                         b_old.childSlew(ci, ki), ki, 1);
        for (int met = 0; met < 2; ++met) {
          const std::size_t mi = static_cast<std::size_t>(rm * 2 + met);
          const double d_chain =
              (p_new.gate_delay[ki] - p_old.gate_delay[ki]) +
              (p_new.wire(b_idx, ki, met) - p_old.wire(b_idx, ki, met)) +
              (b_new.gate_delay[ki] - b_old.gate_delay[ki]);
          // Primary: weighted mean over b's children paths.
          double acc = 0.0, wsum = 0.0;
          for (std::size_t ci = 0; ci < bk.size(); ++ci) {
            double v = d_chain +
                       (b_new.wire(ci, ki, met) - b_old.wire(ci, ki, met));
            if (tree.node(bk[ci]).kind == NodeKind::Buffer) v += down[ci];
            const double wgt = weightOf(bk[ci]);
            acc += v * wgt;
            wsum += wgt;
          }
          primary.delta[ki][mi] = bk.empty() ? d_chain : acc / wsum;

          if (has_siblings) {
            double sacc = 0.0, swsum = 0.0;
            for (std::size_t ci = 0; ci < pk.size(); ++ci) {
              if (pk[ci] == b) continue;
              const double v =
                  (p_new.gate_delay[ki] - p_old.gate_delay[ki]) +
                  (p_new.wire(ci, ki, met) - p_old.wire(ci, ki, met));
              const double wgt = weightOf(pk[ci]);
              sacc += v * wgt;
              swsum += wgt;
            }
            sibling.delta[ki][mi] = swsum > 0 ? sacc / swsum : 0.0;
          }
        }
      }
    }
    groups.push_back(std::move(primary));
    if (has_siblings) groups.push_back(std::move(sibling));
    return groups;
  }

  // ---- Type III: tree surgery -------------------------------------------
  const int b = m.node;
  const int p_old = tree.node(b).parent;
  const int p_new = m.new_parent;

  ImpactGroup moved;
  moved.root = b;
  moved.primary = true;
  moved.delta.assign(nk, {});
  ImpactGroup old_grp;
  old_grp.root = p_old;
  old_grp.exclude = b;
  old_grp.delta.assign(nk, {});
  ImpactGroup new_grp;
  new_grp.root = p_new;
  new_grp.delta.assign(nk, {});

  const BatchDriverSpec po_d = driverSpec(p_old);
  const BatchDriverSpec pn_d = driverSpec(p_new);
  const std::vector<int>& pn_before = tree.node(p_new).children;
  const std::vector<BatchChildSpec> po_after = childSpecs(p_old, b, -1);
  const std::vector<BatchChildSpec> pn_after = childSpecs(p_new, -1, b);
  // Index of b in the before/after child lists.
  const std::size_t b_old_idx = childIndex(tree.node(p_old), b);
  const std::size_t b_new_idx = pn_after.size() - 1;

  for (int rm = 0; rm < 2; ++rm) {
    const NetEstimatesBatch& po_o =
        beforeNet(kDriverNet, p_old, rm, nullptr, tmp[0]);
    NetEstimatesBatch& po_n = after[0];  // read only when po_after is not empty
    if (!po_after.empty()) estimateNetBatch(po_d, po_after, rm, po_n);
    const NetEstimatesBatch& pn_o =
        pn_before.empty() ? tmp[1]
                          : beforeNet(kDriverNet, p_new, rm, nullptr, tmp[1]);
    NetEstimatesBatch& pn_n = after[1];
    estimateNetBatch(pn_d, pn_after, rm, pn_n);

    for (std::size_t ki = 0; ki < nk; ++ki) {
      const double down_b =
          downstreamGateDelta(b, pn_n.childSlew(b_new_idx, ki),
                              po_o.childSlew(b_old_idx, ki), ki, 0);
      for (int met = 0; met < 2; ++met) {
        const std::size_t mi = static_cast<std::size_t>(rm * 2 + met);
        const double in_old =
            timing_[ki].in_arrival[static_cast<std::size_t>(p_old)];
        const double in_new =
            timing_[ki].in_arrival[static_cast<std::size_t>(p_new)];
        const double path_old =
            in_old + po_o.gate_delay[ki] + po_o.wire(b_old_idx, ki, met);
        const double path_new =
            in_new + pn_n.gate_delay[ki] + pn_n.wire(b_new_idx, ki, met);
        moved.delta[ki][mi] = path_new - path_old + down_b;

        // Remaining children of the old driver speed up.
        double acc = 0.0, wsum = 0.0;
        for (std::size_t ci = 0; ci < po_after.size(); ++ci) {
          const std::size_t bi = childIndex(tree.node(p_old), po_after[ci].id);
          const double v = (po_n.gate_delay[ki] - po_o.gate_delay[ki]) +
                           (po_n.wire(ci, ki, met) - po_o.wire(bi, ki, met));
          const double wgt = weightOf(po_after[ci].id);
          acc += v * wgt;
          wsum += wgt;
        }
        old_grp.delta[ki][mi] = wsum > 0 ? acc / wsum : 0.0;

        // Existing children of the new driver slow down.
        acc = 0.0;
        wsum = 0.0;
        for (std::size_t ci = 0; ci < pn_before.size(); ++ci) {
          const double v = (pn_n.gate_delay[ki] - pn_o.gate_delay[ki]) +
                           (pn_n.wire(ci, ki, met) - pn_o.wire(ci, ki, met));
          const double wgt = weightOf(pn_before[ci]);
          acc += v * wgt;
          wsum += wgt;
        }
        new_grp.delta[ki][mi] = wsum > 0 ? acc / wsum : 0.0;
      }
    }
  }
  groups.push_back(std::move(moved));
  groups.push_back(std::move(old_grp));
  groups.push_back(std::move(new_grp));
  return groups;
}

std::array<double, kNumFeatures> MoveAnalyzer::features(
    const Move& m, const ImpactGroup& primary, std::size_t ki) const {
  const ClockTree& tree = design_->tree;
  std::array<double, kNumFeatures> f{};
  for (std::size_t i = 0; i < kNumAnalytic; ++i) f[i] = primary.delta[ki][i];

  // Bounding box over the perturbed net: driver pin plus fanout cells.
  geom::BBox box;
  double fanout = 0.0;
  if (m.type == MoveType::kReassign) {
    box.add(tree.node(m.new_parent).pos);
    for (const int c : tree.node(m.new_parent).children)
      box.add(tree.node(c).pos);
    box.add(tree.node(m.node).pos);
    fanout =
        static_cast<double>(tree.node(m.new_parent).children.size() + 1);
  } else {
    box.add(geom::Point{tree.node(m.node).pos.x + m.delta.x,
                        tree.node(m.node).pos.y + m.delta.y});
    for (const int c : tree.node(m.node).children)
      box.add(tree.node(c).pos);
    fanout = static_cast<double>(tree.node(m.node).children.size());
  }
  f[kNumAnalytic] = fanout;
  f[kNumAnalytic + 1] = box.rect().area();
  f[kNumAnalytic + 2] = box.rect().aspect();
  return f;
}

void MoveAnalyzer::captureInputs(Inputs* out) const {
  const ClockTree& tree = design_->tree;
  const std::size_t n = tree.numNodes();
  const std::size_t nk = timing_.size();
  out->nodes.assign(n, {});
  out->children.clear();
  out->timing.assign(n * nk * 3, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int id = static_cast<int>(i);
    if (!tree.isValid(id)) continue;
    const ClockNode& node = tree.node(id);
    Inputs::Node& rec = out->nodes[i];
    rec.valid = true;
    rec.kind = static_cast<int>(node.kind);
    rec.cell = node.cell;
    rec.parent = node.parent;
    rec.x = std::bit_cast<std::uint64_t>(node.pos.x);
    rec.y = std::bit_cast<std::uint64_t>(node.pos.y);
    rec.sinks = subtree_sink_count_[i];
    rec.child_begin = out->children.size();
    out->children.insert(out->children.end(), node.children.begin(),
                         node.children.end());
    rec.child_end = out->children.size();
    for (std::size_t ki = 0; ki < nk; ++ki) {
      std::uint64_t* t = &out->timing[(i * nk + ki) * 3];
      t[0] = std::bit_cast<std::uint64_t>(timing_[ki].in_slew[i]);
      t[1] = std::bit_cast<std::uint64_t>(timing_[ki].in_arrival[i]);
      t[2] = std::bit_cast<std::uint64_t>(timing_[ki].driver_load[i]);
    }
  }
}

bool MoveAnalyzer::diffInputs(const Inputs& before, const Inputs& after,
                              ChangedNodes* out) {
  const std::size_t n = after.nodes.size();
  if (before.nodes.size() != n || before.timing.size() != after.timing.size())
    return false;
  const std::size_t per_node = n == 0 ? 0 : after.timing.size() / n;
  auto kids = [](const Inputs& in, const Inputs::Node& node) {
    return std::span(in.children)
        .subspan(node.child_begin, node.child_end - node.child_begin);
  };
  auto timing = [&](const Inputs& in, std::size_t i) {
    return std::span(in.timing).subspan(i * per_node, per_node);
  };
  out->geometry.assign(n, 0);
  out->timing.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Inputs::Node& a = before.nodes[i];
    const Inputs::Node& b = after.nodes[i];
    out->geometry[i] = a.valid != b.valid || a.kind != b.kind ||
                       a.cell != b.cell || a.parent != b.parent ||
                       a.x != b.x || a.y != b.y || a.sinks != b.sinks ||
                       !std::ranges::equal(kids(before, a), kids(after, b));
    out->timing[i] =
        !std::ranges::equal(timing(before, i), timing(after, i));
  }
  return true;
}

bool MoveAnalyzer::readSetChanged(const Move& m,
                                  const ChangedNodes& changed) const {
  const ClockTree& tree = design_->tree;
  auto geom = [&](int id) {
    return changed.geometry[static_cast<std::size_t>(id)] != 0;
  };
  auto timing = [&](int id) {
    return changed.timing[static_cast<std::size_t>(id)] != 0;
  };
  // A driver: its own geometry and timing, plus its children's geometry.
  auto driverChanged = [&](int p) {
    if (geom(p) || timing(p)) return true;
    for (const int c : tree.node(p).children)
      if (geom(c)) return true;
    return false;
  };
  const int b = m.node;
  if (geom(b)) return true;
  if (m.type == MoveType::kReassign) {
    if (timing(b) || driverChanged(m.new_parent)) return true;
  }
  if (driverChanged(tree.node(b).parent)) return true;
  for (const int c : tree.node(b).children) {
    if (geom(c) || timing(c)) return true;
    for (const int g : tree.node(c).children)
      if (geom(g) || timing(g)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Training-sample collection (features + golden deltas)
// ---------------------------------------------------------------------------

std::vector<MoveSample> collectMoveSamples(const Design& d,
                                           const sta::Timer& timer,
                                           const std::vector<Move>& moves) {
  // Each move is a golden trial on one working copy, like the local
  // optimizer's: apply it undoably, retime its dirty subtrees in place,
  // read the sink latencies, roll the timing back and undo the move.
  Design work = d;
  sta::IncrementalTimer timing(timer, work);
  MoveAnalyzer analyzer(d, timer, &timing.timings());
  const std::vector<sta::CornerTiming>& before = analyzer.baseline();
  sta::ScopedRetime overlay(timing);
  UndoRecord undo;
  std::vector<MoveSample> samples;
  samples.reserve(moves.size());
  for (const Move& m : moves) {
    MoveSample s;
    s.move = m;
    const std::vector<ImpactGroup> groups = analyzer.analyze(m);
    const ImpactGroup* primary = nullptr;
    for (const ImpactGroup& g : groups)
      if (g.primary) primary = &g;
    if (primary == nullptr) continue;
    for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
      s.features.push_back(analyzer.features(m, *primary, ki));

    const std::vector<int> sinks = subtreeSinks(d.tree, m.node);
    applyMoveUndoable(work, m, &undo);
    overlay.retime(work, undo.dirty);
    const std::vector<sta::CornerTiming>& after = timing.timings();
    s.golden_delta.assign(d.corners.size(), 0.0);
    for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
      double acc = 0.0;
      for (const int snk : sinks)
        acc += after[ki].arrival[static_cast<std::size_t>(snk)] -
               before[ki].arrival[static_cast<std::size_t>(snk)];
      s.golden_delta[ki] =
          sinks.empty() ? 0.0 : acc / static_cast<double>(sinks.size());
    }
    overlay.rollback();
    undoMove(work, undo);
    samples.push_back(std::move(s));
  }
  return samples;
}

// ---------------------------------------------------------------------------
// DeltaLatencyModel
// ---------------------------------------------------------------------------

std::size_t DeltaLatencyModel::train(const tech::TechModel& tech,
                                     const std::vector<std::size_t>& corners,
                                     const TrainOptions& opts) {
  std::vector<char> seen(tech.numCorners(), 0);
  for (const std::size_t k : corners) {
    if (k >= tech.numCorners())
      throw std::invalid_argument("DeltaLatencyModel::train: corner " +
                                  std::to_string(k) + " out of range");
    if (seen[k]++ != 0)
      throw std::invalid_argument("DeltaLatencyModel::train: corner " +
                                  std::to_string(k) + " listed twice");
  }
  obs::Span train_span("predictor.train");
  train_span.arg("corners", static_cast<std::int64_t>(corners.size()));
  per_corner_.clear();
  per_corner_.resize(tech.numCorners());

  // Collect (features, golden) per corner across artificial testcases.
  obs::Span collect_span("predictor.collect");
  sta::Timer timer(tech);
  geom::Rng rng(opts.seed);
  struct Raw {
    std::vector<std::array<double, kNumFeatures>> x;
    std::vector<double> y;
  };
  std::vector<Raw> raw(tech.numCorners());

  for (std::size_t c = 0; c < opts.cases; ++c) {
    const bool last_stage = rng.uniform() < opts.last_stage_fraction;
    testgen::ArtificialCase ac =
        testgen::makeArtificialCase(tech, rng, last_stage);
    ac.design.corners = corners;
    std::vector<Move> moves = enumerateMoves(ac.design, ac.target);
    // Deterministic subsample.
    while (moves.size() > opts.moves_per_case)
      moves.erase(moves.begin() + static_cast<long>(rng.index(moves.size())));
    const std::vector<MoveSample> samples =
        collectMoveSamples(ac.design, timer, moves);
    for (const MoveSample& s : samples) {
      for (std::size_t ki = 0; ki < corners.size(); ++ki) {
        raw[corners[ki]].x.push_back(s.features[ki]);
        raw[corners[ki]].y.push_back(s.golden_delta[ki]);
      }
    }
  }
  collect_span.end();

  // Per corner: the scaled residual training set and the model's fit plan.
  struct Job {
    std::size_t corner = 0;
    ml::Dataset scaled;
    std::vector<std::array<double, kNumFeatures>> hold_x;
    std::vector<double> hold_y;
  };
  struct Task {
    ml::FitTask fit;
    std::size_t corner = 0;
    bool svr = false;
  };
  std::vector<Job> jobs;
  jobs.reserve(corners.size());  // tasks point into the jobs' datasets
  std::vector<Task> svr_tasks, other_tasks;
  std::size_t per_corner_samples = 0;
  for (const std::size_t k : corners) {
    Raw& r = raw[k];
    if (r.x.size() < 10) continue;
    per_corner_samples = r.x.size();
    Job& job = jobs.emplace_back();
    job.corner = k;

    // Hold out a deterministic 15% slice for the Figure 5 artifacts.
    const std::size_t nhold = std::max<std::size_t>(1, r.x.size() / 7);
    ml::Dataset train;
    train.x = ml::Matrix(r.x.size() - nhold, kNumFeatures);
    std::size_t w = 0;
    for (std::size_t i = 0; i < r.x.size(); ++i) {
      if (i % 7 == 3 && job.hold_x.size() < nhold) {
        job.hold_x.push_back(r.x[i]);
        job.hold_y.push_back(r.y[i]);
        continue;
      }
      for (std::size_t j = 0; j < kNumFeatures; ++j)
        train.x.at(w, j) = r.x[i][j];
      train.y.push_back(r.y[i]);
      ++w;
    }
    // `w` rows actually written (holdout may be short).
    if (w < train.x.rows()) {
      ml::Matrix trimmed(w, kNumFeatures);
      for (std::size_t i = 0; i < w; ++i)
        for (std::size_t j = 0; j < kNumFeatures; ++j)
          trimmed.at(i, j) = train.x.at(i, j);
      train.x = std::move(trimmed);
    }

    PerCorner& pc = per_corner_[k];
    pc.scaler.fit(train.x);
    ml::Dataset& scaled = job.scaled;
    scaled.x = pc.scaler.transform(train.x);
    // Residual learning: the model corrects the discrepancy between the
    // first analytical estimate and the golden delta (the paper: "we
    // construct machine learning-based models to minimize such
    // discrepancy"). Predicting the residual instead of the absolute delta
    // guarantees the model is never worse than analytical when the
    // residual is unlearnable.
    scaled.y = train.y;
    for (std::size_t i = 0; i < scaled.y.size(); ++i)
      scaled.y[i] -= train.x.at(i, 0);
    pc.residual_lo = *std::min_element(scaled.y.begin(), scaled.y.end());
    pc.residual_hi = *std::max_element(scaled.y.begin(), scaled.y.end());
    switch (opts.family) {
      case TrainOptions::Family::kAnn:
        pc.model = std::make_unique<ml::MlpRegressor>(opts.mlp);
        break;
      case TrainOptions::Family::kSvr:
        pc.model = std::make_unique<ml::SvrRbf>(opts.svr);
        break;
      case TrainOptions::Family::kHsm: {
        ml::HsmOptions h;
        h.mlp = opts.mlp;
        h.svr = opts.svr;
        pc.model = std::make_unique<ml::HybridSurrogate>(h);
        break;
      }
    }
    for (const ml::FitTask& t : pc.model->planFit(scaled)) {
      const bool svr = dynamic_cast<const ml::SvrRbf*>(t.model) != nullptr;
      (svr ? svr_tasks : other_tasks).push_back({t, k, svr});
    }
  }
  train_span.arg("samples", static_cast<std::int64_t>(per_corner_samples));

  // Every fit is its own task. The SVR fits hold the only O(n^2)
  // allocation (the kernel matrix), so they run one at a time on the
  // calling slice, which then joins the pool slices draining the other
  // fits from one counter. Fits write only their own models, so the
  // schedule cannot change a bit.
  auto runFit = [](const Task& t) {
    obs::Span fit_span("ml.fit");
    fit_span.arg("corner", static_cast<std::int64_t>(t.corner));
    fit_span.arg("model", static_cast<std::int64_t>(t.svr ? 1 : 0));
    fit_span.arg("split", static_cast<std::int64_t>(t.fit.validation ? 1 : 0));
    t.fit.model->fit(*t.fit.data);
    // MLP epochs or SVR sweeps (every leaf fit but an SVR is an MLP).
    const std::size_t iters =
        t.svr ? static_cast<const ml::SvrRbf*>(t.fit.model)->iterations()
              : static_cast<const ml::MlpRegressor*>(t.fit.model)->iterations();
    fit_span.arg("iters", static_cast<std::int64_t>(iters));
  };
  support::ThreadPool& pool = support::ThreadPool::shared();
  std::atomic<std::size_t> next{0};
  const std::size_t slices = std::min(pool.size(), other_tasks.size()) + 1;
  pool.runSlices(slices, [&](std::size_t slice) {
    if (slice == 0)
      for (const Task& t : svr_tasks) runFit(t);
    for (std::size_t i = next++; i < other_tasks.size(); i = next++)
      runFit(other_tasks[i]);
  });

  for (const Job& job : jobs) {
    PerCorner& pc = per_corner_[job.corner];
    pc.model->finishFit();
    for (std::size_t i = 0; i < job.hold_x.size(); ++i) {
      pc.holdout.predicted.push_back(predict(job.corner, job.hold_x[i]));
      pc.holdout.golden.push_back(job.hold_y[i]);
    }
  }
  return per_corner_samples;
}

bool DeltaLatencyModel::trainedFor(std::size_t corner) const {
  return corner < per_corner_.size() &&
         per_corner_[corner].model != nullptr;
}

double DeltaLatencyModel::predict(
    std::size_t corner, const std::array<double, kNumFeatures>& feat) const {
  double out;
  predictBatch(corner, &feat, 1, &out);
  return out;
}

void DeltaLatencyModel::predictBatch(
    std::size_t corner, const std::array<double, kNumFeatures>* rows,
    std::size_t n, double* out) const {
  const PerCorner& pc = per_corner_[corner];
  if (pc.model == nullptr)
    throw std::logic_error("DeltaLatencyModel: corner not trained");
  // One buffer per thread: scoring slices predict concurrently.
  thread_local std::vector<std::array<double, kNumFeatures>> scaled;
  thread_local std::vector<const double*> ptrs;
  scaled.resize(n);
  ptrs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pc.scaler.transformRow(rows[i].data(), scaled[i].data());
    ptrs[i] = scaled[i].data();
  }
  pc.model->predictBatch(ptrs.data(), n, out);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = rows[i][0] + std::clamp(out[i], pc.residual_lo, pc.residual_hi);
}

const DeltaLatencyModel::Holdout& DeltaLatencyModel::holdout(
    std::size_t corner) const {
  return per_corner_[corner].holdout;
}

// ---------------------------------------------------------------------------
// MovePredictor
// ---------------------------------------------------------------------------

MovePredictor::MovePredictor(const Design& d, const sta::Timer& timer,
                             const Objective& objective,
                             const DeltaLatencyModel* model,
                             std::size_t analytic_fallback,
                             const std::vector<sta::CornerTiming>* baseline)
    : design_(&d), timer_(&timer), objective_(&objective), model_(model),
      fallback_(analytic_fallback), analyzer_(d, timer, baseline) {
  rebuildBase();
}

void MovePredictor::refresh() {
  analyzer_.refresh();
  rebuildBase();
}

void MovePredictor::refresh(const std::vector<sta::CornerTiming>& baseline) {
  analyzer_.refresh(baseline);
  rebuildBase();
}

void MovePredictor::rebuildBase() {
  base_report_ = objective_->evaluateFromTimings(*design_, analyzer_.baseline());
  const ClockTree& tree = design_->tree;
  const std::size_t n = tree.numNodes();

  // Sink spans: an iterative DFS from every root visits each subtree's
  // sinks contiguously (sinks are leaves, as in subtreeSinks).
  dfs_sinks_.clear();
  span_begin_.assign(n, 0);
  span_end_.assign(n, 0);
  std::vector<std::pair<int, std::size_t>> stack;  // (node, next child)
  auto enter = [&](int id) {
    span_begin_[static_cast<std::size_t>(id)] = dfs_sinks_.size();
    if (tree.node(id).kind == NodeKind::Sink) dfs_sinks_.push_back(id);
    stack.emplace_back(id, 0);
  };
  for (std::size_t r = 0; r < n; ++r) {
    const int root = static_cast<int>(r);
    if (!tree.isValid(root) || tree.node(root).parent >= 0) continue;
    enter(root);
    while (!stack.empty()) {
      const int v = stack.back().first;
      const ClockNode& node = tree.node(v);
      const std::size_t ci = stack.back().second++;
      if (node.kind != NodeKind::Sink && ci < node.children.size()) {
        enter(node.children[ci]);
      } else {
        span_end_[static_cast<std::size_t>(v)] = dfs_sinks_.size();
        stack.pop_back();
      }
    }
  }

  // Pairs of each sink, CSR.
  pair_off_.assign(n + 1, 0);
  for (const network::SinkPair& p : design_->pairs) {
    ++pair_off_[static_cast<std::size_t>(p.launch) + 1];
    ++pair_off_[static_cast<std::size_t>(p.capture) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) pair_off_[i + 1] += pair_off_[i];
  pair_idx_.resize(pair_off_[n]);
  std::vector<std::size_t> fill(pair_off_.begin(), pair_off_.end() - 1);
  for (std::size_t pi = 0; pi < design_->pairs.size(); ++pi) {
    const network::SinkPair& p = design_->pairs[pi];
    pair_idx_[fill[static_cast<std::size_t>(p.launch)]++] =
        static_cast<std::uint32_t>(pi);
    pair_idx_[fill[static_cast<std::size_t>(p.capture)]++] =
        static_cast<std::uint32_t>(pi);
  }
}

std::size_t MovePredictor::predictGroups(const Move& m,
                                         GroupPrediction* groups,
                                         double* dval,
                                         ScoreCache::Scratch* batch) const {
  const std::size_t nk = design_->corners.size();
  const std::vector<ImpactGroup> impact = analyzer_.analyze(m);
  if (impact.size() > kMaxImpactGroups)
    throw std::logic_error("MovePredictor: too many impact groups");
  for (std::size_t gi = 0; gi < impact.size(); ++gi) {
    const ImpactGroup& g = impact[gi];
    groups[gi] = {g.root, g.exclude};
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const std::size_t k = design_->corners[ki];
      double* slot = &dval[gi * nk + ki];
      if (!g.primary || model_ == nullptr || !model_->trainedFor(k)) {
        *slot = g.delta[ki][fallback_];
      } else if (batch == nullptr) {
        *slot = model_->predict(k, analyzer_.features(m, g, ki));
      } else {
        const std::size_t r = ki * ScoreCache::kChunk + batch->nrows[ki]++;
        batch->rows[r] = analyzer_.features(m, g, ki);
        batch->dest[r] = slot;
      }
    }
  }
  return impact.size();
}

void MovePredictor::predictQueued(ScoreCache::Scratch& s) const {
  for (std::size_t ki = 0; ki < s.nrows.size(); ++ki) {
    const std::size_t n = s.nrows[ki];
    if (n == 0) continue;
    const std::size_t at = ki * ScoreCache::kChunk;
    model_->predictBatch(design_->corners[ki], &s.rows[at], n, s.pred.data());
    for (std::size_t r = 0; r < n; ++r) *s.dest[at + r] = s.pred[r];
    s.nrows[ki] = 0;
  }
}

double MovePredictor::aggregate(const GroupPrediction* groups,
                                std::size_t ngroups, const double* dval,
                                ScoreCache::Scratch& s) const {
  const std::size_t nk = design_->corners.size();
  const std::size_t n = design_->tree.numNodes();
  if (s.acc.size() != n * nk || s.sink_stamp.size() != n ||
      s.pair_stamp.size() != design_->pairs.size() || ++s.epoch == 0) {
    s.acc.assign(n * nk, 0.0);
    s.sink_stamp.assign(n, 0);
    s.pair_stamp.assign(design_->pairs.size(), 0);
    s.skew.assign(nk, 0.0);
    s.epoch = 1;
  }
  const std::uint32_t ep = s.epoch;

  // Per-sink latency delta at each corner: a sink's first touch starts its
  // sum at zero and collects its pairs; groups add in order.
  s.pairs.clear();
  for (std::size_t gi = 0; gi < ngroups; ++gi) {
    const GroupPrediction& g = groups[gi];
    const double* dv = dval + gi * nk;
    const std::size_t lo = span_begin_[static_cast<std::size_t>(g.root)];
    const std::size_t hi = span_end_[static_cast<std::size_t>(g.root)];
    std::size_t xlo = 0, xhi = 0;
    if (g.exclude >= 0) {
      xlo = span_begin_[static_cast<std::size_t>(g.exclude)];
      xhi = span_end_[static_cast<std::size_t>(g.exclude)];
    }
    for (std::size_t pos = lo; pos < hi; ++pos) {
      if (pos >= xlo && pos < xhi) continue;
      const std::size_t sink = static_cast<std::size_t>(dfs_sinks_[pos]);
      double* acc = &s.acc[sink * nk];
      if (s.sink_stamp[sink] != ep) {
        s.sink_stamp[sink] = ep;
        for (std::size_t ki = 0; ki < nk; ++ki) acc[ki] = 0.0;
        for (std::size_t j = pair_off_[sink]; j < pair_off_[sink + 1]; ++j) {
          const std::uint32_t pi = pair_idx_[j];
          if (s.pair_stamp[pi] == ep) continue;
          s.pair_stamp[pi] = ep;
          s.pairs.push_back(pi);
        }
      }
      for (std::size_t ki = 0; ki < nk; ++ki) acc[ki] += dv[ki];
    }
  }

  std::sort(s.pairs.begin(), s.pairs.end());
  double delta_sum = 0.0;
  for (const std::uint32_t pi : s.pairs) {
    const network::SinkPair& p = design_->pairs[pi];
    const std::size_t l = static_cast<std::size_t>(p.launch);
    const std::size_t c = static_cast<std::size_t>(p.capture);
    const bool has_l = s.sink_stamp[l] == ep;
    const bool has_c = s.sink_stamp[c] == ep;
    for (std::size_t ki = 0; ki < nk; ++ki) {
      double v = base_report_.skew_ps[ki][pi];
      if (has_l) v += s.acc[l * nk + ki];
      if (has_c) v -= s.acc[c * nk + ki];
      s.skew[ki] = v;
    }
    delta_sum += objective_->pairV(s.skew) - base_report_.v_pair_ps[pi];
  }
  return delta_sum;
}

double MovePredictor::predictedVariationDelta(const Move& m) const {
  ScoreCache::Scratch s;
  s.dval.resize(kMaxImpactGroups * design_->corners.size());
  const std::size_t ng = predictGroups(m, s.groups.data(), s.dval.data());
  return aggregate(s.groups.data(), ng, s.dval.data(), s);
}

void MovePredictor::scoreBatch(std::span<const Move> moves,
                               std::span<double> out,
                               support::ThreadPool* pool) const {
  for (const Move& m : moves) analyzer_.requestBeforeNets(m);
  analyzer_.buildBeforeNets(pool);
  const std::size_t slices = sliceCount(pool, moves.size());
  std::vector<ScoreCache::Scratch> scratch(slices);
  forEachSlice(pool, slices, [&](std::size_t sl) {
    ScoreCache::Scratch& s = scratch[sl];
    s.dval.resize(kMaxImpactGroups * design_->corners.size());
    for (std::size_t i = sl; i < moves.size(); i += slices) {
      const std::size_t ng =
          predictGroups(moves[i], s.groups.data(), s.dval.data());
      out[i] = aggregate(s.groups.data(), ng, s.dval.data(), s);
    }
  });
}

bool MovePredictor::markChangedSinks(ScoreCache& c) const {
  ScoreCache::Layout& was = c.layout_;
  const std::vector<network::SinkPair>& pairs = design_->pairs;
  const std::size_t nk = base_report_.skew_ps.size();
  // Dropping dfs/spans: 48 of 5,612 CLS1v2 round-4/5 scores miss a rescore.
  const bool same =
      was.dfs_sinks == dfs_sinks_ && was.span_begin == span_begin_ &&
      was.span_end == span_end_ && was.pairs.size() == pairs.size() &&
      was.report.skew_ps.size() == nk &&
      std::ranges::equal(was.pairs, pairs, {}, {}, [](const auto& p) {
        return std::pair<int, int>{p.launch, p.capture};
      });
  if (!same) return false;
  std::vector<char>& mark = c.sink_changed_;
  mark.assign(design_->tree.numNodes(), 0);
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    bool changed = bits(was.report.v_pair_ps[pi]) !=
                   bits(base_report_.v_pair_ps[pi]);
    for (std::size_t ki = 0; ki < nk && !changed; ++ki)
      changed = bits(was.report.skew_ps[ki][pi]) !=
                bits(base_report_.skew_ps[ki][pi]);
    if (!changed) continue;
    mark[static_cast<std::size_t>(pairs[pi].launch)] = 1;
    mark[static_cast<std::size_t>(pairs[pi].capture)] = 1;
  }
  c.changed_prefix_.assign(dfs_sinks_.size() + 1, 0);
  for (std::size_t pos = 0; pos < dfs_sinks_.size(); ++pos)
    c.changed_prefix_[pos + 1] =
        c.changed_prefix_[pos] +
        mark[static_cast<std::size_t>(dfs_sinks_[pos])];
  return true;
}

void MovePredictor::scoreChunk(std::span<const Move> moves, std::size_t lo,
                               std::size_t hi, ScoreCache& c,
                               ScoreCache::Scratch& s,
                               std::span<double> out) const {
  constexpr std::size_t kG = kMaxImpactGroups;
  const std::size_t nk = design_->corners.size();
  ScoreCache::Table& next = c.next_;
  const ScoreCache::Table& prev = c.prev_;
  s.rows.resize(nk * ScoreCache::kChunk);
  s.dest.resize(nk * ScoreCache::kChunk);
  s.nrows.resize(nk);

  // Analyze: the stale moves' groups and analytical shifts, their model
  // inputs queued per corner; the reused moves' cached groups.
  for (std::size_t i = lo; i < hi; ++i) {
    GroupPrediction* groups = &next.groups[i * kG];
    double* dval = &next.dval[i * kG * nk];
    const std::uint32_t src = c.source_[i];
    if (src == kStale) {
      next.ngroups[i] = static_cast<std::uint8_t>(
          predictGroups(moves[i], groups, dval, &s));
    } else {
      next.ngroups[i] = prev.ngroups[src];
      std::copy_n(&prev.groups[src * kG], kG, groups);
      std::copy_n(&prev.dval[src * kG * nk], kG * nk, dval);
    }
  }
  // Fill: the queued model shifts, one batch per corner.
  predictQueued(s);
  for (std::size_t i = lo; i < hi; ++i) {
    next.score[i] =
        c.keep_[i] != 0
            ? prev.score[c.source_[i]]
            : aggregate(&next.groups[i * kG], next.ngroups[i],
                        &next.dval[i * kG * nk], s);
    out[i] = next.score[i];
  }
}

MovePredictor::RoundStats MovePredictor::scoreRound(
    std::span<const Move> moves, std::span<double> out, ScoreCache* cache,
    support::ThreadPool* pool) const {
  constexpr std::size_t kG = kMaxImpactGroups;
  constexpr std::size_t kChunk = ScoreCache::kChunk;
  ScoreCache& c = *cache;
  const std::size_t nk = design_->corners.size();
  const std::size_t n = moves.size();

  // Which nodes' analyzer inputs changed since the cached predictions, and
  // which sinks' pairs changed since the cached scores.
  analyzer_.captureInputs(&c.now_inputs_);
  const bool comparable =
      c.primed_ && MoveAnalyzer::diffInputs(c.inputs_, c.now_inputs_,
                                            &c.changed_);
  const bool same_layout = comparable && markChangedSinks(c);

  ScoreCache::Table& next = c.next_;
  const ScoreCache::Table& prev = c.prev_;
  next.index.resize(n);
  next.groups.resize(n * kG);
  next.ngroups.resize(n);
  next.dval.resize(n * kG * nk);
  next.score.resize(n);
  c.source_.assign(n, kStale);
  c.keep_.assign(n, 0);

  // Chunks of kChunk moves from one counter over `slices` slices; `first`
  // runs on slice 0 before it takes chunks. A move's result does not
  // depend on the slice that computes it.
  const std::size_t slices =
      sliceCount(pool, (n + kChunk - 1) / kChunk);
  if (c.scratch_.size() < slices) c.scratch_.resize(slices);
  auto forEachChunk = [&](const std::function<void()>& first,
                          const std::function<void(std::size_t, std::size_t,
                                                   ScoreCache::Scratch&)>& fn) {
    std::atomic<std::size_t> next_lo{0};
    forEachSlice(pool, slices, [&](std::size_t sl) {
      if (sl == 0 && first) first();
      for (std::size_t lo = next_lo.fetch_add(kChunk); lo < n;
           lo = next_lo.fetch_add(kChunk))
        fn(lo, std::min(n, lo + kChunk), c.scratch_[sl]);
    });
  };

  // Reuse decisions: a move keeps its cached groups iff the same move was
  // scored last round and nothing it reads changed; it keeps its cached
  // score too iff no sink its groups shift has a changed pair.
  const std::vector<std::uint32_t>& changed = c.changed_prefix_;
  auto marked = [&](const GroupPrediction& g) {  // changed sinks it shifts
    const std::size_t lo = span_begin_[static_cast<std::size_t>(g.root)];
    const std::size_t hi = span_end_[static_cast<std::size_t>(g.root)];
    std::uint32_t count = changed[hi] - changed[lo];
    if (g.exclude >= 0) {
      const std::size_t xlo =
          std::max(lo, span_begin_[static_cast<std::size_t>(g.exclude)]);
      const std::size_t xhi =
          std::min(hi, span_end_[static_cast<std::size_t>(g.exclude)]);
      if (xlo < xhi) count -= changed[xhi] - changed[xlo];
    }
    return count != 0;
  };
  forEachChunk(nullptr, [&](std::size_t lo, std::size_t hi,
                            ScoreCache::Scratch&) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Move& m = moves[i];
      const ScoreCache::Key key{static_cast<int>(m.type),
                                m.node,
                                m.size_step,
                                m.child,
                                m.new_parent,
                                std::bit_cast<std::uint64_t>(m.delta.x),
                                std::bit_cast<std::uint64_t>(m.delta.y)};
      next.index[i] = {key, static_cast<std::uint32_t>(i)};
      if (!comparable) continue;
      const auto it = std::ranges::lower_bound(
          prev.index, key, {}, [](const auto& e) { return e.first; });
      if (it == prev.index.end() || it->first != key ||
          analyzer_.readSetChanged(m, c.changed_))
        continue;
      const std::uint32_t src = it->second;
      c.source_[i] = src;
      c.keep_[i] =
          same_layout &&
          std::ranges::none_of(
              std::span(&prev.groups[src * kG], prev.ngroups[src]), marked);
    }
  });
  RoundStats stats;
  for (std::size_t i = 0; i < n; ++i) {
    if (c.source_[i] == kStale) {
      ++stats.computed;
      analyzer_.requestBeforeNets(moves[i]);
    } else {
      ++stats.reused;
      stats.kept += static_cast<std::size_t>(c.keep_[i]);
    }
  }
  stats.nets = analyzer_.buildBeforeNets(pool);

  // Score; slice 0 first sorts the index, which only the next round reads.
  forEachChunk([&] { std::sort(next.index.begin(), next.index.end()); },
               [&](std::size_t lo, std::size_t hi, ScoreCache::Scratch& s) {
                 scoreChunk(moves, lo, hi, c, s, out);
               });

  std::swap(c.prev_, c.next_);
  std::swap(c.inputs_, c.now_inputs_);
  c.layout_.dfs_sinks = dfs_sinks_;
  c.layout_.span_begin = span_begin_;
  c.layout_.span_end = span_end_;
  c.layout_.pairs.clear();
  for (const network::SinkPair& p : design_->pairs)
    c.layout_.pairs.emplace_back(p.launch, p.capture);
  c.layout_.report = base_report_;
  c.primed_ = true;
  return stats;
}

}  // namespace skewopt::core
