#include "sta/timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"
#include "rc/rc.h"

namespace skewopt::sta {

using network::ClockNode;
using network::ClockTree;
using network::NodeKind;
using network::Routing;

namespace {

/// Input pin capacitance of a tree node at a corner.
double pinCap(const tech::TechModel& tech, const ClockTree& tree, int id,
              std::size_t corner) {
  const ClockNode& n = tree.node(id);
  if (n.kind == NodeKind::Sink) return tech.sinkCapFf(corner);
  return tech.cell(static_cast<std::size_t>(n.cell)).pin_cap_ff[corner];
}

/// Builds the RC view of a routed net into caller scratch: wire R/C from
/// the Steiner tree (pi model per edge) plus receiver pin caps. `rct` is
/// rebuilt in place (rc node 0 = driving point = steiner node 0) and
/// `pin_rc` receives the rc-node index of every child pin.
void buildNetRc(const tech::TechModel& tech, const ClockTree& tree,
                int driver, const route::SteinerTree& net, std::size_t corner,
                rc::RcTree& rct, std::vector<std::size_t>& pin_rc,
                std::vector<std::size_t>& rc_of) {
  const tech::WireParams& w = tech.wire(corner);
  rct.clear();
  rc_of.assign(net.size(), 0);
  rc_of[0] = 0;
  for (std::size_t n = 1; n < net.size(); ++n) {
    const double len = net.edgeLength(n);
    const double res = len * w.res_kohm_per_um;
    const double cap = len * w.cap_ff_per_um;
    rc_of[n] = rct.addNode(rc_of[static_cast<std::size_t>(net.parent[n])],
                           res, cap / 2.0);
    rct.addCap(rc_of[static_cast<std::size_t>(net.parent[n])], cap / 2.0);
  }
  const auto& children = tree.node(driver).children;
  assert(children.size() == net.pin_node.size());
  pin_rc.resize(children.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    const std::size_t rcn = rc_of[net.pin_node[i]];
    rct.addCap(rcn, pinCap(tech, tree, children[i], corner));
    pin_rc[i] = rcn;
  }
}

/// Corner-batched buildNetRc: one shared-topology RcTreeBatch with a lane
/// per corner. RcTreeBatch::addNode appends sequentially, so rc node n ==
/// steiner node n and no rc_of map is needed. Every per-lane value is
/// computed by the same expression, and every per-node cap accumulation
/// happens in the same order, as the scalar builder — each lane of the
/// result is bit-identical to buildNetRc at that corner. That includes the
/// scalar builder's handling of steiner nodes whose parent has a higher
/// index (edge splits, trunk chains): rc_of[] there still holds 0 for an
/// unvisited parent, so such edges hang off the driving point — mirrored
/// here as `p < n ? p : 0`.
void buildNetRcBatch(const tech::TechModel& tech, const ClockTree& tree,
                     int driver, const route::SteinerTree& net,
                     std::span<const std::size_t> corners,
                     rc::RcTreeBatch& rct, std::vector<std::size_t>& pin_rc,
                     std::vector<double>& lanes) {
  const std::size_t K = corners.size();
  rct.reset(K);
  lanes.resize(2 * K);
  double* res_l = lanes.data();
  double* cap_l = lanes.data() + K;
  for (std::size_t n = 1; n < net.size(); ++n) {
    const double len = net.edgeLength(n);
    for (std::size_t k = 0; k < K; ++k) {
      const tech::WireParams& w = tech.wire(corners[k]);
      res_l[k] = len * w.res_kohm_per_um;
      cap_l[k] = (len * w.cap_ff_per_um) / 2.0;
    }
    const std::size_t p = static_cast<std::size_t>(net.parent[n]);
    const std::size_t rp = p < n ? p : 0;
    rct.addNode(rp, res_l, cap_l);
    rct.addCap(rp, cap_l);
  }
  const auto& children = tree.node(driver).children;
  assert(children.size() == net.pin_node.size());
  pin_rc.resize(children.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    for (std::size_t k = 0; k < K; ++k)
      cap_l[k] = pinCap(tech, tree, children[i], corners[k]);
    rct.addCap(net.pin_node[i], cap_l);
    pin_rc[i] = net.pin_node[i];
  }
}

}  // namespace

CornerTiming Timer::analyze(const ClockTree& tree, const Routing& routing,
                            std::size_t corner) const {
  const std::size_t n = tree.numNodes();
  CornerTiming t;
  t.corner = corner;
  t.arrival.assign(n, 0.0);
  t.slew.assign(n, 0.0);
  t.in_arrival.assign(n, 0.0);
  t.in_slew.assign(n, 0.0);
  t.driver_load.assign(n, 0.0);
  propagateFrom(tree, routing, corner, tree.root(), &t);
  return t;
}

void Timer::propagateFrom(const ClockTree& tree, const Routing& routing,
                          std::size_t corner, int start, CornerTiming* tp,
                          PropagateScratch* scratch) const {
  CornerTiming& t = *tp;
  // Grow state arrays for nodes created since `t` was computed.
  const std::size_t n = tree.numNodes();
  if (t.arrival.size() < n) {
    t.arrival.resize(n, 0.0);
    t.slew.resize(n, 0.0);
    t.in_arrival.resize(n, 0.0);
    t.in_slew.resize(n, 0.0);
    t.driver_load.resize(n, 0.0);
  }
  PropagateScratch local;
  PropagateScratch& s = scratch ? *scratch : local;

  // BFS from `start`; parents are always processed before children, so a
  // buffer's input slew is known by the time its own net is evaluated.
  s.queue.clear();
  s.queue.push_back(start);
  if (start == tree.root()) {
    t.slew[0] = source_slew_ps_;
    t.arrival[0] = 0.0;
  }
  for (std::size_t qi = 0; qi < s.queue.size(); ++qi) {
    const int d = s.queue[qi];
    const ClockNode& dn = tree.node(d);

    // Net load first (one RC build), then a single NLDM lookup at the true
    // load: the driver's own delay and slew are computed exactly once.
    if (!dn.children.empty()) {
      const route::SteinerTree* net = routing.net(d);
      if (net == nullptr)
        throw std::logic_error("Timer: driver " + std::to_string(d) +
                               " has children but no routed net");
      buildNetRc(*tech_, tree, d, *net, corner, s.rct, s.pin_rc, s.rc_of);
      t.driver_load[static_cast<std::size_t>(d)] = s.rct.totalCap();
    } else {
      t.driver_load[static_cast<std::size_t>(d)] = 0.0;
    }

    if (dn.kind == NodeKind::Buffer) {
      // Convert input-pin arrival into output arrival through the cell.
      const tech::Cell& cell = tech_->cell(static_cast<std::size_t>(dn.cell));
      const double load = t.driver_load[static_cast<std::size_t>(d)];
      const double si = t.in_slew[static_cast<std::size_t>(d)];
      t.arrival[static_cast<std::size_t>(d)] =
          t.in_arrival[static_cast<std::size_t>(d)] +
          cell.delay[corner].lookup(si, load, &s.delay_hint);
      t.slew[static_cast<std::size_t>(d)] =
          cell.out_slew[corner].lookup(si, load, &s.slew_hint);
    }
    if (dn.children.empty()) continue;

    rc::elmoreDelaysInto(s.rct, s.elmore, s.cdown);
    for (std::size_t i = 0; i < dn.children.size(); ++i) {
      const int c = dn.children[i];
      const double wire_delay = s.elmore[s.pin_rc[i]];
      const double step_slew = rc::wireSlewFromElmore(wire_delay);
      const double in_arr =
          t.arrival[static_cast<std::size_t>(d)] + wire_delay;
      const double in_slew =
          rc::periSlew(t.slew[static_cast<std::size_t>(d)], step_slew);
      t.in_arrival[static_cast<std::size_t>(c)] = in_arr;
      t.in_slew[static_cast<std::size_t>(c)] = in_slew;
      if (tree.node(c).kind == NodeKind::Sink) {
        t.arrival[static_cast<std::size_t>(c)] = in_arr;
        t.slew[static_cast<std::size_t>(c)] = in_slew;
      } else {
        s.queue.push_back(c);
      }
    }
  }
}

void Timer::propagateFromAllCorners(const ClockTree& tree,
                                    const Routing& routing,
                                    std::span<const std::size_t> corners,
                                    int start, std::span<CornerTiming> timings,
                                    PropagateScratch* scratch) const {
  static obs::Counter& evals = obs::MetricsRegistry::global().counter(
      "skewopt_sta_batch_evals_total",
      "Corner-lane driver evaluations performed by batched propagation");
  const std::size_t K = corners.size();
  assert(timings.size() == K);
  if (K == 0) return;

  const std::size_t n = tree.numNodes();
  for (std::size_t ki = 0; ki < K; ++ki) {
    CornerTiming& t = timings[ki];
    assert(t.corner == corners[ki]);
    if (t.arrival.size() < n) {
      t.arrival.resize(n, 0.0);
      t.slew.resize(n, 0.0);
      t.in_arrival.resize(n, 0.0);
      t.in_slew.resize(n, 0.0);
      t.driver_load.resize(n, 0.0);
    }
  }
  PropagateScratch local;
  PropagateScratch& s = scratch ? *scratch : local;
  // K-wide staging: load, input slew, delay result, out-slew result (the
  // first 2K entries of s.lanes are claimed by buildNetRcBatch).
  s.lanes.resize(6 * K);
  double* load_l = s.lanes.data() + 2 * K;
  double* si_l = load_l + K;
  double* delay_l = si_l + K;
  double* oslew_l = delay_l + K;
  std::uint64_t lane_evals = 0;

  // The BFS order is corner-independent (one queue serves all corners);
  // per driver the RC view is built once with a lane per corner, Elmore
  // runs over all lanes in one walk, and the two NLDM lookups read the
  // cell's corner-major packed tables.
  s.queue.clear();
  s.queue.push_back(start);
  if (start == tree.root()) {
    for (std::size_t ki = 0; ki < K; ++ki) {
      timings[ki].slew[0] = source_slew_ps_;
      timings[ki].arrival[0] = 0.0;
    }
  }
  for (std::size_t qi = 0; qi < s.queue.size(); ++qi) {
    const int d = s.queue[qi];
    const std::size_t di = static_cast<std::size_t>(d);
    const ClockNode& dn = tree.node(d);
    lane_evals += K;

    if (!dn.children.empty()) {
      const route::SteinerTree* net = routing.net(d);
      if (net == nullptr)
        throw std::logic_error("Timer: driver " + std::to_string(d) +
                               " has children but no routed net");
      buildNetRcBatch(*tech_, tree, d, *net, corners, s.rct_batch, s.pin_rc,
                      s.lanes);
      s.rct_batch.totalCapInto(load_l);
      for (std::size_t ki = 0; ki < K; ++ki)
        timings[ki].driver_load[di] = load_l[ki];
    } else {
      for (std::size_t ki = 0; ki < K; ++ki) {
        timings[ki].driver_load[di] = 0.0;
        load_l[ki] = 0.0;
      }
    }

    if (dn.kind == NodeKind::Buffer) {
      const tech::Cell& cell = tech_->cell(static_cast<std::size_t>(dn.cell));
      for (std::size_t ki = 0; ki < K; ++ki) si_l[ki] = timings[ki].in_slew[di];
      cell.delay_packed.lookupEach(corners, si_l, load_l, delay_l,
                                   &s.delay_hint);
      cell.out_slew_packed.lookupEach(corners, si_l, load_l, oslew_l,
                                      &s.slew_hint);
      for (std::size_t ki = 0; ki < K; ++ki) {
        timings[ki].arrival[di] = timings[ki].in_arrival[di] + delay_l[ki];
        timings[ki].slew[di] = oslew_l[ki];
      }
    }
    if (dn.children.empty()) continue;

    rc::elmoreDelaysBatch(s.rct_batch, s.elmore_batch, s.cdown_batch);
    for (std::size_t i = 0; i < dn.children.size(); ++i) {
      const int c = dn.children[i];
      const std::size_t ci = static_cast<std::size_t>(c);
      const double* wire = s.elmore_batch.data() + s.pin_rc[i] * K;
      const bool is_sink = tree.node(c).kind == NodeKind::Sink;
      for (std::size_t ki = 0; ki < K; ++ki) {
        CornerTiming& t = timings[ki];
        const double wire_delay = wire[ki];
        const double step_slew = rc::wireSlewFromElmore(wire_delay);
        const double in_arr = t.arrival[di] + wire_delay;
        const double in_slew = rc::periSlew(t.slew[di], step_slew);
        t.in_arrival[ci] = in_arr;
        t.in_slew[ci] = in_slew;
        if (is_sink) {
          t.arrival[ci] = in_arr;
          t.slew[ci] = in_slew;
        }
      }
      if (!is_sink) s.queue.push_back(c);
    }
  }
  evals.add(lane_evals);
}

std::vector<CornerTiming> Timer::analyzeDesign(
    const network::Design& d) const {
  static obs::Counter& analyses = obs::MetricsRegistry::global().counter(
      "skewopt_sta_full_analyses_total",
      "Full multi-corner STA passes over a design");
  analyses.add();
  const std::size_t n = d.tree.numNodes();
  std::vector<CornerTiming> out(d.corners.size());
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
    CornerTiming& t = out[ki];
    t.corner = d.corners[ki];
    t.arrival.assign(n, 0.0);
    t.slew.assign(n, 0.0);
    t.in_arrival.assign(n, 0.0);
    t.in_slew.assign(n, 0.0);
    t.driver_load.assign(n, 0.0);
  }
  propagateFromAllCorners(d.tree, d.routing, d.corners, d.tree.root(), out);
  return out;
}

double Timer::worstLoadRatio(const ClockTree& tree, const Routing& routing,
                             std::size_t corner) const {
  const CornerTiming t = analyze(tree, routing, corner);
  double worst = 0.0;
  for (std::size_t i = 0; i < tree.numNodes(); ++i) {
    const int id = static_cast<int>(i);
    if (!tree.isValid(id)) continue;
    const ClockNode& n = tree.node(id);
    if (n.kind != NodeKind::Buffer || n.children.empty()) continue;
    const double cap = tech_->cell(static_cast<std::size_t>(n.cell)).max_cap_ff;
    worst = std::max(worst, t.driver_load[i] / cap);
  }
  return worst;
}

double clockTreePowerMw(const network::Design& d, std::size_t corner) {
  const tech::TechModel& tech = *d.tech;
  const tech::Corner& c = tech.corner(corner);
  const double f_ghz = tech.clockFreqGhz();

  // Switching: every routed wire segment and every input pin toggles once
  // per clock edge pair: E = C * V^2 per cycle.
  double cap_ff = d.routing.totalWirelength() * tech.wire(corner).cap_ff_per_um;
  double internal_uw = 0.0;
  double leakage_nw = 0.0;
  for (std::size_t i = 0; i < d.tree.numNodes(); ++i) {
    const int id = static_cast<int>(i);
    if (!d.tree.isValid(id)) continue;
    const ClockNode& n = d.tree.node(id);
    if (n.kind == NodeKind::Buffer) {
      const tech::Cell& cell = tech.cell(static_cast<std::size_t>(n.cell));
      cap_ff += cell.pin_cap_ff[corner];
      internal_uw += cell.internal_energy_fj[corner] * f_ghz;  // fJ*GHz = uW
      leakage_nw += cell.leakage_nw[corner];
    } else if (n.kind == NodeKind::Sink) {
      cap_ff += tech.sinkCapFf(corner);
    }
  }
  const double switching_uw = cap_ff * c.voltage * c.voltage * f_ghz;
  return (switching_uw + internal_uw + leakage_nw * 1e-3) * 1e-3;  // mW
}

double sumNormalizedSkewVariation(const network::Design& d,
                                  const Timer& timer) {
  const std::vector<CornerTiming> t = timer.analyzeDesign(d);
  const std::size_t nk = d.corners.size();
  std::vector<double> sum_abs(nk, 0.0);
  std::vector<std::vector<double>> skew(nk,
                                        std::vector<double>(d.pairs.size()));
  for (std::size_t pi = 0; pi < d.pairs.size(); ++pi) {
    for (std::size_t ki = 0; ki < nk; ++ki) {
      skew[ki][pi] =
          t[ki].arrival[static_cast<std::size_t>(d.pairs[pi].launch)] -
          t[ki].arrival[static_cast<std::size_t>(d.pairs[pi].capture)];
      sum_abs[ki] += std::abs(skew[ki][pi]);
    }
  }
  std::vector<double> alpha(nk, 1.0);
  for (std::size_t ki = 1; ki < nk; ++ki)
    alpha[ki] = sum_abs[ki] > 1e-9 ? sum_abs[0] / sum_abs[ki] : 1.0;
  double total = 0.0;
  for (std::size_t pi = 0; pi < d.pairs.size(); ++pi) {
    double v = 0.0;
    for (std::size_t a = 0; a < nk; ++a)
      for (std::size_t b = a + 1; b < nk; ++b)
        v = std::max(v, std::abs(alpha[a] * skew[a][pi] -
                                 alpha[b] * skew[b][pi]));
    total += v;
  }
  return total;
}

double clockCellAreaUm2(const network::Design& d) {
  double a = 0.0;
  for (std::size_t i = 0; i < d.tree.numNodes(); ++i) {
    const int id = static_cast<int>(i);
    if (!d.tree.isValid(id)) continue;
    const ClockNode& n = d.tree.node(id);
    if (n.kind == NodeKind::Buffer)
      a += d.tech->cell(static_cast<std::size_t>(n.cell)).area_um2;
  }
  return a;
}

}  // namespace skewopt::sta
