#include "check/check.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace skewopt::check {

namespace {

constexpr double kPosTolUm = 1e-6;   ///< exact-copy positions, float noise
constexpr double kTimeTolPs = 1e-6;  ///< monotonicity slack

std::string nodeRef(const network::ClockTree& tree, int id) {
  std::ostringstream os;
  os << "node " << id;
  const auto& nodes = tree.rawNodes();
  if (id >= 0 && static_cast<std::size_t>(id) < nodes.size() &&
      !nodes[static_cast<std::size_t>(id)].name.empty())
    os << " (" << nodes[static_cast<std::size_t>(id)].name << ')';
  return os.str();
}

bool finitePoint(const geom::Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

}  // namespace

void checkTreeStructure(const network::ClockTree& tree,
                        DiagnosticEngine& engine) {
  const char* kCheck = "tree-structure";
  const auto& nodes = tree.rawNodes();
  const int n = static_cast<int>(nodes.size());
  if (n == 0) {
    engine.report(101, Severity::kError, kCheck, "tree has no nodes");
    return;
  }

  // Root shape: node 0 is the one live parentless source.
  const network::ClockNode& root = nodes[0];
  if (!root.valid || root.kind != network::NodeKind::Source ||
      root.parent != -1)
    engine.report(101, Severity::kError, kCheck,
                  "node 0 is not a live parentless source");

  const auto inRange = [n](int id) { return id >= 0 && id < n; };

  for (int i = 0; i < n; ++i) {
    const network::ClockNode& nd = nodes[static_cast<std::size_t>(i)];
    if (!nd.valid) {
      if (!nd.children.empty())
        engine.report(110, Severity::kError, kCheck,
                      nodeRef(tree, i) + " is deleted but still has " +
                          std::to_string(nd.children.size()) + " child(ren)");
      continue;
    }
    if (i > 0 && nd.kind == network::NodeKind::Source)
      engine.report(102, Severity::kError, kCheck,
                    nodeRef(tree, i) + " is a second source node");
    if (i > 0) {
      if (!inRange(nd.parent)) {
        engine.report(103, Severity::kError, kCheck,
                      nodeRef(tree, i) + " has out-of-range parent " +
                          std::to_string(nd.parent));
      } else if (!nodes[static_cast<std::size_t>(nd.parent)].valid) {
        engine.report(110, Severity::kError, kCheck,
                      nodeRef(tree, i) + " is parented to deleted node " +
                          std::to_string(nd.parent));
      } else {
        const auto& pch = nodes[static_cast<std::size_t>(nd.parent)].children;
        if (std::count(pch.begin(), pch.end(), i) != 1)
          engine.report(103, Severity::kError, kCheck,
                        nodeRef(tree, i) + " appears " +
                            std::to_string(std::count(pch.begin(), pch.end(),
                                                      i)) +
                            " times in the child list of its parent " +
                            std::to_string(nd.parent));
      }
    }
    if (nd.kind == network::NodeKind::Sink && !nd.children.empty())
      engine.report(107, Severity::kError, kCheck,
                    nodeRef(tree, i) + " is a sink with " +
                        std::to_string(nd.children.size()) + " child(ren)");
    if (nd.kind == network::NodeKind::Buffer && nd.cell < 0)
      engine.report(108, Severity::kError, kCheck,
                    nodeRef(tree, i) + " is a buffer with no library cell");

    std::unordered_set<int> seen_children;
    for (const int c : nd.children) {
      if (!inRange(c)) {
        engine.report(104, Severity::kError, kCheck,
                      nodeRef(tree, i) + " lists out-of-range child " +
                          std::to_string(c));
        continue;
      }
      if (!seen_children.insert(c).second)
        engine.report(104, Severity::kError, kCheck,
                      nodeRef(tree, i) + " lists child " + std::to_string(c) +
                          " more than once");
      const network::ClockNode& ch = nodes[static_cast<std::size_t>(c)];
      if (!ch.valid)
        engine.report(110, Severity::kError, kCheck,
                      nodeRef(tree, i) + " lists deleted node " +
                          std::to_string(c) + " as a child");
      else if (ch.parent != i)
        engine.report(104, Severity::kError, kCheck,
                      nodeRef(tree, i) + " lists child " + std::to_string(c) +
                          " whose parent pointer is " +
                          std::to_string(ch.parent));
    }
  }

  // Reachability: every live node must be reached from the root by child
  // links exactly once. A live node the walk misses is either detached or
  // on a cycle; with consistent parent/child links above, "unreachable"
  // and "on a cycle" coincide.
  std::vector<char> reached(static_cast<std::size_t>(n), 0);
  if (root.valid && root.parent == -1) {
    std::vector<int> stack{0};
    reached[0] = 1;
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      for (const int c : nodes[static_cast<std::size_t>(cur)].children) {
        if (!inRange(c) || reached[static_cast<std::size_t>(c)]) continue;
        reached[static_cast<std::size_t>(c)] = 1;
        stack.push_back(c);
      }
    }
  }
  for (int i = 1; i < n; ++i) {
    const network::ClockNode& nd = nodes[static_cast<std::size_t>(i)];
    if (!nd.valid || reached[static_cast<std::size_t>(i)]) continue;
    if (nd.kind == network::NodeKind::Sink)
      engine.report(106, Severity::kError, kCheck,
                    nodeRef(tree, i) +
                        " is a sink unreachable from the source");
    else
      engine.report(105, Severity::kError, kCheck,
                    nodeRef(tree, i) +
                        " is unreachable from the source (detached or on a "
                        "cycle)");
  }
}

void checkRouting(const network::Design& d, DiagnosticEngine& engine) {
  const char* kCheck = "routing";
  const auto& nodes = d.tree.rawNodes();
  const int n = static_cast<int>(nodes.size());
  std::size_t expected_nets = 0;

  for (int i = 0; i < n; ++i) {
    const network::ClockNode& nd = nodes[static_cast<std::size_t>(i)];
    if (!nd.valid || nd.children.empty()) continue;
    ++expected_nets;
    const route::SteinerTree* net = d.routing.net(i);
    if (net == nullptr) {
      engine.report(120, Severity::kError, kCheck,
                    nodeRef(d.tree, i) + " drives " +
                        std::to_string(nd.children.size()) +
                        " child(ren) but has no routed net");
      continue;
    }

    // Geometry well-formedness.
    const std::size_t sz = net->nodes.size();
    bool geometry_ok =
        sz > 0 && net->parent.size() == sz && net->extra.size() == sz;
    if (geometry_ok && net->parent[0] != -1) geometry_ok = false;
    if (geometry_ok) {
      for (std::size_t j = 0; j < sz; ++j) {
        if (!finitePoint(net->nodes[j]) || !std::isfinite(net->extra[j]) ||
            net->extra[j] < 0.0 ||
            (j > 0 && (net->parent[j] < 0 ||
                       static_cast<std::size_t>(net->parent[j]) >= sz))) {
          geometry_ok = false;
          break;
        }
      }
    }
    if (!geometry_ok) {
      engine.report(124, Severity::kError, kCheck,
                    "net of " + nodeRef(d.tree, i) +
                        " has malformed geometry (array shape, parent "
                        "indices, extras, or coordinates)");
      continue;
    }

    if (geom::manhattan(net->nodes[0], nd.pos) > kPosTolUm)
      engine.report(125, Severity::kError, kCheck,
                    "net of " + nodeRef(d.tree, i) +
                        " starts away from the driver position");

    if (net->pin_node.size() != nd.children.size()) {
      engine.report(122, Severity::kError, kCheck,
                    "net of " + nodeRef(d.tree, i) + " has " +
                        std::to_string(net->pin_node.size()) +
                        " pin(s) for " + std::to_string(nd.children.size()) +
                        " child(ren)");
      continue;
    }
    for (std::size_t p = 0; p < net->pin_node.size(); ++p) {
      const int child = nd.children[p];
      if (child < 0 || child >= n) continue;  // reported by tree-structure
      if (net->pin_node[p] >= sz) {
        engine.report(124, Severity::kError, kCheck,
                      "net of " + nodeRef(d.tree, i) + " pin " +
                          std::to_string(p) + " maps outside the net");
        continue;
      }
      const geom::Point& pin = net->nodes[net->pin_node[p]];
      const geom::Point& at = nodes[static_cast<std::size_t>(child)].pos;
      if (geom::manhattan(pin, at) > kPosTolUm)
        engine.report(123, Severity::kError, kCheck,
                      "net of " + nodeRef(d.tree, i) + " pin " +
                          std::to_string(p) + " does not land on child " +
                          nodeRef(d.tree, child));
    }
  }

  // The routing owns exactly one net per driver; more means stale nets
  // survived an edit (e.g. a restored snapshot of a removed driver).
  if (d.routing.numNets() > expected_nets)
    engine.report(121, Severity::kError, kCheck,
                  "routing holds " + std::to_string(d.routing.numNets()) +
                      " net(s) for " + std::to_string(expected_nets) +
                      " driving node(s) — stale net(s) present");
}

void checkPlacement(const network::Design& d, const CheckOptions& opts,
                    DiagnosticEngine& engine) {
  const char* kCheck = "placement";
  const auto& nodes = d.tree.rawNodes();
  const int n = static_cast<int>(nodes.size());
  const geom::Rect box = d.floorplan.bbox().expanded(opts.placement_margin_um);

  std::unordered_map<long long, int> at_pos;
  const bool deep = opts.level >= Level::kDeep;

  for (int i = 0; i < n; ++i) {
    const network::ClockNode& nd = nodes[static_cast<std::size_t>(i)];
    if (!nd.valid) continue;
    if (!finitePoint(nd.pos)) {
      engine.report(140, Severity::kError, kCheck,
                    nodeRef(d.tree, i) + " has a non-finite position");
      continue;
    }
    if (nd.kind != network::NodeKind::Buffer) continue;

    if (!box.empty() && !box.contains(nd.pos)) {
      std::ostringstream os;
      os << nodeRef(d.tree, i) << " at (" << nd.pos.x << ", " << nd.pos.y
         << ") lies outside the floorplan bounding box";
      engine.report(141, Severity::kError, kCheck, os.str());
    }
    if (opts.require_site_alignment && d.tech != nullptr) {
      const double site = d.tech->siteWidthUm();
      const double row = d.tech->rowHeightUm();
      if (std::abs(nd.pos.x - geom::snap(nd.pos.x, site)) > kPosTolUm ||
          std::abs(nd.pos.y - geom::snap(nd.pos.y, row)) > kPosTolUm)
        engine.report(143, Severity::kError, kCheck,
                      nodeRef(d.tree, i) + " is off the site/row grid");
    }
    if (deep) {
      // Quantize to nm so exact overlaps collide regardless of float noise.
      const long long qx = std::llround(nd.pos.x * 1e3);
      const long long qy = std::llround(nd.pos.y * 1e3);
      const long long key = qx * 2000003LL + qy;
      const auto [it, inserted] = at_pos.emplace(key, i);
      // Warning, not error: the flow legalizes only the cells it moves, so
      // two independently placed buffers can legitimately coincide.
      if (!inserted)
        engine.report(142, Severity::kWarning, kCheck,
                      nodeRef(d.tree, i) + " overlaps " +
                          nodeRef(d.tree, it->second) +
                          " at the same position");
    }
  }
}

void checkDesignRecords(const network::Design& d, DiagnosticEngine& engine) {
  const char* kCheck = "design-records";
  if (d.tech == nullptr) {
    engine.report(154, Severity::kError, kCheck,
                  "design has no technology model attached");
    return;
  }
  if (d.corners.empty())
    engine.report(150, Severity::kError, kCheck,
                  "design has no active corners");
  std::unordered_set<std::size_t> seen;
  for (const std::size_t k : d.corners) {
    if (k >= d.tech->numCorners())
      engine.report(151, Severity::kError, kCheck,
                    "active corner " + std::to_string(k) +
                        " is outside the technology's " +
                        std::to_string(d.tech->numCorners()) + " corner(s)");
    else if (!seen.insert(k).second)
      engine.report(151, Severity::kError, kCheck,
                    "active corner " + std::to_string(k) + " listed twice");
  }

  const int num_cells = static_cast<int>(d.tech->numCells());
  const auto& nodes = d.tree.rawNodes();
  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    const network::ClockNode& nd = nodes[static_cast<std::size_t>(i)];
    if (nd.valid && nd.kind == network::NodeKind::Buffer &&
        nd.cell >= num_cells)
      engine.report(109, Severity::kError, kCheck,
                    nodeRef(d.tree, i) + " uses cell " +
                        std::to_string(nd.cell) + " outside the " +
                        std::to_string(num_cells) + "-cell library");
  }

  const auto liveSink = [&](int id) {
    return d.tree.isValid(id) &&
           d.tree.node(id).kind == network::NodeKind::Sink;
  };
  for (std::size_t p = 0; p < d.pairs.size(); ++p) {
    const network::SinkPair& pr = d.pairs[p];
    if (!liveSink(pr.launch) || !liveSink(pr.capture))
      engine.report(152, Severity::kError, kCheck,
                    "sink pair " + std::to_string(p) + " (" +
                        std::to_string(pr.launch) + ", " +
                        std::to_string(pr.capture) +
                        ") references a node that is not a live sink");
    if (!std::isfinite(pr.weight) || pr.weight < 0.0)
      engine.report(153, Severity::kError, kCheck,
                    "sink pair " + std::to_string(p) +
                        " has an invalid weight");
  }
}

void checkCornerTiming(const network::ClockTree& tree,
                       const sta::CornerTiming& timing,
                       DiagnosticEngine& engine) {
  const char* kCheck = "timing";
  const auto& nodes = tree.rawNodes();
  const std::size_t n = nodes.size();
  const std::string at = "corner " + std::to_string(timing.corner) + ": ";

  if (timing.arrival.size() < n || timing.slew.size() < n) {
    engine.report(160, Severity::kError, kCheck,
                  at + "timing arrays cover " +
                      std::to_string(timing.arrival.size()) + " of " +
                      std::to_string(n) + " node(s)");
    return;
  }
  const bool has_inputs =
      timing.in_arrival.size() >= n && timing.in_slew.size() >= n;

  for (std::size_t i = 0; i < n; ++i) {
    const network::ClockNode& nd = nodes[i];
    if (!nd.valid) continue;
    const int id = static_cast<int>(i);
    if (!std::isfinite(timing.arrival[i]) || !std::isfinite(timing.slew[i]) ||
        timing.slew[i] < 0.0) {
      engine.report(160, Severity::kError, kCheck,
                    at + nodeRef(tree, id) +
                        " has a non-finite arrival or invalid slew");
      continue;
    }
    if (nd.parent < 0 || static_cast<std::size_t>(nd.parent) >= n) continue;
    const double parent_out = timing.arrival[static_cast<std::size_t>(
        nd.parent)];
    if (!std::isfinite(parent_out)) continue;  // reported at the parent

    if (has_inputs) {
      const double wire = timing.in_arrival[i] - parent_out;
      const double gate = timing.arrival[i] - timing.in_arrival[i];
      if (std::isfinite(timing.in_arrival[i]) && wire < -kTimeTolPs)
        engine.report(161, Severity::kError, kCheck,
                      at + nodeRef(tree, id) + " has negative wire delay " +
                          std::to_string(wire) + " ps");
      if (nd.kind == network::NodeKind::Buffer &&
          std::isfinite(timing.in_arrival[i]) && gate < -kTimeTolPs)
        engine.report(161, Severity::kError, kCheck,
                      at + nodeRef(tree, id) + " has negative gate delay " +
                          std::to_string(gate) + " ps");
    }
    if (timing.arrival[i] < parent_out - kTimeTolPs)
      engine.report(162, Severity::kError, kCheck,
                    at + nodeRef(tree, id) +
                        " arrives before its driver — latency is not "
                        "monotone along the path");
  }

  if (timing.driver_load.size() >= n) {
    for (std::size_t i = 0; i < n; ++i) {
      const network::ClockNode& nd = nodes[i];
      if (!nd.valid || nd.children.empty()) continue;
      if (!std::isfinite(timing.driver_load[i]) || timing.driver_load[i] <= 0.0)
        engine.report(163, Severity::kError, kCheck,
                      at + nodeRef(tree, static_cast<int>(i)) +
                          " drives a net with invalid load " +
                          std::to_string(timing.driver_load[i]) + " fF");
    }
  }
}

void checkDesignTiming(const network::Design& d, const sta::Timer& timer,
                       DiagnosticEngine& engine) {
  if (d.tech == nullptr) return;  // reported by design-records
  for (const std::size_t k : d.corners) {
    if (k >= d.tech->numCorners()) continue;  // reported by design-records
    const sta::CornerTiming timing = timer.analyze(d.tree, d.routing, k);
    checkCornerTiming(d.tree, timing, engine);
  }
}

void checkLpModel(const lp::Model& model, DiagnosticEngine& engine) {
  const char* kCheck = "lp-model";
  const int nv = model.numVars();
  const int nr = model.numRows();

  for (int v = 0; v < nv; ++v) {
    const double lb = model.varLb(v), ub = model.varUb(v);
    if (std::isnan(lb) || std::isnan(ub) || lb > ub)
      engine.report(203, Severity::kError, kCheck,
                    "variable " + std::to_string(v) +
                        " has empty or NaN bounds");
    if (lb == lp::kInf || ub == -lp::kInf)
      engine.report(204, Severity::kError, kCheck,
                    "variable " + std::to_string(v) +
                        " has an infinite bound on the wrong side");
    if (!std::isfinite(model.objCoef(v)))
      engine.report(201, Severity::kError, kCheck,
                    "variable " + std::to_string(v) +
                        " has a non-finite objective coefficient");
  }

  std::size_t nnz = 0;
  std::unordered_set<int> row_vars;
  for (int r = 0; r < nr; ++r) {
    const double lo = model.rowLo(r), hi = model.rowHi(r);
    if (std::isnan(lo) || std::isnan(hi) || lo > hi)
      engine.report(202, Severity::kError, kCheck,
                    "row " + std::to_string(r) + " has empty or NaN bounds");
    if (lo == lp::kInf || hi == -lp::kInf)
      engine.report(204, Severity::kError, kCheck,
                    "row " + std::to_string(r) +
                        " has an infinite bound on the wrong side");
    row_vars.clear();
    for (const lp::Term& t : model.rowTerms(r)) {
      ++nnz;
      if (t.var < 0 || t.var >= nv) {
        engine.report(200, Severity::kError, kCheck,
                      "row " + std::to_string(r) +
                          " references out-of-range variable " +
                          std::to_string(t.var));
        continue;
      }
      if (!std::isfinite(t.coef))
        engine.report(201, Severity::kError, kCheck,
                      "row " + std::to_string(r) + " variable " +
                          std::to_string(t.var) +
                          " has a non-finite coefficient");
      if (!row_vars.insert(t.var).second)
        engine.report(205, Severity::kError, kCheck,
                      "row " + std::to_string(r) + " holds variable " +
                          std::to_string(t.var) +
                          " twice — terms were not coalesced");
    }
  }
  if (nnz != model.numNonzeros())
    engine.report(206, Severity::kError, kCheck,
                  "model reports " + std::to_string(model.numNonzeros()) +
                      " nonzeros but its rows hold " + std::to_string(nnz));
}

void checkBudgetRow(const lp::Model& model, int budget_row,
                    DiagnosticEngine& engine) {
  const char* kCheck = "lp-budget-row";
  if (budget_row < 0 || budget_row != model.numRows() - 1) {
    engine.report(210, Severity::kError, kCheck,
                  "budget row " + std::to_string(budget_row) +
                      " is not the final row of the sweep model (" +
                      std::to_string(model.numRows()) + " row(s))");
    return;
  }
  const double lo = model.rowLo(budget_row), hi = model.rowHi(budget_row);
  if (lo != -lp::kInf || !std::isfinite(hi))
    engine.report(211, Severity::kError, kCheck,
                  "budget row is not a one-sided upper bound");
  for (const lp::Term& t : model.rowTerms(budget_row)) {
    if (!(t.coef > 0.0))
      engine.report(212, Severity::kError, kCheck,
                    "budget row holds non-positive coefficient on variable " +
                        std::to_string(t.var));
  }
}

namespace {

/// The worst offender of one certificate condition, and how many entries
/// exceed its tolerance.
struct Worst {
  double tol;
  double residual = 0.0;  ///< scaled, compared against tol
  double amount = 0.0;    ///< unscaled
  int index = -1;
  bool row = false;
  std::size_t count = 0;

  void track(double res, double amt, int at, bool is_row) {
    if (res > tol) ++count;
    if (res > residual) {
      residual = res;
      amount = amt;
      index = at;
      row = is_row;
    }
  }
};

struct Certificate {
  Worst primal{kLpPrimalTol}, dual{kLpDualTol},
      complementarity{kLpComplementarityTol};
  double dual_objective = 0.0;
  double gap = 0.0;
};

bool allFinite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double e) { return std::isfinite(e); });
}

/// The code a solution the certificate cannot read is reported under: x
/// (SKW230) or duals (SKW231) missing, mis-sized or non-finite, or a
/// non-finite objective (SKW233). 0 for a well-shaped solution.
int shapeDefect(const lp::Model& model, const lp::Solution& sol) {
  if (sol.x.size() != static_cast<std::size_t>(model.numVars()) ||
      !allFinite(sol.x))
    return 230;
  if (sol.duals.size() != static_cast<std::size_t>(model.numRows()) ||
      !allFinite(sol.duals))
    return 231;
  return std::isfinite(sol.objective) ? 0 : 233;
}

/// Certifies one variable or row: the multiplier `m` (a reduced cost or a
/// row dual) prices the bound range [lo, hi] of a quantity at value `v`. A
/// positive multiplier holds v at lo, a negative one at hi.
void certifyEntry(double m, double v, double lo, double hi, int index,
                  bool row, double cost_scale, double obj_scale,
                  Certificate& c) {
  const double bound = v < lo ? lo : (v > hi ? hi : v);
  const double violation = std::abs(v - bound);
  c.primal.track(violation / std::max(1.0, std::abs(bound)), violation,
                 index, row);
  if (m == 0.0) return;
  const double side = m > 0.0 ? lo : hi;
  if (!std::isfinite(side)) {
    // No finite bound supports this sign. Price it at the point itself,
    // so the gap stays finite.
    c.dual.track(std::abs(m) / cost_scale, std::abs(m), index, row);
    c.dual_objective += m * v;
    return;
  }
  const double product = std::abs(m) * std::max(0.0, m > 0.0 ? v - lo : hi - v);
  c.complementarity.track(product / obj_scale, product, index, row);
  c.dual_objective += m * side;
}

/// The certificate of a well-shaped solution: reduced costs recomputed
/// from the model's rows, then one pass over rows and one over variables.
Certificate certify(const lp::Model& model, const lp::Solution& sol) {
  Certificate c;
  const int nv = model.numVars();
  std::vector<double> d(static_cast<std::size_t>(nv));
  double cost_max = 0.0;
  for (int j = 0; j < nv; ++j) {
    d[static_cast<std::size_t>(j)] = model.objCoef(j);
    cost_max = std::max(cost_max, std::abs(model.objCoef(j)));
  }
  const double cost_scale = std::max(1.0, cost_max);
  const double obj_scale = std::max(1.0, std::abs(sol.objective));
  for (int r = 0; r < model.numRows(); ++r) {
    const double y = sol.duals[static_cast<std::size_t>(r)];
    double activity = 0.0;
    for (const lp::Term& t : model.rowTerms(r)) {
      activity += t.coef * sol.x[static_cast<std::size_t>(t.var)];
      d[static_cast<std::size_t>(t.var)] -= y * t.coef;
    }
    certifyEntry(y, activity, model.rowLo(r), model.rowHi(r), r,
                 /*row=*/true, cost_scale, obj_scale, c);
  }
  for (int j = 0; j < nv; ++j)
    certifyEntry(d[static_cast<std::size_t>(j)],
                 sol.x[static_cast<std::size_t>(j)], model.varLb(j),
                 model.varUb(j), j, /*row=*/false, cost_scale, obj_scale, c);
  c.gap = std::abs(sol.objective - c.dual_objective) / obj_scale;
  return c;
}

void reportWorst(DiagnosticEngine& engine, int code, const Worst& w,
                 const char* what, const lp::Model& model) {
  if (w.count == 0) return;
  std::ostringstream os;
  os.precision(4);
  os << w.count << ' ' << what << "; worst ";
  if (w.row)
    os << "row " << w.index;
  else
    os << "variable " << w.index << " (" << model.varName(w.index) << ')';
  os << " by " << w.amount << " (relative " << w.residual << " > " << w.tol
     << ')';
  engine.report(code, Severity::kError, "lp-certificate", os.str());
}

}  // namespace

LpResiduals lpResiduals(const lp::Model& model, const lp::Solution& solution) {
  if (shapeDefect(model, solution) != 0)
    return {lp::kInf, lp::kInf, lp::kInf, lp::kInf};
  const Certificate c = certify(model, solution);
  return {c.primal.residual, c.dual.residual, c.complementarity.residual,
          c.gap};
}

void checkLpOptimality(const lp::Model& model, const lp::Solution& solution,
                       DiagnosticEngine& engine) {
  if (solution.status != lp::Status::Optimal) return;
  if (const int code = shapeDefect(model, solution); code != 0) {
    engine.report(code, Severity::kError, "lp-certificate",
                  code == 230   ? "solution x is missing, mis-sized or "
                                  "non-finite"
                  : code == 231 ? "solution duals are missing, mis-sized "
                                  "or non-finite"
                                : "solution objective is non-finite");
    return;
  }
  const Certificate c = certify(model, solution);
  reportWorst(engine, 230, c.primal, "bound(s) violated", model);
  reportWorst(engine, 231, c.dual,
              "multiplier(s) of a sign no finite bound supports", model);
  reportWorst(engine, 232, c.complementarity,
              "multiplier(s) pricing a bound the point does not hold", model);
  if (c.gap > kLpGapTol) {
    std::ostringstream os;
    os.precision(10);
    os << "reported objective " << solution.objective
       << " differs from the dual objective " << c.dual_objective
       << " (relative gap " << c.gap << " > " << kLpGapTol << ')';
    engine.report(233, Severity::kError, "lp-certificate", os.str());
  }
}

void checkRatioEnvelope(const eco::StageDelayLut& lut,
                        const network::Design& d, DiagnosticEngine& engine) {
  const char* kCheck = "ratio-envelope";
  constexpr int kSamples = 9;
  for (std::size_t a = 0; a < d.corners.size(); ++a) {
    for (std::size_t b = a + 1; b < d.corners.size(); ++b) {
      const std::size_t k = std::min(d.corners[a], d.corners[b]);
      const std::size_t k2 = std::max(d.corners[a], d.corners[b]);
      if (k == k2 || k2 >= lut.tech().numCorners()) continue;
      const eco::RatioBound& lo = lut.ratioBound(k, k2, /*upper=*/false);
      const eco::RatioBound& hi = lut.ratioBound(k, k2, /*upper=*/true);
      const std::string pair_name =
          "corner pair (" + std::to_string(k) + ", " + std::to_string(k2) +
          ")";
      const double u0 = std::min(lo.u_lo, hi.u_lo);
      const double u1 = std::max(lo.u_hi, hi.u_hi);
      for (int s = 0; s < kSamples; ++s) {
        const double u =
            u0 + (u1 - u0) * static_cast<double>(s) / (kSamples - 1);
        const double wmin = lo.eval(u), wmax = hi.eval(u);
        if (!std::isfinite(wmin) || !std::isfinite(wmax)) {
          engine.report(221, Severity::kError, kCheck,
                        pair_name + " envelope is non-finite at u = " +
                            std::to_string(u));
          break;
        }
        if (wmin > wmax + 1e-9) {
          engine.report(220, Severity::kError, kCheck,
                        pair_name + " envelope inverts (W_min " +
                            std::to_string(wmin) + " > W_max " +
                            std::to_string(wmax) + " at u = " +
                            std::to_string(u) + ")");
          break;
        }
      }
    }
  }
}

void checkDesign(const network::Design& d, const CheckOptions& opts,
                 DiagnosticEngine& engine) {
  if (opts.level == Level::kOff) return;
  checkTreeStructure(d.tree, engine);
  checkRouting(d, engine);
  checkPlacement(d, opts, engine);
  checkDesignRecords(d, engine);
}

void gateDesign(const network::Design& d, const sta::Timer& timer,
                Level level, const char* stage) {
  if (level == Level::kOff) return;
  DiagnosticEngine engine;
  engine.setContext(stage);
  CheckOptions opts;
  opts.level = level;
  checkDesign(d, opts, engine);
  // Deep gates re-time every corner, but only on structurally sound
  // designs — the timer itself walks parent/child links and would crash or
  // loop on the very corruption the cheap pass just reported.
  if (level >= Level::kDeep && !engine.hasErrors())
    checkDesignTiming(d, timer, engine);
  if (engine.hasErrors()) throw CheckFailure(engine, stage);
}

}  // namespace skewopt::check
