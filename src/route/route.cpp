#include "route/route.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace skewopt::route {

using geom::Point;

double SteinerTree::wirelength() const {
  double wl = 0.0;
  for (std::size_t n = 1; n < nodes.size(); ++n) wl += edgeLength(n);
  return wl;
}

double SteinerTree::pathLength(std::size_t pin) const {
  if (pin >= pin_node.size())
    throw std::out_of_range("SteinerTree::pathLength: bad pin");
  double len = 0.0;
  for (int n = static_cast<int>(pin_node[pin]); parent[n] >= 0;
       n = parent[n]) {
    len += edgeLength(static_cast<std::size_t>(n));
  }
  return len;
}

namespace {

// Closest point (L1) on the axis-aligned segment [p, q] to point `t`.
Point closestOnSegment(const Point& p, const Point& q, const Point& t) {
  return {std::clamp(t.x, std::min(p.x, q.x), std::max(p.x, q.x)),
          std::clamp(t.y, std::min(p.y, q.y), std::max(p.y, q.y))};
}

struct Attach {
  double dist = std::numeric_limits<double>::infinity();
  std::size_t edge_child = 0;  // edge identified by its child node
  Point point;
  bool at_node = false;
  std::size_t node = 0;
};

// Best attachment of `t` onto the current tree: either an existing node or
// an interior point of an axis-aligned edge.
Attach findAttach(const SteinerTree& tree, const Point& t) {
  Attach best;
  for (std::size_t n = 0; n < tree.nodes.size(); ++n) {
    const double d = geom::manhattan(tree.nodes[n], t);
    if (d < best.dist) {
      best = {d, 0, tree.nodes[n], true, n};
    }
  }
  for (std::size_t n = 1; n < tree.nodes.size(); ++n) {
    const Point& a = tree.nodes[n];
    const Point& b = tree.nodes[static_cast<std::size_t>(tree.parent[n])];
    const Point c = closestOnSegment(a, b, t);
    const double d = geom::manhattan(c, t);
    if (d + 1e-9 < best.dist) {
      best = {d, n, c, false, 0};
    }
  }
  return best;
}

std::size_t addTreeNode(SteinerTree& tree, const Point& p, int parent) {
  tree.nodes.push_back(p);
  tree.parent.push_back(parent);
  tree.extra.push_back(0.0);
  return tree.nodes.size() - 1;
}

// Connects point t to the tree at the given attachment, creating a Steiner
// split node and an L-corner as needed. Returns the node index of t.
std::size_t connect(SteinerTree& tree, const Point& t, const Attach& at) {
  std::size_t anchor;
  if (at.at_node) {
    anchor = at.node;
  } else {
    const std::size_t child = at.edge_child;
    const Point& cp = tree.nodes[child];
    if (at.point == cp) {
      anchor = child;
    } else if (at.point ==
               tree.nodes[static_cast<std::size_t>(tree.parent[child])]) {
      anchor = static_cast<std::size_t>(tree.parent[child]);
    } else {
      // Split the edge: child -> split -> old parent. Any jog extra on the
      // edge stays on the lower half (arbitrary but consistent).
      anchor = addTreeNode(tree, at.point, tree.parent[child]);
      tree.parent[child] = static_cast<int>(anchor);
    }
  }
  const Point& ap = tree.nodes[anchor];
  if (ap.x != t.x && ap.y != t.y) {
    const Point corner{t.x, ap.y};
    const std::size_t c = addTreeNode(tree, corner, static_cast<int>(anchor));
    return addTreeNode(tree, t, static_cast<int>(c));
  }
  return addTreeNode(tree, t, static_cast<int>(anchor));
}

/// An empty tree with room for `nodes` nodes: building it never
/// reallocates.
SteinerTree treeWithCapacity(std::size_t nodes) {
  SteinerTree tree;
  tree.nodes.reserve(nodes);
  tree.parent.reserve(nodes);
  tree.extra.reserve(nodes);
  return tree;
}

SteinerTree greedySteinerOrdered(const Point& driver,
                                 const std::vector<Point>& pins,
                                 const std::vector<std::size_t>& order) {
  // A pin adds at most three nodes: a split, an L-corner and itself.
  SteinerTree tree = treeWithCapacity(1 + 3 * pins.size());
  addTreeNode(tree, driver, -1);
  tree.pin_node.assign(pins.size(), 0);
  for (const std::size_t i : order) {
    const Attach at = findAttach(tree, pins[i]);
    tree.pin_node[i] = connect(tree, pins[i], at);
  }
  return tree;
}

std::uint64_t mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hashPoint(const Point& p, std::uint64_t h) {
  h = mix(h ^ std::bit_cast<std::uint64_t>(p.x));
  h = mix(h ^ std::bit_cast<std::uint64_t>(p.y));
  return h;
}

}  // namespace

SteinerTree greedySteiner(const Point& driver, const std::vector<Point>& pins) {
  // Nearest-unrouted-first insertion order (recomputed against the driver
  // only, which keeps the heuristic deterministic and cheap).
  std::vector<std::size_t> order(pins.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = geom::manhattan(driver, pins[a]);
    const double db = geom::manhattan(driver, pins[b]);
    return da != db ? da < db : a < b;
  });
  return greedySteinerOrdered(driver, pins, order);
}

SteinerTree singleTrunk(const Point& driver, const std::vector<Point>& pins) {
  // The driver, a trunk node per distinct tap, and a stub per pin.
  SteinerTree tree = treeWithCapacity(2 + 2 * pins.size());
  addTreeNode(tree, driver, -1);
  tree.pin_node.assign(pins.size(), 0);
  if (pins.empty()) return tree;

  std::vector<double> xs;
  xs.reserve(pins.size() + 1);
  for (const Point& p : pins) xs.push_back(p.x);
  xs.push_back(driver.x);
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  const double xt = xs[xs.size() / 2];

  // Trunk attachment y-coordinates, sorted; the driver's attachment anchors
  // the trunk, and trunk segments chain away from it in both directions.
  struct Tap {
    double y;
    int pin;  // -1 for the driver tap
  };
  std::vector<Tap> taps;
  taps.reserve(pins.size() + 1);
  taps.push_back({driver.y, -1});
  for (std::size_t i = 0; i < pins.size(); ++i)
    taps.push_back({pins[i].y, static_cast<int>(i)});
  std::sort(taps.begin(), taps.end(), [](const Tap& a, const Tap& b) {
    return a.y != b.y ? a.y < b.y : a.pin < b.pin;
  });

  // Create trunk nodes (deduplicated by y) in sorted order.
  std::vector<std::size_t> trunk_node;
  std::vector<double> trunk_y;
  trunk_node.reserve(taps.size());
  trunk_y.reserve(taps.size());
  std::size_t driver_tap = 0;
  std::vector<std::size_t> pin_tap(pins.size());
  for (const Tap& t : taps) {
    if (trunk_y.empty() || trunk_y.back() != t.y) {
      trunk_y.push_back(t.y);
      trunk_node.push_back(addTreeNode(tree, {xt, t.y}, -2));  // parent later
    }
    if (t.pin < 0)
      driver_tap = trunk_node.size() - 1;
    else
      pin_tap[static_cast<std::size_t>(t.pin)] = trunk_node.size() - 1;
  }

  // Chain trunk nodes toward the driver tap; the driver tap hangs off the
  // driver pin through its horizontal stub.
  tree.parent[trunk_node[driver_tap]] = 0;
  for (std::size_t i = driver_tap; i-- > 0;)
    tree.parent[trunk_node[i]] = static_cast<int>(trunk_node[i + 1]);
  for (std::size_t i = driver_tap + 1; i < trunk_node.size(); ++i)
    tree.parent[trunk_node[i]] = static_cast<int>(trunk_node[i - 1]);

  // Horizontal stubs from trunk to each pin.
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].x == xt && pins[i].y == trunk_y[pin_tap[i]]) {
      tree.pin_node[i] = trunk_node[pin_tap[i]];
    } else {
      tree.pin_node[i] = addTreeNode(
          tree, pins[i], static_cast<int>(trunk_node[pin_tap[i]]));
    }
  }
  return tree;
}

SteinerTree ecoRoute(const Point& driver, const std::vector<Point>& pins,
                     double jog_factor) {
  // Deterministic placement-derived hash drives both the insertion order
  // perturbation and the per-edge jogs.
  std::uint64_t h = hashPoint(driver, 0x9E3779B97F4A7C15ULL);
  for (const Point& p : pins) h = hashPoint(p, h);

  std::vector<std::size_t> order(pins.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Order by a hash-perturbed distance so the golden route differs from the
  // predictor's nearest-first estimate on ties and near-ties.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = geom::manhattan(driver, pins[a]) *
                      (1.0 + 0.15 * static_cast<double>(mix(h ^ a) & 0xFF) / 255.0);
    const double db = geom::manhattan(driver, pins[b]) *
                      (1.0 + 0.15 * static_cast<double>(mix(h ^ b) & 0xFF) / 255.0);
    return da != db ? da < db : a < b;
  });

  SteinerTree tree = greedySteinerOrdered(driver, pins, order);
  if (jog_factor <= 0.0) return tree;  // jog_factor 0: ideal router
  // Detours have a *systematic* congestion-like component that grows with
  // the net's pin count (real routers detour more in denser nets) plus a
  // random per-edge jog. The systematic part is what the paper's ML model
  // learns through its fanout/bounding-box features; the random part is
  // irreducible ECO noise.
  const double fanout = static_cast<double>(pins.size());
  geom::BBox box;
  box.add(driver);
  for (const Point& p : pins) box.add(p);
  // Elongated and large nets cross more congested area and detour more;
  // both the aspect ratio and the area of the pin bounding box modulate
  // the systematic detour (the paper's ML features include exactly these
  // quantities, which is how its model learns the router's behavior).
  const double elongation = 1.0 + 0.8 * (1.0 - box.rect().aspect());
  const double spread =
      1.0 + 0.25 * std::log1p(box.rect().area() / 4000.0);
  const double systematic =
      0.12 * fanout / (fanout + 5.0) * elongation * spread;
  for (std::size_t n = 1; n < tree.nodes.size(); ++n) {
    const double len =
        geom::manhattan(tree.nodes[n],
                        tree.nodes[static_cast<std::size_t>(tree.parent[n])]);
    const double u = static_cast<double>(mix(h ^ (n * 0x9E37ULL)) & 0xFFFF) /
                     65535.0;
    tree.extra[n] = (systematic + jog_factor * u) * len;
  }
  return tree;
}

std::vector<Point> uShapePath(const Point& a, const Point& b,
                              double total_len) {
  const double direct = geom::manhattan(a, b);
  std::vector<Point> path;
  path.push_back(a);
  const double extra = total_len - direct;
  if (extra <= 1e-9) {
    if (a.x != b.x && a.y != b.y) path.push_back({b.x, a.y});
    path.push_back(b);
    return path;
  }
  // Detour by extra/2 perpendicular to the dominant travel axis, away from
  // the destination, then an L to the destination.
  const double d = extra / 2.0;
  const bool x_dominant = std::abs(b.x - a.x) >= std::abs(b.y - a.y);
  if (x_dominant) {
    const double s = (b.y >= a.y) ? -1.0 : 1.0;
    path.push_back({a.x, a.y + s * d});
    path.push_back({b.x, a.y + s * d});
  } else {
    const double s = (b.x >= a.x) ? -1.0 : 1.0;
    path.push_back({a.x + s * d, a.y});
    path.push_back({a.x + s * d, b.y});
  }
  if (path.back().x != b.x && path.back().y != b.y)
    path.push_back({b.x, path.back().y});
  path.push_back(b);
  return path;
}

double polylineLength(const std::vector<Point>& path) {
  double len = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i)
    len += geom::manhattan(path[i - 1], path[i]);
  return len;
}

Point pointAlongPath(const std::vector<Point>& path, double dist) {
  if (path.empty()) return {};
  if (dist <= 0.0) return path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const double seg = geom::manhattan(path[i - 1], path[i]);
    if (dist <= seg) {
      const double t = seg > 0.0 ? dist / seg : 0.0;
      return geom::lerp(path[i - 1], path[i], t);
    }
    dist -= seg;
  }
  return path.back();
}

}  // namespace skewopt::route
