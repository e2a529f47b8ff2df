#include "network/routing.h"

#include <algorithm>
#include <stdexcept>

namespace skewopt::network {

void Routing::rebuildNet(const ClockTree& tree, int driver) {
  const ClockNode& d = tree.node(driver);
  if (d.children.empty()) {
    nets_.erase(driver);
    return;
  }
  std::vector<geom::Point> pins;
  pins.reserve(d.children.size());
  for (const int c : d.children) pins.push_back(tree.node(c).pos);
  nets_[driver] = route::ecoRoute(d.pos, pins, jog_factor_);
}

void Routing::rebuildAll(const ClockTree& tree) {
  nets_.clear();
  for (std::size_t i = 0; i < tree.numNodes(); ++i) {
    const int id = static_cast<int>(i);
    if (!tree.isValid(id)) continue;
    if (!tree.node(id).children.empty()) rebuildNet(tree, id);
  }
}

void Routing::rebuildAround(const ClockTree& tree, int id) {
  const ClockNode& n = tree.node(id);
  if (n.parent >= 0) rebuildNet(tree, n.parent);
  if (!n.children.empty()) rebuildNet(tree, id);
}

const route::SteinerTree* Routing::net(int driver) const {
  const auto it = nets_.find(driver);
  return it == nets_.end() ? nullptr : &it->second;
}

void Routing::addExtra(int driver, std::size_t pin_idx, double extra_um) {
  auto it = nets_.find(driver);
  if (it == nets_.end()) throw std::out_of_range("addExtra: no such net");
  auto& net = it->second;
  if (pin_idx >= net.pin_node.size())
    throw std::out_of_range("addExtra: bad pin index");
  net.extra[net.pin_node[pin_idx]] += extra_um;
}

double Routing::extraOf(int driver, std::size_t pin_idx) const {
  const auto it = nets_.find(driver);
  if (it == nets_.end() || pin_idx >= it->second.pin_node.size()) return 0.0;
  return it->second.extra[it->second.pin_node[pin_idx]];
}

double Routing::totalWirelength() const {
  // FP addition is not associative and this total reaches results (SKW
  // checks, objective reports), so the accumulation order must not come
  // from the hash layout: sum in sorted driver order.
  std::vector<int> drivers;
  drivers.reserve(nets_.size());
  // SKEWLINT-ALLOW(LNT002: key collection feeding the sort below; order cannot reach the sum)
  for (const auto& kv : nets_) drivers.push_back(kv.first);
  std::sort(drivers.begin(), drivers.end());
  double wl = 0.0;
  for (const int driver : drivers) wl += nets_.at(driver).wirelength();
  return wl;
}

}  // namespace skewopt::network
