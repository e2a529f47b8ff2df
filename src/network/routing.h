// Routing state of a clock tree: one routed Steiner net per driving node.
//
// Every node with children owns a net connecting its output pin to its
// children's input pins. The golden route comes from route::ecoRoute (the
// commercial-router stand-in). Edits to the tree invalidate the nets of the
// touched drivers; callers rebuild them through this class, mirroring the
// paper's "ECO routing" step after every move.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "network/clock_tree.h"
#include "route/route.h"

namespace skewopt::network {

class Routing {
 public:
  /// Fraction of per-edge jog detour the golden router adds (see ecoRoute).
  explicit Routing(double jog_factor = 0.08) : jog_factor_(jog_factor) {}

  /// Rebuilds the net of one driver from current node positions. The net's
  /// pin order matches the driver's children order.
  void rebuildNet(const ClockTree& tree, int driver);

  /// Rebuilds every net in the tree.
  void rebuildAll(const ClockTree& tree);

  /// Rebuilds the nets of the driver and the parents of `id` plus `id`
  /// itself if it drives a net — the set affected by moving/reparenting
  /// `id`.
  void rebuildAround(const ClockTree& tree, int id);

  /// Drops the net of a driver (e.g. after the driver was removed).
  void eraseNet(int driver) {
    ++version_;
    nets_.erase(driver);
  }

  /// Reinstates a previously captured net snapshot verbatim (trial
  /// rollback), including any forced-extra snaking the rebuild dropped.
  void restoreNet(int driver, const route::SteinerTree& net) {
    ++version_;
    nets_[driver] = net;
  }

  /// Net of a driver, or nullptr if the driver has no children.
  const route::SteinerTree* net(int driver) const;

  /// Adds forced snaking length to the edge reaching child pin `pin_idx`
  /// of a driver's net (used by the LP-guided ECO to realize exact
  /// inter-inverter wirelengths and U-shape detours).
  void addExtra(int driver, std::size_t pin_idx, double extra_um);

  /// Current forced-extra length on the edge reaching child pin `pin_idx`.
  double extraOf(int driver, std::size_t pin_idx) const;

  /// Total routed wirelength over all nets (um).
  double totalWirelength() const;

  std::size_t numNets() const { return nets_.size(); }

  /// Monotonic counter bumped by every mutation; paired with
  /// ClockTree::editStamp() it identifies a timing state.
  std::uint64_t version() const { return version_; }

 private:
  double jog_factor_;
  std::uint64_t version_ = 0;
  std::unordered_map<int, route::SteinerTree> nets_;
};

}  // namespace skewopt::network
