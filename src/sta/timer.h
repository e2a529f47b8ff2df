// Multi-corner static timing analysis of a routed clock tree — the
// reproduction's "golden timer" (the paper uses Synopsys PrimeTime in this
// role).
//
// Per corner, the timer propagates arrival time and transition from the
// clock source to every sink:
//   * gate delay / output slew: NLDM table lookup (bilinear) at the cell's
//     (input slew, total output load) point;
//   * wire delay: Elmore on the golden routed Steiner net with a per-edge
//     pi capacitance model;
//   * wire slew: ln(9)*Elmore step response, extended to ramp inputs with
//     the PERI rule.
//
// Arrival convention: for the source and buffers, arrival[n]/slew[n] are at
// the node's *output*; for sinks they are at the clock pin. Sink latency is
// then arrival[sink], and an arc's delay is arrival[dst] - arrival[src].
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "network/clock_tree.h"
#include "network/design.h"
#include "network/routing.h"
#include "rc/rc.h"
#include "tech/tech.h"

namespace skewopt::sta {

/// Timing state of one corner.
struct CornerTiming {
  std::size_t corner = 0;             ///< corner id in the TechModel
  std::vector<double> arrival;        ///< ps, per node id (see convention)
  std::vector<double> slew;           ///< ps, per node id
  std::vector<double> in_arrival;     ///< ps, at each node's input pin
  std::vector<double> in_slew;        ///< ps, at each node's input pin
  std::vector<double> driver_load;    ///< fF, net+pin load per driving node
};

/// Reusable buffers for propagateFrom's BFS walk: the per-net RC view,
/// Elmore buffers, and the queue itself. One instance per concurrent
/// caller; propagateFrom falls back to a function-local one when none is
/// passed. Keeping a scratch alive across calls (IncrementalTimer,
/// ScopedRetime) makes the hot trial loop allocation-free.
struct PropagateScratch {
  std::vector<int> queue;
  std::vector<std::size_t> pin_rc;
  std::vector<std::size_t> rc_of;
  rc::RcTree rct;
  std::vector<double> elmore;
  std::vector<double> cdown;
  // NLDM axis-interval hints carried across a propagation's lookups: slew
  // and load walk near-monotone sequences down a level, so the previous
  // cell row is almost always the next one too.
  tech::LutHint delay_hint;
  tech::LutHint slew_hint;
  // Corner-strided SoA buffers for propagateFromAllCorners: the shared-
  // topology RC view with one lane per corner, lane-interleaved Elmore
  // results, and K-wide staging for loads/slews/lookup results.
  rc::RcTreeBatch rct_batch;
  std::vector<double> elmore_batch;
  std::vector<double> cdown_batch;
  std::vector<double> lanes;
};

class Timer {
 public:
  explicit Timer(const tech::TechModel& tech,
                 double source_slew_ps = 30.0)
      : tech_(&tech), source_slew_ps_(source_slew_ps) {}

  /// Full propagation at one corner.
  CornerTiming analyze(const network::ClockTree& tree,
                       const network::Routing& routing,
                       std::size_t corner) const;

  /// Re-propagates the subtree rooted at `start` into an existing timing
  /// state. `t` must hold valid in_arrival/in_slew for `start` (the source
  /// needs none); everything at and below `start` is recomputed. Arrays in
  /// `t` are grown if the tree has new nodes. This is the kernel of
  /// IncrementalTimer.
  void propagateFrom(const network::ClockTree& tree,
                     const network::Routing& routing, std::size_t corner,
                     int start, CornerTiming* t,
                     PropagateScratch* scratch = nullptr) const;

  /// Corner-batched propagateFrom: one BFS walk re-propagates the subtree
  /// at `start` for every corner in `corners` at once. The net topology
  /// does not depend on the corner, so the RC view is built once with one
  /// lane per corner (RcTreeBatch), Elmore runs over all lanes in one tree
  /// walk, and gate lookups go through the cell's corner-major packed
  /// tables. `timings[ki]` must be the state of `corners[ki]`; results are
  /// bit-identical to calling propagateFrom once per corner
  /// (differential-tested).
  void propagateFromAllCorners(const network::ClockTree& tree,
                               const network::Routing& routing,
                               std::span<const std::size_t> corners,
                               int start, std::span<CornerTiming> timings,
                               PropagateScratch* scratch = nullptr) const;

  /// Propagation at every active corner of a design.
  std::vector<CornerTiming> analyzeDesign(const network::Design& d) const;

  /// Worst max-capacitance overload ratio across all drivers (<= 1 means
  /// clean). Used to assert the optimizer creates no max-cap violations.
  double worstLoadRatio(const network::ClockTree& tree,
                        const network::Routing& routing,
                        std::size_t corner) const;

  const tech::TechModel& tech() const { return *tech_; }
  double sourceSlew() const { return source_slew_ps_; }

 private:
  const tech::TechModel* tech_;
  double source_slew_ps_;
};

/// Clock-tree power at a corner in mW: switching (wire + pin caps at the
/// tech clock frequency), cell internal energy, and leakage.
double clockTreePowerMw(const network::Design& d, std::size_t corner);

/// Sum over the design's sink pairs of the worst alpha-normalized skew
/// variation across corner pairs — the paper's objective (Eqs. 1-3) with
/// the alphas computed from this design's own state. Used by the CTS
/// scenario selection; the optimizers use core::Objective, which locks the
/// alphas of the *initial* tree instead.
double sumNormalizedSkewVariation(const network::Design& d,
                                  const Timer& timer);

/// Total placed area of the clock buffers, um^2 (Table 5's area column).
double clockCellAreaUm2(const network::Design& d);

}  // namespace skewopt::sta
