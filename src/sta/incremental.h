// Incremental multi-corner timing.
//
// Local moves and ECO rebuilds touch a handful of nets; everything outside
// the touched drivers' subtrees keeps its arrival and slew. This class
// holds the full multi-corner timing state of one design and re-propagates
// only the dirty subtrees after an edit — the reproduction-scale analogue
// of the incremental analysis commercial timers perform between ECOs, and
// the reason scoring thousands of candidate moves per round is affordable.
//
// Usage:
//   IncrementalTimer inc(tech, design);           // full analysis
//   ... edit design, rebuilding nets of drivers D ...
//   inc.update(design, D);                        // retimes subtrees of D
//   inc.timing(ki).arrival[sink]                  // fresh latencies
//
// `update` requires that every driver whose net, cell, or placement changed
// (or whose child's pin cap changed) is in the dirty set — or is a
// descendant of one that is. Results are bit-identical to a full re-analysis
// (asserted by tests).
//
// For trial evaluation (apply a move, look at the timing, take it back),
// ScopedRetime below retimes the dirty subtrees *in place* and rolls the
// overwritten entries back — no copy of the full corner arrays per trial.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "sta/timer.h"

namespace skewopt::sta {

class ScopedRetime;

class IncrementalTimer {
 public:
  IncrementalTimer(const tech::TechModel& tech, const network::Design& d)
      : IncrementalTimer(Timer(tech), d) {}

  /// Full analysis with a given timer's settings (its source slew).
  IncrementalTimer(const Timer& timer, const network::Design& d)
      : timer_(timer), corners_(d.corners) {
    const std::size_t n = d.tree.numNodes();
    timing_.resize(corners_.size());
    for (std::size_t ki = 0; ki < corners_.size(); ++ki) {
      CornerTiming& t = timing_[ki];
      t.corner = corners_[ki];
      t.arrival.assign(n, 0.0);
      t.slew.assign(n, 0.0);
      t.in_arrival.assign(n, 0.0);
      t.in_slew.assign(n, 0.0);
      t.driver_load.assign(n, 0.0);
    }
    timer_.propagateFromAllCorners(d.tree, d.routing, corners_,
                                   d.tree.root(), timing_, &scratch_);
  }

  /// Seeds the timer from a cached per-corner timing snapshot instead of a
  /// full analysis, then re-propagates only the subtrees of `dirty` — the
  /// cross-job warm-start entry point: a delta job re-times just the
  /// subtrees its edit touched. The snapshot must come from a design with
  /// the same node count and active corners as `d` (the caller verifies
  /// this via its topology key / fingerprint before seeding); `dirty` must
  /// cover every driver whose net, cell, or placement differs between the
  /// snapshot's design and `d`, and may be empty when nothing differs.
  /// Seed + update is bit-identical to the full-analysis constructor
  /// (asserted by sta_test).
  IncrementalTimer(const tech::TechModel& tech, const network::Design& d,
                   std::vector<CornerTiming> snapshot,
                   const std::vector<int>& dirty)
      : timer_(tech), corners_(d.corners), timing_(std::move(snapshot)) {
    if (timing_.size() != corners_.size())
      throw std::invalid_argument("IncrementalTimer: snapshot corner count");
    for (std::size_t ki = 0; ki < timing_.size(); ++ki) {
      if (timing_[ki].corner != corners_[ki] ||
          timing_[ki].arrival.size() != d.tree.numNodes())
        throw std::invalid_argument("IncrementalTimer: snapshot shape");
    }
    if (!dirty.empty()) update(d, dirty);
  }

  /// Grows every per-node array to `n` entries (zeros appended) so a
  /// retime can follow an edit that *added* tree nodes (ECO buffer
  /// insertion); the new nodes must be inside a subsequently dirtied
  /// subtree. Shrinking is never needed — removed ids just go stale.
  void ensureSize(std::size_t n) {
    for (CornerTiming& t : timing_) {
      if (t.arrival.size() >= n) continue;
      t.arrival.resize(n, 0.0);
      t.slew.resize(n, 0.0);
      t.in_arrival.resize(n, 0.0);
      t.in_slew.resize(n, 0.0);
      t.driver_load.resize(n, 0.0);
    }
  }

  /// Re-times the subtrees of the dirty drivers at every active corner.
  /// Drivers covered by another dirty driver's subtree are skipped.
  void update(const network::Design& d, const std::vector<int>& dirty) {
    static obs::Counter& updates = obs::MetricsRegistry::global().counter(
        "skewopt_sta_incremental_updates_total",
        "Committed incremental retimes of dirty subtrees");
    updates.add();
    const std::vector<int> roots = minimalRoots(d.tree, dirty);
    for (const int r : roots)
      timer_.propagateFromAllCorners(d.tree, d.routing, corners_, r,
                                     timing_, &scratch_);
  }

  const CornerTiming& timing(std::size_t ki) const { return timing_[ki]; }
  /// All active-corner timing states, in design-corner order.
  const std::vector<CornerTiming>& timings() const { return timing_; }
  std::size_t numCorners() const { return corners_.size(); }
  const Timer& timer() const { return timer_; }

  /// Latency views in the layout Objective::evaluateFromLatencies expects.
  std::vector<std::vector<double>> latencies() const {
    std::vector<std::vector<double>> lat(timing_.size());
    for (std::size_t ki = 0; ki < timing_.size(); ++ki)
      lat[ki] = timing_[ki].arrival;
    return lat;
  }

  /// Drops dirty drivers that sit inside another dirty driver's subtree.
  static std::vector<int> minimalRoots(const network::ClockTree& tree,
                                       const std::vector<int>& dirty) {
    std::vector<int> roots;
    minimalRootsInto(tree, dirty, roots);
    return roots;
  }

  /// minimalRoots into a reused output vector (allocation-free when warm).
  static void minimalRootsInto(const network::ClockTree& tree,
                               const std::vector<int>& dirty,
                               std::vector<int>& roots) {
    roots.clear();
    for (const int d : dirty) {
      if (!tree.isValid(d)) continue;
      bool covered = false;
      for (const int other : dirty) {
        if (other == d || !tree.isValid(other)) continue;
        if (tree.isAncestorOrSelf(other, d) && other != d) {
          covered = true;
          break;
        }
      }
      if (!covered) roots.push_back(d);
    }
  }

 private:
  friend class ScopedRetime;

  Timer timer_;
  std::vector<std::size_t> corners_;
  std::vector<CornerTiming> timing_;
  PropagateScratch scratch_;  // reused across updates
};

/// Copy-free trial retiming: re-times a move's dirty subtrees directly
/// inside a base IncrementalTimer, saving the overwritten entries into
/// reusable scratch buffers, and restores them bit-identically on
/// rollback() (or destruction). One ScopedRetime is meant to live as a
/// worker's persistent scratch and be cycled retime()/rollback() once per
/// trial — the buffers are reused, so steady-state trials allocate nothing.
///
/// Contract: retime() is called with the *edited* design and the same
/// dirty-driver set IncrementalTimer::update would take; the edit must not
/// have added tree nodes (local moves never do), and the base timer must be
/// rolled back before it is read as the clean base, updated, or retimed
/// again.
class ScopedRetime {
 public:
  explicit ScopedRetime(IncrementalTimer& base) : base_(&base) {}
  ~ScopedRetime() { rollback(); }
  ScopedRetime(const ScopedRetime&) = delete;
  ScopedRetime& operator=(const ScopedRetime&) = delete;

  void retime(const network::Design& d, const std::vector<int>& dirty) {
    static obs::Counter& retimes = obs::MetricsRegistry::global().counter(
        "skewopt_sta_scoped_retimes_total",
        "Trial (rolled-back) scoped retimes");
    retimes.add();
    rollback();
    IncrementalTimer::minimalRootsInto(d.tree, dirty, roots_);

    // Every entry propagateFrom can write lives in the union of the dirty
    // roots' subtrees (minimalRoots guarantees the subtrees are disjoint).
    touched_.clear();
    for (const int r : roots_) {
      stack_.push_back(r);
      while (!stack_.empty()) {
        const int v = stack_.back();
        stack_.pop_back();
        touched_.push_back(v);
        for (const int c : d.tree.node(v).children) stack_.push_back(c);
      }
    }

    const std::size_t nk = base_->timing_.size();
    saved_.resize(touched_.size() * nk * 5);
    std::size_t w = 0;
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const CornerTiming& t = base_->timing_[ki];
      for (const int v : touched_) {
        const std::size_t i = static_cast<std::size_t>(v);
        saved_[w++] = t.arrival[i];
        saved_[w++] = t.slew[i];
        saved_[w++] = t.in_arrival[i];
        saved_[w++] = t.in_slew[i];
        saved_[w++] = t.driver_load[i];
      }
    }

    for (const int r : roots_)
      base_->timer_.propagateFromAllCorners(d.tree, d.routing,
                                            base_->corners_, r,
                                            base_->timing_, &scratch_);
    active_ = true;
  }

  /// Restores the base timing exactly as it was before retime(); no-op if
  /// nothing is overlaid.
  void rollback() {
    if (!active_) return;
    const std::size_t nk = base_->timing_.size();
    std::size_t w = 0;
    for (std::size_t ki = 0; ki < nk; ++ki) {
      CornerTiming& t = base_->timing_[ki];
      for (const int v : touched_) {
        const std::size_t i = static_cast<std::size_t>(v);
        t.arrival[i] = saved_[w++];
        t.slew[i] = saved_[w++];
        t.in_arrival[i] = saved_[w++];
        t.in_slew[i] = saved_[w++];
        t.driver_load[i] = saved_[w++];
      }
    }
    active_ = false;
  }

  const IncrementalTimer& base() const { return *base_; }

 private:
  IncrementalTimer* base_;
  bool active_ = false;
  std::vector<int> roots_;
  std::vector<int> stack_;    // DFS scratch
  std::vector<int> touched_;  // nodes whose entries are saved
  std::vector<double> saved_;  // [corner][touched][5] overwritten values
  PropagateScratch scratch_;  // propagation buffers reused across trials
};

}  // namespace skewopt::sta
