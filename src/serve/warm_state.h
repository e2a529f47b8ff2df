// Warm-state store: topology key -> the state a completed flow run left
// behind (core::FlowWarmState: initial-design timing snapshot, LP bases and
// cached models, realize memo).
//
// Keys come from serve::topologyKey, which pins every result-affecting
// field *except* the delta-editable ones (U sweep, corner derates, moved
// sinks) — so a DELTA job lands on the state its base job stored even
// though their canonical keys differ. Warm state only ever changes how much
// work a run performs, never its result: an evicted, missing, or
// wrong-shaped entry silently degrades to a cold run (exercised by
// serve_test), which is why the store can be a plain bounded LRU with no
// durability story (serve::LruStore, the result cache's class too).
//
// Entries are handed out as shared_ptr<const FlowWarmState>: a running job
// keeps its snapshot alive even if the store evicts it mid-run, and
// concurrent jobs on the same key share one immutable snapshot.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "core/flow.h"
#include "serve/job.h"
#include "serve/lru.h"

namespace skewopt::serve {

struct WarmStateMetrics {
  static constexpr const char* kHits = "skewopt_serve_warmstate_hits_total";
  static constexpr const char* kHitsHelp =
      "Warm-state lookups that found a prior run's state";
  static constexpr const char* kMisses =
      "skewopt_serve_warmstate_misses_total";
  static constexpr const char* kMissesHelp =
      "Warm-state lookups that missed (cold run follows)";
  static constexpr const char* kEvictions =
      "skewopt_serve_warmstate_evictions_total";
  static constexpr const char* kEvictionsHelp =
      "Warm-state entries evicted by the LRU bound";
  static constexpr const char* kEntries = "skewopt_serve_warmstate_entries";
  static constexpr const char* kEntriesHelp = "Live warm-state entries";
};

class WarmStateStore {
 public:
  using Stats = LruStats;

  /// `capacity` == 0 disables the store (lookup always misses, insert is a
  /// no-op) — every job then runs cold.
  explicit WarmStateStore(std::size_t capacity = 64) : lru_(capacity) {}

  /// Returns the stored state for a topology key (marking it
  /// most-recently-used), or nullptr on a miss.
  std::shared_ptr<const core::FlowWarmState> lookup(const std::string& key) {
    std::shared_ptr<const core::FlowWarmState> state;
    lru_.lookup(key, &state);
    return state;
  }

  /// Inserts (or replaces) the state for a key, evicting the
  /// least-recently-used entry when over capacity. A null state is ignored.
  void insert(const std::string& key,
              std::shared_ptr<const core::FlowWarmState> state) {
    if (state != nullptr) lru_.insert(key, std::move(state));
  }

  Stats stats() const { return lru_.stats(); }

 private:
  LruStore<std::shared_ptr<const core::FlowWarmState>, WarmStateMetrics> lru_;
};

/// Runs one spec like runJobSpec, but warm: looks the spec's topology key
/// up in `store` (null store == always cold), feeds any hit into the flow
/// as the warm-in state, and stores the run's own warm-out state back under
/// the same key. Results are equal to runJobSpec (asserted by the serve
/// differential tests) — only the work expended differs.
core::FlowResult runJobSpecWarm(const tech::TechModel& tech,
                                const eco::StageDelayLut& lut,
                                const JobSpec& spec, WarmStateStore* store);

}  // namespace skewopt::serve
