// Bounded LRU store: string key -> value behind one mutex, with hit/miss/
// insertion/eviction stats and a four-metric family (hits, misses and
// evictions counters, live-entries gauge). The serve layer's two caches —
// the result cache (cache.h) and the warm-state store (warm_state.h) — are
// this one class over different value types and metric families.
//
// Values are stored by value and copied out on hit, so a value type should
// be cheap to copy or be a shared_ptr to an immutable snapshot.
#pragma once

#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "support/thread_annotations.h"

namespace skewopt::serve {

struct LruStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
};

/// `Family` names the metrics: static `const char*` members kHits,
/// kMisses, kEvictions, kEntries and their *Help strings. They register on
/// the first lookup or insert.
template <typename Value, typename Family>
class LruStore {
 public:
  using Stats = LruStats;

  /// `capacity` == 0 disables the store (lookup always misses, insert is a
  /// no-op).
  explicit LruStore(std::size_t capacity) : capacity_(capacity) {}

  /// On hit copies the value into `*out` (if non-null), marks the entry
  /// most-recently-used, and returns true.
  bool lookup(const std::string& key, Value* out) {
    support::MutexLock lk(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      Metrics::get().misses.add();
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    if (out) *out = it->second.value;
    ++stats_.hits;
    Metrics::get().hits.add();
    return true;
  }

  /// Inserts (or refreshes) a value, evicting the least-recently-used
  /// entry when over capacity.
  void insert(const std::string& key, Value value) {
    if (capacity_ == 0) return;
    support::MutexLock lk(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{std::move(value), lru_.begin()});
    ++stats_.insertions;
    while (map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
      Metrics::get().evictions.add();
    }
    stats_.entries = map_.size();
    Metrics::get().entries.set(static_cast<double>(map_.size()));
  }

  Stats stats() const {
    support::MutexLock lk(mu_);
    Stats s = stats_;
    s.entries = map_.size();
    return s;
  }

 private:
  struct Metrics {
    obs::Counter& hits = obs::MetricsRegistry::global().counter(
        Family::kHits, Family::kHitsHelp);
    obs::Counter& misses = obs::MetricsRegistry::global().counter(
        Family::kMisses, Family::kMissesHelp);
    obs::Counter& evictions = obs::MetricsRegistry::global().counter(
        Family::kEvictions, Family::kEvictionsHelp);
    obs::Gauge& entries = obs::MetricsRegistry::global().gauge(
        Family::kEntries, Family::kEntriesHelp);
    static Metrics& get() {
      static Metrics m;
      return m;
    }
  };

  struct Entry {
    Value value;
    std::list<std::string>::iterator lru_it;
  };

  const std::size_t capacity_;
  mutable support::Mutex mu_;
  std::unordered_map<std::string, Entry> map_ SKEWOPT_GUARDED_BY(mu_);
  /// front = most recently used
  std::list<std::string> lru_ SKEWOPT_GUARDED_BY(mu_);
  Stats stats_ SKEWOPT_GUARDED_BY(mu_);
};

}  // namespace skewopt::serve
