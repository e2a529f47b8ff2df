// Result cache: canonical spec key -> memoized FlowResult.
//
// Keys come from serve::canonicalKey, so a hit is guaranteed to hand back
// a result bit-identical to re-running the spec (the whole pipeline is
// deterministic for a key — see job.h). The cache is a bounded LRU
// (serve::LruStore); FlowResults are small (metrics + per-iteration
// history), so entries are stored by value and copied out on hit.
#pragma once

#include "core/flow.h"
#include "serve/lru.h"

namespace skewopt::serve {

struct ResultCacheMetrics {
  static constexpr const char* kHits = "skewopt_serve_cache_hits_total";
  static constexpr const char* kHitsHelp = "Result-cache lookups that hit";
  static constexpr const char* kMisses = "skewopt_serve_cache_misses_total";
  static constexpr const char* kMissesHelp =
      "Result-cache lookups that missed";
  static constexpr const char* kEvictions =
      "skewopt_serve_cache_evictions_total";
  static constexpr const char* kEvictionsHelp =
      "Result-cache entries evicted by the LRU bound";
  static constexpr const char* kEntries = "skewopt_serve_cache_entries";
  static constexpr const char* kEntriesHelp = "Live result-cache entries";
};

/// Default capacity 256 (ServeOptions::cache_capacity); 0 disables it.
using ResultCache = LruStore<core::FlowResult, ResultCacheMetrics>;

}  // namespace skewopt::serve
