#include "cluster/router.h"

#include <algorithm>
#include <string>

#include "support/fnv.h"

namespace skewopt::cluster {

ShardRouter::ShardRouter(ShardRouterOptions opts)
    : shards_(std::max<std::size_t>(1, opts.shards)),
      vnodes_(std::max<std::size_t>(1, opts.vnodes)) {
  ring_.reserve(shards_ * vnodes_);
  for (std::size_t s = 0; s < shards_; ++s)
    for (std::size_t v = 0; v < vnodes_; ++v)
      ring_.emplace_back(support::fnv1a64("shard:" + std::to_string(s) + ":" +
                                          std::to_string(v)),
                         static_cast<std::uint32_t>(s));
  // Sort by point; break point collisions by shard id so the ring is a
  // deterministic function of (shards, vnodes) alone.
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardRouter::route(std::uint64_t content_hash) const {
  if (shards_ == 1) return 0;
  // First point at or after the hash, wrapping past the top of the ring.
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(content_hash, static_cast<std::uint32_t>(0)));
  return it == ring_.end() ? ring_.front().second : it->second;
}

}  // namespace skewopt::cluster
