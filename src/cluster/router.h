// Consistent-hash shard routing for the cluster front-end.
//
// The ring is a pure, deterministic function of (shard count, vnodes):
// every shard owns `vnodes` points placed by hashing "shard:<i>:<j>" with
// support::fnv1a64, and a job routes to the owner of the first ring point
// at or after its content hash (wrapping). Determinism is a protocol
// property — the same spec must land on the same shard across process
// restarts so its cached result and warm state stay reachable — and is
// pinned by tests/cluster_test.cpp.
//
// Virtual nodes smooth the partition: with v points per shard the
// expected per-shard load imbalance shrinks as O(1/sqrt(v)). Consistent
// hashing (vs `hash % N`) keeps resharding cheap later: adding a shard
// moves only ~1/N of the key space.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skewopt::cluster {

struct ShardRouterOptions {
  std::size_t shards = 1;
  std::size_t vnodes = 64;  ///< ring points per shard
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions opts);

  std::size_t shards() const { return shards_; }
  std::size_t vnodes() const { return vnodes_; }

  /// The shard owning `content_hash` (serve::contentHash of the spec).
  std::size_t route(std::uint64_t content_hash) const;

  /// The ring points, (point, shard) sorted by point — exposed so tests
  /// can pin the layout.
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>& ring() const {
    return ring_;
  }

 private:
  std::size_t shards_;
  std::size_t vnodes_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace skewopt::cluster
