// Sharded serving front-end: N independent Schedulers (shared-nothing —
// each shard owns its ResultCache and WarmStateStore, so LRU state
// partitions cleanly) behind one consistent-hash router and one global
// job-id space.
//
// Routing is on JobSpec::contentHash, so identical specs always land on
// the shard holding their cached result. DELTA re-optimizations are the
// one deliberate exception: an edited spec hashes differently from its
// base, so routing it by content would scatter the warm state PR 7 built;
// submitDelta instead pins the job to the base's shard, where the base's
// topology-keyed warm entry lives. Results are bit-identical either way —
// a warm miss is just a cold run (serve/warm_state.h) — the pin only
// protects the hit rate.
//
// Global job ids interleave the per-shard id sequences:
//   gid = (local - 1) * nshards + shard + 1
// which is a bijection (local ids are dense per shard), decodes with one
// modulo, and — the property the wire protocol relies on — degenerates to
// gid == local id when nshards == 1, so a single-shard deployment
// (skewopt_served) hands out the scheduler's own job ids.
//
// Completion flow: every shard's Scheduler fires on_terminal; the
// front-end turns that into a monotonically increasing completion epoch +
// condvar that streaming RESULTS subscriptions (cluster/protocol.h) wait
// on, re-scanning their pending id set per epoch tick.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/router.h"
#include "serve/scheduler.h"
#include "support/thread_annotations.h"

namespace skewopt::cluster {

struct ClusterOptions {
  std::size_t shards = 1;  ///< the router keeps its default ring density
  /// Per-shard scheduler configuration (workers, queue, cache, warm store,
  /// retention — each shard gets an identical, independent copy). Any
  /// on_terminal hook set here is chained after the front-end's own.
  serve::SchedulerOptions shard;
};

/// Whole-cluster counter snapshot: the per-shard SchedulerStats plus
/// their field-wise sum. Each shard snapshot is internally coherent (see
/// SchedulerStats); the cluster total is a sum of per-shard snapshots
/// taken in sequence, so the coherence identity also holds for `total`.
struct ClusterStats {
  std::vector<serve::SchedulerStats> shards;
  serve::SchedulerStats total;
  std::size_t routed = 0;    ///< submissions accepted across all shards
  std::size_t rejected = 0;  ///< submissions rejected (backpressure/drain)
};

class ClusterFrontend {
 public:
  /// All shards run against the same tech/LUT (and optional injected
  /// runner — tests inject latency/failures per job, like Scheduler's).
  ClusterFrontend(const tech::TechModel& tech, const eco::StageDelayLut& lut,
                  ClusterOptions opts = {},
                  serve::Scheduler::Runner runner = nullptr);
  ~ClusterFrontend();  ///< shutdown() on every shard
  ClusterFrontend(const ClusterFrontend&) = delete;
  ClusterFrontend& operator=(const ClusterFrontend&) = delete;

  std::size_t shards() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }
  serve::Scheduler& shard(std::size_t i) { return *shards_[i]; }

  /// Global-id <-> (shard, local-id) codec.
  std::uint64_t globalId(std::size_t shard, std::uint64_t local) const;
  std::size_t shardOf(std::uint64_t gid) const;
  std::uint64_t localId(std::uint64_t gid) const;

  struct Submitted {
    std::shared_ptr<serve::Job> job;  ///< null when rejected
    std::uint64_t id = 0;             ///< global id (0 when rejected)
    std::size_t shard = 0;            ///< routed shard (valid either way)
  };

  /// Routes on contentHash(spec) and submits to the owning shard.
  Submitted submit(serve::JobSpec spec, bool block = true);
  /// Base-affine DELTA submit (see file comment). A nonzero `trace_id`
  /// overrides the trace context inherited from the base spec. Throws
  /// std::out_of_range for an unknown base id.
  Submitted submitDelta(std::uint64_t base_gid, const serve::DeltaEdits& edits,
                        bool block = true, std::uint64_t trace_id = 0);

  /// Per-job access by global id; all throw std::out_of_range for ids
  /// whose shard never issued them (or has pruned them). Status snapshots
  /// come back with .id rewritten to the global id.
  serve::JobSpec jobSpec(std::uint64_t gid) const;
  /// The job's effective trace context id (see Scheduler::traceId); shards
  /// share the process-wide tracer, so one TRACE export covers a job's
  /// spans no matter which shard ran it.
  std::uint64_t traceId(std::uint64_t gid) const;
  serve::JobStatus status(std::uint64_t gid) const;
  core::FlowResult result(std::uint64_t gid) const;
  serve::JobStatus waitTerminal(std::uint64_t gid,
                                double timeout_ms = -1.0) const;
  bool cancel(std::uint64_t gid);

  /// Graceful per-shard teardown: the shard finishes its queued and
  /// running jobs and stops accepting; routing keeps targeting it (the
  /// partition must stay stable), so submissions landing there are
  /// rejected. Aggregated stats stay coherent throughout.
  void drainShard(std::size_t i);
  void shutdownShard(std::size_t i);  ///< immediate: queued jobs cancelled
  void drain();                       ///< drainShard on every shard
  void shutdown();                    ///< shutdownShard on every shard

  /// Aggregated snapshot; also refreshes the per-shard labeled gauges
  /// (skewopt_cluster_shard_*{shard="i"} — see docs/observability.md).
  ClusterStats stats() const;

  /// Completion epoch: bumped once per job reaching a terminal state
  /// anywhere in the cluster. waitEpoch blocks until the epoch passes
  /// `seen` (returns the new value) or the timeout elapses (returns the
  /// current value, which may still equal `seen`).
  std::uint64_t completionEpoch() const;
  std::uint64_t waitEpoch(std::uint64_t seen, double timeout_ms) const;

 private:
  void onShardTerminal(std::size_t shard, const serve::JobStatus& s);

  ShardRouter router_;
  std::vector<std::unique_ptr<serve::Scheduler>> shards_;

  mutable support::Mutex mu_;
  mutable support::CondVar epoch_cv_;
  std::uint64_t epoch_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t routed_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t rejected_ SKEWOPT_GUARDED_BY(mu_) = 0;
};

}  // namespace skewopt::cluster
