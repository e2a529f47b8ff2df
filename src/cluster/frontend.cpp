#include "cluster/frontend.h"

#include <chrono>
#include <string>

#include "obs/metrics.h"

namespace skewopt::cluster {

namespace {

/// Per-shard instrument handles, bound once per shard at construction so
/// the submit path never touches the registry lock.
struct ShardObs {
  obs::Counter* routed;
  obs::Counter* rejected;
  obs::Gauge* queue_depth;
  obs::Gauge* cache_hits;
  obs::Gauge* cache_misses;
  obs::Gauge* warm_hits;
  obs::Gauge* warm_misses;
};

ShardObs bindShardObs(std::size_t shard) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::LabelSet labels = {{"shard", std::to_string(shard)}};
  return ShardObs{
      &reg.counter("skewopt_cluster_jobs_routed_total", labels,
                   "Jobs accepted by this shard's scheduler"),
      &reg.counter("skewopt_cluster_jobs_rejected_total", labels,
                   "Submissions this shard rejected (backpressure/drain)"),
      &reg.gauge("skewopt_cluster_shard_queue_depth", labels,
                 "Shard queue depth at the last stats() refresh"),
      &reg.gauge("skewopt_cluster_shard_cache_hits", labels,
                 "Shard result-cache hits at the last stats() refresh"),
      &reg.gauge("skewopt_cluster_shard_cache_misses", labels,
                 "Shard result-cache misses at the last stats() refresh"),
      &reg.gauge("skewopt_cluster_shard_warm_hits", labels,
                 "Shard warm-state hits at the last stats() refresh"),
      &reg.gauge("skewopt_cluster_shard_warm_misses", labels,
                 "Shard warm-state misses at the last stats() refresh"),
  };
}

std::vector<ShardObs>& shardObsFor(std::size_t shards) {
  // One process-wide table, grown on demand: shards are identified by
  // index, so front-ends of the same size share the same labeled series
  // (matching how successive Scheduler instances share the serve counters).
  static std::vector<ShardObs>* table = new std::vector<ShardObs>();
  static support::Mutex* mu = new support::Mutex();
  support::MutexLock lk(*mu);
  while (table->size() < shards) table->push_back(bindShardObs(table->size()));
  return *table;
}

}  // namespace

ClusterFrontend::ClusterFrontend(const tech::TechModel& tech,
                                 const eco::StageDelayLut& lut,
                                 ClusterOptions opts,
                                 serve::Scheduler::Runner runner)
    : router_(ShardRouterOptions{opts.shards}) {
  shardObsFor(router_.shards());
  shards_.reserve(router_.shards());
  for (std::size_t i = 0; i < router_.shards(); ++i) {
    serve::SchedulerOptions shard_opts = opts.shard;
    const auto user_hook = opts.shard.on_terminal;
    shard_opts.on_terminal = [this, i, user_hook](const serve::JobStatus& s) {
      onShardTerminal(i, s);
      if (user_hook) user_hook(s);
    };
    shards_.push_back(std::make_unique<serve::Scheduler>(
        tech, lut, std::move(shard_opts), runner));
  }
}

ClusterFrontend::~ClusterFrontend() {
  // Join every shard's workers before any member dies: the on_terminal
  // hooks they fire reach back into mu_/epoch_cv_.
  shutdown();
}

std::uint64_t ClusterFrontend::globalId(std::size_t shard,
                                        std::uint64_t local) const {
  return (local - 1) * shards_.size() + shard + 1;
}

std::size_t ClusterFrontend::shardOf(std::uint64_t gid) const {
  if (gid == 0) throw std::out_of_range("cluster: job ids start at 1");
  return static_cast<std::size_t>((gid - 1) % shards_.size());
}

std::uint64_t ClusterFrontend::localId(std::uint64_t gid) const {
  if (gid == 0) throw std::out_of_range("cluster: job ids start at 1");
  return (gid - 1) / shards_.size() + 1;
}

ClusterFrontend::Submitted ClusterFrontend::submit(serve::JobSpec spec,
                                                   bool block) {
  const std::size_t shard = router_.route(serve::contentHash(spec));
  Submitted out;
  out.shard = shard;
  out.job = shards_[shard]->submit(std::move(spec), block);
  ShardObs& so = shardObsFor(shards_.size())[shard];
  if (!out.job) {
    so.rejected->add();
    support::MutexLock lk(mu_);
    ++rejected_;
    return out;
  }
  so.routed->add();
  out.id = globalId(shard, out.job->id);
  support::MutexLock lk(mu_);
  ++routed_;
  return out;
}

ClusterFrontend::Submitted ClusterFrontend::submitDelta(
    std::uint64_t base_gid, const serve::DeltaEdits& edits, bool block,
    std::uint64_t trace_id) {
  // Pin to the base's shard (see file comment): resolve the base spec
  // there, apply the edits, and submit to the same scheduler directly
  // instead of re-routing the edited spec's content hash.
  const std::size_t shard = shardOf(base_gid);
  serve::Scheduler& sched = *shards_[shard];
  serve::JobSpec merged =
      serve::applyDeltaEdits(sched.jobSpec(localId(base_gid)), edits);
  if (trace_id != 0) merged.trace_id = trace_id;
  Submitted out;
  out.shard = shard;
  out.job = sched.submit(merged, block);
  ShardObs& so = shardObsFor(shards_.size())[shard];
  if (!out.job) {
    so.rejected->add();
    support::MutexLock lk(mu_);
    ++rejected_;
    return out;
  }
  so.routed->add();
  out.id = globalId(shard, out.job->id);
  support::MutexLock lk(mu_);
  ++routed_;
  return out;
}

serve::JobSpec ClusterFrontend::jobSpec(std::uint64_t gid) const {
  return shards_[shardOf(gid)]->jobSpec(localId(gid));
}

std::uint64_t ClusterFrontend::traceId(std::uint64_t gid) const {
  return shards_[shardOf(gid)]->traceId(localId(gid));
}

serve::JobStatus ClusterFrontend::status(std::uint64_t gid) const {
  serve::JobStatus s = shards_[shardOf(gid)]->status(localId(gid));
  s.id = gid;
  return s;
}

core::FlowResult ClusterFrontend::result(std::uint64_t gid) const {
  return shards_[shardOf(gid)]->result(localId(gid));
}

serve::JobStatus ClusterFrontend::waitTerminal(std::uint64_t gid,
                                               double timeout_ms) const {
  serve::JobStatus s =
      shards_[shardOf(gid)]->waitTerminal(localId(gid), timeout_ms);
  s.id = gid;
  return s;
}

bool ClusterFrontend::cancel(std::uint64_t gid) {
  return shards_[shardOf(gid)]->cancel(localId(gid));
}

void ClusterFrontend::drainShard(std::size_t i) { shards_[i]->drain(); }

void ClusterFrontend::shutdownShard(std::size_t i) { shards_[i]->shutdown(); }

void ClusterFrontend::drain() {
  for (const auto& s : shards_) s->drain();
}

void ClusterFrontend::shutdown() {
  for (const auto& s : shards_) s->shutdown();
}

ClusterStats ClusterFrontend::stats() const {
  ClusterStats cs;
  cs.shards.reserve(shards_.size());
  std::vector<ShardObs>& obs_table = shardObsFor(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    serve::SchedulerStats s = shards_[i]->stats();
    ShardObs& so = obs_table[i];
    so.queue_depth->set(static_cast<double>(s.queue_depth));
    so.cache_hits->set(static_cast<double>(s.cache.hits));
    so.cache_misses->set(static_cast<double>(s.cache.misses));
    so.warm_hits->set(static_cast<double>(s.warm.hits));
    so.warm_misses->set(static_cast<double>(s.warm.misses));

    serve::SchedulerStats& t = cs.total;
    t.submitted += s.submitted;
    t.done += s.done;
    t.failed += s.failed;
    t.cancelled += s.cancelled;
    t.retries += s.retries;
    t.running += s.running;
    t.queue_depth += s.queue_depth;
    t.workers += s.workers;
    t.cache.hits += s.cache.hits;
    t.cache.misses += s.cache.misses;
    t.cache.insertions += s.cache.insertions;
    t.cache.evictions += s.cache.evictions;
    t.cache.entries += s.cache.entries;
    t.warm.hits += s.warm.hits;
    t.warm.misses += s.warm.misses;
    t.warm.insertions += s.warm.insertions;
    t.warm.evictions += s.warm.evictions;
    t.warm.entries += s.warm.entries;
    cs.shards.push_back(std::move(s));
  }
  support::MutexLock lk(mu_);
  cs.routed = routed_;
  cs.rejected = rejected_;
  return cs;
}

void ClusterFrontend::onShardTerminal(std::size_t shard,
                                      const serve::JobStatus& s) {
  (void)shard;
  (void)s;
  {
    support::MutexLock lk(mu_);
    ++epoch_;
  }
  epoch_cv_.notifyAll();
}

std::uint64_t ClusterFrontend::completionEpoch() const {
  support::MutexLock lk(mu_);
  return epoch_;
}

std::uint64_t ClusterFrontend::waitEpoch(std::uint64_t seen,
                                         double timeout_ms) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  support::MutexLock lk(mu_);
  while (epoch_ <= seen) {
    if (epoch_cv_.waitUntil(lk, deadline) == std::cv_status::timeout) break;
  }
  return epoch_;
}

}  // namespace skewopt::cluster
