// The optimization job scheduler: the in-process heart of the service.
//
// Submissions enter a bounded priority JobQueue (backpressure: block or
// reject, per call); a small set of dedicated worker threads pops jobs and
// runs them to completion. Workers are deliberately *not* jobs on
// support::ThreadPool — runSlices must not be entered from inside a pool
// job (see thread_pool.h), and a worker spends almost all of its time
// inside the flow's own runSlices calls, where the calling thread works as
// slice 0 and the remaining slices share the one process-wide pool. Job
// concurrency therefore multiplies throughput without multiplying the
// compute-thread count: N concurrent jobs share the same fixed pool
// instead of spawning N private ones.
//
// Each job runs through the same deterministic pipeline a direct caller
// uses (serve::runJobSpec), so a served FlowResult is bit-identical to
// core::Flow::run on the same spec. Successful results are memoized in a
// ResultCache keyed by the spec's canonical key; a resubmitted identical
// spec completes from cache without re-running the flow.
//
// Failure handling: a runner throwing TransientError is retried with
// capped exponential backoff (base * 2^(attempt-1), capped) up to the
// spec's max_retries; any other exception fails the job permanently.
// Shutdown comes in two flavors: drain() stops intake and completes
// everything already accepted; shutdown() stops intake, cancels everything
// still queued, and completes only the jobs already running.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "eco/stage_lut.h"
#include "serve/cache.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "serve/warm_state.h"
#include "support/thread_annotations.h"
#include "tech/tech.h"

namespace skewopt::serve {

struct SchedulerOptions {
  std::size_t workers = 2;         ///< concurrent jobs (see file comment)
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 256;  ///< 0 disables result caching
  /// Warm-state store bound (topology keys). 0 disables cross-job
  /// warm-starting: every job, including DELTA resubmissions, runs cold.
  std::size_t warm_capacity = 64;
  double backoff_base_ms = 25.0;   ///< first retry delay
  double backoff_cap_ms = 2000.0;  ///< exponential backoff ceiling
  /// Bound on *terminal* jobs retained in the id registry (0 = keep all).
  /// Sustained serving needs a bound: without one every finished job's
  /// spec + result stays reachable via STATUS/RESULT forever. Once a
  /// terminal job is pruned (oldest-first), its id answers
  /// std::out_of_range like an id that never existed; queued and running
  /// jobs are never pruned.
  std::size_t terminal_retention = 0;
  /// Invoked once per job right after it reaches a terminal state, with
  /// the final status snapshot; called with no scheduler or job locks
  /// held, possibly from several worker threads at once. The cluster
  /// frontend's streaming RESULTS subscriptions hang off this. Must not
  /// block for long (it runs on the worker that finished the job).
  std::function<void(const JobStatus&)> on_terminal;
};

/// Counter snapshot. Taken under one lock, so the identity
///   submitted == done + failed + cancelled + running + queue_depth
/// holds for every snapshot — including mid-drain()/shutdown() — which is
/// what lets a cluster frontend aggregate shard stats without observing a
/// job in two states (or none) during a shard's teardown.
struct SchedulerStats {
  std::size_t submitted = 0;  ///< accepted submissions (rejections excluded)
  std::size_t done = 0;       ///< includes cache-served completions
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t retries = 0;    ///< runner re-invocations after TransientError
  std::size_t running = 0;
  std::size_t queue_depth = 0;
  std::size_t workers = 0;    ///< configured worker count (stable across drain)
  ResultCache::Stats cache;
  WarmStateStore::Stats warm;
};

class Scheduler {
 public:
  /// Replaceable job runner (tests inject failures/latency); the default
  /// (null) runs serve::runJobSpecWarm against `tech`/`lut` and the
  /// scheduler's warm-state store.
  using Runner = std::function<core::FlowResult(const JobSpec&)>;

  Scheduler(const tech::TechModel& tech, const eco::StageDelayLut& lut,
            SchedulerOptions opts = {}, Runner runner = nullptr);
  ~Scheduler();  ///< shutdown(): queued jobs are cancelled, running finish
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Submits a spec. With `block`, waits while the queue is full
  /// (backpressure); otherwise rejects immediately. Returns the job
  /// handle, or nullptr when rejected (queue full and !block) or when the
  /// scheduler is no longer accepting.
  std::shared_ptr<Job> submit(JobSpec spec, bool block = true);

  /// Submits a DELTA job: the base job's spec (looked up by id — the base
  /// may be in any state, including evicted-from-warm-store; only its spec
  /// is needed) with `edits` applied, run through the normal submit path.
  /// Whether the run is actually warm is a store lookup at execution time:
  /// a missing warm entry just means a cold run with identical results.
  /// A nonzero `trace_id` overrides the trace context inherited from the
  /// base spec. Throws std::out_of_range for an unknown base id.
  std::shared_ptr<Job> submitDelta(std::uint64_t base_id,
                                   const DeltaEdits& edits, bool block = true,
                                   std::uint64_t trace_id = 0);

  /// The spec a job was submitted with (DELTA base resolution).
  /// Throws std::out_of_range for an unknown id.
  JobSpec jobSpec(std::uint64_t id) const;

  /// The job's effective trace context id (spec.trace_id when the client
  /// supplied one, obs::traceIdFor(hash, id) otherwise) — what the TRACE
  /// verb filters the span export by. Throws std::out_of_range for an
  /// unknown id.
  std::uint64_t traceId(std::uint64_t id) const;

  /// Snapshot of a job's progress. Throws std::out_of_range for an unknown
  /// id.
  JobStatus status(std::uint64_t id) const;

  /// Blocks until the job is terminal and returns its result. Throws
  /// std::runtime_error when it FAILED or was CANCELLED, std::out_of_range
  /// for an unknown id.
  core::FlowResult result(std::uint64_t id) const;

  /// Waits (bounded) for a terminal state; returns the final status
  /// snapshot (state may be non-terminal on timeout; timeout_ms < 0 waits
  /// forever).
  JobStatus waitTerminal(std::uint64_t id, double timeout_ms = -1.0) const;

  /// Cancels a job. QUEUED jobs are guaranteed never to run and move to
  /// CANCELLED; returns true in that case. RUNNING/terminal jobs are not
  /// interrupted — returns false (a pending retry backoff is aborted).
  bool cancel(std::uint64_t id);

  /// Graceful drain: stop accepting, finish every queued and running job,
  /// stop the workers. Idempotent; the scheduler is terminal afterwards.
  void drain();

  /// Immediate shutdown: stop accepting, cancel all queued jobs, let
  /// running jobs finish (flows are not interruptible), stop the workers.
  void shutdown();

  SchedulerStats stats() const;
  const ResultCache& cache() const { return cache_; }

 private:
  std::shared_ptr<Job> findJob(std::uint64_t id) const;
  void workerLoop();
  void runJob(const std::shared_ptr<Job>& job);
  void finishCancelled(const std::shared_ptr<Job>& job);
  /// Interruptible backoff sleep; false when aborted by shutdown/cancel.
  bool sleepBackoff(const std::shared_ptr<Job>& job, double ms);
  /// Records a terminal id in the retention ring and prunes the oldest
  /// terminal jobs past opts_.terminal_retention.
  void retainTerminalLocked(std::uint64_t id) SKEWOPT_REQUIRES(mu_);
  /// Fires opts_.on_terminal (if set) with a status snapshot; call with no
  /// locks held, after the terminal transition is visible.
  void notifyTerminal(const std::shared_ptr<Job>& job);

  const tech::TechModel* tech_;
  const eco::StageDelayLut* lut_;
  SchedulerOptions opts_;
  /// Null for the default path (runJobSpecWarm against the warm store);
  /// injected runners bypass warm-starting entirely.
  Runner runner_;
  JobQueue queue_;
  ResultCache cache_;
  WarmStateStore warm_;

  /// Registry + counters + lifecycle flags.
  mutable support::Mutex mu_;
  support::CondVar stop_cv_;  ///< wakes backoff sleepers on shutdown
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_
      SKEWOPT_GUARDED_BY(mu_);
  /// Terminal ids in completion order, for retention pruning (only used
  /// when opts_.terminal_retention > 0).
  std::deque<std::uint64_t> terminal_order_ SKEWOPT_GUARDED_BY(mu_);
  std::uint64_t next_id_ SKEWOPT_GUARDED_BY(mu_) = 1;
  bool accepting_ SKEWOPT_GUARDED_BY(mu_) = true;
  bool abort_retries_ SKEWOPT_GUARDED_BY(mu_) = false;
  bool joined_ SKEWOPT_GUARDED_BY(mu_) = false;
  /// Job-population counters. Every job accepted into the queue counts in
  /// submitted_ and exactly one of queued_/running_/done_/failed_/
  /// cancelled_ at any instant (all transitions happen under mu_), which
  /// is the SchedulerStats coherence identity.
  std::size_t submitted_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t queued_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t running_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t done_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t failed_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t cancelled_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t retries_ SKEWOPT_GUARDED_BY(mu_) = 0;
  std::size_t worker_count_ = 0;  ///< set once in the constructor

  /// Populated in the constructor, swapped out once under mu_ by the first
  /// drain()/shutdown() to join outside the lock.
  std::vector<std::thread> workers_ SKEWOPT_GUARDED_BY(mu_);
};

}  // namespace skewopt::serve
