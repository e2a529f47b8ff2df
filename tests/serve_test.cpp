// Tests for the serve subsystem: spec hashing, the bounded priority queue,
// the result cache, the scheduler (concurrent submit / cancel / retry /
// backpressure / drain / shutdown) and its bit-identity guarantee against
// direct core::Flow::run, the spec/trace-id wire codecs, and the TCP
// transport's line bound. Protocol dispatch is tested where it lives, in
// cluster_test.
//
// The whole file runs under ThreadSanitizer as serve_test_tsan (see
// tests/CMakeLists.txt), which is the race coverage the subsystem's
// concurrency claims rest on.
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/json.h"
#include "serve/queue.h"
#include "serve/server.h"

namespace skewopt::serve {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

const eco::StageDelayLut& sharedLut() {
  static eco::StageDelayLut lut(sharedTech());
  return lut;
}

/// A small, fast spec: 40-sink CLS1v1, local flow, two iterations.
JobSpec tinySpec(std::uint64_t seed, core::FlowMode mode = core::FlowMode::kLocal) {
  JobSpec spec;
  spec.source.kind = DesignSource::Kind::kTestgen;
  spec.source.testcase = "CLS1v1";
  spec.source.sinks = 40;
  spec.source.max_pairs = 40;
  spec.source.seed = seed;
  spec.mode = mode;
  spec.options.local.max_iterations = 2;
  return spec;
}

/// One-shot gate the fake runners block on.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Bit-identical comparison of every result-bearing FlowResult field;
/// wall-clock members (LpSolveStats timings) are deliberately skipped, as
/// are solver-effort fields (LP iteration counts, warm hits, model reuse,
/// realize-memo hits) — those legitimately differ between a cold run and a
/// warm-started DELTA run of the same spec. The differential delta tests
/// use this directly; expectIdentical adds the effort fields back for
/// paths that must replay the exact same solve.
void expectEquivalent(const core::FlowResult& a, const core::FlowResult& b) {
  const auto metrics = [](const core::DesignMetrics& x,
                          const core::DesignMetrics& y) {
    EXPECT_EQ(x.sum_variation_ps, y.sum_variation_ps);
    EXPECT_EQ(x.local_skew_ps, y.local_skew_ps);
    EXPECT_EQ(x.clock_cells, y.clock_cells);
    EXPECT_EQ(x.power_mw, y.power_mw);
    EXPECT_EQ(x.area_um2, y.area_um2);
  };
  metrics(a.before, b.before);
  metrics(a.after, b.after);

  EXPECT_EQ(a.global.sum_before_ps, b.global.sum_before_ps);
  EXPECT_EQ(a.global.sum_after_ps, b.global.sum_after_ps);
  EXPECT_EQ(a.global.chosen_u_ps, b.global.chosen_u_ps);
  EXPECT_EQ(a.global.arcs_changed, b.global.arcs_changed);
  EXPECT_EQ(a.global.improved, b.global.improved);
  EXPECT_EQ(a.global.candidates, b.global.candidates);

  EXPECT_EQ(a.local.sum_before_ps, b.local.sum_before_ps);
  EXPECT_EQ(a.local.sum_after_ps, b.local.sum_after_ps);
  EXPECT_EQ(a.local.improved, b.local.improved);
  EXPECT_EQ(a.local.golden_evaluations, b.local.golden_evaluations);
  ASSERT_EQ(a.local.history.size(), b.local.history.size());
  for (std::size_t i = 0; i < a.local.history.size(); ++i) {
    EXPECT_EQ(a.local.history[i].round, b.local.history[i].round);
    EXPECT_EQ(a.local.history[i].type, b.local.history[i].type);
    EXPECT_EQ(a.local.history[i].predicted_delta_ps,
              b.local.history[i].predicted_delta_ps);
    EXPECT_EQ(a.local.history[i].realized_delta_ps,
              b.local.history[i].realized_delta_ps);
    EXPECT_EQ(a.local.history[i].sum_after_ps,
              b.local.history[i].sum_after_ps);
  }
}

/// Exact replay comparison: equivalence plus the solver-effort fields.
void expectIdentical(const core::FlowResult& a, const core::FlowResult& b) {
  expectEquivalent(a, b);
  EXPECT_EQ(a.global.lp_iterations, b.global.lp_iterations);
}

// ---------------------------------------------------------------------------
// Spec hashing

// Job identity is persistent: content hashes name cache entries, route
// jobs to shards and seed derived trace ids, so these literals must never
// move without a deliberate key-version change (the retired LP
// solver-choice slot keeps writing 0 for this reason).
TEST(JobSpecTest, ContentHashIsPinned) {
  EXPECT_EQ(contentHash(tinySpec(1)), 0x29552be2877e321bULL);
  EXPECT_EQ(contentHash(JobSpec{}), 0x3b5cc08c11ad74e6ULL);
}

TEST(JobSpecTest, CanonicalKeyCoversResultAffectingFields) {
  const JobSpec base = tinySpec(1);
  EXPECT_EQ(canonicalKey(base), canonicalKey(tinySpec(1)));
  EXPECT_EQ(contentHash(base), contentHash(tinySpec(1)));

  JobSpec changed = tinySpec(2);
  EXPECT_NE(canonicalKey(base), canonicalKey(changed));

  changed = tinySpec(1, core::FlowMode::kGlobal);
  EXPECT_NE(canonicalKey(base), canonicalKey(changed));

  changed = tinySpec(1);
  changed.options.local.max_iterations = 3;
  EXPECT_NE(canonicalKey(base), canonicalKey(changed));

  changed = tinySpec(1);
  changed.options.global.u_sweep = {0.1};
  EXPECT_NE(canonicalKey(base), canonicalKey(changed));

  changed = tinySpec(1);
  changed.source.kind = DesignSource::Kind::kFile;
  changed.source.path = "x.skv";
  EXPECT_NE(canonicalKey(base), canonicalKey(changed));

  // The delta-edit fields are result-affecting and must move the key.
  changed = tinySpec(1);
  changed.source.moved_sinks = {MovedSink{2, 1.0, 2.0}};
  EXPECT_NE(canonicalKey(base), canonicalKey(changed));

  changed = tinySpec(1);
  changed.options.global.corner_dmax_derate = {1.05};
  EXPECT_NE(canonicalKey(base), canonicalKey(changed));
}

TEST(JobSpecTest, TopologyKeyIsStableUnderDeltaEdits) {
  // The warm-state store's key must survive exactly the edits a DELTA job
  // can make — anything else would let a delta miss its base's state (or
  // worse, hit an unrelated one).
  const JobSpec base = tinySpec(1);
  EXPECT_EQ(topologyKey(base).rfind("|tv=", 0), 0u);
  EXPECT_NE(topologyKey(base), canonicalKey(base));  // distinct namespaces

  JobSpec edited = tinySpec(1);
  edited.options.global.u_sweep = {0.9};
  edited.options.global.corner_dmax_derate = {1.05};
  edited.source.moved_sinks = {MovedSink{2, 1.0, 2.0}};
  EXPECT_EQ(topologyKey(base), topologyKey(edited));
  EXPECT_EQ(topologyHash(base), topologyHash(edited));
  EXPECT_NE(canonicalKey(base), canonicalKey(edited));

  // Everything that changes the materialized design or flow structure
  // still moves the topology key.
  EXPECT_NE(topologyKey(base), topologyKey(tinySpec(2)));
  EXPECT_NE(topologyKey(base),
            topologyKey(tinySpec(1, core::FlowMode::kGlobal)));
  JobSpec more_sinks = tinySpec(1);
  more_sinks.source.sinks = 48;
  EXPECT_NE(topologyKey(base), topologyKey(more_sinks));
}

TEST(JobSpecTest, ApplyDeltaEditsMergesReplacesAndSorts) {
  JobSpec base = tinySpec(1);
  base.source.moved_sinks = {MovedSink{2, 0.0, 0.0}, MovedSink{5, 1.0, 1.0}};
  base.options.global.u_sweep = {0.05, 0.2};

  DeltaEdits edits;
  edits.moved_sinks = {MovedSink{5, 9.0, 9.0},   // replaces sink 5's move
                       MovedSink{1, 3.0, 3.0}};  // new entry, sorts first
  edits.has_derates = true;
  edits.corner_dmax_derate = {1.1};

  const JobSpec merged = applyDeltaEdits(base, edits);
  ASSERT_EQ(merged.source.moved_sinks.size(), 3u);
  EXPECT_EQ(merged.source.moved_sinks[0].sink, 1);
  EXPECT_EQ(merged.source.moved_sinks[1].sink, 2);
  EXPECT_EQ(merged.source.moved_sinks[2].sink, 5);
  EXPECT_EQ(merged.source.moved_sinks[2].x, 9.0);
  EXPECT_EQ(merged.options.global.corner_dmax_derate,
            (std::vector<double>{1.1}));
  // has_u_sweep is false: the base sweep is kept.
  EXPECT_EQ(merged.options.global.u_sweep, base.options.global.u_sweep);
  // Everything else carries over untouched.
  EXPECT_EQ(merged.source.seed, base.source.seed);
  EXPECT_EQ(merged.mode, base.mode);
}

TEST(JobSpecTest, SchedulingAndParallelismKnobsDoNotChangeTheKey) {
  const JobSpec base = tinySpec(1);
  JobSpec same = tinySpec(1);
  same.priority = 9;
  same.deadline_ms = 1000;
  same.max_retries = 5;
  same.options.local.parallel_trials = !base.options.local.parallel_trials;
  same.options.local.threads = 7;
  same.options.global.parallel_realize = !base.options.global.parallel_realize;
  EXPECT_EQ(canonicalKey(base), canonicalKey(same));
}

// ---------------------------------------------------------------------------
// Queue

std::shared_ptr<Job> queuedJob(std::uint64_t id, int priority) {
  auto job = std::make_shared<Job>();
  job->id = id;
  job->spec.priority = priority;
  return job;
}

TEST(JobQueueTest, PriorityThenFifoOrder) {
  JobQueue q(8);
  ASSERT_TRUE(q.push(queuedJob(1, 0), false));
  ASSERT_TRUE(q.push(queuedJob(2, 5), false));
  ASSERT_TRUE(q.push(queuedJob(3, 5), false));
  ASSERT_TRUE(q.push(queuedJob(4, 9), false));
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 4; ++i) order.push_back(q.pop(nullptr)->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 2, 3, 1}));
}

TEST(JobQueueTest, BoundedRejectsWhenFullAndDrainsAfterClose) {
  JobQueue q(2);
  EXPECT_TRUE(q.push(queuedJob(1, 0), false));
  EXPECT_TRUE(q.push(queuedJob(2, 0), false));
  EXPECT_FALSE(q.push(queuedJob(3, 0), false));  // full: rejected
  q.close();
  EXPECT_FALSE(q.push(queuedJob(4, 0), false));  // closed: rejected
  EXPECT_EQ(q.pop(nullptr)->id, 1u);
  EXPECT_EQ(q.pop(nullptr)->id, 2u);
  EXPECT_EQ(q.pop(nullptr), nullptr);  // closed and empty
}

TEST(JobQueueTest, CancelledEntriesAreSkippedAndReported) {
  JobQueue q(4);
  auto a = queuedJob(1, 0), b = queuedJob(2, 0);
  b->cancel_requested.store(true);
  ASSERT_TRUE(q.push(b, false));
  ASSERT_TRUE(q.push(a, false));
  std::vector<std::shared_ptr<Job>> cancelled;
  EXPECT_EQ(q.pop(&cancelled)->id, 1u);
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0]->id, 2u);
  EXPECT_EQ(q.remove(7), nullptr);
}

// ---------------------------------------------------------------------------
// Cache

TEST(ResultCacheTest, LruEvictionAndStats) {
  ResultCache cache(2);
  core::FlowResult r;
  r.before.sum_variation_ps = 42.0;
  EXPECT_FALSE(cache.lookup("a", nullptr));
  cache.insert("a", r);
  cache.insert("b", r);
  core::FlowResult out;
  EXPECT_TRUE(cache.lookup("a", &out));  // refreshes "a"
  EXPECT_EQ(out.before.sum_variation_ps, 42.0);
  cache.insert("c", r);                  // evicts "b" (LRU)
  EXPECT_FALSE(cache.lookup("b", nullptr));
  EXPECT_TRUE(cache.lookup("a", nullptr));
  EXPECT_TRUE(cache.lookup("c", nullptr));
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
}

// ---------------------------------------------------------------------------
// Scheduler: the acceptance-criteria suite

TEST(SchedulerTest, ThirtyTwoConcurrentSubmissionsBitIdenticalToDirectRun) {
  constexpr std::size_t kDistinct = 8, kRepeat = 4, kSubmitters = 4;

  // Direct path: build + run each distinct spec exactly as a library
  // caller would.
  std::vector<core::FlowResult> direct(kDistinct);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    const JobSpec spec = tinySpec(i + 1);
    network::Design d = buildDesign(sharedTech(), spec.source);
    const core::Flow flow(sharedTech(), sharedLut(), spec.options);
    direct[i] = flow.run(d, spec.mode, nullptr);
  }

  SchedulerOptions opts;
  opts.workers = 3;
  Scheduler sched(sharedTech(), sharedLut(), opts);

  std::vector<std::shared_ptr<Job>> jobs(kDistinct * kRepeat);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      for (std::size_t j = t; j < jobs.size(); j += kSubmitters)
        jobs[j] = sched.submit(tinySpec(j % kDistinct + 1));
    });
  for (std::thread& t : submitters) t.join();

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_NE(jobs[j], nullptr) << "submission " << j << " rejected";
    const core::FlowResult served = sched.result(jobs[j]->id);
    expectIdentical(served, direct[j % kDistinct]);
  }
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.submitted, jobs.size());
  EXPECT_EQ(s.done, jobs.size());
  EXPECT_EQ(s.failed, 0u);
  // 8 distinct keys, 32 submissions: everything after the first run of a
  // key can be served from cache (how many actually hit depends on timing;
  // at least the pure repeats of already-finished keys must).
  EXPECT_EQ(s.cache.hits + s.cache.misses, jobs.size());
  EXPECT_GE(s.cache.hits, 1u);
}

TEST(SchedulerTest, FullQueueAppliesBackpressure) {
  Gate gate;
  SchedulerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  Scheduler sched(sharedTech(), sharedLut(), opts,
                  [&](const JobSpec&) {
                    gate.wait();
                    return core::FlowResult{};
                  });

  // One job occupies the worker, two fill the queue.
  const auto running = sched.submit(tinySpec(1));
  ASSERT_NE(running, nullptr);
  while (sched.status(running->id).state == JobState::kQueued)
    std::this_thread::yield();
  ASSERT_NE(sched.submit(tinySpec(2)), nullptr);
  ASSERT_NE(sched.submit(tinySpec(3)), nullptr);

  // Non-blocking submit on a full queue is rejected outright.
  EXPECT_EQ(sched.submit(tinySpec(4), /*block=*/false), nullptr);

  // A blocking submit stalls until the worker frees a slot.
  std::atomic<bool> accepted{false};
  std::thread submitter([&] {
    const auto job = sched.submit(tinySpec(5), /*block=*/true);
    EXPECT_NE(job, nullptr);
    accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(accepted.load()) << "blocking submit returned while full";
  gate.open();
  submitter.join();
  EXPECT_TRUE(accepted.load());
  sched.drain();
  EXPECT_EQ(sched.stats().done, 4u);
}

TEST(SchedulerTest, CancelOfQueuedJobNeverRunsIt) {
  Gate gate;
  std::mutex seen_mu;
  std::vector<std::uint64_t> seen;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(sharedTech(), sharedLut(), opts,
                  [&](const JobSpec& s) {
                    gate.wait();
                    std::lock_guard<std::mutex> lk(seen_mu);
                    seen.push_back(s.source.seed);
                    return core::FlowResult{};
                  });

  const auto blocker = sched.submit(tinySpec(1));
  const auto victim = sched.submit(tinySpec(2));
  ASSERT_NE(victim, nullptr);
  EXPECT_TRUE(sched.cancel(victim->id));
  EXPECT_EQ(sched.status(victim->id).state, JobState::kCancelled);
  gate.open();
  sched.drain();

  EXPECT_EQ(sched.status(blocker->id).state, JobState::kDone);
  EXPECT_EQ(sched.status(victim->id).state, JobState::kCancelled);
  std::lock_guard<std::mutex> lk(seen_mu);
  EXPECT_EQ(seen, std::vector<std::uint64_t>{1});  // the victim never ran
  EXPECT_FALSE(sched.cancel(blocker->id));         // terminal: not cancellable
}

TEST(SchedulerTest, GracefulDrainCompletesQueuedAndRunningJobs) {
  SchedulerOptions opts;
  opts.workers = 2;
  Scheduler sched(sharedTech(), sharedLut(), opts,
                  [&](const JobSpec&) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(20));
                    return core::FlowResult{};
                  });
  std::vector<std::shared_ptr<Job>> jobs;
  for (std::uint64_t i = 1; i <= 6; ++i) jobs.push_back(sched.submit(tinySpec(i)));
  sched.drain();
  for (const auto& job : jobs) {
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(sched.status(job->id).state, JobState::kDone);
  }
  EXPECT_EQ(sched.submit(tinySpec(9)), nullptr);  // intake is closed
}

TEST(SchedulerTest, ShutdownCancelsQueuedButFinishesRunning) {
  Gate gate;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(sharedTech(), sharedLut(), opts,
                  [&](const JobSpec&) {
                    gate.wait();
                    return core::FlowResult{};
                  });
  const auto running = sched.submit(tinySpec(1));
  ASSERT_NE(running, nullptr);
  while (sched.status(running->id).state == JobState::kQueued)
    std::this_thread::yield();
  const auto q1 = sched.submit(tinySpec(2));
  const auto q2 = sched.submit(tinySpec(3));

  std::thread stopper([&] { sched.shutdown(); });
  // shutdown() cancels the queued jobs immediately, then waits for the
  // running one.
  while (sched.status(q2->id).state != JobState::kCancelled)
    std::this_thread::yield();
  EXPECT_EQ(sched.status(q1->id).state, JobState::kCancelled);
  EXPECT_EQ(sched.status(running->id).state, JobState::kRunning);
  gate.open();
  stopper.join();
  EXPECT_EQ(sched.status(running->id).state, JobState::kDone);
  EXPECT_EQ(sched.stats().cancelled, 2u);
}

TEST(SchedulerTest, IdenticalResubmissionIsACacheHit) {
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(sharedTech(), sharedLut(), opts);

  const auto first = sched.submit(tinySpec(3, core::FlowMode::kGlobal));
  ASSERT_NE(first, nullptr);
  const core::FlowResult r1 = sched.result(first->id);
  EXPECT_FALSE(sched.status(first->id).cached);

  const auto second = sched.submit(tinySpec(3, core::FlowMode::kGlobal));
  ASSERT_NE(second, nullptr);
  const core::FlowResult r2 = sched.result(second->id);
  EXPECT_TRUE(sched.status(second->id).cached);
  EXPECT_EQ(sched.status(second->id).attempts, 0);  // flow never re-ran
  expectIdentical(r1, r2);

  // A different spec misses.
  const auto third = sched.submit(tinySpec(4, core::FlowMode::kGlobal));
  sched.result(third->id);
  EXPECT_FALSE(sched.status(third->id).cached);

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.cache.misses, 2u);
}

TEST(SchedulerTest, TransientFailuresRetryWithBackoffPermanentDoNot) {
  std::atomic<int> flaky_calls{0}, fatal_calls{0};
  SchedulerOptions opts;
  opts.workers = 1;
  opts.backoff_base_ms = 1.0;
  opts.cache_capacity = 0;  // every run must hit the runner
  Scheduler sched(sharedTech(), sharedLut(), opts,
                  [&](const JobSpec& s) -> core::FlowResult {
                    if (s.source.seed == 1) {  // transient twice, then fine
                      if (flaky_calls.fetch_add(1) < 2)
                        throw TransientError("backend hiccup");
                      return core::FlowResult{};
                    }
                    if (s.source.seed == 2) {  // permanent
                      fatal_calls.fetch_add(1);
                      throw std::runtime_error("bad spec");
                    }
                    throw TransientError("always down");  // budget exhausted
                  });

  JobSpec flaky = tinySpec(1);
  flaky.max_retries = 3;
  const auto a = sched.submit(flaky);
  EXPECT_EQ(sched.waitTerminal(a->id).state, JobState::kDone);
  EXPECT_EQ(sched.status(a->id).attempts, 3);

  const auto b = sched.submit(tinySpec(2));
  EXPECT_EQ(sched.waitTerminal(b->id).state, JobState::kFailed);
  EXPECT_EQ(sched.status(b->id).error, "bad spec");
  EXPECT_EQ(fatal_calls.load(), 1);

  JobSpec doomed = tinySpec(3);
  doomed.max_retries = 1;
  const auto c = sched.submit(doomed);
  EXPECT_EQ(sched.waitTerminal(c->id).state, JobState::kFailed);
  EXPECT_EQ(sched.status(c->id).attempts, 2);
  EXPECT_EQ(sched.status(c->id).error, "always down");

  EXPECT_EQ(sched.stats().retries, 3u);  // 2 for the flaky job + 1 doomed
}

TEST(SchedulerTest, PriorityOrdersTheQueue) {
  Gate gate;
  std::mutex order_mu;
  std::vector<std::uint64_t> order;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(sharedTech(), sharedLut(), opts,
                  [&](const JobSpec& s) {
                    gate.wait();
                    std::lock_guard<std::mutex> lk(order_mu);
                    order.push_back(s.source.seed);
                    return core::FlowResult{};
                  });
  const auto blocker = sched.submit(tinySpec(99));
  ASSERT_NE(blocker, nullptr);
  while (sched.status(blocker->id).state == JobState::kQueued)
    std::this_thread::yield();
  JobSpec low = tinySpec(1);
  JobSpec hi_a = tinySpec(2);
  hi_a.priority = 5;
  JobSpec hi_b = tinySpec(3);
  hi_b.priority = 5;
  sched.submit(low);
  sched.submit(hi_a);
  sched.submit(hi_b);
  gate.open();
  sched.drain();
  std::lock_guard<std::mutex> lk(order_mu);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{99, 2, 3, 1}));
}

TEST(SchedulerTest, StartDeadlineFailsStaleQueuedJobs) {
  Gate gate;
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(sharedTech(), sharedLut(), opts, [&](const JobSpec&) {
    gate.wait();
    return core::FlowResult{};
  });
  const auto blocker = sched.submit(tinySpec(1));
  JobSpec urgent = tinySpec(2);
  urgent.deadline_ms = 5;
  const auto stale = sched.submit(urgent);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.open();
  sched.drain();
  EXPECT_EQ(sched.status(blocker->id).state, JobState::kDone);
  EXPECT_EQ(sched.status(stale->id).state, JobState::kFailed);
  EXPECT_EQ(sched.status(stale->id).error, "start deadline exceeded");
}

// ---------------------------------------------------------------------------
// DELTA jobs and the warm-state store

/// A global-mode spec with deep checks on — the configuration the delta
/// differential guarantee is stated for.
JobSpec globalSpec(std::uint64_t seed) {
  JobSpec spec = tinySpec(seed, core::FlowMode::kGlobal);
  spec.options.global.u_sweep = {0.05, 0.2};
  spec.options.check_level = check::Level::kDeep;
  return spec;
}

TEST(DeltaTest, DeltaRunsEqualColdRunsForEveryEditClass) {
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(sharedTech(), sharedLut(), opts);

  const JobSpec base = globalSpec(11);
  const auto base_job = sched.submit(base);
  ASSERT_NE(base_job, nullptr);
  (void)sched.result(base_job->id);  // completes + populates the warm store
  EXPECT_EQ(sched.stats().warm.insertions, 1u);

  // One sink of the materialized base design, for the moved-sink edit.
  const network::Design d0 = buildDesign(sharedTech(), base.source);
  const int sink = d0.tree.sinks().front();
  const geom::Point at = d0.tree.node(sink).pos;

  struct EditCase {
    const char* name;
    DeltaEdits edits;
  };
  std::vector<EditCase> cases(3);
  cases[0].name = "derate-change";
  cases[0].edits.has_derates = true;
  cases[0].edits.corner_dmax_derate = {1.05, 0.99};
  cases[1].name = "u-tighten";
  cases[1].edits.has_u_sweep = true;
  cases[1].edits.u_sweep = {0.04, 0.16};
  cases[2].name = "moved-sink";
  cases[2].edits.moved_sinks = {MovedSink{sink, at.x + 2.0, at.y + 1.0}};

  for (const EditCase& ec : cases) {
    SCOPED_TRACE(ec.name);
    const auto delta_job = sched.submitDelta(base_job->id, ec.edits);
    ASSERT_NE(delta_job, nullptr);
    const core::FlowResult delta = sched.result(delta_job->id);

    // The scheduler ran exactly the merged spec.
    const JobSpec edited = applyDeltaEdits(base, ec.edits);
    EXPECT_EQ(canonicalKey(sched.jobSpec(delta_job->id)),
              canonicalKey(edited));

    // The differential guarantee: a warm-started delta run produces the
    // same result a cold submission of the edited spec would (deep SKW
    // gates ran clean inside both flows, or they would have thrown).
    const core::FlowResult cold = runJobSpec(sharedTech(), sharedLut(), edited);
    expectEquivalent(delta, cold);
  }
  // Every delta found its base's state under the shared topology key.
  EXPECT_EQ(sched.stats().warm.hits, 3u);
  sched.drain();
}

TEST(DeltaTest, EvictedBaseFallsBackToColdRunBitIdentically) {
  SchedulerOptions opts;
  opts.workers = 1;
  opts.warm_capacity = 1;  // one topology: the next one evicts the base's
  Scheduler sched(sharedTech(), sharedLut(), opts);

  const JobSpec base = globalSpec(21);
  const auto base_job = sched.submit(base);
  ASSERT_NE(base_job, nullptr);
  (void)sched.result(base_job->id);

  // A different topology pushes the base's warm state out of the store.
  const auto evictor = sched.submit(globalSpec(22));
  ASSERT_NE(evictor, nullptr);
  (void)sched.result(evictor->id);
  const WarmStateStore::Stats warm0 = sched.stats().warm;
  EXPECT_EQ(warm0.evictions, 1u);

  DeltaEdits edits;
  edits.has_derates = true;
  edits.corner_dmax_derate = {1.05};
  const auto delta_job = sched.submitDelta(base_job->id, edits);
  ASSERT_NE(delta_job, nullptr);
  const core::FlowResult delta = sched.result(delta_job->id);
  EXPECT_EQ(sched.status(delta_job->id).state, JobState::kDone);

  // The miss was recorded and no stale state was used...
  const WarmStateStore::Stats warm1 = sched.stats().warm;
  EXPECT_EQ(warm1.hits, warm0.hits);
  EXPECT_EQ(warm1.misses, warm0.misses + 1);

  // ...so the run was cold: bit-identical — including solver effort — to a
  // direct cold submission of the same edited spec.
  const core::FlowResult cold =
      runJobSpec(sharedTech(), sharedLut(), applyDeltaEdits(base, edits));
  expectIdentical(delta, cold);
  sched.drain();
}

TEST(DeltaTest, MovedNonSinkFailsTheJobNotTheScheduler) {
  SchedulerOptions opts;
  opts.workers = 1;
  Scheduler sched(sharedTech(), sharedLut(), opts);
  const auto base_job = sched.submit(tinySpec(23));
  ASSERT_NE(base_job, nullptr);
  (void)sched.result(base_job->id);

  DeltaEdits edits;
  edits.moved_sinks = {MovedSink{0, 1.0, 1.0}};  // node 0 is the source
  const auto delta_job = sched.submitDelta(base_job->id, edits);
  ASSERT_NE(delta_job, nullptr);
  const JobStatus st = sched.waitTerminal(delta_job->id);
  EXPECT_EQ(st.state, JobState::kFailed);
  EXPECT_NE(st.error.find("not a sink"), std::string::npos) << st.error;

  EXPECT_THROW(sched.submitDelta(424242, edits), std::out_of_range);
  sched.drain();
}

TEST(DeltaTest, ConcurrentSubmitDeltaAndEvictionIsRaceFree) {
  // Three topologies against a two-entry store: submissions, deltas, and
  // LRU evictions interleave across workers. TSan (serve_test_tsan) is the
  // real assertion here; states and stats are checked for coherence.
  SchedulerOptions opts;
  opts.workers = 3;
  opts.warm_capacity = 2;
  Scheduler sched(sharedTech(), sharedLut(), opts);

  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 3; ++t)
    drivers.emplace_back([&, t] {
      const auto base_job = sched.submit(globalSpec(31 +
                                         static_cast<std::uint64_t>(t)));
      if (!base_job) {
        failures.fetch_add(1);
        return;
      }
      if (sched.waitTerminal(base_job->id).state != JobState::kDone) {
        failures.fetch_add(1);
        return;
      }
      DeltaEdits edits;
      edits.has_u_sweep = true;
      edits.u_sweep = {0.04 + 0.01 * t, 0.16};
      const auto delta_job = sched.submitDelta(base_job->id, edits);
      if (!delta_job ||
          sched.waitTerminal(delta_job->id).state != JobState::kDone)
        failures.fetch_add(1);
    });
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.done, 6u);
  // Three topology keys cycling through two slots: someone was evicted,
  // and the store never exceeds its bound.
  EXPECT_GE(s.warm.evictions, 1u);
  EXPECT_LE(s.warm.entries, 2u);
  EXPECT_EQ(s.warm.hits + s.warm.misses, 6u);
  sched.drain();
}

// ---------------------------------------------------------------------------
// Wire codecs

TEST(ProtocolTest, JsonRoundTripsAndRejectsMalformedInput) {
  const json::Value v = json::parse(
      R"({"a":[1,2.5,-3e2],"b":{"s":"x\n\"y\""},"t":true,"n":null})");
  EXPECT_EQ(json::parse(json::dump(v)).num("t", 0), 0.0);  // bool, not number
  EXPECT_TRUE(json::parse(json::dump(v)).boolean("t", false));
  EXPECT_EQ(v.find("a")->size(), 3u);
  EXPECT_EQ(v.find("a")->at(2).asDouble(), -300.0);
  EXPECT_EQ(v.find("b")->find("s")->asString(), "x\n\"y\"");
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);

  // Number round trip at full double precision.
  const double tricky = 0.1 + 0.2;
  json::Value num = json::Value::object();
  num.set("x", tricky);
  EXPECT_EQ(json::parse(json::dump(num)).num("x", 0), tricky);
}

TEST(ProtocolTest, SpecJsonRoundTripPreservesTheCanonicalKey) {
  JobSpec spec = tinySpec(7, core::FlowMode::kGlobalLocal);
  spec.options.global.u_sweep = {0.1, 0.3};
  spec.options.global.beta = 1.15;
  spec.options.global.corner_dmax_derate = {1.02, 0.98};
  spec.options.local.r = 4;
  spec.source.moved_sinks = {MovedSink{3, 1.5, 2.5}, MovedSink{7, 0.0, 1.0}};
  spec.priority = 2;
  const JobSpec back = specFromJson(specToJson(spec));
  EXPECT_EQ(canonicalKey(spec), canonicalKey(back));
  EXPECT_EQ(back.priority, 2);
  ASSERT_EQ(back.source.moved_sinks.size(), 2u);
  EXPECT_EQ(back.source.moved_sinks[1].sink, 7);
  EXPECT_EQ(back.options.global.corner_dmax_derate,
            (std::vector<double>{1.02, 0.98}));

  // A hand-ordered moved_sinks list is normalized (sorted by sink id) on
  // parse, so a direct SUBMIT of it passes the SKW306 sortedness check and
  // maps to the same canonical key.
  const JobSpec unsorted = specFromJson(json::parse(
      R"({"source":{"kind":"testgen","seed":7,)"
      R"("moved_sinks":[{"sink":7,"x":0,"y":1},{"sink":3,"x":1.5,"y":2.5}]},)"
      R"("mode":"local"})"));
  ASSERT_EQ(unsorted.source.moved_sinks.size(), 2u);
  EXPECT_EQ(unsorted.source.moved_sinks[0].sink, 3);
  EXPECT_EQ(unsorted.source.moved_sinks[1].sink, 7);

  // Unknown keys are rejected, not ignored.
  json::Value bad = specToJson(spec);
  bad.set("bogus", 1);
  EXPECT_THROW(specFromJson(bad), std::runtime_error);
  json::Value bad_opt = specToJson(spec);
  json::Value opts = *bad_opt.find("options");
  json::Value local = *opts.find("local");
  local.set("iterations", 3);  // typo for max_iterations
  opts.set("local", local);
  bad_opt.set("options", opts);
  EXPECT_THROW(specFromJson(bad_opt), std::runtime_error);
}

TEST(ProtocolTest, TraceSpecFieldIsRejectedInFavourOfTheTraceVerb) {
  // A spec may not name a server-side output path; the rejection points
  // the client at the TRACE verb instead.
  json::Value v = specToJson(tinySpec(31));
  v.set("trace", "/tmp/job_trace.json");
  try {
    specFromJson(v);
    FAIL() << "a spec with a 'trace' key must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("TRACE verb"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// TCP transport

TEST(TcpTest, OversizedRequestLineIsRejectedWithACleanError) {
  // The bound is the transport's own: a stub handler acknowledging every
  // line stands in for the protocol dispatcher.
  TcpServerOptions sopts;
  sopts.max_line_bytes = 256;
  TcpServer server(
      [](const std::string&, const TcpServer::LineSink& emit) {
        return emit(R"({"ok":true})");
      },
      sopts);

  {
    // A complete over-long line: one JSON error reply, then the server
    // closes the connection.
    TcpClient client("127.0.0.1", server.port());
    const std::string reply =
        client.callRaw('{' + std::string(512, ' ') + '}');
    const json::Value v = json::parse(reply);
    EXPECT_FALSE(v.boolean("ok", true));
    EXPECT_NE(v.str("error", "").find("256 bytes"), std::string::npos);
    EXPECT_THROW(client.callRaw(R"({"cmd":"STATS"})"), std::runtime_error);
  }
  {
    // A line so long its newline is many recv() chunks away: the bound
    // check fires on the unterminated fragment, so the per-connection
    // buffer never grows with the peer; same error, same close.
    TcpClient client("127.0.0.1", server.port());
    client.send(std::string(1u << 16, 'x'));
    const json::Value v = json::parse(client.readLine());
    EXPECT_FALSE(v.boolean("ok", true));
    EXPECT_NE(v.str("error", "").find("256 bytes"), std::string::npos);
  }
  // The server survives both and still answers fresh connections.
  TcpClient client("127.0.0.1", server.port());
  EXPECT_TRUE(json::parse(client.callRaw(R"({"cmd":"STATS"})"))
                  .boolean("ok", false));
  server.stop();
}

/// VmSize of this process in kB, read from /proc/self/status.
long vmSizeKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  return -1;
}

TEST(TcpTest, SequentialConnectionsKeepTheAddressSpaceBounded) {
  // Each accept joins the threads of connections that have closed, so 300
  // one-request connections leave at most a few thread stacks mapped. An
  // unjoined thread per connection keeps its ~8 MB stack, over 2 GB here.
  TcpServer server([](const std::string&, const TcpServer::LineSink& emit) {
    return emit(R"({"ok":true})");
  });
  const long before_kb = vmSizeKb();
  ASSERT_GT(before_kb, 0);
  for (int i = 0; i < 300; ++i) {
    TcpClient client("127.0.0.1", server.port());
    ASSERT_TRUE(json::parse(client.callRaw(R"({"cmd":"STATS"})"))
                    .boolean("ok", false));
  }
  const long growth_kb = vmSizeKb() - before_kb;
  EXPECT_LT(growth_kb, 256L * 1024) << "VmSize grew by " << growth_kb << " kB";
  server.stop();
}

TEST(SchedulerTest, StatsStayCoherentThroughShutdown) {
  // Every stats() snapshot — including ones racing shutdown() — must see
  // each accepted job in exactly one state.
  for (int round = 0; round < 4; ++round) {
    SchedulerOptions opts;
    opts.workers = 2;
    opts.queue_capacity = 64;
    Scheduler sched(sharedTech(), sharedLut(), opts,
                    [](const JobSpec& spec) {
                      if (spec.source.seed % 5 == 0)
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                      return core::FlowResult{};
                    });
    std::atomic<bool> stop{false};
    std::thread sampler([&] {
      while (!stop.load()) {
        const SchedulerStats s = sched.stats();
        EXPECT_EQ(s.submitted, s.done + s.failed + s.cancelled + s.running +
                                   s.queue_depth);
      }
    });
    std::thread submitter([&] {
      for (std::uint64_t seed = 0; seed < 200 && !stop.load(); ++seed)
        sched.submit(tinySpec(seed), false);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sched.shutdown();
    submitter.join();
    stop.store(true);
    sampler.join();
    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.submitted, s.done + s.failed + s.cancelled);
  }
}

// ---------------------------------------------------------------------------
// Job telemetry: trace ids and the flight record

TEST(ObsProtocolTest, TraceIdRoundTripsButStaysOutOfTheKey) {
  JobSpec spec = tinySpec(34);
  spec.trace_id = 0x0123456789abcdefULL;
  spec.record = true;
  const json::Value sj = specToJson(spec);
  EXPECT_EQ(sj.str("trace_id", ""), "0123456789abcdef");
  EXPECT_TRUE(sj.boolean("record", false));
  const JobSpec back = specFromJson(sj);
  EXPECT_EQ(back.trace_id, spec.trace_id);
  EXPECT_TRUE(back.record);

  // Neither field may move the cache key: trace_id is client metadata,
  // record is observability output.
  EXPECT_EQ(canonicalKey(spec), canonicalKey(tinySpec(34)));
  EXPECT_EQ(contentHash(spec), contentHash(tinySpec(34)));

  // Untraced, unrecorded specs serialize without the members at all —
  // pre-telemetry clients keep seeing byte-identical spec JSON.
  const json::Value plain = specToJson(tinySpec(34));
  EXPECT_EQ(plain.find("trace_id"), nullptr);
  EXPECT_EQ(plain.find("record"), nullptr);

  // Malformed ids reject loudly: wrong length, wrong alphabet, and the
  // reserved all-zero id.
  for (const char* bad :
       {"", "xyz", "0123", "0123456789ABCDEF", "0000000000000000",
        "0123456789abcdef0"}) {
    json::Value v = specToJson(tinySpec(34));
    v.set("trace_id", bad);
    EXPECT_THROW(specFromJson(v), std::runtime_error) << bad;
  }
}

TEST(ObsProtocolTest, FlightRecordIsBitIdenticalSerialVsParallel) {
  JobSpec spec = tinySpec(36, core::FlowMode::kGlobalLocal);
  spec.options.global.u_sweep = {0.05, 0.2};

  JobSpec serial = spec;
  serial.options.local.parallel_trials = false;
  serial.options.global.parallel_realize = false;
  const std::string rs = json::dump(
      flightRecordToJson(runJobSpec(sharedTech(), sharedLut(), serial)));
  const json::Value doc = json::parse(rs);
  EXPECT_EQ(doc.num("v", -1), 1.0);
  EXPECT_EQ(doc.str("mode", ""), "global-local");
  EXPECT_NE(doc.find("global"), nullptr);
  EXPECT_NE(doc.find("local"), nullptr);
  EXPECT_NE(doc.find("before"), nullptr);
  EXPECT_NE(doc.find("after"), nullptr);

  JobSpec parallel = spec;
  parallel.options.local.parallel_trials = true;
  parallel.options.local.threads = 4;
  parallel.options.global.parallel_realize = true;
  const std::string rp = json::dump(
      flightRecordToJson(runJobSpec(sharedTech(), sharedLut(), parallel)));
  EXPECT_EQ(rs, rp);  // bit-identical
}

}  // namespace
}  // namespace skewopt::serve
