// Fixed-size thread pool shared by the optimizers' hot paths.
//
// The local optimizer golden-evaluates chunks of R candidate moves per
// round (the paper's "R individual threads") and scores thousands of
// enumerated moves before that; spawning fresh std::threads per chunk costs
// more than the work itself on small designs. This pool is created once,
// lazily sized to hardware_concurrency, and reused across every chunk,
// round, and run.
//
// One dispatch primitive, runSlices(S, fn): it invokes fn(0..S-1); slice 0
// runs on the calling thread, the rest on the pool. Callers that keep
// per-worker state (design replicas, scratch timers) key it by slice
// index: a slice is executed by exactly one thread at a time. Blocks until
// every slice finished; the first exception thrown by any slice is
// rethrown. Callers that want balanced work over many items hand them out
// from an atomic counter inside the slices.
//
// runSlices must not be called from inside a pool job (a slice that
// dispatches again can deadlock waiting for its own worker).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace skewopt::support {

/// Go-style completion latch: add() outstanding jobs, done() from workers,
/// wait() blocks until the count returns to zero.
class WaitGroup {
 public:
  void add(std::size_t n = 1);
  void done();
  void wait();

 private:
  Mutex mu_;
  CondVar cv_;
  std::size_t count_ SKEWOPT_GUARDED_BY(mu_) = 0;
};

class ThreadPool {
 public:
  /// `threads` == 0 sizes the pool to hardware_concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues one job. Jobs must manage their own completion signalling
  /// (see WaitGroup); exceptions escaping a bare submitted job terminate.
  void submit(std::function<void()> job);

  /// See file comment. `slices` == 0 is a no-op.
  void runSlices(std::size_t slices,
                 const std::function<void(std::size_t)>& fn);

  /// The process-wide pool, constructed on first use.
  static ThreadPool& shared();

 private:
  /// A queued job plus its submit timestamp (0 while metrics are off),
  /// feeding the skewopt_pool_task_latency_ms histogram.
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  void workerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<Task> queue_ SKEWOPT_GUARDED_BY(mu_);
  bool stop_ SKEWOPT_GUARDED_BY(mu_) = false;
};

}  // namespace skewopt::support
