#include "support/thread_pool.h"

#include <exception>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace skewopt::support {

namespace {

obs::Counter& poolTasksTotal() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "skewopt_pool_tasks_total", "Jobs submitted to the shared thread pool");
  return c;
}

obs::Gauge& poolQueueDepth() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "skewopt_pool_queue_depth", "Jobs waiting in the thread pool queue");
  return g;
}

obs::Histogram& poolTaskLatencyMs() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "skewopt_pool_task_latency_ms", obs::defaultMsBuckets(),
      "Submit-to-completion latency of pool jobs");
  return h;
}

}  // namespace

void WaitGroup::add(std::size_t n) {
  MutexLock lk(mu_);
  count_ += n;
}

void WaitGroup::done() {
  MutexLock lk(mu_);
  if (count_ > 0 && --count_ == 0) cv_.notifyAll();
}

void WaitGroup::wait() {
  MutexLock lk(mu_);
  while (count_ != 0) cv_.wait(lk);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 2;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  poolTasksTotal().add();
  Task task{std::move(job), obs::metricsOn() ? obs::nowNs() : 0};
  {
    MutexLock lk(mu_);
    queue_.push_back(std::move(task));
    poolQueueDepth().set(static_cast<double>(queue_.size()));
  }
  cv_.notifyOne();
}

void ThreadPool::workerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lk(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(lk);
      if (queue_.empty()) return;  // stop requested and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      poolQueueDepth().set(static_cast<double>(queue_.size()));
    }
    task.fn();
    if (obs::metricsOn() && task.enqueue_ns != 0)
      poolTaskLatencyMs().observe(
          static_cast<double>(obs::nowNs() - task.enqueue_ns) * 1e-6);
  }
}

void ThreadPool::runSlices(std::size_t slices,
                           const std::function<void(std::size_t)>& fn) {
  if (slices == 0) return;
  std::mutex err_mu;
  std::exception_ptr err;
  auto guarded = [&](std::size_t s) {
    try {
      fn(s);
    } catch (...) {
      std::lock_guard<std::mutex> lk(err_mu);
      if (!err) err = std::current_exception();
    }
  };
  // Pool workers inherit the submitting thread's trace context so a
  // traced job's spans stay attributable across its parallel slices.
  const std::uint64_t trace_id = obs::currentTraceId();
  WaitGroup wg;
  wg.add(slices - 1);
  for (std::size_t s = 1; s < slices; ++s)
    submit([&guarded, &wg, s, trace_id] {
      obs::ScopedTraceContext ctx(trace_id);
      guarded(s);
      wg.done();
    });
  guarded(0);
  wg.wait();
  if (err) std::rethrow_exception(err);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace skewopt::support
