#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/spec_check.h"

namespace skewopt::serve {

namespace {

// Job lifecycle timestamps deliberately stay on raw steady_clock rather
// than the injectable obs::nowNs(): deadline handling waits on condition
// variables via wait_until, which needs real time_points a fake
// function-pointer clock cannot provide. Library phase timings are the
// durations of the obs::Spans that time them (Span::end over
// obs::nowNs()); the serve histograms below read obs::nowNs() directly.
double msSince(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct ServeObs {
  obs::Counter& submitted = obs::MetricsRegistry::global().counter(
      "skewopt_serve_jobs_submitted_total", "Jobs accepted into the queue");
  obs::Counter& rejected = obs::MetricsRegistry::global().counter(
      "skewopt_serve_jobs_rejected_total",
      "Submissions rejected by backpressure or shutdown");
  obs::Counter& done = obs::MetricsRegistry::global().counter(
      "skewopt_serve_jobs_done_total", "Jobs finished DONE");
  obs::Counter& failed = obs::MetricsRegistry::global().counter(
      "skewopt_serve_jobs_failed_total", "Jobs finished FAILED");
  obs::Counter& cancelled = obs::MetricsRegistry::global().counter(
      "skewopt_serve_jobs_cancelled_total", "Jobs finished CANCELLED");
  obs::Counter& retries = obs::MetricsRegistry::global().counter(
      "skewopt_serve_retries_total", "Transient-failure retry attempts");
  obs::Gauge& running = obs::MetricsRegistry::global().gauge(
      "skewopt_serve_jobs_running", "Jobs currently RUNNING");
  obs::Histogram& run_ms = obs::MetricsRegistry::global().histogram(
      "skewopt_serve_job_run_ms", obs::defaultMsBuckets(),
      "Start-to-finish wall time of executed (non-cached) jobs");
  static ServeObs& get() {
    static ServeObs o;
    return o;
  }
};

/// Holds the tracer open (refcounted) while a client-traced job runs: a
/// nonzero spec.trace_id means the client intends to pull the job's span
/// tree with the TRACE verb, which needs the spans recorded.
class TracerOnScope {
 public:
  explicit TracerOnScope(bool active) : active_(active) {
    if (active_) obs::Tracer::global().start();
  }
  ~TracerOnScope() {
    if (active_) obs::Tracer::global().stop();
  }
  TracerOnScope(const TracerOnScope&) = delete;
  TracerOnScope& operator=(const TracerOnScope&) = delete;

 private:
  bool active_;
};

}  // namespace

Scheduler::Scheduler(const tech::TechModel& tech, const eco::StageDelayLut& lut,
                     SchedulerOptions opts, Runner runner)
    : tech_(&tech),
      lut_(&lut),
      opts_(opts),
      runner_(std::move(runner)),
      queue_(std::max<std::size_t>(1, opts.queue_capacity)),
      cache_(opts.cache_capacity),
      warm_(opts.warm_capacity) {
  // The service always runs with live metrics: the METRICS verb and the
  // STATS gauges are part of its contract.
  obs::setMetricsEnabled(true);
  const std::size_t n = std::max<std::size_t>(1, opts_.workers);
  worker_count_ = n;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

Scheduler::~Scheduler() { shutdown(); }

std::shared_ptr<Job> Scheduler::submit(JobSpec spec, bool block) {
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->key = canonicalKey(job->spec);
  job->hash = contentHash(job->spec);
  job->submitted_at = std::chrono::steady_clock::now();
  job->submitted_ns = obs::nowNs();
  {
    support::MutexLock lk(mu_);
    if (!accepting_) {
      ServeObs::get().rejected.add();
      obs::logWarn("serve: submit rejected").field("reason", "shutting down");
      return nullptr;
    }
    job->id = next_id_++;
    job->trace_id = job->spec.trace_id != 0
                        ? job->spec.trace_id
                        : obs::traceIdFor(job->hash, job->id);
    jobs_.emplace(job->id, job);
    // Counted as submitted+queued before the push: a blocked producer's
    // job is logically pending, and the coherence identity must hold for
    // any stats() racing the push.
    ++submitted_;
    ++queued_;
  }
  if (!queue_.push(job, block)) {
    // Rejected (full without blocking, or closed while blocked): the job
    // never became visible as QUEUED work; drop it from the registry.
    ServeObs::get().rejected.add();
    obs::logWarn("serve: submit rejected")
        .field("job_id", job->id)
        .field("reason", "queue full");
    support::MutexLock lk(mu_);
    jobs_.erase(job->id);
    --submitted_;
    --queued_;
    return nullptr;
  }
  ServeObs::get().submitted.add();
  obs::logInfo("serve: job submitted")
      .field("job_id", job->id)
      .field("trace_id", obs::traceIdHex(job->trace_id))
      .field("priority", static_cast<std::int64_t>(job->spec.priority));
  return job;
}

std::shared_ptr<Job> Scheduler::submitDelta(std::uint64_t base_id,
                                            const DeltaEdits& edits,
                                            bool block,
                                            std::uint64_t trace_id) {
  // Resolution needs only the base's *spec*, so the base may be queued,
  // running, finished, or long evicted from every cache — and whether the
  // resolved job then runs warm is purely a store lookup at execution time.
  JobSpec spec = applyDeltaEdits(jobSpec(base_id), edits);
  if (trace_id != 0) spec.trace_id = trace_id;
  return submit(std::move(spec), block);
}

JobSpec Scheduler::jobSpec(std::uint64_t id) const {
  return findJob(id)->spec;
}

std::uint64_t Scheduler::traceId(std::uint64_t id) const {
  return findJob(id)->trace_id;
}

std::shared_ptr<Job> Scheduler::findJob(std::uint64_t id) const {
  support::MutexLock lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::out_of_range("serve: unknown job id " + std::to_string(id));
  return it->second;
}

JobStatus Scheduler::status(std::uint64_t id) const {
  const std::shared_ptr<Job> job = findJob(id);
  const auto now = std::chrono::steady_clock::now();
  support::MutexLock lk(job->mu);
  JobStatus s;
  s.id = job->id;
  s.state = job->state;
  s.attempts = job->attempts;
  s.cached = job->cached;
  s.error = job->error;
  switch (job->state) {
    case JobState::kQueued:
      s.queue_ms = msSince(job->submitted_at, now);
      break;
    case JobState::kRunning:
      s.queue_ms = msSince(job->submitted_at, job->started_at);
      s.run_ms = msSince(job->started_at, now);
      break;
    default: {
      const bool ran =
          job->started_at != std::chrono::steady_clock::time_point{};
      s.queue_ms = msSince(job->submitted_at,
                           ran ? job->started_at : job->finished_at);
      s.run_ms = ran ? msSince(job->started_at, job->finished_at) : 0.0;
    }
  }
  return s;
}

core::FlowResult Scheduler::result(std::uint64_t id) const {
  const std::shared_ptr<Job> job = findJob(id);
  support::MutexLock lk(job->mu);
  while (!isTerminal(job->state)) job->cv.wait(lk);
  if (job->state == JobState::kDone) return job->result;
  throw std::runtime_error("serve: job " + std::to_string(id) + " " +
                           jobStateName(job->state) +
                           (job->error.empty() ? "" : ": " + job->error));
}

JobStatus Scheduler::waitTerminal(std::uint64_t id, double timeout_ms) const {
  const std::shared_ptr<Job> job = findJob(id);
  {
    support::MutexLock lk(job->mu);
    if (timeout_ms < 0) {
      while (!isTerminal(job->state)) job->cv.wait(lk);
    } else {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(timeout_ms));
      while (!isTerminal(job->state))
        if (job->cv.waitUntil(lk, deadline) == std::cv_status::timeout) break;
    }
  }
  return status(id);
}

bool Scheduler::cancel(std::uint64_t id) {
  const std::shared_ptr<Job> job = findJob(id);
  job->cancel_requested.store(true, std::memory_order_release);
  if (queue_.remove(id)) {
    finishCancelled(job);
    return true;
  }
  // Not in the queue: either already picked up, or in the pop->start
  // window. The worker re-checks the flag under job->mu before marking
  // RUNNING, so a job still QUEUED here is guaranteed never to run.
  support::MutexLock lk(job->mu);
  if (job->state == JobState::kQueued) return true;
  // RUNNING (the flag still aborts a pending retry backoff) or terminal.
  return false;
}

void Scheduler::finishCancelled(const std::shared_ptr<Job>& job) {
  {
    support::MutexLock lk(job->mu);
    if (isTerminal(job->state)) return;
    job->state = JobState::kCancelled;
    job->finished_at = std::chrono::steady_clock::now();
    // Counters update before any waiter can observe the terminal state, so
    // stats() is consistent once waitTerminal()/result() returns. Lock
    // order is job->mu then mu_ everywhere they nest. Cancellation only
    // ever reaches QUEUED jobs, so the queued count moves with it.
    support::MutexLock lk2(mu_);
    --queued_;
    ++cancelled_;
    ServeObs::get().cancelled.add();
    retainTerminalLocked(job->id);
  }
  obs::logInfo("serve: job cancelled").field("job_id", job->id);
  job->cv.notifyAll();
  notifyTerminal(job);
}

bool Scheduler::sleepBackoff(const std::shared_ptr<Job>& job, double ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(ms));
  support::MutexLock lk(mu_);
  for (;;) {
    if (abort_retries_ ||
        job->cancel_requested.load(std::memory_order_acquire))
      return false;
    if (std::chrono::steady_clock::now() >= deadline) break;
    stop_cv_.waitUntil(lk, deadline);
  }
  ++retries_;
  ServeObs::get().retries.add();
  return true;
}

void Scheduler::workerLoop() {
  std::vector<std::shared_ptr<Job>> cancelled;
  for (;;) {
    cancelled.clear();
    std::shared_ptr<Job> job = queue_.pop(&cancelled);
    for (const auto& c : cancelled) finishCancelled(c);
    if (!job) return;
    runJob(job);
  }
}

void Scheduler::runJob(const std::shared_ptr<Job>& job) {
  const auto start = std::chrono::steady_clock::now();
  const bool deadline_missed =
      job->spec.deadline_ms > 0 &&
      msSince(job->submitted_at, start) > job->spec.deadline_ms;

  // Transition QUEUED -> RUNNING in one critical section, honoring a
  // cancel that landed in the pop->start window (cancel() observed state
  // QUEUED under job->mu and returned true, so the job must never run).
  ServeObs& sobs = ServeObs::get();
  bool cancelled_now = false;
  {
    support::MutexLock lk(job->mu);
    if (job->cancel_requested.load(std::memory_order_acquire)) {
      cancelled_now = true;
    } else if (deadline_missed) {
      job->state = JobState::kFailed;
      job->error = "start deadline exceeded";
      job->finished_at = start;
      support::MutexLock lk2(mu_);
      --queued_;
      ++failed_;
      ServeObs::get().failed.add();
      retainTerminalLocked(job->id);
    } else {
      job->state = JobState::kRunning;
      job->started_at = start;
      // queued -> running moves in the same mu_ section as the state flip
      // so no stats() snapshot can see the job in both (or neither).
      support::MutexLock lk2(mu_);
      --queued_;
      ++running_;
      sobs.running.add(1.0);
    }
  }
  if (cancelled_now) {
    finishCancelled(job);
    return;
  }
  if (deadline_missed) {
    obs::logWarn("serve: job missed start deadline")
        .field("job_id", job->id)
        .field("deadline_ms", job->spec.deadline_ms);
    job->cv.notifyAll();
    notifyTerminal(job);
    return;
  }

  core::FlowResult result;
  bool ok = false, cached = false;
  std::string error;

  // The tracing scope closes before the terminal state flip below: every
  // span of the job (serve.job included — emitted at Span destruction) is
  // recorded before waiters wake, so a client doing RESULT(wait) then
  // TRACE never sees a partial tree.
  {
    // Tracing: open the refcounted client window first, then install the
    // job's trace context so every span below — including pool slices via
    // runSlices — is stamped with it.
    TracerOnScope client_trace(job->spec.trace_id != 0);
    obs::ScopedTraceContext trace_ctx(job->trace_id);
    if (obs::tracingOn()) {
      const std::uint64_t now_ns = obs::nowNs();
      obs::Tracer::global().emitEvent(
          "serve.queue", job->submitted_ns,
          now_ns > job->submitted_ns ? now_ns - job->submitted_ns : 0);
    }
    obs::Span job_span("serve.job");
    job_span.arg("job_id", static_cast<std::int64_t>(job->id));
    obs::logInfo("serve: job started")
        .field("job_id", job->id)
        .field("trace_id", obs::traceIdHex(job->trace_id));

    // Cross-check the job's spec and its cache-keying fields before the
    // cache lookup: a drifted key would serve (or poison) the wrong entry.
    // Record corruption is permanent — no retry can repair it.
    check::DiagnosticEngine record_check;
    record_check.setContext("serve:job");
    checkJobRecord(job->spec, job->key, job->hash, record_check);

    if (record_check.hasErrors()) {
      error = "job record failed validation:\n" + record_check.text();
    } else if (cache_.lookup(job->key, &result)) {
      ok = cached = true;
    } else {
      for (;;) {
        {
          support::MutexLock lk(job->mu);
          ++job->attempts;
        }
        try {
          result = runner_ ? runner_(job->spec)
                           : runJobSpecWarm(*tech_, *lut_, job->spec, &warm_);
          ok = true;
          break;
        } catch (const TransientError& e) {
          error = e.what();
          int attempts;
          {
            support::MutexLock lk(job->mu);
            attempts = job->attempts;
          }
          if (attempts > job->spec.max_retries) break;
          const double delay =
              std::min(opts_.backoff_cap_ms,
                       opts_.backoff_base_ms *
                           static_cast<double>(
                               1u << std::min(attempts - 1, 20)));
          if (!sleepBackoff(job, delay)) {
            error += " (retry aborted)";
            break;
          }
          obs::logWarn("serve: job retrying after transient failure")
              .field("job_id", job->id)
              .field("attempt", static_cast<std::int64_t>(attempts))
              .field("error", error);
        } catch (const std::exception& e) {
          error = e.what();
          break;
        }
      }
      if (ok) cache_.insert(job->key, result);
    }
  }

  {
    support::MutexLock lk(job->mu);
    job->state = ok ? JobState::kDone : JobState::kFailed;
    job->cached = cached;
    if (ok) {
      job->result = std::move(result);
    } else {
      job->error = error;
    }
    job->finished_at = std::chrono::steady_clock::now();
    if (!cached)
      sobs.run_ms.observe(msSince(job->started_at, job->finished_at));
    support::MutexLock lk2(mu_);
    --running_;
    sobs.running.add(-1.0);
    ++(ok ? done_ : failed_);
    (ok ? sobs.done : sobs.failed).add();
    retainTerminalLocked(job->id);
  }
  if (ok) {
    obs::logInfo("serve: job done")
        .field("job_id", job->id)
        .field("cached", cached);
  } else {
    obs::logWarn("serve: job failed")
        .field("job_id", job->id)
        .field("error", error);
  }
  job->cv.notifyAll();
  notifyTerminal(job);
}

void Scheduler::retainTerminalLocked(std::uint64_t id) {
  if (opts_.terminal_retention == 0) return;
  terminal_order_.push_back(id);
  while (terminal_order_.size() > opts_.terminal_retention) {
    jobs_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

void Scheduler::notifyTerminal(const std::shared_ptr<Job>& job) {
  if (!opts_.on_terminal) return;
  JobStatus s;
  {
    support::MutexLock lk(job->mu);
    s.id = job->id;
    s.state = job->state;
    s.attempts = job->attempts;
    s.cached = job->cached;
    s.error = job->error;
    const bool ran =
        job->started_at != std::chrono::steady_clock::time_point{};
    s.queue_ms = msSince(job->submitted_at,
                         ran ? job->started_at : job->finished_at);
    s.run_ms = ran ? msSince(job->started_at, job->finished_at) : 0.0;
  }
  opts_.on_terminal(s);
}

void Scheduler::drain() {
  {
    support::MutexLock lk(mu_);
    accepting_ = false;
  }
  queue_.close();
  std::vector<std::thread> workers;
  {
    support::MutexLock lk(mu_);
    if (joined_) return;
    joined_ = true;
    workers.swap(workers_);
  }
  for (std::thread& w : workers) w.join();
}

void Scheduler::shutdown() {
  {
    support::MutexLock lk(mu_);
    accepting_ = false;
    abort_retries_ = true;
  }
  stop_cv_.notifyAll();
  for (const auto& job : queue_.closeAndClear()) {
    job->cancel_requested.store(true, std::memory_order_release);
    finishCancelled(job);
  }
  std::vector<std::thread> workers;
  {
    support::MutexLock lk(mu_);
    if (joined_) return;
    joined_ = true;
    workers.swap(workers_);
  }
  for (std::thread& w : workers) w.join();
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  {
    // One lock for every job counter: the coherence identity (see
    // SchedulerStats) must hold even for snapshots racing drain/shutdown.
    // queue_depth comes from queued_, not queue_.depth() — a popped job
    // that hasn't flipped to RUNNING yet is still logically queued.
    support::MutexLock lk(mu_);
    s.submitted = submitted_;
    s.done = done_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.retries = retries_;
    s.running = running_;
    s.queue_depth = queued_;
  }
  s.workers = worker_count_;
  s.cache = cache_.stats();
  s.warm = warm_.stats();
  return s;
}

}  // namespace skewopt::serve
