// Tracing: RAII spans recorded into per-thread ring buffers, exported as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Spans are also the library's only stopwatch: every span stamps its start
// from obs::nowNs(), and Span::end() returns its duration, so a wall-time
// field or histogram is the duration of the span that times its scope —
// one clock, read once per boundary, whether or not tracing is on.
//
// Hot-path contract: constructing a Span while tracing is disabled costs
// one relaxed atomic load + one clock read, and an unended span's
// destructor then does nothing. While enabled, ending a span writes
// exactly one fixed-size slot into its thread's ring buffer — no lock, no
// allocation, no cross-thread cache traffic on the emit path.
//
// Concurrency: each buffer has a single writer (its owning thread);
// exporters on other threads read concurrently. Every slot field is an
// atomic, published under a per-slot sequence word (seqlock discipline:
// odd while the writer is inside, bumped to the slot's even ticket value
// with release order when done). Readers accept a slot only when the
// sequence reads the same even value before and after the payload loads,
// so torn slots — including ring wrap-around during an export — are
// dropped, never mis-reported, and TSan sees only atomics.
//
// Trace context: every span is stamped with the thread's current trace id
// (a 64-bit job identity installed via ScopedTraceContext; 0 = none), so
// one export can be filtered down to a single job's tree even when many
// jobs interleave on shared worker threads. support::ThreadPool propagates
// the submitting thread's context into runSlices workers.
//
// Span names and annotation keys must point at storage that outlives the
// export (string literals at the instrument sites — the span taxonomy in
// docs/observability.md is the catalog). Nesting is reconstructed by
// Perfetto from timestamp containment of "ph":"X" complete events on the
// same thread track; the recorded depth is exported as an arg for tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "support/thread_annotations.h"

namespace skewopt::obs {

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
/// JSON string escaper shared by the trace and log exporters.
void appendJsonString(std::string& out, const char* s);
}  // namespace detail

/// One relaxed load; the guard on every span.
inline bool tracingOn() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Max typed annotations carried by one span; extras are dropped.
inline constexpr int kMaxSpanArgs = 4;
/// Default slots per thread buffer; the ring overwrites oldest when full.
/// Override per Tracer via TraceOptions, or for the global tracer via the
/// SKEWOPT_TRACE_CAPACITY environment variable (read once, at first use).
inline constexpr std::size_t kTraceRingSlots = 8192;

struct TraceOptions {
  /// Per-thread ring capacity in spans; clamped to [64, 1<<22].
  std::size_t ring_slots = kTraceRingSlots;
};

// ---------------------------------------------------------------------------
// Trace context: a thread-local 64-bit job identity captured by every span.

/// The calling thread's current trace id (0 = no context installed).
std::uint64_t currentTraceId();

/// Installs `trace_id` as the thread's current trace context for the
/// enclosing scope, restoring the previous context on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(std::uint64_t trace_id);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  std::uint64_t prev_;
};

/// Deterministic nonzero trace id for a job: a splitmix64-style mix of the
/// spec content hash and the job id, so the same job always maps to the
/// same id without any global counter.
std::uint64_t traceIdFor(std::uint64_t content_hash, std::uint64_t job_id);

/// 16-digit lowercase hex rendering of a trace id (the wire format).
std::string traceIdHex(std::uint64_t trace_id);

/// A completed span read out of the buffers.
struct TraceEvent {
  const char* name = nullptr;
  std::uint32_t tid = 0;    ///< stable per-thread buffer id
  std::uint32_t depth = 0;  ///< nesting depth on its thread at start
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t ticket = 0;    ///< per-thread emit order (sort tie-break)
  std::uint64_t trace_id = 0;  ///< owning job's trace context (0 = none)

  enum class ArgType : std::uint8_t { kNone = 0, kInt, kFloat, kBool };
  struct Arg {
    const char* key = nullptr;
    ArgType type = ArgType::kNone;
    std::int64_t i = 0;
    double f = 0.0;
    bool b = false;
  };
  Arg args[kMaxSpanArgs];
};

class Tracer {
 public:
  /// The process-wide tracer all spans record into. Its ring capacity
  /// honors SKEWOPT_TRACE_CAPACITY when set.
  static Tracer& global();

  explicit Tracer(TraceOptions opts = {});
  ~Tracer();  // out-of-line: ThreadBuffer is incomplete here
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Refcounted enable: tracing is on while at least one starter is
  /// active (the CLI for a whole run, serve for each traced job).
  void start();
  void stop();

  /// Per-thread ring capacity this tracer was built with.
  std::size_t ringSlots() const { return opts_.ring_slots; }

  /// Spans evicted by ring wrap-around since construction (summed over
  /// all thread buffers). Also surfaced as the
  /// skewopt_trace_spans_dropped_total metric.
  std::uint64_t droppedSpans() const;

  /// All consistent spans with ts_ns >= since_ns, sorted by
  /// (ts, tid, ticket) — deterministic under a fake clock. When
  /// `trace_id` is nonzero, only spans stamped with that context are
  /// returned. Buffers are not cleared; callers window with since_ns
  /// (obs::nowNs() taken before the region of interest) so concurrent
  /// exports never race a clear.
  std::vector<TraceEvent> collect(std::uint64_t since_ns = 0,
                                  std::uint64_t trace_id = 0) const;

  /// Chrome trace-event JSON ({"displayTimeUnit":"ms","traceEvents":[...]})
  /// for collect(since_ns, trace_id). Valid strict JSON; ts/dur in
  /// microseconds; each stamped event carries a "trace_id" hex string arg.
  std::string exportJson(std::uint64_t since_ns = 0,
                         std::uint64_t trace_id = 0) const;

  /// exportJson to a file. Returns false and fills *error on I/O failure.
  bool writeJsonFile(const std::string& path, std::uint64_t since_ns,
                     std::string* error) const;

  /// Records one already-timed event (e.g. a queue wait measured across
  /// threads) into the calling thread's buffer, stamped with the current
  /// trace context. No-op while tracing is disabled.
  void emitEvent(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns);

 private:
  friend class Span;
  struct ThreadBuffer;

  /// The calling thread's buffer, registering it on first use.
  ThreadBuffer& localBuffer();

  TraceOptions opts_;
  mutable support::Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ SKEWOPT_GUARDED_BY(mu_);
  std::atomic<int> start_count_{0};
};

/// RAII span. Times the enclosing scope and, while tracing is on, records
/// it (with any args attached before it ends) into the current thread's
/// ring buffer, stamped with the thread's current trace context. `name`
/// and arg keys must be string literals (or otherwise outlive the tracer's
/// exports).
class Span {
 public:
  explicit Span(const char* name);
  /// Ends the span if end() was not called.
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, std::int64_t v);
  void arg(const char* key, double v);
  void arg(const char* key, bool v);

  /// Closes the span (recording it while tracing is on) and returns its
  /// duration in milliseconds — the value every wall-time field and
  /// histogram reports, whether or not tracing is on. Only the first call
  /// reads the clock; later calls return the same duration.
  double end();

 private:
  bool active_ = false;  ///< recording: tracing was on at construction
  bool ended_ = false;
  std::uint32_t depth_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t dur_ns_ = 0;  ///< set by end()
  std::uint64_t trace_id_ = 0;
  const char* name_ = nullptr;
  int nargs_ = 0;
  TraceEvent::Arg args_[kMaxSpanArgs];
};

}  // namespace skewopt::obs
