#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"  // detail::formatDouble

namespace skewopt::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};

void appendJsonString(std::string& out, const char* s) {
  out += '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}
}  // namespace detail

namespace {

thread_local std::uint32_t t_span_depth = 0;
thread_local std::uint64_t t_trace_id = 0;

obs::Counter& droppedSpansTotal() {
  static obs::Counter& c = MetricsRegistry::global().counter(
      "skewopt_trace_spans_dropped_total",
      "Spans evicted from the trace ring buffers by wrap-around");
  return c;
}

std::size_t clampRingSlots(std::size_t n) {
  return std::min<std::size_t>(std::max<std::size_t>(n, 64), 1u << 22);
}

/// Ring capacity for the global tracer: SKEWOPT_TRACE_CAPACITY when set to
/// a positive integer, the compile-time default otherwise. Read once.
std::size_t globalRingSlots() {
  const char* env = std::getenv("SKEWOPT_TRACE_CAPACITY");
  if (env == nullptr || *env == '\0') return kTraceRingSlots;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v == 0) return kTraceRingSlots;
  return clampRingSlots(static_cast<std::size_t>(v));
}

}  // namespace

std::uint64_t currentTraceId() { return t_trace_id; }

ScopedTraceContext::ScopedTraceContext(std::uint64_t trace_id)
    : prev_(t_trace_id) {
  t_trace_id = trace_id;
}

ScopedTraceContext::~ScopedTraceContext() { t_trace_id = prev_; }

std::uint64_t traceIdFor(std::uint64_t content_hash, std::uint64_t job_id) {
  // splitmix64 finalizer over (hash, id); never returns 0 (the "no
  // context" sentinel).
  std::uint64_t x = content_hash ^ (job_id + 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

std::string traceIdHex(std::uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

// Per-slot seqlock: while the slot holds completed ticket t its sequence
// word reads 2t+2 (even, unique — tickets are monotonic); while the owner
// thread is writing ticket t it reads 2t+1. The single-writer protocol and
// the matching reader are in emit() / readSlot() below. Instead of the
// classic two thread fences (which GCC's TSan pass neither models nor
// compiles warning-free), every payload field is a release-stored /
// acquire-loaded atomic: a reader that observes any payload value from
// write t synchronizes with its store, so the odd sequence word written
// before it happens-before the reader's re-check of seq, and coherence
// forces the re-check to see the mismatch and drop the torn slot.
struct Tracer::ThreadBuffer {
  struct SlotArg {
    std::atomic<const char*> key{nullptr};
    std::atomic<std::uint8_t> type{0};
    std::atomic<std::uint64_t> bits{0};
  };
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::uint32_t> depth{0};
    std::atomic<std::uint64_t> trace_id{0};
    SlotArg args[kMaxSpanArgs];
  };

  explicit ThreadBuffer(std::size_t ring_slots)
      : capacity(ring_slots), slots(new Slot[ring_slots]) {}

  std::uint32_t id = 0;
  std::uint64_t next_ticket = 0;  // owner thread only
  const std::size_t capacity;
  std::atomic<std::uint64_t> dropped{0};  ///< spans evicted by wrap-around
  std::unique_ptr<Slot[]> slots;          ///< capacity entries

  void emit(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
            std::uint32_t depth, std::uint64_t trace_id,
            const TraceEvent::Arg* args, int nargs) {
    const std::uint64_t t = next_ticket++;
    if (t >= capacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      droppedSpansTotal().add();
    }
    Slot& s = slots[t % capacity];
    s.seq.store(2 * t + 1, std::memory_order_relaxed);
    s.name.store(name, std::memory_order_release);
    s.start_ns.store(start_ns, std::memory_order_release);
    s.dur_ns.store(dur_ns, std::memory_order_release);
    s.depth.store(depth, std::memory_order_release);
    s.trace_id.store(trace_id, std::memory_order_release);
    for (int i = 0; i < kMaxSpanArgs; ++i) {
      if (i < nargs) {
        s.args[i].key.store(args[i].key, std::memory_order_release);
        s.args[i].type.store(static_cast<std::uint8_t>(args[i].type),
                             std::memory_order_release);
        std::uint64_t bits = 0;
        switch (args[i].type) {
          case TraceEvent::ArgType::kInt:
            bits = std::bit_cast<std::uint64_t>(args[i].i);
            break;
          case TraceEvent::ArgType::kFloat:
            bits = std::bit_cast<std::uint64_t>(args[i].f);
            break;
          case TraceEvent::ArgType::kBool:
            bits = args[i].b ? 1 : 0;
            break;
          case TraceEvent::ArgType::kNone:
            break;
        }
        s.args[i].bits.store(bits, std::memory_order_release);
      } else {
        s.args[i].key.store(nullptr, std::memory_order_release);
        s.args[i].type.store(0, std::memory_order_release);
      }
    }
    s.seq.store(2 * t + 2, std::memory_order_release);
  }

  /// Seqlock read. Returns true iff the slot held one consistent,
  /// completed span for the whole read.
  bool readSlot(std::size_t i, TraceEvent* out) const {
    const Slot& s = slots[i];
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) return false;
    out->name = s.name.load(std::memory_order_acquire);
    out->ts_ns = s.start_ns.load(std::memory_order_acquire);
    out->dur_ns = s.dur_ns.load(std::memory_order_acquire);
    out->depth = s.depth.load(std::memory_order_acquire);
    out->trace_id = s.trace_id.load(std::memory_order_acquire);
    for (int a = 0; a < kMaxSpanArgs; ++a) {
      out->args[a].key = s.args[a].key.load(std::memory_order_acquire);
      out->args[a].type = static_cast<TraceEvent::ArgType>(
          s.args[a].type.load(std::memory_order_acquire));
      const std::uint64_t bits =
          s.args[a].bits.load(std::memory_order_acquire);
      switch (out->args[a].type) {
        case TraceEvent::ArgType::kInt:
          out->args[a].i = std::bit_cast<std::int64_t>(bits);
          break;
        case TraceEvent::ArgType::kFloat:
          out->args[a].f = std::bit_cast<double>(bits);
          break;
        case TraceEvent::ArgType::kBool:
          out->args[a].b = bits != 0;
          break;
        case TraceEvent::ArgType::kNone:
          out->args[a].key = nullptr;
          break;
      }
    }
    if (s.seq.load(std::memory_order_acquire) != s1) return false;
    out->tid = id;
    out->ticket = s1 / 2 - 1;
    return true;
  }
};

Tracer::Tracer(TraceOptions opts) : opts_(opts) {
  opts_.ring_slots = clampRingSlots(opts_.ring_slots);
}

Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer* tracer =
      new Tracer(TraceOptions{globalRingSlots()});  // never destroyed
  return *tracer;
}

void Tracer::start() {
  if (start_count_.fetch_add(1, std::memory_order_relaxed) == 0)
    detail::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::stop() {
  if (start_count_.fetch_sub(1, std::memory_order_relaxed) == 1)
    detail::g_tracing_enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t Tracer::droppedSpans() const {
  support::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& b : buffers_)
    total += b->dropped.load(std::memory_order_relaxed);
  return total;
}

Tracer::ThreadBuffer& Tracer::localBuffer() {
  // Cached per (thread, tracer); buffers are owned by the tracer and live
  // as long as it does, so dead threads' spans stay exportable.
  thread_local std::vector<std::pair<Tracer*, ThreadBuffer*>> t_cache;
  for (const auto& [tracer, buf] : t_cache)
    if (tracer == this) return *buf;
  support::MutexLock lock(mu_);
  auto buf = std::make_unique<ThreadBuffer>(opts_.ring_slots);
  buf->id = static_cast<std::uint32_t>(buffers_.size());
  ThreadBuffer* raw = buf.get();
  buffers_.push_back(std::move(buf));
  t_cache.emplace_back(this, raw);
  return *raw;
}

void Tracer::emitEvent(const char* name, std::uint64_t start_ns,
                       std::uint64_t dur_ns) {
  if (!tracingOn()) return;
  localBuffer().emit(name, start_ns, dur_ns, t_span_depth, t_trace_id,
                     nullptr, 0);
}

std::vector<TraceEvent> Tracer::collect(std::uint64_t since_ns,
                                        std::uint64_t trace_id) const {
  std::vector<ThreadBuffer*> bufs;
  {
    support::MutexLock lock(mu_);
    bufs.reserve(buffers_.size());
    for (const auto& b : buffers_) bufs.push_back(b.get());
  }
  std::vector<TraceEvent> events;
  for (const ThreadBuffer* b : bufs) {
    for (std::size_t i = 0; i < b->capacity; ++i) {
      TraceEvent ev;
      if (b->readSlot(i, &ev) && ev.ts_ns >= since_ns &&
          (trace_id == 0 || ev.trace_id == trace_id))
        events.push_back(ev);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.ticket < b.ticket;
            });
  return events;
}

namespace {

// Nanoseconds as a microsecond decimal with exact .3 fraction.
std::string microsFromNs(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

std::string Tracer::exportJson(std::uint64_t since_ns,
                               std::uint64_t trace_id) const {
  const std::vector<TraceEvent> events = collect(since_ns, trace_id);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    detail::appendJsonString(out, ev.name);
    out += ",\"cat\":\"skewopt\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(ev.tid) + ",\"ts\":" + microsFromNs(ev.ts_ns) +
           ",\"dur\":" + microsFromNs(ev.dur_ns) + ",\"args\":{\"depth\":" +
           std::to_string(ev.depth);
    if (ev.trace_id != 0) {
      out += ",\"trace_id\":";
      detail::appendJsonString(out, traceIdHex(ev.trace_id).c_str());
    }
    for (const TraceEvent::Arg& a : ev.args) {
      if (a.type == TraceEvent::ArgType::kNone || a.key == nullptr) continue;
      out += ',';
      detail::appendJsonString(out, a.key);
      out += ':';
      switch (a.type) {
        case TraceEvent::ArgType::kInt:
          out += std::to_string(a.i);
          break;
        case TraceEvent::ArgType::kFloat:
          out += detail::formatDouble(a.f);
          break;
        case TraceEvent::ArgType::kBool:
          out += a.b ? "true" : "false";
          break;
        case TraceEvent::ArgType::kNone:
          break;
      }
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

bool Tracer::writeJsonFile(const std::string& path, std::uint64_t since_ns,
                           std::string* error) const {
  const std::string json = exportJson(since_ns);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr)
      *error = path + ": " + std::strerror(errno);
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error != nullptr) *error = path + ": write failed";
    return false;
  }
  return true;
}

Span::Span(const char* name) {
  if (tracingOn()) {
    active_ = true;
    name_ = name;
    depth_ = t_span_depth++;
    trace_id_ = t_trace_id;
  }
  start_ns_ = nowNs();
}

Span::~Span() {
  // An unrecorded span nobody ended has no reader for its duration, so it
  // skips the clock read.
  if (active_ && !ended_) end();
}

double Span::end() {
  if (!ended_) {
    ended_ = true;
    dur_ns_ = nowNs() - start_ns_;
    if (active_) {
      --t_span_depth;
      Tracer::global().localBuffer().emit(name_, start_ns_, dur_ns_, depth_,
                                          trace_id_, args_, nargs_);
    }
  }
  return static_cast<double>(dur_ns_) * 1e-6;
}

void Span::arg(const char* key, std::int64_t v) {
  if (!active_ || nargs_ >= kMaxSpanArgs) return;
  args_[nargs_].key = key;
  args_[nargs_].type = TraceEvent::ArgType::kInt;
  args_[nargs_].i = v;
  ++nargs_;
}

void Span::arg(const char* key, double v) {
  if (!active_ || nargs_ >= kMaxSpanArgs) return;
  args_[nargs_].key = key;
  args_[nargs_].type = TraceEvent::ArgType::kFloat;
  args_[nargs_].f = v;
  ++nargs_;
}

void Span::arg(const char* key, bool v) {
  if (!active_ || nargs_ >= kMaxSpanArgs) return;
  args_[nargs_].key = key;
  args_[nargs_].type = TraceEvent::ArgType::kBool;
  args_[nargs_].b = v;
  ++nargs_;
}

}  // namespace skewopt::obs
