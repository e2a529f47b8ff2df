// Tests for the observability layer (src/obs): the metrics registry
// (kinds, validation, snapshots, Prometheus exposition), the tracer
// (strict-JSON export, span nesting across ThreadPool slices, seqlock
// reader safety under concurrent emission, trace-context stamping and
// filtering, configurable ring capacity), the structured logger (strict
// JSON-lines, byte-determinism under a fake clock, rate limiting), the
// one-timing-source contract (every wall-time field and histogram of a
// Flow::run is its span's duration), and the determinism claim the docs
// make: with a fake clock injected, a serial and a parallel run of the
// same local optimization produce bit-identical metric snapshots.
//
// The whole file also runs under ThreadSanitizer as obs_test_tsan (see
// tests/CMakeLists.txt) — the race coverage behind the per-thread ring
// buffer's single-writer seqlock discipline.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/frontend.h"
#include "cluster/protocol.h"
#include "core/flow.h"
#include "core/local_opt.h"
#include "core/objective.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/json.h"
#include "serve/server.h"
#include "serve/warm_state.h"
#include "sta/timer.h"
#include "support/thread_pool.h"
#include "testgen/testgen.h"

namespace skewopt::obs {
namespace {

/// Enables metric updates for one test, restoring the disabled default.
struct MetricsOnScope {
  MetricsOnScope() { setMetricsEnabled(true); }
  ~MetricsOnScope() { setMetricsEnabled(false); }
};

/// Fixed fake clock: every duration measures as zero, which pins the
/// duration-valued histograms for the snapshot-identity test.
std::uint64_t fixedClock() { return 5'000'000; }

/// Settable fake clock: reads whatever the test last stored.
std::atomic<std::uint64_t> g_settable_ns{0};
std::uint64_t settableClock() { return g_settable_ns.load(); }

/// Stepping fake clock: every read advances time by a fixed odd step, so
/// every span has a distinct, nonzero duration that both its trace event
/// and its Span::end() caller see exactly.
std::atomic<std::uint64_t> g_stepping_ns{0};
std::uint64_t steppingClock() { return g_stepping_ns.fetch_add(1'000'003); }

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();

  Counter& c = reg.counter("obs_test_basic_total", "help text");
  c.reset();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  Gauge& g = reg.gauge("obs_test_basic_gauge");
  g.reset();
  g.set(2.5);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 1.5);

  Histogram& h = reg.histogram("obs_test_basic_ms", {1.0, 10.0});
  h.observe(0.5);   // bucket 0 (le=1)
  h.observe(1.0);   // bucket 0 (bounds are inclusive)
  h.observe(7.0);   // bucket 1 (le=10)
  h.observe(99.0);  // +Inf bucket
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 107.5);

  // Repeated registration returns the same object.
  EXPECT_EQ(&c, &reg.counter("obs_test_basic_total"));
  EXPECT_EQ(&h, &reg.histogram("obs_test_basic_ms", {1.0, 10.0}));
}

TEST(MetricsTest, UpdatesAreNoOpsWhileDisabled) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& c = reg.counter("obs_test_disabled_total");
  Gauge& g = reg.gauge("obs_test_disabled_gauge");
  Histogram& h = reg.histogram("obs_test_disabled_ms", defaultMsBuckets());
  c.reset();
  g.reset();
  h.reset();

  ASSERT_FALSE(metricsOn());
  c.add(7);
  g.set(3.0);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, RegistryValidatesNamesKindsAndBounds) {
  MetricsRegistry& reg = MetricsRegistry::global();
  EXPECT_THROW(reg.counter(""), std::logic_error);
  EXPECT_THROW(reg.counter("9starts_with_digit"), std::logic_error);
  EXPECT_THROW(reg.counter("has space"), std::logic_error);
  EXPECT_NO_THROW(reg.counter("obs_test_valid:name_0"));

  reg.counter("obs_test_kind_clash");
  EXPECT_THROW(reg.gauge("obs_test_kind_clash"), std::logic_error);
  EXPECT_THROW(reg.histogram("obs_test_kind_clash", {1.0}), std::logic_error);

  reg.histogram("obs_test_bounds_clash", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("obs_test_bounds_clash", {1.0, 3.0}),
               std::logic_error);
  // Unsorted or non-finite bounds are rejected up front.
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::logic_error);
}

TEST(MetricsTest, ServeEvictionAndWarmStateMetricNamesArePinned) {
  // Dashboards key on these exact names; renaming one is a breaking
  // change. The stores register against the global registry, so the test
  // drives them and asserts the deltas under the pinned names.
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& hits = reg.counter("skewopt_serve_warmstate_hits_total");
  Counter& misses = reg.counter("skewopt_serve_warmstate_misses_total");
  Counter& evictions = reg.counter("skewopt_serve_warmstate_evictions_total");
  Counter& cache_evictions =
      reg.counter("skewopt_serve_cache_evictions_total");
  const auto h0 = hits.value();
  const auto m0 = misses.value();
  const auto e0 = evictions.value();
  const auto ce0 = cache_evictions.value();

  serve::WarmStateStore store(1);
  EXPECT_EQ(store.lookup("a"), nullptr);  // miss
  store.insert("a", std::make_shared<core::FlowWarmState>());
  EXPECT_NE(store.lookup("a"), nullptr);  // hit
  store.insert("b", std::make_shared<core::FlowWarmState>());  // evicts "a"
  EXPECT_EQ(hits.value() - h0, 1u);
  EXPECT_EQ(misses.value() - m0, 1u);
  EXPECT_EQ(evictions.value() - e0, 1u);
  EXPECT_EQ(reg.gauge("skewopt_serve_warmstate_entries").value(), 1.0);

  serve::ResultCache cache(1);
  cache.insert("a", core::FlowResult{});
  cache.insert("b", core::FlowResult{});  // evicts "a"
  EXPECT_EQ(cache_evictions.value() - ce0, 1u);
}

TEST(MetricsTest, SnapshotIsNameOrderedAndComparable) {
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("obs_test_snap_b_total").reset();
  reg.counter("obs_test_snap_a_total").reset();

  const Snapshot s1 = reg.snapshot();
  ASSERT_TRUE(std::is_sorted(
      s1.begin(), s1.end(),
      [](const MetricSample& a, const MetricSample& b) {
        return a.name < b.name;
      }));
  EXPECT_EQ(s1, reg.snapshot());  // stable when nothing moves

  reg.counter("obs_test_snap_a_total").add();
  EXPECT_NE(s1, reg.snapshot());
}

TEST(MetricsTest, PrometheusTextFormat) {
  // prometheusText renders a plain Snapshot, so the expected output can be
  // pinned exactly without touching the global registry.
  MetricSample c;
  c.name = "jobs_total";
  c.kind = MetricKind::kCounter;
  c.help = "Jobs\nprocessed \\ total";
  c.count = 3;
  MetricSample g;
  g.name = "queue_depth";
  g.kind = MetricKind::kGauge;
  g.value = 2.5;
  MetricSample h;
  h.name = "latency_ms";
  h.kind = MetricKind::kHistogram;
  h.count = 3;
  h.value = 12.25;
  h.buckets = {{1.0, 1}, {10.0, 2},
               {std::numeric_limits<double>::infinity(), 3}};

  const std::string text = prometheusText({c, g, h});
  EXPECT_EQ(text,
            "# HELP jobs_total Jobs\\nprocessed \\\\ total\n"
            "# TYPE jobs_total counter\n"
            "jobs_total 3\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 2.5\n"
            "# TYPE latency_ms histogram\n"
            "latency_ms_bucket{le=\"1\"} 1\n"
            "latency_ms_bucket{le=\"10\"} 2\n"
            "latency_ms_bucket{le=\"+Inf\"} 3\n"
            "latency_ms_sum 12.25\n"
            "latency_ms_count 3\n");
}

TEST(MetricsTest, LabeledFamiliesAreDistinctChildrenOfOneFamily) {
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& a = reg.counter("obs_test_labeled_total", {{"shard", "0"}});
  Counter& b = reg.counter("obs_test_labeled_total", {{"shard", "1"}});
  EXPECT_NE(&a, &b);  // one child per label set
  EXPECT_EQ(&a, &reg.counter("obs_test_labeled_total", {{"shard", "0"}}));
  a.reset();
  b.reset();
  a.add(2);
  b.add(5);
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(b.value(), 5u);

  // Kind consistency is family-wide: a labeled child cannot disagree with
  // the unlabeled one, in either direction.
  EXPECT_THROW(reg.gauge("obs_test_labeled_total", {{"shard", "2"}}),
               std::logic_error);
  EXPECT_THROW(reg.gauge("obs_test_labeled_total"), std::logic_error);

  // Label names are validated; values are escaped on exposition.
  EXPECT_THROW(renderLabels({{"9bad", "v"}}), std::logic_error);
  EXPECT_EQ(renderLabels({{"shard", "0"}, {"mode", "a\"b\\c\nd"}}),
            "shard=\"0\",mode=\"a\\\"b\\\\c\\nd\"");
}

TEST(MetricsTest, LabeledSeriesRenderWithOneTypeLinePerFamily) {
  MetricSample c0;
  c0.name = "routed_total";
  c0.labels = "shard=\"0\"";
  c0.kind = MetricKind::kCounter;
  c0.help = "Routed jobs";
  c0.count = 7;
  MetricSample c1 = c0;
  c1.labels = "shard=\"1\"";
  c1.count = 9;
  const std::string text = prometheusText({c0, c1});
  EXPECT_EQ(text,
            "# HELP routed_total Routed jobs\n"
            "# TYPE routed_total counter\n"
            "routed_total{shard=\"0\"} 7\n"
            "routed_total{shard=\"1\"} 9\n");
}

TEST(MetricsTest, ClusterShardMetricNamesArePinned) {
  // The per-shard serving dashboards key on these exact family names and
  // the shard="N" label (docs/observability.md); renaming one is a
  // breaking change.
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& routed0 =
      reg.counter("skewopt_cluster_jobs_routed_total", {{"shard", "0"}});
  Counter& routed1 =
      reg.counter("skewopt_cluster_jobs_routed_total", {{"shard", "1"}});
  Counter& rejected0 =
      reg.counter("skewopt_cluster_jobs_rejected_total", {{"shard", "0"}});
  const auto r0 = routed0.value(), r1 = routed1.value();
  const auto x0 = rejected0.value();

  const tech::TechModel tech = tech::TechModel::make28nm();
  const eco::StageDelayLut lut(tech);
  cluster::ClusterOptions copts;
  copts.shards = 2;
  copts.shard.workers = 1;
  cluster::ClusterFrontend fe(
      tech, lut, copts,
      [](const serve::JobSpec&) { return core::FlowResult{}; });
  std::size_t accepted = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    serve::JobSpec spec;
    spec.source.kind = serve::DesignSource::Kind::kTestgen;
    spec.source.testcase = "CLS1v1";
    spec.source.sinks = 8;
    spec.source.seed = seed;
    const auto sub = fe.submit(spec, true);
    if (sub.job) {
      ++accepted;
      fe.waitTerminal(sub.id);
    }
  }
  (void)fe.stats();  // refreshes the per-shard gauges
  EXPECT_EQ((routed0.value() - r0) + (routed1.value() - r1), accepted);
  EXPECT_EQ(rejected0.value(), x0);

  // Every family the cluster front-end owns, present with shard labels.
  std::map<std::string, std::string> seen;  // name -> labels (last wins)
  for (const MetricSample& s : reg.snapshot()) seen[s.name] = s.labels;
  for (const char* name :
       {"skewopt_cluster_jobs_routed_total",
        "skewopt_cluster_jobs_rejected_total",
        "skewopt_cluster_shard_queue_depth",
        "skewopt_cluster_shard_cache_hits",
        "skewopt_cluster_shard_cache_misses",
        "skewopt_cluster_shard_warm_hits",
        "skewopt_cluster_shard_warm_misses"}) {
    ASSERT_TRUE(seen.count(name)) << name;
    EXPECT_EQ(seen[name], "shard=\"1\"") << name;  // labeled, 2 shards
  }
  fe.drain();
}

TEST(MetricsTest, ConcurrentUpdatesLoseNothing) {
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& c = reg.counter("obs_test_concurrent_total");
  Gauge& g = reg.gauge("obs_test_concurrent_gauge");
  Histogram& h = reg.histogram("obs_test_concurrent_ms", {1.0, 10.0});
  c.reset();
  g.reset();
  h.reset();

  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.add();
        g.add(1.0);
        h.observe(0.5);
        (void)reg.snapshot();  // readers race writers harmlessly
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(g.value(), static_cast<double>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.bucket(0), static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TraceTest, ExportIsStrictJsonWithNestedSpans) {
  const std::uint64_t since = nowNs();
  Tracer& tracer = Tracer::global();
  tracer.start();
  {
    Span outer("test.outer");
    outer.arg("iters", std::int64_t{3});
    outer.arg("ratio", 0.5);
    outer.arg("ok", true);
    {
      Span inner("test.inner");
    }
  }
  tracer.stop();

  // The exporter promises strict JSON: the serve-side parser (which
  // rejects trailing garbage, bad escapes, etc.) must accept it.
  const serve::json::Value v = serve::json::parse(tracer.exportJson(since));
  EXPECT_EQ(v.str("displayTimeUnit", ""), "ms");
  const serve::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 2u);

  const serve::json::Value& outer = events->at(0);
  const serve::json::Value& inner = events->at(1);
  EXPECT_EQ(outer.str("name", ""), "test.outer");
  EXPECT_EQ(outer.str("ph", ""), "X");
  EXPECT_EQ(outer.str("cat", ""), "skewopt");
  EXPECT_EQ(outer.find("args")->num("depth", -1), 0.0);
  EXPECT_EQ(outer.find("args")->num("iters", -1), 3.0);
  EXPECT_EQ(outer.find("args")->num("ratio", -1), 0.5);
  EXPECT_TRUE(outer.find("args")->boolean("ok", false));
  EXPECT_EQ(inner.str("name", ""), "test.inner");
  EXPECT_EQ(inner.find("args")->num("depth", -1), 1.0);

  // Perfetto reconstructs nesting from timestamp containment on the
  // thread track: the inner complete event lies inside the outer one.
  const double outer_ts = outer.num("ts", -1);
  const double outer_end = outer_ts + outer.num("dur", -1);
  const double inner_ts = inner.num("ts", -1);
  const double inner_end = inner_ts + inner.num("dur", -1);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
}

TEST(TraceTest, SpansAreFreeWhileDisabled) {
  const std::uint64_t since = nowNs();
  ASSERT_FALSE(tracingOn());
  {
    Span s("test.disabled");
    s.arg("k", std::int64_t{1});
  }
  EXPECT_TRUE(Tracer::global().collect(since).empty());
}

TEST(TraceTest, EndReadsTheInjectableClockWithTracingOff) {
  // Span is the library's only stopwatch: end() times the scope from the
  // injectable clock whether or not the span is recorded.
  ASSERT_FALSE(tracingOn());
  setClockForTest(&settableClock);
  g_settable_ns = 10'000'000;  // 10 ms
  Span s("test.timed");
  g_settable_ns = 17'500'000;  // +7.5 ms
  EXPECT_EQ(s.end(), 7.5);     // exact: both reads came from the fake
  g_settable_ns += 2'000'000;
  EXPECT_EQ(s.end(), 7.5);  // closed once; a second end() reads nothing
  setClockForTest(nullptr);

  // Back on the real (steady) clock: time moves forward, never backward.
  Span real("test.real");
  EXPECT_GE(real.end(), 0.0);
}

TEST(TraceTest, EndRecordsTheSpanOnceWithTheReturnedDuration) {
  const std::uint64_t id = traceIdFor(0x5ea1, 1);
  setClockForTest(&settableClock);
  g_settable_ns = 40'000'000;
  Tracer& tracer = Tracer::global();
  tracer.start();
  double ms = 0.0;
  {
    ScopedTraceContext ctx(id);
    Span outer("test.outer_ended");
    g_settable_ns += 500'000;
    {
      Span s("test.ended");
      g_settable_ns += 2'250'000;
      ms = s.end();
      g_settable_ns += 1'000'000;  // after end(): not part of the span
    }
    EXPECT_EQ(outer.end(), 3.75);
  }
  tracer.stop();
  setClockForTest(nullptr);

  EXPECT_EQ(ms, 2.25);
  const std::vector<TraceEvent> events = tracer.collect(0, id);
  ASSERT_EQ(events.size(), 2u);  // the destructors emitted nothing more
  EXPECT_EQ(std::string(events[0].name), "test.outer_ended");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(std::string(events[1].name), "test.ended");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(static_cast<double>(events[1].dur_ns) * 1e-6, ms);
}

TEST(TraceTest, NestingSurvivesThreadPoolRunSlices) {
  const std::uint64_t since = nowNs();
  Tracer& tracer = Tracer::global();
  tracer.start();

  support::ThreadPool pool(4);
  constexpr std::size_t kSlices = 16;
  pool.runSlices(kSlices, [](std::size_t slice) {
    Span outer("test.slice");
    outer.arg("slice", static_cast<std::int64_t>(slice));
    {
      Span inner("test.slice_inner");
    }
  });
  tracer.stop();

  const std::vector<TraceEvent> events = tracer.collect(since);
  std::size_t outers = 0;
  std::size_t inners = 0;
  // Per thread, events arrive in emit (ticket) order: every inner closes
  // before its outer, one level deeper, inside the outer's window.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : events) by_tid[e.tid].push_back(&e);
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->ticket < b->ticket;
              });
    for (std::size_t i = 0; i < list.size(); ++i) {
      const TraceEvent& e = *list[i];
      if (std::string(e.name) == "test.slice_inner") {
        ++inners;
        ASSERT_LT(i + 1, list.size());  // the enclosing outer closes next
        const TraceEvent& o = *list[i + 1];
        EXPECT_EQ(std::string(o.name), "test.slice");
        EXPECT_EQ(e.depth, o.depth + 1);
        EXPECT_GE(e.ts_ns, o.ts_ns);
        EXPECT_LE(e.ts_ns + e.dur_ns, o.ts_ns + o.dur_ns);
      } else {
        EXPECT_EQ(std::string(e.name), "test.slice");
        ++outers;
      }
    }
  }
  EXPECT_EQ(outers, kSlices);
  EXPECT_EQ(inners, kSlices);
}

TEST(TraceTest, ConcurrentEmissionNeverTearsReads) {
  const std::uint64_t since = nowNs();
  Tracer& tracer = Tracer::global();
  tracer.start();

  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      // Far more spans than ring slots, so exports race wrap-around.
      for (int i = 0; i < 3 * static_cast<int>(kTraceRingSlots); ++i) {
        Span s("test.storm");
        s.arg("i", static_cast<std::int64_t>(i));
      }
    });
  }
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const TraceEvent& e : tracer.collect(since)) {
        // A torn slot would surface as a wild name pointer or depth.
        EXPECT_EQ(std::string(e.name), "test.storm");
        EXPECT_EQ(e.depth, 0u);
      }
    }
  });
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  tracer.stop();
}

// ---------------------------------------------------------------------------
// Trace context: the per-job identity spans are stamped with

TEST(TraceTest, ContextStampsSpansAndFiltersExports) {
  // traceIdFor is a pure function of (hash, job id), never 0; traceIdHex
  // is the pinned 16-digit lowercase wire format.
  const std::uint64_t id_a = traceIdFor(0x1234, 1);
  const std::uint64_t id_b = traceIdFor(0x1234, 2);
  EXPECT_NE(id_a, 0u);
  EXPECT_NE(id_b, 0u);
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(id_a, traceIdFor(0x1234, 1));
  EXPECT_EQ(traceIdHex(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(traceIdHex(id_a).size(), 16u);

  const std::uint64_t since = nowNs();
  Tracer& tracer = Tracer::global();
  tracer.start();
  {
    ScopedTraceContext ctx(id_a);
    EXPECT_EQ(currentTraceId(), id_a);
    Span a("test.ctx_a");
    {
      ScopedTraceContext nested(id_b);  // nests and restores
      Span b("test.ctx_b");
    }
    EXPECT_EQ(currentTraceId(), id_a);
  }
  EXPECT_EQ(currentTraceId(), 0u);
  {
    Span none("test.ctx_none");  // no context: stamped 0, filtered out
  }
  tracer.stop();

  const std::vector<TraceEvent> only_a = tracer.collect(since, id_a);
  ASSERT_EQ(only_a.size(), 1u);
  EXPECT_EQ(std::string(only_a[0].name), "test.ctx_a");
  EXPECT_EQ(only_a[0].trace_id, id_a);
  EXPECT_EQ(tracer.collect(since).size(), 3u);  // unfiltered sees all

  // The filtered export is strict JSON and tags each event with the id.
  const serve::json::Value v =
      serve::json::parse(tracer.exportJson(since, id_b));
  const serve::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ(events->at(0).str("name", ""), "test.ctx_b");
  EXPECT_EQ(events->at(0).find("args")->str("trace_id", ""),
            traceIdHex(id_b));
}

TEST(TraceTest, ContextPropagatesIntoThreadPoolSlices) {
  const std::uint64_t since = nowNs();
  const std::uint64_t id = traceIdFor(7, 7);
  Tracer& tracer = Tracer::global();
  tracer.start();
  {
    ScopedTraceContext ctx(id);
    support::ThreadPool pool(3);
    constexpr std::size_t kSlices = 8;
    pool.runSlices(kSlices, [](std::size_t) {
      Span s("test.ctx_slice");
    });
  }
  tracer.stop();
  // Every slice span — including ones run by pool workers — carries the
  // submitting thread's context.
  const std::vector<TraceEvent> events = tracer.collect(since, id);
  ASSERT_EQ(events.size(), 8u);
  for (const TraceEvent& e : events)
    EXPECT_EQ(std::string(e.name), "test.ctx_slice");
}

TEST(TraceTest, RingCapacityIsConfigurableAndDropsAreCounted) {
  MetricsOnScope on;
  Counter& dropped_total = MetricsRegistry::global().counter(
      "skewopt_trace_spans_dropped_total");  // pinned name
  const auto d0 = dropped_total.value();

  Tracer small(TraceOptions{16});  // clamped up to the floor
  EXPECT_EQ(small.ringSlots(), 64u);
  Tracer big(TraceOptions{std::size_t{1} << 30});  // clamped down
  EXPECT_EQ(big.ringSlots(), std::size_t{1} << 22);
  // The global tracer honors SKEWOPT_TRACE_CAPACITY (read once, another
  // process's concern here); whatever it saw is within the clamp range.
  EXPECT_GE(Tracer::global().ringSlots(), 64u);
  EXPECT_LE(Tracer::global().ringSlots(), std::size_t{1} << 22);

  small.start();
  for (std::uint64_t i = 0; i < 100; ++i)
    small.emitEvent("test.capacity", i, 1);
  small.stop();

  // 100 spans into 64 slots: 36 evictions, counted per tracer and in the
  // process-wide metric; the ring keeps the newest spans.
  EXPECT_EQ(small.droppedSpans(), 36u);
  EXPECT_EQ(dropped_total.value() - d0, 36u);
  const std::vector<TraceEvent> kept = small.collect();
  ASSERT_EQ(kept.size(), 64u);
  EXPECT_EQ(kept.front().ts_ns, 36u);
  EXPECT_EQ(kept.back().ts_ns, 99u);
  EXPECT_EQ(big.droppedSpans(), 0u);
}

// ---------------------------------------------------------------------------
// Request counter (bumped once per request by the protocol dispatcher)

TEST(MetricsTest, RequestCounterNameIsPinnedAndClampsUnknownVerbs) {
  // Dashboards key on skewopt_serve_requests_total{verb=,ok=}; the verb
  // label is clamped to the protocol's fixed set so a hostile client
  // cannot grow label cardinality.
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& submit_ok = reg.counter("skewopt_serve_requests_total",
                                   {{"verb", "SUBMIT"}, {"ok", "true"}});
  Counter& submit_err = reg.counter("skewopt_serve_requests_total",
                                    {{"verb", "SUBMIT"}, {"ok", "false"}});
  Counter& trace_ok = reg.counter("skewopt_serve_requests_total",
                                  {{"verb", "TRACE"}, {"ok", "true"}});
  Counter& unknown_err = reg.counter("skewopt_serve_requests_total",
                                     {{"verb", "unknown"}, {"ok", "false"}});
  const auto a0 = submit_ok.value(), b0 = submit_err.value(),
             t0 = trace_ok.value(), u0 = unknown_err.value();

  const tech::TechModel tech = tech::TechModel::make28nm();
  const eco::StageDelayLut lut(tech);
  cluster::ClusterFrontend fe(
      tech, lut, {}, [](const serve::JobSpec&) { return core::FlowResult{}; });
  const auto send = [&](const std::string& line) {
    return cluster::handleClusterRequest(fe, serve::json::parse(line));
  };
  const std::string submit =
      R"({"cmd":"SUBMIT","block":true,"spec":{"source":{"kind":"testgen",)"
      R"("testcase":"CLS1v1","sinks":8,"seed":1}}})";
  ASSERT_TRUE(send(submit).boolean("ok", false));
  ASSERT_TRUE(send(submit).boolean("ok", false));
  EXPECT_FALSE(send(R"({"cmd":"SUBMIT"})").boolean("ok", true));
  fe.waitTerminal(1);
  EXPECT_TRUE(send(R"({"cmd":"TRACE","id":1})").boolean("ok", false));
  EXPECT_FALSE(send(R"({"cmd":"EVIL{injected=\"label\"}"})")  // clamped
                   .boolean("ok", true));
  fe.drain();

  EXPECT_EQ(submit_ok.value() - a0, 2u);
  EXPECT_EQ(submit_err.value() - b0, 1u);
  EXPECT_EQ(trace_ok.value() - t0, 1u);
  EXPECT_EQ(unknown_err.value() - u0, 1u);
}

// ---------------------------------------------------------------------------
// Structured logging

TEST(LogTest, LinesAreStrictJsonAndByteDeterministicUnderAFakeClock) {
  MetricsOnScope on;
  const std::string path =
      ::testing::TempDir() + "skewopt_obs_log_det.jsonl";
  std::remove(path.c_str());
  Counter& lines_total =
      MetricsRegistry::global().counter("skewopt_log_lines_total");
  const auto l0 = lines_total.value();

  setClockForTest(&fixedClock);
  Logger::Options opts;
  opts.level = LogLevel::kInfo;
  opts.path = path;
  ASSERT_TRUE(Logger::global().configure(opts));

  logInfo("obs test event")
      .field("job_id", std::uint64_t{7})
      .field("ratio", 0.5)
      .field("ok", true)
      .field("note", "a\"b\nc");
  logDebug("below the level").field("x", std::int64_t{1});  // gated out
  logWarn("second event");

  Logger::global().configure(Logger::Options{});  // off; closes the file
  setClockForTest(nullptr);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  // Byte-pinned under the fake clock: field order is call order, strings
  // are JSON-escaped, doubles render shortest-round-trip.
  EXPECT_EQ(lines[0],
            R"({"ts_ns":5000000,"level":"info","msg":"obs test event",)"
            R"("job_id":7,"ratio":0.5,"ok":true,"note":"a\"b\nc"})");
  EXPECT_EQ(lines[1],
            R"({"ts_ns":5000000,"level":"warn","msg":"second event"})");
  for (const std::string& line : lines)
    EXPECT_NO_THROW(serve::json::parse(line)) << line;
  EXPECT_EQ(lines_total.value() - l0, 2u);  // pinned name
  std::remove(path.c_str());
}

TEST(LogTest, RateLimiterShedsAndCountsOverBudgetLines) {
  MetricsOnScope on;
  const std::string path =
      ::testing::TempDir() + "skewopt_obs_log_rate.jsonl";
  std::remove(path.c_str());
  Counter& dropped_total =
      MetricsRegistry::global().counter("skewopt_log_dropped_lines_total");
  const auto d0 = dropped_total.value();
  const auto g0 = Logger::global().droppedLines();

  setClockForTest(&fixedClock);  // one wall-clock second, forever
  Logger::Options opts;
  opts.level = LogLevel::kInfo;
  opts.path = path;
  opts.max_lines_per_sec = 2;
  ASSERT_TRUE(Logger::global().configure(opts));
  for (int i = 0; i < 5; ++i)
    logInfo("storm").field("i", static_cast<std::int64_t>(i));
  Logger::global().configure(Logger::Options{});
  setClockForTest(nullptr);

  EXPECT_EQ(Logger::global().droppedLines() - g0, 3u);
  EXPECT_EQ(dropped_total.value() - d0, 3u);  // pinned name
  std::ifstream in(path);
  std::size_t written = 0;
  for (std::string line; std::getline(in, line);) ++written;
  EXPECT_EQ(written, 2u);
  std::remove(path.c_str());
}

TEST(LogTest, ConfigureFailureKeepsThePreviousConfiguration) {
  Logger logger;  // a private instance: the global one stays untouched
  Logger::Options bad;
  bad.level = LogLevel::kInfo;
  bad.path = "/nonexistent-skewopt-dir/log.jsonl";
  std::string err;
  EXPECT_FALSE(logger.configure(bad, &err));
  EXPECT_NE(err.find("/nonexistent-skewopt-dir"), std::string::npos) << err;
  EXPECT_FALSE(logger.enabled(LogLevel::kError));  // still off

  // parseLogLevel covers the --log-level surface.
  LogLevel lvl = LogLevel::kOff;
  EXPECT_TRUE(parseLogLevel("warn", &lvl));
  EXPECT_EQ(lvl, LogLevel::kWarn);
  EXPECT_TRUE(parseLogLevel("off", &lvl));
  EXPECT_EQ(lvl, LogLevel::kOff);
  EXPECT_FALSE(parseLogLevel("verbose", &lvl));
  EXPECT_FALSE(parseLogLevel("INFO", &lvl));
}

// ---------------------------------------------------------------------------
// Determinism: serial vs parallel snapshots under a fake clock

/// The skewopt_local_* subset of a snapshot. Those metrics are driven only
/// by deterministic algorithm state (never thread identity), which is the
/// contract this test enforces; pool/STA metrics legitimately vary with
/// worker count and are excluded.
Snapshot localSubset(const Snapshot& snap) {
  Snapshot out;
  for (const MetricSample& s : snap)
    if (s.name.rfind("skewopt_local_", 0) == 0) out.push_back(s);
  return out;
}

TEST(DeterminismTest, SerialAndParallelLocalOptSnapshotsIdentical) {
  setClockForTest(&fixedClock);  // before any worker threads spin up
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();

  const tech::TechModel& tech = tech::TechModel::make28nm();
  testgen::TestcaseOptions topts;
  topts.sinks = 60;
  topts.seed = 13;
  const network::Design base = testgen::makeCls1(tech, "v1", topts);
  const sta::Timer timer(tech);
  const core::Objective objective(base, timer);

  core::LocalOptions o;
  o.max_iterations = 3;

  o.parallel_trials = false;
  network::Design serial = base;
  reg.reset();
  const core::LocalResult rs =
      core::LocalOptimizer(tech, o).run(serial, objective, nullptr);
  const Snapshot serial_snap = localSubset(reg.snapshot());

  o.parallel_trials = true;
  o.threads = 4;
  network::Design parallel = base;
  reg.reset();
  const core::LocalResult rp =
      core::LocalOptimizer(tech, o).run(parallel, objective, nullptr);
  const Snapshot parallel_snap = localSubset(reg.snapshot());

  setClockForTest(nullptr);

  ASSERT_EQ(rs.sum_after_ps, rp.sum_after_ps);  // precondition, not the point
  ASSERT_FALSE(serial_snap.empty());
  EXPECT_EQ(serial_snap, parallel_snap);

  // Sanity: the run actually drove the instruments.
  const auto find = [&](const std::string& name) -> const MetricSample* {
    for (const MetricSample& s : serial_snap)
      if (s.name == name) return &s;
    return nullptr;
  };
  const MetricSample* rounds = find("skewopt_local_rounds_total");
  ASSERT_NE(rounds, nullptr);
  EXPECT_GT(rounds->count, 0u);
  const MetricSample* golden = find("skewopt_local_golden_trial_ms");
  ASSERT_NE(golden, nullptr);
  EXPECT_GT(golden->count, 0u);
  EXPECT_EQ(golden->value, 0.0);  // fake clock: every duration is zero

  // Pinned names: incremental round scoring and the predictor residual.
  const MetricSample* computed = find("skewopt_local_scores_computed_total");
  ASSERT_NE(computed, nullptr);
  EXPECT_GT(computed->count, 0u);
  ASSERT_NE(find("skewopt_local_scores_reused_total"), nullptr);
  const MetricSample* residual = find("skewopt_local_predictor_residual_ps");
  ASSERT_NE(residual, nullptr);
  EXPECT_EQ(residual->kind, MetricKind::kHistogram);
  EXPECT_GT(residual->count, 0u);
  // The round loop no longer calls scoreBatch; its batch-size histogram
  // is gone.
  EXPECT_EQ(find("skewopt_local_score_batch_size"), nullptr);
}

// ---------------------------------------------------------------------------
// One timing source: every wall-time field is its span's duration

/// The value of integer arg `key` on `e`, or -1 when absent.
std::int64_t intArg(const TraceEvent& e, const char* key) {
  for (const TraceEvent::Arg& a : e.args)
    if (a.key != nullptr && std::string(a.key) == key &&
        a.type == TraceEvent::ArgType::kInt)
      return a.i;
  return -1;
}

double durMs(const TraceEvent& e) {
  return static_cast<double>(e.dur_ns) * 1e-6;
}

TEST(SpanTimingTest, FlowWallFieldsAreTheirSpansDurations) {
  const tech::TechModel& tech = tech::TechModel::make28nm();
  const eco::StageDelayLut lut(tech);
  testgen::TestcaseOptions topts;
  topts.sinks = 60;
  topts.seed = 5;
  topts.max_pairs = 60;
  network::Design d = testgen::makeCls1(tech, "v1", topts);
  core::FlowOptions fo;
  fo.global.u_sweep = {0.1, 0.4};
  fo.local.max_iterations = 3;
  const core::Flow flow(tech, lut, fo);

  const std::uint64_t id = traceIdFor(0x5ea1, 2);
  setClockForTest(&steppingClock);  // before any worker threads spin up
  MetricsOnScope on;
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();
  Tracer& tracer = Tracer::global();
  tracer.start();
  core::FlowResult r;
  {
    ScopedTraceContext ctx(id);
    r = flow.run(d, core::FlowMode::kGlobalLocal, nullptr);
  }
  tracer.stop();
  const Snapshot snap = reg.snapshot();
  setClockForTest(nullptr);

  std::map<std::string, std::vector<const TraceEvent*>> by_name;
  const std::vector<TraceEvent> events = tracer.collect(0, id);
  for (const TraceEvent& e : events) by_name[e.name].push_back(&e);

  // Stage fields: bit-equal to the flow.* spans' durations.
  ASSERT_EQ(by_name["flow.run"].size(), 1u);
  ASSERT_EQ(by_name["flow.global"].size(), 1u);
  ASSERT_EQ(by_name["flow.local"].size(), 1u);
  EXPECT_EQ(r.stage_ms.total_ms, durMs(*by_name["flow.run"][0]));
  EXPECT_EQ(r.stage_ms.global_ms, durMs(*by_name["flow.global"][0]));
  EXPECT_EQ(r.stage_ms.local_ms, durMs(*by_name["flow.local"][0]));
  EXPECT_GT(r.stage_ms.local_ms, 0.0);

  // LP solves: pass 1 is lp_solves[0], sweep point k is lp_solves[k + 1].
  // A cold run solves everything live, so every entry has its span.
  const std::vector<core::LpSolveStats>& solves = r.global.lp_solves;
  ASSERT_GE(solves.size(), 2u);
  ASSERT_EQ(by_name["global.lp_solve"].size(), solves.size());
  std::vector<int> solve_spans(solves.size(), 0);
  for (const TraceEvent* e : by_name["global.lp_solve"]) {
    const std::int64_t u = intArg(*e, "u_index");
    const std::size_t ix =
        u >= 0 ? static_cast<std::size_t>(u) + 1
               : (intArg(*e, "pass") == 1 ? 0 : solves.size());
    ASSERT_LT(ix, solves.size());
    ++solve_spans[ix];
    EXPECT_EQ(solves[ix].solve_ms, durMs(*e)) << "solve " << ix;
  }
  for (const int n : solve_spans) EXPECT_EQ(n, 1);

  // Realization: one global.realize span per solved sweep point, matched
  // by u_index; points that never realized report 0.
  std::vector<int> realize_spans(solves.size(), 0);
  for (const TraceEvent* e : by_name["global.realize"]) {
    const std::size_t ix = static_cast<std::size_t>(intArg(*e, "u_index")) + 1;
    ASSERT_LT(ix, solves.size());
    ++realize_spans[ix];
    EXPECT_EQ(solves[ix].realize_ms, durMs(*e)) << "realize " << ix;
  }
  EXPECT_FALSE(by_name["global.realize"].empty());
  for (std::size_t ix = 0; ix < solves.size(); ++ix) {
    EXPECT_LE(realize_spans[ix], 1) << ix;
    if (realize_spans[ix] == 0) {
      EXPECT_EQ(solves[ix].realize_ms, 0.0) << ix;
    }
  }

  // The stage histograms observe the same values (one observation each
  // since the reset, so each sum is its field exactly).
  const auto hist = [&](const char* name) -> const MetricSample& {
    for (const MetricSample& m : snap)
      if (m.name == name) return m;
    throw std::logic_error(std::string("missing metric ") + name);
  };
  EXPECT_EQ(hist("skewopt_flow_global_stage_ms").count, 1u);
  EXPECT_EQ(hist("skewopt_flow_global_stage_ms").value, r.stage_ms.global_ms);
  EXPECT_EQ(hist("skewopt_flow_local_stage_ms").count, 1u);
  EXPECT_EQ(hist("skewopt_flow_local_stage_ms").value, r.stage_ms.local_ms);
  EXPECT_EQ(hist("skewopt_flow_total_ms").count, 1u);
  EXPECT_EQ(hist("skewopt_flow_total_ms").value, r.stage_ms.total_ms);
  EXPECT_EQ(hist("skewopt_lp_solve_ms").count, solves.size());
}

}  // namespace
}  // namespace skewopt::obs
