// Tests for the cluster subsystem: consistent-hash routing determinism,
// the global job-id codec, N-shard vs single-shard bit-identity (the
// subsystem's core guarantee, including DELTA jobs), and the wire
// protocol's one dispatcher: pinned single-shard reply bytes, every verb
// session-tested against a 1-shard frontend, the BATCH_SUBMIT and
// streaming RESULTS verbs with their malformed-payload handling,
// subscriber disconnect mid-stream, per-shard drain, and aggregated stats
// coherence under concurrent load.
//
// The whole file runs under ThreadSanitizer as cluster_test_tsan (see
// tests/CMakeLists.txt); the Concurrent* tests are the schedules that
// matter there — batch submit + streaming + shard drain all at once.
#include "cluster/frontend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/protocol.h"
#include "cluster/router.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "pinned.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/fnv.h"

namespace skewopt::cluster {
namespace {

namespace json = serve::json;

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

const eco::StageDelayLut& sharedLut() {
  static eco::StageDelayLut lut(sharedTech());
  return lut;
}

/// A small, fast spec: 40-sink CLS1v1, local flow, two iterations.
serve::JobSpec tinySpec(std::uint64_t seed,
                        core::FlowMode mode = core::FlowMode::kLocal) {
  serve::JobSpec spec;
  spec.source.kind = serve::DesignSource::Kind::kTestgen;
  spec.source.testcase = "CLS1v1";
  spec.source.sinks = 40;
  spec.source.max_pairs = 40;
  spec.source.seed = seed;
  spec.mode = mode;
  spec.options.local.max_iterations = 2;
  return spec;
}

ClusterOptions smallCluster(std::size_t shards, std::size_t workers = 2) {
  ClusterOptions o;
  o.shards = shards;
  o.shard.workers = workers;
  o.shard.queue_capacity = 64;
  o.shard.cache_capacity = 64;
  o.shard.warm_capacity = 16;
  return o;
}

/// Digest of a result's optimization outcome, skipping wall-clock timings
/// and solver-effort fields (lp_solves, lp_warm_hits) that legitimately
/// differ between a cold run and a warm-started run of the same spec.
std::string digest(const core::FlowResult& r) {
  const json::Value full = serve::resultToJson(r);
  json::Value out = json::Value::object();
  for (const auto& [key, value] : full.members()) {
    if (key == "stage_ms") continue;
    if (key == "global") {
      json::Value g = json::Value::object();
      for (const auto& [gk, gv] : value.members())
        if (gk != "lp_solves" && gk != "lp_warm_hits") g.set(gk, gv);
      out.set(key, std::move(g));
      continue;
    }
    out.set(key, value);
  }
  return json::dump(out);
}

/// Collects a multi-line protocol exchange.
struct Emitted {
  std::vector<std::string> lines;
  serve::TcpServer::LineSink sink() {
    return [this](const std::string& line) {
      lines.push_back(line);
      return true;
    };
  }
  json::Value at(std::size_t i) const { return json::parse(lines.at(i)); }
};

std::string call(ClusterFrontend& fe, const std::string& line) {
  Emitted out;
  EXPECT_TRUE(handleClusterLine(fe, line, out.sink()));
  EXPECT_EQ(out.lines.size(), 1u);
  return out.lines.empty() ? "" : out.lines.front();
}

/// Submits `spec` over the wire — with the spec-level "record":true
/// unless `record` is false — and returns its RESULT reply line (waited
/// for).
std::string recordedResultLine(ClusterFrontend& fe, const serve::JobSpec& spec,
                               bool record = true) {
  json::Value sj = serve::specToJson(spec);
  if (record) sj.set("record", true);
  json::Value submit = json::Value::object();
  submit.set("cmd", "SUBMIT");
  submit.set("spec", std::move(sj));
  const json::Value sr = json::parse(call(fe, json::dump(submit)));
  EXPECT_TRUE(sr.boolean("ok", false));
  return call(fe, R"({"cmd":"RESULT","id":)" +
                      std::to_string(static_cast<std::uint64_t>(
                          sr.num("id", 0))) +
                      R"(,"wait":true})");
}

/// A RESULT reply with its wall-clock members (queue_ms, run_ms,
/// result.stage_ms) removed and serialized back to bytes; everything left,
/// the record included, is a pure function of the spec.
std::string scrubTimings(const std::string& line) {
  const json::Value v = json::parse(line);
  json::Value out = json::Value::object();
  for (const auto& [key, value] : v.members()) {
    if (key == "queue_ms" || key == "run_ms") continue;
    if (key == "result") {
      json::Value r = json::Value::object();
      for (const auto& [rk, rv] : value.members())
        if (rk != "stage_ms") r.set(rk, rv);
      out.set(key, std::move(r));
      continue;
    }
    out.set(key, value);
  }
  return json::dump(out);
}

// ---------------------------------------------------------------------------
// Router

TEST(ShardRouter, RingIsDeterministicAcrossInstances) {
  const ShardRouter a(ShardRouterOptions{4, 16});
  const ShardRouter b(ShardRouterOptions{4, 16});
  EXPECT_EQ(a.ring(), b.ring());
  EXPECT_EQ(a.ring().size(), 64u);
  for (std::uint64_t h = 0; h < 1000; ++h)
    EXPECT_EQ(a.route(h * 0x9e3779b97f4a7c15ull),
              b.route(h * 0x9e3779b97f4a7c15ull));

  // Contract pin: the ring at the cluster's default density and where it
  // sends fixed hashes. An edit of the "shard:<i>:<j>" point names or of
  // the ring order moves every spec's shard, so it fails here.
  const ShardRouter pinned_ring(ShardRouterOptions{3, 64});
  support::Fnv1a64 ring_digest;
  for (const auto& [point, shard] : pinned_ring.ring()) {
    ring_digest.u64(point);
    ring_digest.u64(shard);
  }
  pinned::expectPinned("ring", pinned::Hex(ring_digest.value()),
                       pinned::Hex(0x63a4c360cede95aeULL));
  std::vector<std::size_t> routed;
  for (std::uint64_t h = 0; h < 20; ++h)
    routed.push_back(pinned_ring.route(h * 0x9e3779b97f4a7c15ull));
  pinned::expectPinned("routes", routed,
                       std::vector<std::size_t>{0, 2, 0, 2, 2, 0, 2, 2, 1, 2,
                                                0, 2, 2, 0, 2, 0, 1, 2, 0, 2});
}

TEST(ShardRouter, SpecsRouteTheSameAcrossRestarts) {
  // "Restart" = a fresh router (and fresh frontend): placement must be a
  // pure function of the spec's content hash.
  std::vector<std::size_t> first;
  for (int round = 0; round < 2; ++round) {
    const ShardRouter router(ShardRouterOptions{5, 32});
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const std::size_t shard =
          router.route(serve::contentHash(tinySpec(seed)));
      if (round == 0)
        first.push_back(shard);
      else
        EXPECT_EQ(shard, first[seed]) << "seed " << seed;
    }
  }
}

TEST(ShardRouter, CoversAllShards) {
  const ShardRouter router(ShardRouterOptions{4, 64});
  std::set<std::size_t> used;
  for (std::uint64_t h = 0; h < 4096; ++h)
    used.insert(router.route(h * 0x9e3779b97f4a7c15ull));
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardRouter, SingleShardRoutesEverythingToZero) {
  const ShardRouter router(ShardRouterOptions{1, 8});
  for (std::uint64_t h = 0; h < 64; ++h) EXPECT_EQ(router.route(h), 0u);
}

// ---------------------------------------------------------------------------
// Global id codec

TEST(ClusterFrontend, GlobalIdCodecRoundTrips) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(3),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  for (std::size_t shard = 0; shard < 3; ++shard) {
    for (std::uint64_t local = 1; local <= 100; ++local) {
      const std::uint64_t gid = fe.globalId(shard, local);
      EXPECT_EQ(fe.shardOf(gid), shard);
      EXPECT_EQ(fe.localId(gid), local);
    }
  }
  EXPECT_THROW(fe.shardOf(0), std::out_of_range);
}

TEST(ClusterFrontend, SingleShardIdsEqualLocalIds) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  for (std::uint64_t local = 1; local <= 10; ++local)
    EXPECT_EQ(fe.globalId(0, local), local);
}

// ---------------------------------------------------------------------------
// Bit-identity: the tentpole guarantee

TEST(ClusterFrontend, ShardedResultsBitIdenticalToSingleShard) {
  // The same job set — hot repeats, distinct seeds, and DELTA re-opts —
  // through a 3-shard cluster and a 1-shard cluster must produce
  // bit-identical results per spec.
  const std::vector<std::uint64_t> seeds = {7, 11, 7, 13, 11, 7};
  serve::DeltaEdits edits;
  edits.has_u_sweep = true;
  edits.u_sweep = {0.05, 0.15};

  auto run = [&](std::size_t shards) -> std::vector<std::string> {
    std::vector<std::string> digests;
    ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(shards));
    std::vector<std::uint64_t> gids;
    for (const std::uint64_t seed : seeds) {
      const auto sub = fe.submit(tinySpec(seed), true);
      EXPECT_TRUE(sub.job);
      if (!sub.job) return digests;
      gids.push_back(sub.id);
    }
    // DELTA against each distinct base; pinned to the base's shard.
    for (const std::uint64_t base : {gids[0], gids[1], gids[3]}) {
      const auto sub = fe.submitDelta(base, edits, true);
      EXPECT_TRUE(sub.job);
      if (!sub.job) return digests;
      if (shards > 1) {
        EXPECT_EQ(sub.shard, fe.shardOf(base));
      }
      gids.push_back(sub.id);
    }
    for (const std::uint64_t gid : gids)
      digests.push_back(digest(fe.result(gid)));
    fe.drain();
    return digests;
  };

  const std::vector<std::string> sharded = run(3);
  const std::vector<std::string> solo = run(1);
  ASSERT_EQ(sharded.size(), solo.size());
  for (std::size_t i = 0; i < sharded.size(); ++i)
    EXPECT_EQ(sharded[i], solo[i]) << "job " << i;
}

TEST(ClusterFrontend, IdenticalSpecsLandOnTheSameShardAndCache) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(4));
  const auto first = fe.submit(tinySpec(3), true);
  ASSERT_TRUE(first.job);
  (void)fe.result(first.id);
  const auto repeat = fe.submit(tinySpec(3), true);
  ASSERT_TRUE(repeat.job);
  EXPECT_EQ(repeat.shard, first.shard);
  (void)fe.result(repeat.id);
  EXPECT_TRUE(fe.waitTerminal(repeat.id).cached);
  fe.drain();
}

// ---------------------------------------------------------------------------
// Wire protocol: pinned single-shard reply bytes

TEST(ClusterProtocol, SingleShardRepliesMatchPinnedBytes) {
  // One request stream against a 1-shard cluster (what skewopt_served
  // runs): every reply, scrubbed of timing fields, must equal the bytes
  // the protocol has always answered with. A change here is a wire break
  // for every existing client.
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1));

  const std::string spec_line =
      json::dump(serve::specToJson(tinySpec(5)));
  const std::vector<std::string> requests = {
      R"({"cmd":"SUBMIT","spec":)" + spec_line + R"(,"block":true})",
      R"({"cmd":"RESULT","id":1,"wait":true})",
      // STATUS after the result wait: the job is deterministically DONE
      // (mid-flight it could be QUEUED or RUNNING).
      R"({"cmd":"STATUS","id":1})",
      R"({"cmd":"DELTA","base":1,"edits":{"u_sweep":[0.05,0.2]},"block":true})",
      R"({"cmd":"RESULT","id":2,"wait":true})",
      R"({"cmd":"CANCEL","id":2})",
      R"({"cmd":"RESULT","id":99,"wait":false})",
      R"({"cmd":"nonsense"})",
      R"(not json)",
  };
  const std::vector<std::string> expected = {
      R"({"ok":true,"id":1,"hash":"dd46b1a0942aaa5f","state":"QUEUED"})",
      R"({"ok":true,"id":1,"state":"DONE","cached":false,)"
      R"("result":{"before":{"sum_variation_ps":416.8281917132466,)"
      R"("local_skew_ps":[73.54316222362411,139.94231873122817,)"
      R"(68.58319787123594],"clock_cells":43,"power_mw":1.9190106063772332,)"
      R"("area_um2":80.04999999999993},)"
      R"("after":{"sum_variation_ps":222.01496733025803,)"
      R"("local_skew_ps":[52.74971125639979,72.11131021084475,)"
      R"(68.58319787123588],"clock_cells":43,"power_mw":1.6814873293111492,)"
      R"("area_um2":76.89999999999995},"global":{"sum_before_ps":0,)"
      R"("sum_after_ps":0,"chosen_u_ps":0,"improved":false,)"
      R"("arcs_changed":0,"lp_solves":0,"lp_warm_hits":0},)"
      R"("local":{"sum_before_ps":416.8281917132466,)"
      R"("sum_after_ps":222.01496733025803,"improved":true,)"
      R"("moves_committed":2,"golden_evaluations":15}}})",
      R"({"ok":true,"id":1,"state":"DONE","attempts":1,"cached":false})",
      R"({"ok":true,"id":2,"base":1,"hash":"7f51c16da0b37fcf",)"
      R"("state":"QUEUED"})",
      R"({"ok":true,"id":2,"state":"DONE","cached":false,)"
      R"("result":{"before":{"sum_variation_ps":416.8281917132466,)"
      R"("local_skew_ps":[73.54316222362411,139.94231873122817,)"
      R"(68.58319787123594],"clock_cells":43,"power_mw":1.9190106063772332,)"
      R"("area_um2":80.04999999999993},)"
      R"("after":{"sum_variation_ps":222.01496733025803,)"
      R"("local_skew_ps":[52.74971125639979,72.11131021084475,)"
      R"(68.58319787123588],"clock_cells":43,"power_mw":1.6814873293111492,)"
      R"("area_um2":76.89999999999995},"global":{"sum_before_ps":0,)"
      R"("sum_after_ps":0,"chosen_u_ps":0,"improved":false,)"
      R"("arcs_changed":0,"lp_solves":0,"lp_warm_hits":0},)"
      R"("local":{"sum_before_ps":416.8281917132466,)"
      R"("sum_after_ps":222.01496733025803,"improved":true,)"
      R"("moves_committed":2,"golden_evaluations":15}}})",
      R"({"ok":true,"id":2,"cancelled":false,"state":"DONE"})",
      R"({"ok":false,"error":"serve: unknown job id 99"})",
      R"({"ok":false,"error":"unknown cmd 'nonsense'"})",
      R"({"ok":false,"error":"json: bad literal at offset 0"})",
  };
  ASSERT_EQ(requests.size(), expected.size());
  // Timing fields (queue_ms/run_ms, stage_ms) differ run to run.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(requests[i]);
    pinned::expectPinned("reply" + std::to_string(i),
                         scrubTimings(call(fe, requests[i])), expected[i]);
  }
  fe.drain();
}

TEST(ClusterProtocol, IdsMustBeExactNonNegativeIntegers) {
  // Every id field goes through one parser: a fraction must not truncate
  // onto a real job (1.9 -> job 1), and a number past 2^53 must not reach
  // the double->uint64 cast (undefined beyond the uint64 range).
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  const ClusterFrontend::Submitted job = fe.submit(tinySpec(1));
  ASSERT_EQ(job.id, 1u);
  ASSERT_EQ(fe.waitTerminal(1).state, serve::JobState::kDone);

  for (const char* line : {
           R"({"cmd":"STATUS","id":1.9})",
           R"({"cmd":"CANCEL","id":1.5})",
           R"({"cmd":"RESULT","id":1.2})",
           R"({"cmd":"TRACE","id":1.1})",
           R"({"cmd":"DELTA","base":1.5,"edits":{"u_sweep":[0.1]}})",
           R"({"cmd":"RESULTS","ids":[1.7]})",
           R"({"cmd":"DRAIN","shard":0.5})",
           R"({"cmd":"STATUS","id":-1})",
           R"({"cmd":"STATUS","id":9007199254740994})",
           R"({"cmd":"STATUS","id":18446744073709551617})",
           R"({"cmd":"STATUS","id":1e300})",
       }) {
    Emitted out;
    EXPECT_TRUE(handleClusterLine(fe, line, out.sink()));
    ASSERT_EQ(out.lines.size(), 1u) << line;  // a lone error, no stream
    const json::Value reply = out.at(0);
    EXPECT_FALSE(reply.boolean("ok", true)) << line << " -> " << out.lines[0];
    EXPECT_FALSE(reply.str("error", "").empty()) << line;
  }

  // Nothing above touched job 1 or drained shard 0; integral ids (1.0
  // included — JSON has one number type) still resolve.
  const json::Value st = json::parse(call(fe, R"({"cmd":"STATUS","id":1.0})"));
  EXPECT_TRUE(st.boolean("ok", false));
  EXPECT_EQ(st.str("state", ""), "DONE");
  EXPECT_NE(fe.submit(tinySpec(2)).job, nullptr);
  const json::Value stats = json::parse(call(fe, R"({"cmd":"STATS"})"));
  EXPECT_EQ(stats.num("cancelled", -1), 0.0);
  fe.drain();
}

TEST(ClusterProtocol, StatsAggregatesShards) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(3),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  std::vector<std::uint64_t> gids;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto sub = fe.submit(tinySpec(seed), true);
    ASSERT_TRUE(sub.job);
    gids.push_back(sub.id);
  }
  for (const std::uint64_t gid : gids) fe.waitTerminal(gid);
  const json::Value v = json::parse(call(fe, R"({"cmd":"STATS"})"));
  EXPECT_TRUE(v.boolean("ok", false));
  EXPECT_EQ(v.num("submitted", -1), 12);
  EXPECT_EQ(v.num("done", -1), 12);
  const json::Value* shards = v.find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->isArray());
  ASSERT_EQ(shards->size(), 3u);
  double sum = 0;
  for (const json::Value& s : shards->items()) sum += s.num("submitted", 0);
  EXPECT_EQ(sum, 12);
  fe.drain();
}

// ---------------------------------------------------------------------------
// BATCH_SUBMIT

TEST(ClusterProtocol, BatchSubmitAcceptsManySpecs) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(3),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  json::Value jobs = json::Value::array();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    json::Value entry = json::Value::object();
    entry.set("spec", serve::specToJson(tinySpec(seed)));
    entry.set("tag", "job-" + std::to_string(seed));
    jobs.push(std::move(entry));
  }
  json::Value req = json::Value::object();
  req.set("cmd", "BATCH_SUBMIT");
  req.set("jobs", std::move(jobs));
  req.set("block", true);
  const json::Value v = json::parse(call(fe, json::dump(req)));
  EXPECT_TRUE(v.boolean("ok", false));
  EXPECT_EQ(v.num("count", -1), 6);
  EXPECT_EQ(v.num("accepted", -1), 6);
  const json::Value* verdicts = v.find("jobs");
  ASSERT_NE(verdicts, nullptr);
  ASSERT_EQ(verdicts->size(), 6u);
  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < verdicts->size(); ++i) {
    const json::Value& entry = verdicts->at(i);
    EXPECT_TRUE(entry.boolean("ok", false));
    EXPECT_EQ(entry.str("tag", ""), "job-" + std::to_string(i));
    ids.insert(static_cast<std::uint64_t>(entry.num("id", 0)));
  }
  EXPECT_EQ(ids.size(), 6u) << "per-spec job ids must be distinct";
  for (const std::uint64_t id : ids) fe.waitTerminal(id);
  fe.drain();
}

TEST(ClusterProtocol, BatchSubmitRejectsMalformedBatches) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(2),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  // Missing and empty jobs arrays reject as a unit.
  json::Value no_jobs = json::parse(call(fe, R"({"cmd":"BATCH_SUBMIT"})"));
  EXPECT_FALSE(no_jobs.boolean("ok", true));
  json::Value empty =
      json::parse(call(fe, R"({"cmd":"BATCH_SUBMIT","jobs":[]})"));
  EXPECT_FALSE(empty.boolean("ok", true));
  // Duplicate tags reject as a unit, before any spec is submitted.
  const std::string spec_line = json::dump(serve::specToJson(tinySpec(1)));
  json::Value dup = json::parse(call(
      fe, R"({"cmd":"BATCH_SUBMIT","jobs":[{"spec":)" + spec_line +
              R"(,"tag":"x"},{"spec":)" + spec_line + R"(,"tag":"x"}]})"));
  EXPECT_FALSE(dup.boolean("ok", true));
  EXPECT_EQ(fe.stats().total.submitted, 0u);
  fe.drain();
}

TEST(ClusterProtocol, BatchSubmitFailsOnlyTheInvalidSpec) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(2),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  const std::string good = json::dump(serve::specToJson(tinySpec(1)));
  const json::Value v = json::parse(call(
      fe, R"({"cmd":"BATCH_SUBMIT","jobs":[{"spec":)" + good +
              R"(},{"spec":{"bogus_key":1}},{"spec":)" + good + R"(}]})"));
  EXPECT_TRUE(v.boolean("ok", false));
  EXPECT_EQ(v.num("count", -1), 3);
  EXPECT_EQ(v.num("accepted", -1), 2);
  const json::Value* verdicts = v.find("jobs");
  ASSERT_NE(verdicts, nullptr);
  EXPECT_TRUE(verdicts->at(0).boolean("ok", false));
  EXPECT_FALSE(verdicts->at(1).boolean("ok", true));
  EXPECT_NE(verdicts->at(1).str("error", ""), "");
  EXPECT_TRUE(verdicts->at(2).boolean("ok", false));
  fe.drain();
}

// ---------------------------------------------------------------------------
// Streaming RESULTS

TEST(ClusterProtocol, ResultsStreamsCompletionsThenEnd) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(2),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  std::vector<std::uint64_t> gids;
  std::string ids = "[";
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto sub = fe.submit(tinySpec(seed), true);
    ASSERT_TRUE(sub.job);
    gids.push_back(sub.id);
    ids += (seed ? "," : "") + std::to_string(sub.id);
  }
  ids += ",999]";  // one unknown id: reported, not fatal
  Emitted out;
  EXPECT_TRUE(handleClusterLine(
      fe, R"({"cmd":"RESULTS","ids":)" + ids + R"(,"timeout_ms":30000})",
      out.sink()));
  ASSERT_EQ(out.lines.size(), 6u);  // 4 results + 1 unknown + end
  std::set<std::uint64_t> seen;
  std::size_t unknown = 0;
  for (std::size_t i = 0; i + 1 < out.lines.size(); ++i) {
    const json::Value event = out.at(i);
    EXPECT_EQ(event.str("event", ""), "result");
    if (event.boolean("ok", false))
      seen.insert(static_cast<std::uint64_t>(event.num("id", 0)));
    else
      ++unknown;
  }
  EXPECT_EQ(seen, std::set<std::uint64_t>(gids.begin(), gids.end()));
  EXPECT_EQ(unknown, 1u);
  const json::Value end = out.at(out.lines.size() - 1);
  EXPECT_EQ(end.str("event", ""), "end");
  EXPECT_EQ(end.num("remaining", -1), 0);
  fe.drain();
}

TEST(ClusterProtocol, ResultsStopsWhenSubscriberDisconnects) {
  // A subscriber that goes away mid-stream: the sink starts returning
  // false, and the handler must stop (close the connection) rather than
  // keep waiting for the remaining jobs.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(2),
                     [&](const serve::JobSpec& spec) {
                       if (spec.source.seed >= 100) {
                         std::unique_lock<std::mutex> lk(mu);
                         cv.wait(lk, [&] { return release; });
                       }
                       return core::FlowResult{};
                     });
  const auto fast = fe.submit(tinySpec(1), true);
  const auto slow = fe.submit(tinySpec(100), true);
  ASSERT_TRUE(fast.job);
  ASSERT_TRUE(slow.job);
  fe.waitTerminal(fast.id);

  std::vector<std::string> lines;
  const serve::TcpServer::LineSink dead_after_one =
      [&](const std::string& line) {
        lines.push_back(line);
        return false;  // peer hung up
      };
  EXPECT_FALSE(handleClusterLine(
      fe,
      R"({"cmd":"RESULTS","ids":[)" + std::to_string(fast.id) + "," +
          std::to_string(slow.id) + R"(],"timeout_ms":30000})",
      dead_after_one));
  EXPECT_EQ(lines.size(), 1u);  // the fast job's event, then disconnect
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  fe.waitTerminal(slow.id);
  fe.drain();
}

// ---------------------------------------------------------------------------
// DRAIN + stats coherence

TEST(ClusterProtocol, DrainShardRejectsNewWorkThere) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(2),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  const json::Value v =
      json::parse(call(fe, R"({"cmd":"DRAIN","shard":0})"));
  EXPECT_TRUE(v.boolean("ok", false));
  EXPECT_TRUE(v.boolean("drained", false));
  // Submissions routed to shard 0 now reject; shard 1 still accepts.
  std::size_t accepted = 0, rejected = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto sub = fe.submit(tinySpec(seed), false);
    if (sub.job) {
      EXPECT_EQ(sub.shard, 1u);
      ++accepted;
      fe.waitTerminal(sub.id);
    } else {
      EXPECT_EQ(sub.shard, 0u);
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  const ClusterStats cs = fe.stats();
  EXPECT_EQ(cs.routed, accepted);
  EXPECT_EQ(cs.rejected, rejected);
  fe.drain();
}

TEST(ClusterFrontend, StatsStayCoherentDuringShutdown) {
  // The satellite fix: a stats() aggregation racing a shard's shutdown()
  // must see every job in exactly one state — the coherence identity
  // holds for every snapshot, including mid-teardown.
  for (int round = 0; round < 4; ++round) {
    ClusterFrontend fe(
        sharedTech(), sharedLut(), smallCluster(3, 2),
        [](const serve::JobSpec& spec) {
          if (spec.source.seed % 7 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          return core::FlowResult{};
        });
    std::atomic<bool> stop{false};
    std::thread sampler([&] {
      while (!stop.load()) {
        const ClusterStats cs = fe.stats();
        for (const serve::SchedulerStats& s : cs.shards)
          EXPECT_EQ(s.submitted, s.done + s.failed + s.cancelled + s.running +
                                     s.queue_depth);
        EXPECT_EQ(cs.total.submitted,
                  cs.total.done + cs.total.failed + cs.total.cancelled +
                      cs.total.running + cs.total.queue_depth);
      }
    });
    std::thread submitter([&] {
      for (std::uint64_t seed = 0; seed < 200 && !stop.load(); ++seed)
        fe.submit(tinySpec(seed), false);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    fe.shutdownShard(round % 3);
    fe.shutdown();
    submitter.join();
    stop.store(true);
    sampler.join();
  }
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan schedules)

TEST(ClusterConcurrency, BatchSubmitStreamingAndDrainRace) {
  // Batch submitters, a streaming subscriber, a stats sampler, and a
  // shard drain all at once — the schedule cluster_test_tsan exists for.
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(3, 2),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  std::mutex ids_mu;
  std::vector<std::uint64_t> all_ids;
  std::atomic<bool> stop{false};

  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      for (int batch = 0; batch < 8; ++batch) {
        json::Value jobs = json::Value::array();
        for (int j = 0; j < 4; ++j) {
          json::Value entry = json::Value::object();
          entry.set("spec", serve::specToJson(tinySpec(
                                static_cast<std::uint64_t>(
                                    t * 1000 + batch * 10 + j))));
          jobs.push(std::move(entry));
        }
        json::Value req = json::Value::object();
        req.set("cmd", "BATCH_SUBMIT");
        req.set("jobs", std::move(jobs));
        Emitted out;
        handleClusterLine(fe, json::dump(req), out.sink());
        const json::Value v = out.at(0);
        if (const json::Value* verdicts = v.find("jobs")) {
          std::lock_guard<std::mutex> lk(ids_mu);
          for (const json::Value& entry : verdicts->items())
            if (entry.boolean("ok", false))
              all_ids.push_back(
                  static_cast<std::uint64_t>(entry.num("id", 0)));
        }
      }
    });
  }

  std::thread subscriber([&] {
    while (!stop.load()) {
      std::string ids;
      {
        std::lock_guard<std::mutex> lk(ids_mu);
        if (all_ids.empty()) continue;
        for (std::size_t i = std::max<std::size_t>(all_ids.size(), 8) - 8;
             i < all_ids.size(); ++i) {
          if (!ids.empty()) ids += ',';
          ids += std::to_string(all_ids[i]);
        }
      }
      Emitted out;
      handleClusterLine(
          fe, R"({"cmd":"RESULTS","ids":[)" + ids + R"(],"timeout_ms":50})",
          out.sink());
    }
  });

  std::thread sampler([&] {
    while (!stop.load()) (void)fe.stats();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fe.drainShard(1);
  for (std::thread& t : submitters) t.join();
  stop.store(true);
  subscriber.join();
  sampler.join();
  fe.drain();
  // Everything accepted eventually completed (drain waits for the queue).
  const ClusterStats cs = fe.stats();
  EXPECT_EQ(cs.total.submitted,
            cs.total.done + cs.total.failed + cs.total.cancelled);
}

// ---------------------------------------------------------------------------
// Job telemetry across shards

TEST(ClusterObs, TraceContextPropagatesAcrossShardsInOneMergedExport) {
  const std::uint64_t since = obs::nowNs();
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(3));

  // One BATCH_SUBMIT carrying three traced jobs; the router spreads them
  // over the shards, but each job's spans must still come back under the
  // trace id the client chose.
  json::Value jobs = json::Value::array();
  std::vector<std::uint64_t> trace_ids;
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    serve::JobSpec spec = tinySpec(seed);
    spec.trace_id = obs::traceIdFor(serve::contentHash(spec), seed + 1);
    trace_ids.push_back(spec.trace_id);
    json::Value entry = json::Value::object();
    entry.set("spec", serve::specToJson(spec));
    entry.set("tag", "trace-" + std::to_string(seed));
    jobs.push(std::move(entry));
  }
  json::Value req = json::Value::object();
  req.set("cmd", "BATCH_SUBMIT");
  req.set("jobs", std::move(jobs));
  req.set("block", true);
  const json::Value reply = json::parse(call(fe, json::dump(req)));
  ASSERT_TRUE(reply.boolean("ok", false)) << json::dump(reply);
  const json::Value* verdicts = reply.find("jobs");
  ASSERT_NE(verdicts, nullptr);
  ASSERT_EQ(verdicts->size(), 3u);
  std::vector<std::uint64_t> gids;
  for (std::size_t i = 0; i < verdicts->size(); ++i) {
    const json::Value& v = verdicts->at(i);
    ASSERT_TRUE(v.boolean("ok", false)) << json::dump(v);
    // Each per-entry verdict echoes its own trace id.
    EXPECT_EQ(v.str("trace_id", ""), obs::traceIdHex(trace_ids[i]));
    gids.push_back(static_cast<std::uint64_t>(v.num("id", 0)));
  }
  for (const std::uint64_t gid : gids) fe.waitTerminal(gid);
  // No drain: spans land in the ring before the terminal notify, so the
  // export is complete as soon as the jobs are terminal.

  for (std::size_t i = 0; i < gids.size(); ++i) {
    EXPECT_EQ(fe.traceId(gids[i]), trace_ids[i]);
    const std::string hex = obs::traceIdHex(trace_ids[i]);
    const json::Value tr = json::parse(
        call(fe, R"({"cmd":"TRACE","id":)" + std::to_string(gids[i]) + "}"));
    ASSERT_TRUE(tr.boolean("ok", false)) << json::dump(tr);
    EXPECT_EQ(tr.str("trace_id", ""), hex);
    const json::Value* events = tr.find("trace")->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);
    bool saw_job = false, saw_flow = false;
    for (std::size_t e = 0; e < events->size(); ++e) {
      const json::Value& ev = events->at(e);
      EXPECT_EQ(ev.find("args")->str("trace_id", ""), hex) << json::dump(ev);
      const std::string name = ev.str("name", "");
      if (name == "serve.job") saw_job = true;
      if (name == "flow.run") saw_flow = true;
    }
    EXPECT_TRUE(saw_job);
    EXPECT_TRUE(saw_flow);
    // The raw ring agrees with the wire export: filtering the global
    // tracer by this id finds only spans stamped with it.
    for (const obs::TraceEvent& ev : obs::Tracer::global().collect(
             since, trace_ids[i]))
      EXPECT_EQ(ev.trace_id, trace_ids[i]);
  }
}

TEST(ClusterObs, FlightRecordsAreIdenticalAcrossShardCounts) {
  serve::JobSpec spec = tinySpec(60, core::FlowMode::kGlobalLocal);
  spec.options.global.u_sweep = {0.05, 0.2};

  auto recordOf = [&](std::size_t shards) -> std::string {
    ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(shards));
    const auto sub = fe.submit(spec, true);
    EXPECT_TRUE(sub.job);
    if (!sub.job) return "";
    const std::string record =
        json::dump(serve::flightRecordToJson(fe.result(sub.id)));
    fe.drain();
    return record;
  };

  const std::string sharded = recordOf(3);
  const std::string solo = recordOf(1);
  EXPECT_EQ(sharded, solo);  // shard placement never leaks into the record
  const json::Value doc = json::parse(sharded);
  EXPECT_NE(doc.find("global"), nullptr);
  EXPECT_NE(doc.find("local"), nullptr);
}

// ---------------------------------------------------------------------------
// Wire protocol: one-shard sessions, verb by verb

TEST(ProtocolTest, SubmitStatusResultCancelStatsSession) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1));

  // Direct result for the same spec, for the bit-identity check below.
  const serve::JobSpec spec = tinySpec(5);
  network::Design d = serve::buildDesign(sharedTech(), spec.source);
  const core::Flow flow(sharedTech(), sharedLut(), spec.options);
  const core::FlowResult direct = flow.run(d, spec.mode, nullptr);

  json::Value submit = json::Value::object();
  submit.set("cmd", "SUBMIT");
  submit.set("spec", serve::specToJson(spec));
  const json::Value sr = json::parse(call(fe, json::dump(submit)));
  ASSERT_TRUE(sr.boolean("ok", false)) << call(fe, json::dump(submit));
  const std::uint64_t id = static_cast<std::uint64_t>(sr.num("id", 0));
  EXPECT_EQ(sr.str("state", ""), "QUEUED");
  EXPECT_EQ(sr.find("hash")->asString().size(), 16u);

  const json::Value rr = json::parse(
      call(fe, R"({"cmd":"RESULT","id":)" + std::to_string(id) + "}"));
  ASSERT_TRUE(rr.boolean("ok", false));
  EXPECT_EQ(rr.str("state", ""), "DONE");
  const json::Value* result = rr.find("result");
  ASSERT_NE(result, nullptr);
  // The wire serializes doubles at %.17g: the parsed value equals the
  // direct run's bit for bit.
  EXPECT_EQ(result->find("after")->num("sum_variation_ps", -1),
            direct.after.sum_variation_ps);
  EXPECT_EQ(result->find("before")->num("sum_variation_ps", -1),
            direct.before.sum_variation_ps);

  const json::Value st = json::parse(
      call(fe, R"({"cmd":"STATUS","id":)" + std::to_string(id) + "}"));
  EXPECT_TRUE(st.boolean("ok", false));
  EXPECT_EQ(st.str("state", ""), "DONE");

  const json::Value stats = json::parse(call(fe, R"({"cmd":"STATS"})"));
  EXPECT_TRUE(stats.boolean("ok", false));
  EXPECT_EQ(stats.num("done", 0), 1.0);

  // Error paths: malformed JSON, unknown cmd, unknown id, bad spec key.
  EXPECT_FALSE(json::parse(call(fe, "not json")).boolean("ok", true));
  EXPECT_FALSE(
      json::parse(call(fe, R"({"cmd":"NOPE"})")).boolean("ok", true));
  EXPECT_FALSE(json::parse(call(fe, R"({"cmd":"STATUS","id":424242})"))
                   .boolean("ok", true));
  EXPECT_FALSE(json::parse(call(
                   fe, R"({"cmd":"SUBMIT","spec":{"mode":"local","oops":1}})"))
                   .boolean("ok", true));
}

TEST(ProtocolTest, DeltaVerbResubmitsTheEditedSpec) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1));

  const serve::JobSpec base = tinySpec(41);
  json::Value submit = json::Value::object();
  submit.set("cmd", "SUBMIT");
  submit.set("spec", serve::specToJson(base));
  const json::Value sr = json::parse(call(fe, json::dump(submit)));
  ASSERT_TRUE(sr.boolean("ok", false));
  const std::uint64_t base_id = static_cast<std::uint64_t>(sr.num("id", 0));
  ASSERT_TRUE(json::parse(call(fe, R"({"cmd":"RESULT","id":)" +
                                   std::to_string(base_id) + "}"))
                  .boolean("ok", false));

  // Two real sinks of the base design; sent out of order on purpose — the
  // wire layer normalizes, SKW306 sees a sorted list.
  const network::Design d0 = serve::buildDesign(sharedTech(), base.source);
  const int s0 = d0.tree.sinks()[0];
  const int s1 = d0.tree.sinks()[1];
  const int lo = std::min(s0, s1), hi = std::max(s0, s1);
  const geom::Point p_lo = d0.tree.node(lo).pos;
  const geom::Point p_hi = d0.tree.node(hi).pos;
  std::ostringstream delta;
  delta << R"({"cmd":"DELTA","base":)" << base_id
        << R"(,"edits":{"corner_dmax_derate":[1.02],"moved_sinks":[)"
        << R"({"sink":)" << hi << R"(,"x":)" << p_hi.x + 1.0 << R"(,"y":)"
        << p_hi.y << "},"
        << R"({"sink":)" << lo << R"(,"x":)" << p_lo.x << R"(,"y":)"
        << p_lo.y + 1.0 << "}]}}";
  const json::Value dr = json::parse(call(fe, delta.str()));
  ASSERT_TRUE(dr.boolean("ok", false)) << call(fe, delta.str());
  EXPECT_EQ(dr.num("base", 0), static_cast<double>(base_id));
  const std::uint64_t delta_id = static_cast<std::uint64_t>(dr.num("id", 0));
  EXPECT_NE(delta_id, base_id);

  const json::Value rr = json::parse(call(
      fe, R"({"cmd":"RESULT","id":)" + std::to_string(delta_id) + "}"));
  ASSERT_TRUE(rr.boolean("ok", false)) << json::dump(rr);
  EXPECT_EQ(rr.str("state", ""), "DONE");

  // The stored spec is the merged, normalized edit of the base.
  const serve::JobSpec merged = fe.jobSpec(delta_id);
  ASSERT_EQ(merged.source.moved_sinks.size(), 2u);
  EXPECT_EQ(merged.source.moved_sinks[0].sink, lo);
  EXPECT_EQ(merged.source.moved_sinks[1].sink, hi);
  EXPECT_EQ(merged.options.global.corner_dmax_derate,
            (std::vector<double>{1.02}));

  // STATS carries the warm-state gauges.
  const json::Value st = json::parse(call(fe, R"({"cmd":"STATS"})"));
  ASSERT_TRUE(st.boolean("ok", false));
  const json::Value* gauges = st.find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* key :
       {"warmstate_entries", "warmstate_hits", "warmstate_misses",
        "warmstate_evictions", "cache_evictions"}) {
    ASSERT_NE(gauges->find(key), nullptr) << key;
    EXPECT_GE(gauges->num(key, -1), 0.0) << key;
  }

  // Error paths: unknown base, unknown edit key, missing edits.
  EXPECT_FALSE(
      json::parse(call(fe, R"({"cmd":"DELTA","base":424242,"edits":{}})"))
          .boolean("ok", true));
  EXPECT_FALSE(json::parse(call(fe, R"({"cmd":"DELTA","base":)" +
                                    std::to_string(base_id) +
                                    R"(,"edits":{"bogus":1}})"))
                   .boolean("ok", true));
  EXPECT_FALSE(
      json::parse(call(fe, R"({"cmd":"DELTA","base":)" +
                           std::to_string(base_id) + "}"))
          .boolean("ok", true));
  fe.drain();
}

TEST(ProtocolTest, CancelOverTheWire) {
  std::promise<void> gate;
  const std::shared_future<void> opened = gate.get_future().share();
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1),
                     [opened](const serve::JobSpec&) {
                       opened.wait();
                       return core::FlowResult{};
                     });
  ASSERT_NE(fe.submit(tinySpec(1)).job, nullptr);  // occupies the worker
  const ClusterFrontend::Submitted victim = fe.submit(tinySpec(2));
  ASSERT_NE(victim.job, nullptr);
  const json::Value cr = json::parse(call(
      fe, R"({"cmd":"CANCEL","id":)" + std::to_string(victim.id) + "}"));
  EXPECT_TRUE(cr.boolean("ok", false));
  EXPECT_TRUE(cr.boolean("cancelled", false));
  EXPECT_EQ(cr.str("state", ""), "CANCELLED");
  const json::Value rr = json::parse(call(
      fe, R"({"cmd":"RESULT","id":)" + std::to_string(victim.id) + "}"));
  EXPECT_FALSE(rr.boolean("ok", true));
  EXPECT_EQ(rr.str("state", ""), "CANCELLED");
  gate.set_value();
  fe.drain();
}

TEST(TcpTest, SubmitAndFetchOverARealSocket) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1));
  serve::TcpServer server(clusterLineHandler(fe));  // ephemeral port
  ASSERT_GT(server.port(), 0);

  const serve::JobSpec spec = tinySpec(6);
  network::Design d = serve::buildDesign(sharedTech(), spec.source);
  const core::Flow flow(sharedTech(), sharedLut(), spec.options);
  const core::FlowResult direct = flow.run(d, spec.mode, nullptr);

  serve::TcpClient client("127.0.0.1", server.port());
  json::Value submit = json::Value::object();
  submit.set("cmd", "SUBMIT");
  submit.set("spec", serve::specToJson(spec));
  const json::Value sr = client.call(submit);
  ASSERT_TRUE(sr.boolean("ok", false));
  const std::uint64_t id = static_cast<std::uint64_t>(sr.num("id", 0));

  json::Value fetch = json::Value::object();
  fetch.set("cmd", "RESULT");
  fetch.set("id", id);
  const json::Value rr = client.call(fetch);
  ASSERT_TRUE(rr.boolean("ok", false));
  EXPECT_EQ(rr.find("result")->find("after")->num("sum_variation_ps", -1),
            direct.after.sum_variation_ps);

  json::Value stats = json::Value::object();
  stats.set("cmd", "STATS");
  EXPECT_EQ(client.call(stats).num("done", 0), 1.0);
  server.stop();
  fe.drain();
}

TEST(ObsProtocolTest, MetricsVerbReturnsPrometheusTextAndStatsGrowGauges) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1));

  json::Value submit = json::Value::object();
  submit.set("cmd", "SUBMIT");
  submit.set("spec", serve::specToJson(tinySpec(32)));
  const json::Value sr = json::parse(call(fe, json::dump(submit)));
  ASSERT_TRUE(sr.boolean("ok", false));
  const std::uint64_t id = static_cast<std::uint64_t>(sr.num("id", 0));
  const json::Value rr = json::parse(
      call(fe, R"({"cmd":"RESULT","id":)" + std::to_string(id) + "}"));
  ASSERT_TRUE(rr.boolean("ok", false));

  // RESULT carries the flow's stage timings.
  const json::Value* stage = rr.find("result")->find("stage_ms");
  ASSERT_NE(stage, nullptr);
  EXPECT_GE(stage->num("total_ms", -1), 0.0);
  EXPECT_GE(stage->num("local_ms", -1), 0.0);

  const json::Value mr = json::parse(call(fe, R"({"cmd":"METRICS"})"));
  ASSERT_TRUE(mr.boolean("ok", false));
  const std::string text = mr.str("metrics", "");
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find("# TYPE skewopt_serve_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE skewopt_serve_job_run_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("skewopt_serve_job_run_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  // Unknown request keys are rejected on the new verb too.
  EXPECT_FALSE(json::parse(call(fe, R"({"cmd":"METRICS","bogus":1})"))
                   .boolean("ok", true));

  // STATS: the "gauges" object carries the authoritative obs values
  // (process-global, so only sanity bounds are asserted here); the flat
  // cache_* fields it superseded are gone.
  const json::Value st = json::parse(call(fe, R"({"cmd":"STATS"})"));
  ASSERT_TRUE(st.boolean("ok", false));
  EXPECT_GE(st.num("done", -1), 1.0);
  for (const char* key : {"cache_hits", "cache_misses", "cache_entries"})
    EXPECT_EQ(st.find(key), nullptr) << key;
  const json::Value* gauges = st.find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* key : {"queue_depth", "jobs_running", "cache_entries",
                          "cache_hits", "cache_misses", "retries"}) {
    ASSERT_NE(gauges->find(key), nullptr) << key;
    EXPECT_GE(gauges->num(key, -1), 0.0) << key;
  }
  fe.drain();
}

TEST(ObsProtocolTest, TraceVerbExportsTheJobsFullSpanTree) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1));

  serve::JobSpec spec = tinySpec(35);
  spec.trace_id = obs::traceIdFor(serve::contentHash(spec), 42);
  const std::string hex = obs::traceIdHex(spec.trace_id);

  json::Value submit = json::Value::object();
  submit.set("cmd", "SUBMIT");
  submit.set("spec", serve::specToJson(spec));
  const json::Value sr = json::parse(call(fe, json::dump(submit)));
  ASSERT_TRUE(sr.boolean("ok", false)) << json::dump(sr);
  EXPECT_EQ(sr.str("trace_id", ""), hex);  // echoed back
  const std::uint64_t id = static_cast<std::uint64_t>(sr.num("id", 0));
  ASSERT_TRUE(json::parse(call(fe, R"({"cmd":"RESULT","id":)" +
                                   std::to_string(id) +
                                   R"(,"wait":true})"))
                  .boolean("ok", false));
  // No drain: the scheduler guarantees every span of the job is in the
  // ring before the terminal notify, so TRACE right after a blocking
  // RESULT must already see the full tree.
  const json::Value tr = json::parse(
      call(fe, R"({"cmd":"TRACE","id":)" + std::to_string(id) + "}"));
  ASSERT_TRUE(tr.boolean("ok", false)) << json::dump(tr);
  EXPECT_EQ(tr.str("trace_id", ""), hex);
  const json::Value* trace = tr.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->str("displayTimeUnit", ""), "ms");
  const json::Value* events = trace->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);
  bool saw_queue = false, saw_job = false, saw_flow = false, saw_local = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = events->at(i);
    // Every span in the filtered export carries the submitted id.
    EXPECT_EQ(e.find("args")->str("trace_id", ""), hex) << json::dump(e);
    const std::string name = e.str("name", "");
    if (name == "serve.queue") saw_queue = true;
    if (name == "serve.job") saw_job = true;
    if (name == "flow.run") saw_flow = true;
    if (name == "local.run") saw_local = true;
  }
  // The full queue → job → flow → optimizer tree, in one export.
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_job);
  EXPECT_TRUE(saw_flow);
  EXPECT_TRUE(saw_local);

  // Unknown id and unknown request keys reject.
  EXPECT_FALSE(json::parse(call(fe, R"({"cmd":"TRACE","id":424242})"))
                   .boolean("ok", true));
  EXPECT_FALSE(json::parse(call(fe, R"({"cmd":"TRACE","id":)" +
                                    std::to_string(id) + R"(,"bogus":1})"))
                   .boolean("ok", true));
}

TEST(ObsProtocolTest, ResultCarriesTheFlightRecordOnlyWhenRequested) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1));

  serve::JobSpec spec = tinySpec(37);
  spec.record = true;
  json::Value submit = json::Value::object();
  submit.set("cmd", "SUBMIT");
  submit.set("spec", serve::specToJson(spec));
  const json::Value sr = json::parse(call(fe, json::dump(submit)));
  ASSERT_TRUE(sr.boolean("ok", false));
  EXPECT_EQ(sr.find("trace_id"), nullptr);  // no client id: not echoed
  const std::uint64_t id = static_cast<std::uint64_t>(sr.num("id", 0));
  const json::Value rr = json::parse(call(
      fe, R"({"cmd":"RESULT","id":)" + std::to_string(id) +
              R"(,"wait":true})"));
  ASSERT_TRUE(rr.boolean("ok", false));
  const json::Value* record = rr.find("result")->find("record");
  ASSERT_NE(record, nullptr);
  EXPECT_NE(record->find("local"), nullptr);

  // The same spec without record (a cache hit — record stays out of the
  // key): the reply omits the member.
  json::Value submit2 = json::Value::object();
  submit2.set("cmd", "SUBMIT");
  submit2.set("spec", serve::specToJson(tinySpec(37)));
  const json::Value sr2 = json::parse(call(fe, json::dump(submit2)));
  ASSERT_TRUE(sr2.boolean("ok", false));
  const std::uint64_t id2 = static_cast<std::uint64_t>(sr2.num("id", 0));
  const json::Value rr2 = json::parse(call(
      fe, R"({"cmd":"RESULT","id":)" + std::to_string(id2) +
              R"(,"wait":true})"));
  ASSERT_TRUE(rr2.boolean("ok", false));
  EXPECT_TRUE(json::parse(call(fe, R"({"cmd":"STATUS","id":)" +
                                   std::to_string(id2) + "}"))
                  .boolean("cached", false));
  EXPECT_EQ(rr2.find("result")->find("record"), nullptr);
  fe.drain();
}

TEST(ObsProtocolTest, RecordedResultRepliesMatchPinnedHashes) {
  // RESULT replies with "record":true, one per record shape: a global
  // run, a local run, a global-local run, a warm DELTA, and a global run
  // that stops before its LP sweep (no global section). The hashes pin
  // the reply bytes — record document included — across changes to how
  // the record is produced.
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1));
  const auto check = [](const std::string& line, std::uint64_t want,
                        const char* what) {
    const std::string scrubbed = scrubTimings(line);
    SCOPED_TRACE(scrubbed);
    pinned::expectPinned(what, pinned::Hex(support::fnv1a64(scrubbed)),
                         pinned::Hex(want));
    return json::parse(line);
  };

  const serve::JobSpec global = tinySpec(5, core::FlowMode::kGlobal);
  const json::Value g =
      check(recordedResultLine(fe, global), 0xcb7c7fa1c90049efull, "global");
  const json::Value* grec = g.find("result")->find("record");
  ASSERT_NE(grec, nullptr);
  EXPECT_NE(grec->find("global"), nullptr);
  EXPECT_EQ(grec->find("local"), nullptr);

  const json::Value l =
      check(recordedResultLine(fe, tinySpec(5, core::FlowMode::kLocal)),
            0xa756087867ce5beaull, "local");
  ASSERT_NE(l.find("result")->find("record"), nullptr);
  EXPECT_NE(l.find("result")->find("record")->find("local"), nullptr);

  serve::JobSpec both = tinySpec(72, core::FlowMode::kGlobalLocal);
  both.options.global.u_sweep = {0.05, 0.2};
  check(recordedResultLine(fe, both), 0xd4d68d4c6fc786ccull, "global-local");

  // DELTA on the global job (id 1): same topology, so the run is warm.
  ASSERT_TRUE(json::parse(call(fe, R"({"cmd":"DELTA","base":1,)"
                                   R"("edits":{"u_sweep":[0.1,0.3]},)"
                                   R"("block":true})"))
                  .boolean("ok", false));
  const json::Value d =
      check(call(fe, R"({"cmd":"RESULT","id":4,"wait":true})"),
            0xd6be980a05abe5a9ull, "delta");
  const json::Value* drec = d.find("result")->find("record");
  ASSERT_NE(drec, nullptr);
  EXPECT_TRUE(drec->boolean("warm_start", false));

  // No pair reaches the LP: the global stage returns before its sweep.
  serve::JobSpec early = tinySpec(73, core::FlowMode::kGlobal);
  early.options.global.max_pairs_lp = 0;
  const json::Value e =
      check(recordedResultLine(fe, early), 0x5d99639975bd85e9ull,
            "global-early-return");
  const json::Value* erec = e.find("result")->find("record");
  ASSERT_NE(erec, nullptr);
  EXPECT_EQ(erec->find("global"), nullptr);
  fe.drain();
}

TEST(ObsProtocolTest, RecordedCacheHitOfAnUnrecordedRunCarriesTheRecord) {
  // The record is a view of the result, so a recorded request served from
  // an unrecorded run's cache entry still gets it — byte-equal to the
  // record of a fresh recorded run of the same spec.
  const serve::JobSpec spec = tinySpec(39, core::FlowMode::kGlobalLocal);
  std::string fresh;
  {
    ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1));
    const json::Value r = json::parse(recordedResultLine(fe, spec));
    const json::Value* rec = r.find("result")->find("record");
    ASSERT_NE(rec, nullptr);
    fresh = json::dump(*rec);
    fe.drain();
  }

  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1));
  const json::Value plain =
      json::parse(recordedResultLine(fe, spec, /*record=*/false));
  EXPECT_EQ(plain.find("result")->find("record"), nullptr);
  const json::Value hit = json::parse(recordedResultLine(fe, spec));
  EXPECT_TRUE(hit.boolean("cached", false));
  const json::Value* rec = hit.find("result")->find("record");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(json::dump(*rec), fresh);
  fe.drain();
}

TEST(ObsProtocolTest, DeltaVerbAcceptsAndEchoesATraceId) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(1, 1));

  json::Value submit = json::Value::object();
  submit.set("cmd", "SUBMIT");
  submit.set("spec", serve::specToJson(tinySpec(38)));
  const json::Value sr = json::parse(call(fe, json::dump(submit)));
  ASSERT_TRUE(sr.boolean("ok", false));
  const std::uint64_t base_id = static_cast<std::uint64_t>(sr.num("id", 0));
  ASSERT_TRUE(json::parse(call(fe, R"({"cmd":"RESULT","id":)" +
                                   std::to_string(base_id) +
                                   R"(,"wait":true})"))
                  .boolean("ok", false));

  const std::string hex = obs::traceIdHex(obs::traceIdFor(99, 99));
  const json::Value dr = json::parse(call(
      fe, R"({"cmd":"DELTA","base":)" + std::to_string(base_id) +
              R"(,"edits":{"u_sweep":[0.1]},"trace_id":")" + hex +
              R"(","block":true})"));
  ASSERT_TRUE(dr.boolean("ok", false)) << json::dump(dr);
  EXPECT_EQ(dr.str("trace_id", ""), hex);  // echoed
  const std::uint64_t delta_id = static_cast<std::uint64_t>(dr.num("id", 0));
  EXPECT_EQ(fe.traceId(delta_id), obs::traceIdFor(99, 99));
  EXPECT_EQ(fe.jobSpec(delta_id).trace_id, obs::traceIdFor(99, 99));

  // A DELTA without trace_id inherits nothing to echo; the base job's
  // derived fallback id exists (scheduler-side) but stays off the wire.
  const json::Value dr2 = json::parse(call(
      fe, R"({"cmd":"DELTA","base":)" + std::to_string(base_id) +
              R"(,"edits":{"u_sweep":[0.2]},"block":true})"));
  ASSERT_TRUE(dr2.boolean("ok", false));
  EXPECT_EQ(dr2.find("trace_id"), nullptr);
  EXPECT_NE(fe.traceId(base_id), 0u);  // every job has an effective id
  EXPECT_THROW(fe.traceId(424242), std::out_of_range);

  // Malformed trace_id on the wire rejects the request.
  EXPECT_FALSE(json::parse(call(fe, R"({"cmd":"DELTA","base":)" +
                                    std::to_string(base_id) +
                                    R"(,"edits":{"u_sweep":[0.3]},)"
                                    R"("trace_id":"nope"})"))
                   .boolean("ok", true));
  fe.drain();
}

// ---------------------------------------------------------------------------
// TCP round trip

TEST(ClusterTcp, BatchAndStreamingOverLiveSocket) {
  ClusterFrontend fe(sharedTech(), sharedLut(), smallCluster(2),
                     [](const serve::JobSpec&) { return core::FlowResult{}; });
  serve::TcpServer server(clusterLineHandler(fe));
  serve::TcpClient client("127.0.0.1", server.port());

  json::Value jobs = json::Value::array();
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    json::Value entry = json::Value::object();
    entry.set("spec", serve::specToJson(tinySpec(seed)));
    jobs.push(std::move(entry));
  }
  json::Value req = json::Value::object();
  req.set("cmd", "BATCH_SUBMIT");
  req.set("jobs", std::move(jobs));
  req.set("block", true);
  const json::Value reply = client.call(req);
  ASSERT_TRUE(reply.boolean("ok", false));
  std::string ids;
  for (const json::Value& entry : reply.find("jobs")->items()) {
    if (!ids.empty()) ids += ',';
    ids += std::to_string(static_cast<std::uint64_t>(entry.num("id", 0)));
  }

  client.send(R"({"cmd":"RESULTS","ids":[)" + ids + R"(],"timeout_ms":30000})");
  std::size_t events = 0;
  for (;;) {
    const json::Value event = json::parse(client.readLine());
    if (event.str("event", "") == "end") {
      EXPECT_EQ(event.num("remaining", -1), 0);
      break;
    }
    EXPECT_EQ(event.str("event", ""), "result");
    ++events;
  }
  EXPECT_EQ(events, 3u);
  server.stop();
  fe.drain();
}

}  // namespace
}  // namespace skewopt::cluster
