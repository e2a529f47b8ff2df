// Workload `delta`: the serve warm path through an in-process
// ClusterFrontend (1 shard x 1 worker), one closed-loop caller. Per CLS
// case a pass runs a cold global-mode base job, which writes warm state,
// then DELTA jobs for the u-tighten (pure replay), derate-relax (re-bounded
// cached models, cold solve) and moved-sink (incremental re-time +
// re-solve) edits. Each pass gets a fresh frontend, so no result-cache hit
// or warm state carries over between passes and every pass does the same
// work. No local optimization runs here.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>

#include "bench.h"
#include "cluster/frontend.h"
#include "cluster/protocol.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/thread_pool.h"

namespace skewbench {

namespace {

constexpr std::array<const char*, 3> kCases = {"CLS1v1", "CLS1v2", "CLS2v1"};

serve::JobSpec baseSpec(const char* testcase) {
  serve::JobSpec spec;
  spec.source.kind = serve::DesignSource::Kind::kTestgen;
  spec.source.testcase = testcase;
  spec.source.sinks = std::string(testcase) == "CLS2v1" ? 160 : 120;
  spec.source.max_pairs = 120;
  spec.source.seed = 1;
  spec.mode = core::FlowMode::kGlobal;
  spec.options.global.u_sweep = {0.05, 0.2, 0.4};
  spec.options.local.max_iterations = 6;
  spec.options.local.max_chunks_per_round = 20;
  return spec;
}

/// The edits in pass order: u-tighten first so it replays the base job's
/// warm state; derate-relax then re-bounds the cached models; moved-sink
/// re-times the edited subtree.
std::vector<serve::DeltaEdits> editsFor(const serve::JobSpec& base,
                                         const network::Design& d0) {
  serve::DeltaEdits tighten;
  tighten.has_u_sweep = true;
  tighten.u_sweep = base.options.global.u_sweep;
  tighten.u_sweep.pop_back();
  serve::DeltaEdits derate;
  derate.has_derates = true;
  derate.corner_dmax_derate = {1.05};
  const int sink = d0.tree.sinks().front();
  const geom::Point at = d0.tree.node(sink).pos;
  serve::DeltaEdits moved;
  moved.moved_sinks.push_back(serve::MovedSink{sink, at.x + 2.0, at.y + 1.0});
  return {tighten, derate, moved};
}

cluster::ClusterOptions clusterOptions() {
  cluster::ClusterOptions o;
  o.shards = 1;
  o.shard.workers = 1;
  o.shard.queue_capacity = 64;
  o.shard.cache_capacity = 64;
  o.shard.warm_capacity = 8;
  return o;
}

/// The DELTA request's "edits" object.
serve::json::Value editsJson(const serve::DeltaEdits& e) {
  namespace json = serve::json;
  json::Value v = json::Value::object();
  auto numbers = [](const std::vector<double>& xs) {
    json::Value arr = json::Value::array();
    for (const double x : xs) arr.push(x);
    return arr;
  };
  if (e.has_u_sweep) v.set("u_sweep", numbers(e.u_sweep));
  if (e.has_derates) v.set("corner_dmax_derate", numbers(e.corner_dmax_derate));
  if (!e.moved_sinks.empty()) {
    json::Value moved = json::Value::array();
    for (const serve::MovedSink& m : e.moved_sinks) {
      json::Value mv = json::Value::object();
      mv.set("sink", m.sink);
      mv.set("x", m.x);
      mv.set("y", m.y);
      moved.push(std::move(mv));
    }
    v.set("moved_sinks", std::move(moved));
  }
  return v;
}

struct CaseSpecs {
  serve::JobSpec base;
  std::vector<serve::DeltaEdits> edits;
  std::string base_digest;
  std::vector<std::string> edit_digests;  ///< cold runJobSpec, per edit
};

/// The serve layers of one pass, measured by replaying its jobs over the
/// wire protocol: loopback TCP to TcpServer(clusterLineHandler(fe)).
struct WireLedger {
  double handle_ms = 0.0;  ///< inside clusterLineHandler
  double rtt_ms = 0.0;     ///< client round trips
  double decode_ms = 0.0;  ///< json::parse + specFromJson / deltaEditsFromJson
  double encode_ms = 0.0;  ///< resultToJson + json::dump
  std::size_t lines = 0, jobs = 0, mismatches = 0;
};

void replayOverWire(const tech::TechModel& tech, const eco::StageDelayLut& lut,
                    const std::vector<CaseSpecs>& cases,
                    const std::vector<std::size_t>& order, WireLedger* W) {
  namespace json = serve::json;
  cluster::ClusterFrontend fe(tech, lut, clusterOptions());
  std::atomic<std::uint64_t> handle_ns{0};
  serve::TcpServer server(
      [inner = cluster::clusterLineHandler(fe), &handle_ns](
          const std::string& line, const serve::TcpServer::LineSink& emit) {
        const double t0 = nowS();
        const bool keep = inner(line, emit);
        handle_ns.fetch_add(static_cast<std::uint64_t>((nowS() - t0) * 1e9));
        return keep;
      });
  serve::TcpClient conn("127.0.0.1", server.port());
  auto call = [&](const std::string& line) {
    const double t0 = nowS();
    const std::string reply = conn.callRaw(line);
    W->rtt_ms += (nowS() - t0) * 1e3;
    ++W->lines;
    return json::parse(reply);
  };
  // One job: its request line, then RESULT(wait); returns the job id.
  auto run = [&](const std::string& line, const std::string& want) {
    const double d0 = nowS();
    const json::Value req = json::parse(line);
    if (const json::Value* spec = req.find("spec"))
      (void)serve::specFromJson(*spec);
    else
      (void)serve::deltaEditsFromJson(*req.find("edits"));
    W->decode_ms += (nowS() - d0) * 1e3;
    const auto id = static_cast<std::uint64_t>(call(line).num("id", 0));
    const json::Value r = call("{\"cmd\":\"RESULT\",\"id\":" +
                               std::to_string(id) + ",\"wait\":true}");
    const json::Value* result = r.find("result");
    if (result == nullptr || servedDigest(*result) != want) ++W->mismatches;
    const double e0 = nowS();
    (void)json::dump(serve::resultToJson(fe.result(id)));
    W->encode_ms += (nowS() - e0) * 1e3;
    ++W->jobs;
    return id;
  };
  for (const std::size_t c : order) {
    const CaseSpecs& cs = cases[c];
    json::Value submit = json::Value::object();
    submit.set("cmd", "SUBMIT");
    submit.set("spec", serve::specToJson(cs.base));
    submit.set("block", true);
    const std::uint64_t base = run(json::dump(submit), cs.base_digest);
    for (std::size_t e = 0; e < cs.edits.size(); ++e) {
      json::Value delta = json::Value::object();
      delta.set("cmd", "DELTA");
      delta.set("base", base);
      delta.set("edits", editsJson(cs.edits[e]));
      delta.set("block", true);
      run(json::dump(delta), cs.edit_digests[e]);
    }
  }
  server.stop();
  W->handle_ms = static_cast<double>(handle_ns.load()) / 1e6;
}

}  // namespace

Report runDelta(const Args& args, bool* correct) {
  std::optional<tech::TechModel> tech;
  std::optional<eco::StageDelayLut> lut;
  const double setup_s = medianSetupS([&] {
    tech.emplace(tech::TechModel::make28nm());
    lut.emplace(*tech);
    cluster::ClusterFrontend fe(*tech, *lut, clusterOptions());
  });
  std::printf("layout: delta 1 shard x 1 worker, 1 in-process caller, "
              "ThreadPool %zu threads\n",
              support::ThreadPool::shared().size());

  // Reference results: every spec of the pass run cold, in-process.
  std::vector<CaseSpecs> cases;
  for (const char* name : kCases) {
    CaseSpecs cs;
    cs.base = baseSpec(name);
    const network::Design d0 = serve::buildDesign(*tech, cs.base.source);
    cs.edits = editsFor(cs.base, d0);
    cs.base_digest = servedDigest(serve::runJobSpec(*tech, *lut, cs.base));
    for (const serve::DeltaEdits& e : cs.edits)
      cs.edit_digests.push_back(servedDigest(
          serve::runJobSpec(*tech, *lut, serve::applyDeltaEdits(cs.base, e))));
    cases.push_back(std::move(cs));
  }
  if (args.inject_fault) cases[0].edit_digests[0] += "#";

  std::vector<std::size_t> order = {0, 1, 2};
  std::mt19937_64 rng(args.seed);
  Report rep;
  std::vector<double> pass_s, latencies_ms;
  std::map<int, std::vector<double>> by_job;
  double variation_sum = 0.0;
  std::size_t variation_n = 0;
  Ledger ledger;
  double untraced_ms = 0.0, queue_ms = 0.0, run_ms = 0.0;
  std::size_t identical = 0, staged_jobs = 0;
  std::size_t cache_hits = 0, cache_lookups = 0, warm_hits = 0, warm_lookups = 0;
  WireLedger wire;

  const double start = nowS();
  do {
    std::shuffle(order.begin(), order.end(), rng);
    std::map<std::size_t, std::vector<core::FlowResult>> served;
    double wall = 0.0;
    {
      cluster::ClusterFrontend fe(*tech, *lut, clusterOptions());
      const double p0 = nowS();
      for (const std::size_t c : order) {
        const CaseSpecs& cs = cases[c];
        auto finish = [&](const cluster::ClusterFrontend::Submitted& sub,
                          double t0, const std::string& want, int job) {
          ++rep.attempted;
          if (!sub.job) {
            ++rep.failed;
            return;
          }
          const serve::JobStatus s = fe.waitTerminal(sub.id);
          const double ms = (nowS() - t0) * 1e3;
          latencies_ms.push_back(ms);
          by_job[static_cast<int>(c) * 4 + job].push_back(ms);
          queue_ms += s.queue_ms;
          run_ms += s.run_ms;
          if (s.state != serve::JobState::kDone) {
            ++rep.failed;
            return;
          }
          const core::FlowResult r = fe.result(sub.id);
          variation_sum += r.after.sum_variation_ps / r.before.sum_variation_ps;
          ++variation_n;
          if (servedDigest(r) != want) {
            std::printf("delta: %s job %llu differs from its cold run\n",
                        kCases[c], static_cast<unsigned long long>(sub.id));
            ++rep.failed;
          }
          served[c].push_back(r);
        };
        double t0 = nowS();
        const auto base = fe.submit(cs.base, true);
        finish(base, t0, cs.base_digest, 0);
        if (!base.job) continue;
        for (std::size_t e = 0; e < cs.edits.size(); ++e) {
          t0 = nowS();
          finish(fe.submitDelta(base.id, cs.edits[e], true), t0,
                 cs.edit_digests[e], static_cast<int>(e) + 1);
        }
      }
      wall = nowS() - p0;
      const cluster::ClusterStats st = fe.stats();
      cache_hits += st.total.cache.hits;
      cache_lookups += st.total.cache.hits + st.total.cache.misses;
      warm_hits += st.total.warm.hits;
      warm_lookups += st.total.warm.hits + st.total.warm.misses;
    }
    pass_s.push_back(wall);
    untraced_ms += wall * 1e3;

    if (args.trace && wire.lines == 0) replayOverWire(*tech, *lut, cases, order, &wire);
    if (args.trace) {
      // The same pass staged in-process: each case's warm chain mirrors the
      // store (every job replaces the entry its successor reads).
      for (const std::size_t c : order) {
        const CaseSpecs& cs = cases[c];
        std::vector<serve::JobSpec> specs = {cs.base};
        for (const serve::DeltaEdits& e : cs.edits)
          specs.push_back(serve::applyDeltaEdits(cs.base, e));
        std::shared_ptr<core::FlowWarmState> warm;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const double t0 = nowS();
          network::Design d = serve::buildDesign(*tech, specs[i].source);
          const double ms = (nowS() - t0) * 1e3;
          ledger.testgen_ms += ms;
          ledger.staged_ms += ms;
          auto out = std::make_shared<core::FlowWarmState>();
          StagedJob sj;
          sj.tech = &*tech;
          sj.lut = &*lut;
          sj.options = specs[i].options;
          sj.mode = specs[i].mode;
          sj.warm_in = warm.get();
          sj.warm_out = out.get();
          const core::FlowResult s = runStaged(d, sj, &ledger);
          warm = std::move(out);
          ++staged_jobs;
          if (i < served[c].size() &&
              exactDigest(s) == exactDigest(served[c][i]))
            ++identical;
        }
      }
    }
  } while (nowS() - start < args.seconds);

  const double passes = static_cast<double>(pass_s.size());
  if (!args.trace) {
    rep.add("setup_s", "s", setup_s);
    rep.add("pass_s", "s", median(pass_s));
    rep.add("job_p50_ms", "ms", medianOfJobMedians(by_job));
    // p87.5 sits among the three slowest jobs of a pass (the CLS2v1 base,
    // derate-relax and moved-sink jobs, of similar latency), not on the
    // edge between two job kinds, so it does not jump with their mix.
    rep.add("job_tail_ms", "ms", percentile(latencies_ms, 0.875));
    rep.add("ok_rate", "ratio",
            1.0 - static_cast<double>(rep.failed) /
                      static_cast<double>(rep.attempted));
    rep.add("variation_norm", "ratio",
            variation_n ? variation_sum / static_cast<double>(variation_n) : 1.0);
    rep.add("peak_rss_mb", "MB", peakRssMb());
    return rep;
  }
  addLayerMetrics(&rep, ledger, 1.0 / passes, ledger.staged_ms / passes);
  rep.add("testgen.make_ms", "ms", ledger.testgen_ms / passes);
  const double jobs = static_cast<double>(latencies_ms.size());
  rep.add("serve.queue_wait_ms", "ms", jobs ? queue_ms / jobs : 0.0);
  rep.add("serve.run_ms", "ms", jobs ? run_ms / jobs : 0.0);
  rep.add("serve.cache.hit_ratio", "ratio",
          cache_lookups ? static_cast<double>(cache_hits) /
                              static_cast<double>(cache_lookups)
                        : 0.0);
  rep.add("serve.warm.hit_ratio", "ratio",
          warm_lookups ? static_cast<double>(warm_hits) /
                             static_cast<double>(warm_lookups)
                       : 0.0);
  const double wire_jobs = static_cast<double>(std::max<std::size_t>(1, wire.jobs));
  const double wire_lines = static_cast<double>(std::max<std::size_t>(1, wire.lines));
  rep.add("serve.decode_ms", "ms", wire.decode_ms / wire_jobs);
  rep.add("serve.encode_ms", "ms", wire.encode_ms / wire_jobs);
  rep.add("cluster.handle_ms", "ms", wire.handle_ms / wire_lines);
  rep.add("serve.server.transport_ms", "ms",
          (wire.rtt_ms - wire.handle_ms) / wire_lines);
  rep.add("trace.overhead_pct", "%",
          ((ledger.staged_ms + ledger.replay_ms) / untraced_ms - 1.0) * 100.0);
  rep.add("trace.staged_identical", "ratio",
          static_cast<double>(identical) / static_cast<double>(staged_jobs));
  if (wire.mismatches > 0) {
    std::printf("delta: %zu wire results differ from their cold runs\n",
                wire.mismatches);
    rep.failed += wire.mismatches;
  }
  if (identical != staged_jobs || !ledger.lp_replay_faithful) {
    std::printf("delta: staged run differs from the served run on %zu of %zu "
                "jobs (lp replay faithful: %d)\n",
                staged_jobs - identical, staged_jobs,
                ledger.lp_replay_faithful ? 1 : 0);
    *correct = false;
  }
  return rep;
}

}  // namespace skewbench
