// Load generator for the sharded serving cluster (src/cluster).
//
// Drives a mixed workload — cache-hot repeats, cache-cold one-offs, DELTA
// re-optimizations, cancellations, and deadline-missed jobs — against an
// in-process ClusterFrontend or a self-hosted TCP cluster endpoint, in
// closed-loop (each client waits for its job before submitting the next)
// or paced mode (--rate bounds the offered load).
//
// Reports client-observed p50/p95/p99 latency, throughput, and per-shard
// cache/warm hit rates, and emits BENCH_loadgen.json for dashboards and
// the CI loadgen-smoke gate. With --verify the same deterministic job
// plan is replayed against a single-shard frontend and the result digests
// are compared: sharding must not change a single bit of any result.
// --digests FILE writes each completed spec's result digest, so two builds
// can be compared bit for bit.
//
//   skewopt_loadgen --jobs 100000 --shards 4 --clients 8 --verify
//   skewopt_loadgen --jobs 2000 --shards 3 --transport tcp
//   skewopt_loadgen --jobs 50000 --rate 2000        # paced at 2k jobs/s
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/frontend.h"
#include "obs/log.h"
#include "cluster/protocol.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/fnv.h"

namespace {

using namespace skewopt;
namespace json = serve::json;

struct Options {
  std::size_t jobs = 100000;
  std::size_t shards = 4;
  std::size_t workers = 2;     // per shard
  std::size_t clients = 8;
  std::size_t hot_pool = 32;   // distinct cache-hot specs
  std::size_t sinks = 30;
  std::uint64_t seed = 1;
  double rate = 0.0;           // jobs/s; 0 = closed loop
  bool tcp = false;
  bool verify = false;
  std::string log_path;        // empty = logging off
  std::string digests_path;    // empty = no digest file
};

void usage() {
  std::fprintf(
      stderr,
      "usage: skewopt_loadgen [--jobs N] [--shards N] [--workers N]\n"
      "                       [--clients N] [--hot-pool N] [--sinks N]\n"
      "                       [--seed S] [--rate JOBS_PER_S]\n"
      "                       [--transport inproc|tcp] [--verify]\n"
      "                       [--log FILE.jsonl] [--digests FILE]\n");
}

bool parseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](std::size_t* out) {
      if (++i >= argc) return false;
      *out = static_cast<std::size_t>(std::strtoull(argv[i], nullptr, 10));
      return true;
    };
    if (a == "--jobs") {
      if (!next(&o->jobs)) return false;
    } else if (a == "--shards") {
      if (!next(&o->shards)) return false;
    } else if (a == "--workers") {
      if (!next(&o->workers)) return false;
    } else if (a == "--clients") {
      if (!next(&o->clients)) return false;
    } else if (a == "--hot-pool") {
      if (!next(&o->hot_pool)) return false;
    } else if (a == "--sinks") {
      if (!next(&o->sinks)) return false;
    } else if (a == "--seed") {
      std::size_t s;
      if (!next(&s)) return false;
      o->seed = s;
    } else if (a == "--rate") {
      if (++i >= argc) return false;
      o->rate = std::strtod(argv[i], nullptr);
    } else if (a == "--transport") {
      if (++i >= argc) return false;
      const std::string t = argv[i];
      if (t == "tcp")
        o->tcp = true;
      else if (t != "inproc")
        return false;
    } else if (a == "--verify") {
      o->verify = true;
    } else if (a == "--log") {
      if (++i >= argc) return false;
      o->log_path = argv[i];
    } else if (a == "--digests") {
      if (++i >= argc) return false;
      o->digests_path = argv[i];
    } else {
      usage();
      return false;
    }
  }
  return o->jobs > 0 && o->clients > 0 && o->shards > 0 && o->hot_pool > 0;
}

// ---------------------------------------------------------------------------
// Deterministic job plan

struct PlanEntry {
  enum Kind { kHot, kCold, kDelta, kCancel, kDeadline } kind = kHot;
  std::uint64_t seed = 0;       // design seed (hot pool or unique cold)
  std::size_t base_index = 0;   // kDelta: plan index of the base job
  int variant = 0;              // kDelta: which edit to apply
};

/// The workload mix (~85% hot / 5% cold / 5% delta / 3% cancel /
/// 2% deadline), generated deterministically from the seed so --verify can
/// replay the identical sequence against a single shard.
std::vector<PlanEntry> makePlan(const Options& o) {
  std::vector<PlanEntry> plan(o.jobs);
  std::mt19937_64 rng(o.seed);
  std::vector<std::size_t> hot_indices;
  for (std::size_t i = 0; i < o.jobs; ++i) {
    PlanEntry& e = plan[i];
    const std::uint64_t roll = rng() % 100;
    if (roll < 85 || hot_indices.empty()) {
      e.kind = PlanEntry::kHot;
      e.seed = 1000 + rng() % o.hot_pool;
      hot_indices.push_back(i);
    } else if (roll < 90) {
      e.kind = PlanEntry::kCold;
      e.seed = 1000000 + i;  // unique: always a cache miss
    } else if (roll < 95) {
      e.kind = PlanEntry::kDelta;
      e.base_index = hot_indices[rng() % hot_indices.size()];
      e.seed = plan[e.base_index].seed;
      e.variant = static_cast<int>(rng() % 3);
    } else if (roll < 98) {
      e.kind = PlanEntry::kCancel;
      e.seed = 1000 + rng() % o.hot_pool;
    } else {
      e.kind = PlanEntry::kDeadline;
      e.seed = 1000 + rng() % o.hot_pool;
    }
  }
  return plan;
}

serve::JobSpec baseSpec(const Options& o, std::uint64_t seed) {
  serve::JobSpec spec;
  spec.source.kind = serve::DesignSource::Kind::kTestgen;
  spec.source.testcase = "CLS1v1";
  spec.source.sinks = o.sinks;
  spec.source.max_pairs = o.sinks;
  spec.source.seed = seed;
  spec.mode = core::FlowMode::kLocal;
  spec.options.local.max_iterations = 1;
  return spec;
}

serve::DeltaEdits deltaEdits(int variant) {
  serve::DeltaEdits edits;
  edits.has_u_sweep = true;
  edits.u_sweep = {0.05, 0.1 + 0.05 * variant};
  return edits;
}

/// The spec a plan entry submits (DELTA entries: base spec + edits — the
/// same merge Scheduler::submitDelta performs).
serve::JobSpec specFor(const Options& o, const std::vector<PlanEntry>& plan,
                       std::size_t i) {
  const PlanEntry& e = plan[i];
  serve::JobSpec spec = baseSpec(o, e.seed);
  if (e.kind == PlanEntry::kDelta)
    spec = serve::applyDeltaEdits(baseSpec(o, plan[e.base_index].seed),
                                  deltaEdits(e.variant));
  if (e.kind == PlanEntry::kDeadline) spec.deadline_ms = 0.001;
  return spec;
}

// ---------------------------------------------------------------------------
// Result digests (the bit-identity currency)

/// Canonical digest of a result's optimization outcome: the resultToJson
/// dump minus wall-clock timings (stage_ms) and solver-effort fields
/// (lp_solves, lp_warm_hits) that legitimately differ between a cold run
/// and a warm-started replay of the same spec.
std::string digestResult(const json::Value& result) {
  json::Value out = json::Value::object();
  for (const auto& [key, value] : result.members()) {
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

/// A spec hash in the 16-digit hex form SUBMIT replies carry as "hash",
/// so in-process and TCP runs key their digests identically.
std::string hashHex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// hash-hex -> digest, collected as jobs complete. Two jobs with the same
/// spec hash must produce the same digest, within a run and across runs.
class DigestMap {
 public:
  /// Returns false on a digest conflict for an already-seen hash.
  bool record(const std::string& hash, const std::string& digest) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto [it, fresh] = map_.emplace(hash, digest);
    return fresh || it->second == digest;
  }
  std::map<std::string, std::string> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(map_);
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::string> map_;
};

/// The --digests file: one `<spec-hash> <digest>` line per completed spec
/// of the run, sorted by hash, where <digest> is the FNV-1a-64 of the
/// spec's canonical result; then, with --verify, the replay's lines, each
/// prefixed `verify `. Two builds that agree bit for bit write the same
/// file.
void writeDigests(std::FILE* f, const char* prefix,
                  const std::map<std::string, std::string>& digests) {
  for (const auto& [hash, digest] : digests)
    std::fprintf(f, "%s%s %s\n", prefix, hash.c_str(),
                 hashHex(support::fnv1a64(digest)).c_str());
}

// ---------------------------------------------------------------------------
// Workload runner

struct RunStats {
  std::vector<double> latencies_ms;  // sorted after the run
  std::size_t done = 0, failed = 0, cancelled = 0, rejected = 0;
  std::size_t digest_conflicts = 0;
  double wall_s = 0.0;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t i = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[i];
}

using GidTable = std::vector<std::atomic<std::uint64_t>>;

/// One client's view of the cluster: submit a plan entry, wait for the
/// outcome, digest DONE results. Implemented over the native frontend and
/// over the TCP wire so both transports carry real load.
class ClientBase {
 public:
  virtual ~ClientBase() = default;
  struct Outcome {
    std::string state;  // DONE / FAILED / CANCELLED / REJECTED
    double latency_ms = 0.0;
    bool digest_ok = true;
  };
  virtual Outcome runEntry(std::size_t index) = 0;
};

class InprocClient : public ClientBase {
 public:
  InprocClient(cluster::ClusterFrontend& fe, const Options& o,
               const std::vector<PlanEntry>& plan, GidTable& gids,
               DigestMap& digests)
      : fe_(fe), o_(o), plan_(plan), gids_(gids), digests_(digests) {}

  Outcome runEntry(std::size_t index) override {
    const PlanEntry& e = plan_[index];
    const auto t0 = std::chrono::steady_clock::now();
    cluster::ClusterFrontend::Submitted sub;
    if (e.kind == PlanEntry::kDelta) {
      // Base-affine DELTA when the base is still in its shard's registry;
      // a pruned/unknown base degrades to a locally merged plain submit —
      // identical spec, identical result, only the shard placement moves.
      const std::uint64_t base_gid =
          gids_[e.base_index].load(std::memory_order_acquire);
      if (base_gid != 0) {
        try {
          sub = fe_.submitDelta(base_gid, deltaEdits(e.variant), true);
        } catch (const std::out_of_range&) {
        }
      }
    }
    if (!sub.job) sub = fe_.submit(specFor(o_, plan_, index), true);
    Outcome out;
    if (!sub.job) {
      out.state = "REJECTED";
      return out;
    }
    gids_[index].store(sub.id, std::memory_order_release);
    if (e.kind == PlanEntry::kCancel) fe_.cancel(sub.id);
    const serve::JobStatus s = fe_.waitTerminal(sub.id);
    out.latency_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    out.state = serve::jobStateName(s.state);
    if (s.state == serve::JobState::kDone)
      out.digest_ok = digests_.record(
          hashHex(sub.job->hash),
          digestResult(serve::resultToJson(fe_.result(sub.id))));
    return out;
  }

 private:
  cluster::ClusterFrontend& fe_;
  const Options& o_;
  const std::vector<PlanEntry>& plan_;
  GidTable& gids_;
  DigestMap& digests_;
};

class TcpLoadClient : public ClientBase {
 public:
  TcpLoadClient(int port, const Options& o, const std::vector<PlanEntry>& plan,
                GidTable& gids, DigestMap& digests)
      : conn_("127.0.0.1", port),
        o_(o),
        plan_(plan),
        gids_(gids),
        digests_(digests) {}

  Outcome runEntry(std::size_t index) override {
    const PlanEntry& e = plan_[index];
    const auto t0 = std::chrono::steady_clock::now();

    json::Value req = json::Value::object();
    req.set("cmd", "SUBMIT");
    req.set("spec", serve::specToJson(specFor(o_, plan_, index)));
    req.set("block", true);
    const json::Value submitted = conn_.call(req);
    Outcome out;
    if (!submitted.boolean("ok", false)) {
      out.state = "REJECTED";
      return out;
    }
    const std::uint64_t id =
        static_cast<std::uint64_t>(submitted.num("id", 0));
    const std::string hash = submitted.str("hash", "");
    gids_[index].store(id, std::memory_order_release);

    if (e.kind == PlanEntry::kCancel) {
      json::Value c = json::Value::object();
      c.set("cmd", "CANCEL");
      c.set("id", id);
      conn_.call(c);
    }

    json::Value r = json::Value::object();
    r.set("cmd", "RESULT");
    r.set("id", id);
    r.set("wait", true);
    const json::Value reply = conn_.call(r);
    out.latency_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    out.state = reply.str("state", "FAILED");
    if (reply.boolean("ok", false)) {
      if (const json::Value* result = reply.find("result"))
        out.digest_ok = digests_.record(hash, digestResult(*result));
    }
    return out;
  }

 private:
  serve::TcpClient conn_;
  const Options& o_;
  const std::vector<PlanEntry>& plan_;
  GidTable& gids_;
  DigestMap& digests_;
};

/// Runs the plan with `clients` threads claiming indices in order. Closed
/// loop: each thread completes a job before claiming another. With --rate,
/// each thread additionally sleeps clients/rate between claims, bounding
/// the offered load (latencies then include queueing under overload).
RunStats runPlan(
    const Options& o, const std::vector<PlanEntry>& plan,
    const std::function<std::unique_ptr<ClientBase>(GidTable&)>& make) {
  GidTable gids(plan.size());
  for (auto& g : gids) g.store(0);
  std::atomic<std::size_t> next{0};
  std::mutex agg_mu;
  RunStats agg;
  const double pace_s =
      o.rate > 0 ? static_cast<double>(o.clients) / o.rate : 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(o.clients);
  for (std::size_t c = 0; c < o.clients; ++c) {
    threads.emplace_back([&] {
      std::unique_ptr<ClientBase> client = make(gids);
      RunStats local;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= plan.size()) break;
        const ClientBase::Outcome out = client->runEntry(i);
        if (out.state == "REJECTED") {
          ++local.rejected;
        } else {
          local.latencies_ms.push_back(out.latency_ms);
          if (out.state == "DONE")
            ++local.done;
          else if (out.state == "CANCELLED")
            ++local.cancelled;
          else
            ++local.failed;
        }
        if (!out.digest_ok) ++local.digest_conflicts;
        if (pace_s > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(pace_s));
      }
      std::lock_guard<std::mutex> lk(agg_mu);
      agg.done += local.done;
      agg.failed += local.failed;
      agg.cancelled += local.cancelled;
      agg.rejected += local.rejected;
      agg.digest_conflicts += local.digest_conflicts;
      agg.latencies_ms.insert(agg.latencies_ms.end(),
                              local.latencies_ms.begin(),
                              local.latencies_ms.end());
    });
  }
  for (std::thread& t : threads) t.join();
  agg.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::sort(agg.latencies_ms.begin(), agg.latencies_ms.end());
  return agg;
}

cluster::ClusterOptions clusterOptions(const Options& o, std::size_t shards) {
  cluster::ClusterOptions copts;
  copts.shards = shards;
  copts.shard.workers = o.workers;
  copts.shard.queue_capacity = 256;
  copts.shard.cache_capacity = 512;
  copts.shard.warm_capacity = 128;
  // Sustained load needs the registry bounded (see SchedulerOptions);
  // large enough that DELTA bases usually survive until referenced.
  copts.shard.terminal_retention = 4096;
  return copts;
}

double rate(std::size_t hits, std::size_t misses) {
  const double total = static_cast<double>(hits + misses);
  return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parseArgs(argc, argv, &o)) {
    usage();
    return 2;
  }

  if (!o.log_path.empty()) {
    obs::Logger::Options log_opts;
    log_opts.level = obs::LogLevel::kInfo;
    log_opts.path = o.log_path;
    std::string err;
    if (!obs::Logger::global().configure(log_opts, &err)) {
      std::fprintf(stderr, "loadgen: cannot open log: %s\n", err.c_str());
      return 2;
    }
  }

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> digest_file(nullptr,
                                                              &std::fclose);
  if (!o.digests_path.empty()) {
    digest_file.reset(std::fopen(o.digests_path.c_str(), "w"));
    if (digest_file == nullptr) {
      std::fprintf(stderr, "loadgen: cannot open digest file: %s\n",
                   o.digests_path.c_str());
      return 2;
    }
  }

  const tech::TechModel tech = tech::TechModel::make28nm();
  const eco::StageDelayLut lut(tech);
  const std::vector<PlanEntry> plan = makePlan(o);

  std::printf("loadgen: %zu jobs, %zu shards x %zu workers, %zu clients, "
              "%s, %s loop\n",
              o.jobs, o.shards, o.workers, o.clients,
              o.tcp ? "tcp" : "inproc", o.rate > 0 ? "paced" : "closed");

  bench::JsonEmitter emitter("loadgen");
  DigestMap digests;
  RunStats stats;
  cluster::ClusterStats cluster_stats;
  {
    cluster::ClusterFrontend fe(tech, lut, clusterOptions(o, o.shards));
    std::unique_ptr<serve::TcpServer> server;
    if (o.tcp)
      server =
          std::make_unique<serve::TcpServer>(cluster::clusterLineHandler(fe));

    stats = runPlan(o, plan, [&](GidTable& gids)
                        -> std::unique_ptr<ClientBase> {
      if (o.tcp)
        return std::make_unique<TcpLoadClient>(server->port(), o, plan, gids,
                                               digests);
      return std::make_unique<InprocClient>(fe, o, plan, gids, digests);
    });
    cluster_stats = fe.stats();
    if (server) server->stop();
    fe.drain();
  }

  const double throughput =
      stats.wall_s > 0 ? static_cast<double>(plan.size()) / stats.wall_s : 0;
  const double p50 = percentile(stats.latencies_ms, 0.50);
  const double p95 = percentile(stats.latencies_ms, 0.95);
  const double p99 = percentile(stats.latencies_ms, 0.99);

  std::printf("outcomes: done=%zu failed=%zu cancelled=%zu rejected=%zu\n",
              stats.done, stats.failed, stats.cancelled, stats.rejected);
  std::printf("latency:  p50=%.2fms p95=%.2fms p99=%.2fms\n", p50, p95, p99);
  std::printf("rate:     %.0f jobs/s over %.2fs\n", throughput, stats.wall_s);

  emitter.record("mixed", "jobs", static_cast<double>(plan.size()),
                 stats.wall_s * 1000.0);
  emitter.record("mixed", "done", static_cast<double>(stats.done));
  emitter.record("mixed", "failed", static_cast<double>(stats.failed));
  emitter.record("mixed", "cancelled", static_cast<double>(stats.cancelled));
  emitter.record("mixed", "rejected", static_cast<double>(stats.rejected));
  emitter.record("mixed", "p50_ms", p50);
  emitter.record("mixed", "p95_ms", p95);
  emitter.record("mixed", "p99_ms", p99);
  emitter.record("mixed", "throughput_jobs_per_s", throughput);

  for (std::size_t i = 0; i < cluster_stats.shards.size(); ++i) {
    const serve::SchedulerStats& s = cluster_stats.shards[i];
    const std::string name = "shard" + std::to_string(i);
    std::printf("%s: submitted=%zu cache_hit=%.2f warm_hit=%.2f depth=%zu\n",
                name.c_str(), s.submitted, rate(s.cache.hits, s.cache.misses),
                rate(s.warm.hits, s.warm.misses), s.queue_depth);
    emitter.record(name, "submitted", static_cast<double>(s.submitted));
    emitter.record(name, "cache_hit_rate", rate(s.cache.hits, s.cache.misses));
    emitter.record(name, "warm_hit_rate", rate(s.warm.hits, s.warm.misses));
  }

  const std::map<std::string, std::string> sharded = digests.take();
  if (digest_file) writeDigests(digest_file.get(), "", sharded);

  int exit_code = 0;
  if (stats.digest_conflicts > 0) {
    std::fprintf(stderr, "loadgen: %zu digest conflicts within the run\n",
                 stats.digest_conflicts);
    exit_code = 1;
  }

  if (o.verify) {
    // Replay the identical plan on one shard, in-process, and compare
    // digests per spec hash: same spec -> bit-identical result, sharded
    // or not, cached or cold, warm or not.
    std::printf("verify:   replaying %zu jobs on 1 shard...\n", plan.size());
    DigestMap verify_digests;
    Options vo = o;
    vo.tcp = false;
    RunStats vstats;
    {
      cluster::ClusterFrontend single(tech, lut, clusterOptions(o, 1));
      vstats = runPlan(vo, plan, [&](GidTable& gids)
                           -> std::unique_ptr<ClientBase> {
        return std::make_unique<InprocClient>(single, vo, plan, gids,
                                              verify_digests);
      });
      single.drain();
    }
    const std::map<std::string, std::string> solo = verify_digests.take();
    if (digest_file) writeDigests(digest_file.get(), "verify ", solo);
    std::size_t compared = 0, mismatched = 0;
    for (const auto& [hash, digest] : sharded) {
      const auto it = solo.find(hash);
      if (it == solo.end()) continue;
      ++compared;
      if (it->second != digest) {
        ++mismatched;
        std::fprintf(stderr, "verify: result mismatch for spec %s\n",
                     hash.c_str());
      }
    }
    std::printf("verify:   %zu result digests compared, %zu mismatched\n",
                compared, mismatched);
    emitter.record("verify", "digests_compared",
                   static_cast<double>(compared));
    emitter.record("verify", "digest_mismatches",
                   static_cast<double>(mismatched));
    if (mismatched > 0 || vstats.digest_conflicts > 0 || compared == 0)
      exit_code = 1;
  }

  emitter.write();
  return exit_code;
}
