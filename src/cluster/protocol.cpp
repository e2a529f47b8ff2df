#include "cluster/protocol.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace skewopt::cluster {

namespace json = serve::json;

namespace {

using serve::checkKeys;
using serve::requireId;
using serve::requireObject;

// Reply builders: the protocol's reply format lives in this file only.

json::Value errorReply(const std::string& message) {
  json::Value v = json::Value::object();
  v.set("ok", false);
  v.set("error", message);
  return v;
}

std::string hashHex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

json::Value statusToJson(const serve::JobStatus& s) {
  json::Value v = json::Value::object();
  v.set("ok", true);
  v.set("id", s.id);
  v.set("state", serve::jobStateName(s.state));
  v.set("attempts", s.attempts);
  v.set("cached", s.cached);
  if (!s.error.empty()) v.set("error", s.error);
  v.set("queue_ms", s.queue_ms);
  v.set("run_ms", s.run_ms);
  return v;
}

/// Appends SchedulerStats' job counters to `v`; `with_stores` adds the
/// result-cache and warm-store counters (the per-shard STATS entries — the
/// top-level reply carries those in "gauges" instead).
void setStats(json::Value& v, const serve::SchedulerStats& s,
              bool with_stores) {
  v.set("submitted", s.submitted);
  v.set("done", s.done);
  v.set("failed", s.failed);
  v.set("cancelled", s.cancelled);
  v.set("retries", s.retries);
  v.set("running", s.running);
  v.set("queue_depth", s.queue_depth);
  v.set("workers", s.workers);
  if (!with_stores) return;
  v.set("cache_hits", s.cache.hits);
  v.set("cache_misses", s.cache.misses);
  v.set("cache_entries", s.cache.entries);
  v.set("warm_hits", s.warm.hits);
  v.set("warm_misses", s.warm.misses);
  v.set("warm_entries", s.warm.entries);
}

/// The STATS "gauges" object: live values of the serve obs gauges and
/// counters (process-wide, so they aggregate all shards).
json::Value gaugesToJson() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  json::Value gauges = json::Value::object();
  gauges.set("queue_depth", reg.gauge("skewopt_serve_queue_depth").value());
  gauges.set("jobs_running",
             reg.gauge("skewopt_serve_jobs_running").value());
  gauges.set("cache_entries",
             reg.gauge("skewopt_serve_cache_entries").value());
  gauges.set("cache_hits",
             reg.counter("skewopt_serve_cache_hits_total").value());
  gauges.set("cache_misses",
             reg.counter("skewopt_serve_cache_misses_total").value());
  gauges.set("retries", reg.counter("skewopt_serve_retries_total").value());
  gauges.set("cache_evictions",
             reg.counter("skewopt_serve_cache_evictions_total").value());
  gauges.set("warmstate_entries",
             reg.gauge("skewopt_serve_warmstate_entries").value());
  gauges.set("warmstate_hits",
             reg.counter("skewopt_serve_warmstate_hits_total").value());
  gauges.set("warmstate_misses",
             reg.counter("skewopt_serve_warmstate_misses_total").value());
  gauges.set("warmstate_evictions",
             reg.counter("skewopt_serve_warmstate_evictions_total").value());
  return gauges;
}

/// Bumps skewopt_serve_requests_total{verb="...",ok="..."} for one
/// dispatched request. Verbs outside the protocol's fixed set are counted
/// under verb="unknown" so a hostile client cannot grow label cardinality.
void countRequest(const std::string& verb, bool ok) {
  static const char* const kVerbs[] = {
      "SUBMIT", "DELTA",   "STATUS", "RESULT",       "CANCEL",  "STATS",
      "METRICS", "TRACE",  "BATCH_SUBMIT", "RESULTS", "DRAIN"};
  const char* v = "unknown";
  for (const char* k : kVerbs)
    if (verb == k) {
      v = k;
      break;
    }
  obs::MetricsRegistry::global()
      .counter("skewopt_serve_requests_total",
               {{"verb", v}, {"ok", ok ? "true" : "false"}},
               "Protocol requests dispatched, by verb and outcome")
      .add();
}

/// The SUBMIT reply and a BATCH_SUBMIT entry's verdict. `with_shard` adds
/// the routed shard (SUBMIT: only on a multi-shard cluster).
json::Value submittedReply(const ClusterFrontend::Submitted& sub,
                           bool with_shard) {
  json::Value v = json::Value::object();
  v.set("ok", true);
  v.set("id", sub.id);
  v.set("hash", hashHex(sub.job->hash));
  v.set("state", serve::jobStateName(serve::JobState::kQueued));
  if (with_shard) v.set("shard", sub.shard);
  // Echoed only when the client supplied a context (spec.trace_id is
  // client-set; the derived per-job fallback id is not echoed), keeping
  // pre-telemetry replies byte-identical.
  if (sub.job->spec.trace_id != 0)
    v.set("trace_id", obs::traceIdHex(sub.job->trace_id));
  return v;
}

/// One BATCH_SUBMIT entry, already validated to be an object with allowed
/// keys. Per-entry failures become {"ok":false,...} verdicts, never a
/// batch-level error.
json::Value batchEntryReply(ClusterFrontend& fe, const json::Value& entry,
                            bool block, std::size_t* accepted) {
  const std::string tag = entry.str("tag", "");
  json::Value v;
  try {
    const json::Value* spec_v = entry.find("spec");
    if (!spec_v) throw std::runtime_error("batch entry needs a 'spec'");
    const ClusterFrontend::Submitted sub =
        fe.submit(serve::specFromJson(*spec_v), block);
    if (!sub.job) {
      v = errorReply("queue full");
    } else {
      ++*accepted;
      v = submittedReply(sub, true);
    }
  } catch (const std::exception& e) {
    v = errorReply(e.what());
  }
  if (!tag.empty()) v.set("tag", tag);
  return v;
}

json::Value handleBatchSubmit(ClusterFrontend& fe, const json::Value& request) {
  checkKeys(request, {"cmd", "jobs", "block"}, "request");
  const json::Value* jobs = request.find("jobs");
  if (!jobs || !jobs->isArray())
    return errorReply("BATCH_SUBMIT needs a 'jobs' array");
  if (jobs->items().empty())
    return errorReply("BATCH_SUBMIT 'jobs' must not be empty");
  // Validate the batch shape before submitting anything: a malformed
  // *batch* (vs a malformed spec) rejects as a unit.
  std::set<std::string> tags;
  for (const json::Value& entry : jobs->items()) {
    requireObject(entry, "batch entry");
    checkKeys(entry, {"spec", "tag"}, "batch entry");
    const std::string tag = entry.str("tag", "");
    if (!tag.empty() && !tags.insert(tag).second)
      return errorReply("duplicate batch tag '" + tag + "'");
  }
  const bool block = request.boolean("block", false);
  std::size_t accepted = 0;
  json::Value verdicts = json::Value::array();
  for (const json::Value& entry : jobs->items())
    verdicts.push(batchEntryReply(fe, entry, block, &accepted));
  json::Value v = json::Value::object();
  v.set("ok", true);
  v.set("count", jobs->items().size());
  v.set("accepted", accepted);
  v.set("jobs", std::move(verdicts));
  return v;
}

json::Value handleDrain(ClusterFrontend& fe, const json::Value& request) {
  checkKeys(request, {"cmd", "shard", "mode"}, "request");
  const std::string mode = request.str("mode", "drain");
  if (mode != "drain" && mode != "shutdown")
    return errorReply("DRAIN mode must be 'drain' or 'shutdown'");
  json::Value v = json::Value::object();
  if (const json::Value* shard_v = request.find("shard")) {
    const std::uint64_t i = serve::uintFromJson(shard_v, "bad 'shard' index");
    if (i >= fe.shards()) return errorReply("bad 'shard' index");
    if (mode == "drain")
      fe.drainShard(i);
    else
      fe.shutdownShard(i);
    v.set("ok", true);
    v.set("shard", i);
  } else {
    if (mode == "drain")
      fe.drain();
    else
      fe.shutdown();
    v.set("ok", true);
    v.set("shards", fe.shards());
  }
  v.set("drained", true);
  return v;
}

/// One completion event line for a terminal job.
json::Value resultEvent(ClusterFrontend& fe, const serve::JobStatus& s) {
  json::Value v = json::Value::object();
  if (s.state == serve::JobState::kDone) {
    v.set("ok", true);
    v.set("event", "result");
    v.set("id", s.id);
    v.set("state", serve::jobStateName(s.state));
    v.set("cached", s.cached);
    v.set("result", serve::resultToJson(fe.result(s.id),
                                        fe.jobSpec(s.id).record));
  } else {
    v.set("ok", false);
    v.set("event", "result");
    v.set("id", s.id);
    v.set("state", serve::jobStateName(s.state));
    v.set("error", s.error.empty() ? serve::jobStateName(s.state) : s.error);
  }
  return v;
}

/// Streaming RESULTS: emits one event line per subscribed job as it
/// completes (already-terminal jobs flush immediately), then an "end"
/// line carrying the count of jobs still pending at the deadline. Wakeups
/// ride the cluster's completion epoch, so the wait is event-driven, not
/// a poll loop.
bool handleResults(ClusterFrontend& fe, const json::Value& request,
                   const serve::TcpServer::LineSink& emit) {
  std::vector<std::uint64_t> pending;
  double timeout_ms = 600000.0;
  try {
    checkKeys(request, {"cmd", "ids", "timeout_ms"}, "request");
    const json::Value* ids = request.find("ids");
    if (!ids || !ids->isArray() || ids->items().empty())
      throw std::runtime_error("RESULTS needs a non-empty 'ids' array");
    const char* const bad_id = "RESULTS ids must be positive integers";
    for (const json::Value& id : ids->items()) {
      const std::uint64_t gid = serve::uintFromJson(&id, bad_id);
      if (gid == 0) throw std::runtime_error(bad_id);
      pending.push_back(gid);
    }
    timeout_ms = request.num("timeout_ms", timeout_ms);
  } catch (const std::exception& e) {
    countRequest("RESULTS", false);
    return emit(json::dump(errorReply(e.what())));
  }
  // Counted at subscription time (the stream itself can outlive the
  // request by minutes).
  countRequest("RESULTS", true);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(std::max(0.0, timeout_ms)));
  std::uint64_t epoch = fe.completionEpoch();
  for (;;) {
    for (auto it = pending.begin(); it != pending.end();) {
      json::Value event;
      bool terminal = true;
      try {
        const serve::JobStatus s = fe.status(*it);
        terminal = serve::isTerminal(s.state);
        if (terminal) event = resultEvent(fe, s);
      } catch (const std::out_of_range&) {
        // Unknown or retention-pruned id: report it once and drop it.
        event = errorReply("unknown job id");
        event.set("event", "result");
        event.set("id", *it);
      }
      if (!terminal) {
        ++it;
        continue;
      }
      if (!emit(json::dump(event))) return false;  // subscriber gone
      it = pending.erase(it);
    }
    const auto now = std::chrono::steady_clock::now();
    if (pending.empty() || now >= deadline) break;
    const double wait_ms = std::min(
        250.0, std::chrono::duration<double, std::milli>(deadline - now)
                   .count());
    epoch = fe.waitEpoch(epoch, wait_ms);
  }
  json::Value end = json::Value::object();
  end.set("ok", true);
  end.set("event", "end");
  end.set("remaining", pending.size());
  return emit(json::dump(end));
}

json::Value dispatchClusterRequest(ClusterFrontend& fe,
                                   const json::Value& request) {
  try {
    requireObject(request, "request");
    const std::string cmd = request.str("cmd", "");

    if (cmd == "SUBMIT") {
      checkKeys(request, {"cmd", "spec", "block"}, "request");
      const json::Value* spec_v = request.find("spec");
      if (!spec_v) throw std::runtime_error("SUBMIT needs a 'spec'");
      const serve::JobSpec spec = serve::specFromJson(*spec_v);
      const bool block = request.boolean("block", false);
      const ClusterFrontend::Submitted sub = fe.submit(spec, block);
      if (!sub.job) return errorReply("queue full");
      return submittedReply(sub, fe.shards() > 1);
    }

    if (cmd == "DELTA") {
      checkKeys(request, {"cmd", "base", "edits", "block", "trace_id"},
                "request");
      const std::uint64_t base = serve::uintFromJson(
          request.find("base"), "DELTA needs a numeric 'base' job id");
      const json::Value* edits_v = request.find("edits");
      if (!edits_v) throw std::runtime_error("DELTA needs an 'edits' object");
      const serve::DeltaEdits edits = serve::deltaEditsFromJson(*edits_v);
      const bool block = request.boolean("block", false);
      const json::Value* tid = request.find("trace_id");
      const std::uint64_t trace_id =
          tid != nullptr ? serve::traceIdFromJson(*tid) : 0;
      ClusterFrontend::Submitted sub;
      try {
        sub = fe.submitDelta(base, edits, block, trace_id);
      } catch (const std::out_of_range&) {
        return errorReply("unknown base job id");
      }
      if (!sub.job) return errorReply("queue full");
      json::Value v = json::Value::object();
      v.set("ok", true);
      v.set("id", sub.id);
      v.set("base", base);
      v.set("hash", hashHex(sub.job->hash));
      v.set("state", serve::jobStateName(serve::JobState::kQueued));
      if (fe.shards() > 1) v.set("shard", sub.shard);
      if (tid != nullptr)
        v.set("trace_id", obs::traceIdHex(sub.job->trace_id));
      return v;
    }

    if (cmd == "STATUS") {
      checkKeys(request, {"cmd", "id"}, "request");
      return statusToJson(fe.status(requireId(request)));
    }

    if (cmd == "RESULT") {
      checkKeys(request, {"cmd", "id", "wait"}, "request");
      const std::uint64_t id = requireId(request);
      const bool wait = request.boolean("wait", true);
      serve::JobStatus s = fe.status(id);
      if (!serve::isTerminal(s.state)) {
        if (!wait) {
          json::Value v = errorReply("not finished");
          v.set("state", serve::jobStateName(s.state));
          return v;
        }
        s = fe.waitTerminal(id);
      }
      if (s.state != serve::JobState::kDone) {
        json::Value v = errorReply(
            s.error.empty() ? serve::jobStateName(s.state) : s.error);
        v.set("id", id);
        v.set("state", serve::jobStateName(s.state));
        return v;
      }
      json::Value v = json::Value::object();
      v.set("ok", true);
      v.set("id", id);
      v.set("state", serve::jobStateName(s.state));
      v.set("cached", s.cached);
      v.set("result", serve::resultToJson(fe.result(id),
                                          fe.jobSpec(id).record));
      return v;
    }

    if (cmd == "TRACE") {
      // The job's span tree (every span stamped with its trace context),
      // as Chrome trace-event JSON embedded in the reply. Works for
      // running and finished jobs alike — the export is a snapshot of
      // whatever the ring buffers hold for that id. Shards record into the
      // one process-wide tracer, so the filtered export already merges the
      // job's spans across shards.
      checkKeys(request, {"cmd", "id"}, "request");
      const std::uint64_t id = requireId(request);
      const std::uint64_t trace_id = fe.traceId(id);
      json::Value v = json::Value::object();
      v.set("ok", true);
      v.set("id", id);
      v.set("trace_id", obs::traceIdHex(trace_id));
      v.set("trace",
            json::parse(obs::Tracer::global().exportJson(0, trace_id)));
      return v;
    }

    if (cmd == "CANCEL") {
      checkKeys(request, {"cmd", "id"}, "request");
      const std::uint64_t id = requireId(request);
      const bool cancelled = fe.cancel(id);
      json::Value v = json::Value::object();
      v.set("ok", true);
      v.set("id", id);
      v.set("cancelled", cancelled);
      v.set("state", serve::jobStateName(fe.status(id).state));
      return v;
    }

    if (cmd == "STATS") {
      checkKeys(request, {"cmd"}, "request");
      const ClusterStats cs = fe.stats();
      json::Value v = json::Value::object();
      v.set("ok", true);
      setStats(v, cs.total, false);
      v.set("gauges", gaugesToJson());
      if (fe.shards() > 1) {
        v.set("routed", cs.routed);
        v.set("rejected", cs.rejected);
        json::Value shards = json::Value::array();
        for (std::size_t i = 0; i < cs.shards.size(); ++i) {
          json::Value sv = json::Value::object();
          setStats(sv, cs.shards[i], true);
          sv.set("shard", i);
          shards.push(std::move(sv));
        }
        v.set("shards", std::move(shards));
      }
      return v;
    }

    if (cmd == "METRICS") {
      checkKeys(request, {"cmd"}, "request");
      json::Value v = json::Value::object();
      v.set("ok", true);
      v.set("metrics",
            obs::prometheusText(obs::MetricsRegistry::global().snapshot()));
      return v;
    }

    if (cmd == "BATCH_SUBMIT") return handleBatchSubmit(fe, request);
    if (cmd == "DRAIN") return handleDrain(fe, request);

    return errorReply(cmd.empty() ? "missing 'cmd'"
                                  : "unknown cmd '" + cmd + "'");
  } catch (const std::exception& e) {
    return errorReply(e.what());
  }
}

}  // namespace

json::Value handleClusterRequest(ClusterFrontend& fe,
                                 const json::Value& request) {
  json::Value reply = dispatchClusterRequest(fe, request);
  countRequest(request.isObject() ? request.str("cmd", "") : "",
               reply.boolean("ok", false));
  return reply;
}

bool handleClusterLine(ClusterFrontend& fe, const std::string& line,
                       const serve::TcpServer::LineSink& emit) {
  json::Value request;
  try {
    request = json::parse(line);
  } catch (const std::exception& e) {
    return emit(json::dump(errorReply(e.what())));
  }
  if (request.isObject() && request.str("cmd", "") == "RESULTS")
    return handleResults(fe, request, emit);
  return emit(json::dump(handleClusterRequest(fe, request)));
}

serve::TcpServer::LineHandler clusterLineHandler(ClusterFrontend& fe) {
  return [&fe](const std::string& line,
               const serve::TcpServer::LineSink& emit) {
    return handleClusterLine(fe, line, emit);
  };
}

}  // namespace skewopt::cluster
