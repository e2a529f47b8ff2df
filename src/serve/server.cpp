#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/log.h"
#include "obs/trace.h"

namespace skewopt::serve {

// ---------------------------------------------------------------------------
// Spec <-> JSON

namespace {

core::FlowMode flowModeFromName(const std::string& name) {
  if (name == "global") return core::FlowMode::kGlobal;
  if (name == "local") return core::FlowMode::kLocal;
  if (name == "global-local") return core::FlowMode::kGlobalLocal;
  throw std::runtime_error("unknown flow mode '" + name + "'");
}

/// Shared by spec.source and DELTA edits. Entries are sorted by sink id
/// here (like key length-prefixing, a wire-side normalization) so a
/// hand-ordered client list still passes the SKW306 sortedness check.
std::vector<MovedSink> movedSinksFromJson(const json::Value& arr,
                                          const char* context) {
  if (!arr.isArray())
    throw std::runtime_error(std::string(context) + " must be an array");
  std::vector<MovedSink> moved;
  for (const json::Value& mv : arr.items()) {
    requireObject(mv, context);
    checkKeys(mv, {"sink", "x", "y"}, context);
    const json::Value* sink = mv.find("sink");
    const json::Value* x = mv.find("x");
    const json::Value* y = mv.find("y");
    if (!sink || !sink->isNumber() || !x || !x->isNumber() || !y ||
        !y->isNumber())
      throw std::runtime_error(std::string(context) +
                               " entries need numeric sink/x/y");
    moved.push_back(MovedSink{static_cast<int>(sink->asDouble()),
                              x->asDouble(), y->asDouble()});
  }
  std::sort(moved.begin(), moved.end(),
            [](const MovedSink& a, const MovedSink& b) {
              return a.sink < b.sink;
            });
  return moved;
}

std::vector<double> doubleArrayFromJson(const json::Value& arr,
                                        const char* context) {
  if (!arr.isArray())
    throw std::runtime_error(std::string(context) + " must be an array");
  std::vector<double> out;
  for (const json::Value& u : arr.items()) {
    if (!u.isNumber())
      throw std::runtime_error(std::string(context) +
                               " entries must be numbers");
    out.push_back(u.asDouble());
  }
  return out;
}

}  // namespace

void checkKeys(const json::Value& v, std::initializer_list<const char*> allowed,
               const char* context) {
  for (const auto& [key, value] : v.members()) {
    (void)value;
    bool ok = false;
    for (const char* a : allowed)
      if (key == a) {
        ok = true;
        break;
      }
    if (!ok)
      throw std::runtime_error(std::string("unknown ") + context + " key '" +
                               key + "'");
  }
}

const json::Value& requireObject(const json::Value& v, const char* what) {
  if (!v.isObject())
    throw std::runtime_error(std::string(what) + " must be an object");
  return v;
}

std::uint64_t uintFromJson(const json::Value* v, const char* error) {
  // 2^53: every integer up to here is exact in a double, and the cast
  // below stays far inside uint64 range.
  constexpr double kMaxExact = 9007199254740992.0;
  if (v == nullptr || !v->isNumber()) throw std::runtime_error(error);
  const double d = v->asDouble();
  if (!(d >= 0.0 && d <= kMaxExact) || d != std::floor(d))
    throw std::runtime_error(error);
  return static_cast<std::uint64_t>(d);
}

std::uint64_t requireId(const json::Value& request) {
  return uintFromJson(request.find("id"), "missing or bad 'id'");
}

DeltaEdits deltaEditsFromJson(const json::Value& v) {
  requireObject(v, "edits");
  checkKeys(v, {"u_sweep", "corner_dmax_derate", "moved_sinks"}, "edits");
  DeltaEdits edits;
  if (const json::Value* sweep = v.find("u_sweep")) {
    edits.has_u_sweep = true;
    edits.u_sweep = doubleArrayFromJson(*sweep, "edits.u_sweep");
  }
  if (const json::Value* derates = v.find("corner_dmax_derate")) {
    edits.has_derates = true;
    edits.corner_dmax_derate =
        doubleArrayFromJson(*derates, "edits.corner_dmax_derate");
  }
  if (const json::Value* moved = v.find("moved_sinks"))
    edits.moved_sinks = movedSinksFromJson(*moved, "edits.moved_sinks");
  return edits;
}

json::Value specToJson(const JobSpec& spec) {
  json::Value source = json::Value::object();
  source.set("kind", sourceKindName(spec.source.kind));
  switch (spec.source.kind) {
    case DesignSource::Kind::kTestgen:
      source.set("testcase", spec.source.testcase);
      source.set("sinks", spec.source.sinks);
      source.set("pairs", spec.source.max_pairs);
      source.set("seed", spec.source.seed);
      if (spec.source.select_best_scenario) source.set("select_best", true);
      break;
    case DesignSource::Kind::kFile:
      source.set("path", spec.source.path);
      break;
    case DesignSource::Kind::kInline:
      source.set("text", spec.source.text);
      break;
  }
  if (!spec.source.moved_sinks.empty()) {
    json::Value moved = json::Value::array();
    for (const MovedSink& m : spec.source.moved_sinks) {
      json::Value mv = json::Value::object();
      mv.set("sink", m.sink);
      mv.set("x", m.x);
      mv.set("y", m.y);
      moved.push(std::move(mv));
    }
    source.set("moved_sinks", std::move(moved));
  }

  json::Value global = json::Value::object();
  const core::GlobalOptions defaults_g;
  const core::GlobalOptions& g = spec.options.global;
  global.set("beta", g.beta);
  global.set("max_pairs_lp", g.max_pairs_lp);
  global.set("repair_passes", g.repair_passes);
  json::Value sweep = json::Value::array();
  for (const double u : g.u_sweep) sweep.push(u);
  global.set("u_sweep", std::move(sweep));
  global.set("warm_start_sweep", g.warm_start_sweep);
  global.set("parallel_realize", g.parallel_realize);
  if (!g.corner_dmax_derate.empty()) {
    json::Value derates = json::Value::array();
    for (const double dr : g.corner_dmax_derate) derates.push(dr);
    global.set("corner_dmax_derate", std::move(derates));
  }

  json::Value local = json::Value::object();
  const core::LocalOptions& l = spec.options.local;
  local.set("r", l.r);
  local.set("max_iterations", l.max_iterations);
  local.set("max_chunks_per_round", l.max_chunks_per_round);
  local.set("min_predicted_gain_ps", l.min_predicted_gain_ps);
  local.set("parallel_trials", l.parallel_trials);
  local.set("threads", l.threads);

  json::Value options = json::Value::object();
  options.set("global", std::move(global));
  options.set("local", std::move(local));

  json::Value v = json::Value::object();
  v.set("source", std::move(source));
  v.set("mode", core::flowModeName(spec.mode));
  v.set("options", std::move(options));
  // Default level stays implicit so pre-checker clients round-trip
  // byte-identically.
  if (spec.options.check_level != check::Level::kCheap)
    v.set("check", check::levelName(spec.options.check_level));
  v.set("priority", spec.priority);
  v.set("deadline_ms", spec.deadline_ms);
  v.set("max_retries", spec.max_retries);
  if (spec.trace_id != 0) v.set("trace_id", obs::traceIdHex(spec.trace_id));
  if (spec.record) v.set("record", true);
  return v;
}

JobSpec specFromJson(const json::Value& v) {
  requireObject(v, "spec");
  // The "trace" file-export field was removed in favour of the TRACE verb;
  // name the replacement instead of a bare unknown-key error.
  if (v.find("trace") != nullptr)
    throw std::runtime_error(
        "spec key 'trace' was removed: submit with a 'trace_id' and fetch "
        "the job's spans with the TRACE verb");
  checkKeys(v, {"source", "mode", "options", "check", "priority",
                "deadline_ms", "max_retries", "trace_id", "record"},
            "spec");
  JobSpec spec;

  if (const json::Value* source = v.find("source")) {
    requireObject(*source, "spec.source");
    const std::string kind = source->str("kind", "testgen");
    if (kind == "testgen") {
      checkKeys(*source,
                {"kind", "testcase", "sinks", "pairs", "seed", "select_best",
                 "moved_sinks"},
                "spec.source");
      spec.source.kind = DesignSource::Kind::kTestgen;
      spec.source.testcase = source->str("testcase", spec.source.testcase);
      spec.source.sinks = static_cast<std::size_t>(
          source->num("sinks", static_cast<double>(spec.source.sinks)));
      spec.source.max_pairs = static_cast<std::size_t>(
          source->num("pairs", static_cast<double>(spec.source.max_pairs)));
      spec.source.seed = static_cast<std::uint64_t>(
          source->num("seed", static_cast<double>(spec.source.seed)));
      spec.source.select_best_scenario = source->boolean("select_best", false);
    } else if (kind == "file") {
      checkKeys(*source, {"kind", "path", "moved_sinks"}, "spec.source");
      spec.source.kind = DesignSource::Kind::kFile;
      spec.source.path = source->str("path", "");
      if (spec.source.path.empty())
        throw std::runtime_error("file source needs a 'path'");
    } else if (kind == "inline") {
      checkKeys(*source, {"kind", "text", "moved_sinks"}, "spec.source");
      spec.source.kind = DesignSource::Kind::kInline;
      spec.source.text = source->str("text", "");
      if (spec.source.text.empty())
        throw std::runtime_error("inline source needs 'text'");
    } else {
      throw std::runtime_error("unknown source kind '" + kind + "'");
    }
    if (const json::Value* moved = source->find("moved_sinks"))
      spec.source.moved_sinks =
          movedSinksFromJson(*moved, "spec.source.moved_sinks");
  }

  spec.mode = flowModeFromName(v.str("mode", "global-local"));

  if (const json::Value* options = v.find("options")) {
    requireObject(*options, "spec.options");
    checkKeys(*options, {"global", "local"}, "spec.options");
    if (const json::Value* gv = options->find("global")) {
      requireObject(*gv, "spec.options.global");
      checkKeys(*gv,
                {"beta", "max_pairs_lp", "repair_passes", "u_sweep",
                 "warm_start_sweep", "parallel_realize",
                 "corner_dmax_derate"},
                "spec.options.global");
      core::GlobalOptions& g = spec.options.global;
      g.beta = gv->num("beta", g.beta);
      g.max_pairs_lp = static_cast<std::size_t>(
          gv->num("max_pairs_lp", static_cast<double>(g.max_pairs_lp)));
      g.repair_passes = static_cast<std::size_t>(
          gv->num("repair_passes", static_cast<double>(g.repair_passes)));
      if (const json::Value* sweep = gv->find("u_sweep")) {
        if (!sweep->isArray())
          throw std::runtime_error("u_sweep must be an array");
        g.u_sweep.clear();
        for (const json::Value& u : sweep->items()) {
          if (!u.isNumber())
            throw std::runtime_error("u_sweep entries must be numbers");
          g.u_sweep.push_back(u.asDouble());
        }
      }
      g.warm_start_sweep = gv->boolean("warm_start_sweep", g.warm_start_sweep);
      g.parallel_realize = gv->boolean("parallel_realize", g.parallel_realize);
      if (const json::Value* derates = gv->find("corner_dmax_derate"))
        g.corner_dmax_derate = doubleArrayFromJson(
            *derates, "spec.options.global.corner_dmax_derate");
    }
    if (const json::Value* lv = options->find("local")) {
      requireObject(*lv, "spec.options.local");
      checkKeys(*lv,
                {"r", "max_iterations", "max_chunks_per_round",
                 "min_predicted_gain_ps", "parallel_trials", "threads"},
                "spec.options.local");
      core::LocalOptions& l = spec.options.local;
      l.r = static_cast<std::size_t>(lv->num("r", static_cast<double>(l.r)));
      l.max_iterations = static_cast<std::size_t>(lv->num(
          "max_iterations", static_cast<double>(l.max_iterations)));
      l.max_chunks_per_round = static_cast<std::size_t>(
          lv->num("max_chunks_per_round",
                  static_cast<double>(l.max_chunks_per_round)));
      l.min_predicted_gain_ps =
          lv->num("min_predicted_gain_ps", l.min_predicted_gain_ps);
      l.parallel_trials = lv->boolean("parallel_trials", l.parallel_trials);
      l.threads = static_cast<std::size_t>(
          lv->num("threads", static_cast<double>(l.threads)));
    }
  }

  if (const json::Value* chk = v.find("check")) {
    if (!chk->isString() ||
        !check::parseLevel(chk->asString(), &spec.options.check_level))
      throw std::runtime_error("'check' must be off, cheap, or deep");
  }

  spec.priority = static_cast<int>(v.num("priority", 0));
  spec.deadline_ms = v.num("deadline_ms", 0);
  spec.max_retries = static_cast<int>(v.num("max_retries", 0));
  if (const json::Value* tid = v.find("trace_id"))
    spec.trace_id = traceIdFromJson(*tid);
  spec.record = v.boolean("record", false);
  return spec;
}

std::uint64_t traceIdFromJson(const json::Value& v) {
  if (!v.isString() || v.asString().size() != 16)
    throw std::runtime_error("'trace_id' must be a 16-digit hex string");
  std::uint64_t id = 0;
  for (const char c : v.asString()) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else
      throw std::runtime_error("'trace_id' must be a 16-digit hex string");
    id = (id << 4) | static_cast<std::uint64_t>(digit);
  }
  if (id == 0) throw std::runtime_error("'trace_id' 0 is reserved");
  return id;
}

namespace {

json::Value doublesToJson(const std::vector<double>& xs) {
  json::Value a = json::Value::array();
  for (const double x : xs) a.push(x);
  return a;
}

const char* moveTypeLabel(core::MoveType t) {
  switch (t) {
    case core::MoveType::kSizeDisplace: return "size_displace";
    case core::MoveType::kChildDisplaceSize: return "child_displace_size";
    case core::MoveType::kReassign: return "reassign";
  }
  return "?";
}

/// The record's Table 5 row: the objective and the per-corner local skews.
json::Value recordMetricsToJson(const core::DesignMetrics& m) {
  json::Value v = json::Value::object();
  v.set("sum_variation_ps", m.sum_variation_ps);
  v.set("local_skew_ps", doublesToJson(m.local_skew_ps));
  v.set("clock_cells", m.clock_cells);
  return v;
}

json::Value globalRecordToJson(const core::GlobalResult& g) {
  json::Value v = json::Value::object();
  v.set("sum_before_ps", g.sum_before_ps);
  v.set("sum_after_ps", g.sum_after_ps);
  v.set("lp_min_sum_ps", g.lp_min_sum_ps);
  v.set("lp_orig_sum_ps", g.lp_orig_sum_ps);
  v.set("chosen_u_ps", g.chosen_u_ps);
  v.set("arcs_in_lp", g.arcs_in_lp);
  v.set("arcs_changed", g.arcs_changed);
  v.set("lp_rows", g.lp_rows);
  v.set("lp_vars", g.lp_vars);
  v.set("lp_warm_hits", g.lp_warm_hits);
  v.set("lp_warm_misses", g.lp_warm_misses);
  v.set("lp_replays", g.lp_replays);
  v.set("realize_memo_hits", g.realize_memo_hits);
  v.set("improved", g.improved);
  json::Value solves = json::Value::array();
  for (const core::LpSolveStats& s : g.lp_solves) {
    json::Value sv = json::Value::object();
    sv.set("u_ps", s.u_ps);
    sv.set("iterations", s.iterations);
    sv.set("refactorizations", s.refactorizations);
    sv.set("warm_started", s.warm_started);
    sv.set("optimal", s.optimal);
    solves.push(std::move(sv));
  }
  v.set("lp_solves", std::move(solves));
  json::Value candidates = json::Value::array();
  for (const auto& [u, sum] : g.candidates) {
    json::Value cv = json::Value::object();
    cv.set("u_ps", u);
    cv.set("realized_sum_ps", sum);
    candidates.push(std::move(cv));
  }
  v.set("candidates", std::move(candidates));
  return v;
}

json::Value localRecordToJson(const core::LocalResult& l) {
  json::Value v = json::Value::object();
  v.set("sum_before_ps", l.sum_before_ps);
  json::Value rounds = json::Value::array();
  std::size_t h = 0;  // history is in round order, at most one per round
  for (std::size_t i = 0; i < l.rounds.size(); ++i) {
    json::Value rv = json::Value::object();
    rv.set("round", i);
    rv.set("candidates", l.rounds[i].candidates);
    const bool committed = h < l.history.size() && l.history[h].round == i;
    if (committed) {
      const core::LocalIteration& it = l.history[h++];
      json::Value cv = json::Value::object();
      cv.set("type", moveTypeLabel(it.type));
      cv.set("predicted_delta_ps", it.predicted_delta_ps);
      cv.set("realized_delta_ps", it.realized_delta_ps);
      cv.set("sum_after_ps", it.sum_after_ps);
      cv.set("local_skew_ps", doublesToJson(it.local_skew_ps));
      rv.set("commit", std::move(cv));
    }
    rv.set("trials", l.rounds[i].trials);
    rv.set("committed", committed);
    rounds.push(std::move(rv));
  }
  v.set("rounds", std::move(rounds));
  v.set("sum_after_ps", l.sum_after_ps);
  v.set("accepted_moves", l.history.size());
  v.set("golden_evaluations", l.golden_evaluations);
  v.set("improved", l.improved);
  return v;
}

}  // namespace

json::Value metricsToJson(const core::DesignMetrics& m) {
  json::Value v = json::Value::object();
  v.set("sum_variation_ps", m.sum_variation_ps);
  v.set("local_skew_ps", doublesToJson(m.local_skew_ps));
  v.set("clock_cells", m.clock_cells);
  v.set("power_mw", m.power_mw);
  v.set("area_um2", m.area_um2);
  return v;
}

json::Value flightRecordToJson(const core::FlowResult& r) {
  json::Value v = json::Value::object();
  v.set("v", 1);
  v.set("mode", core::flowModeName(r.mode));
  v.set("warm_start", r.warm_start);
  v.set("before", recordMetricsToJson(r.before));
  // A global stage that returned before its LP sweep (no pairs, no arcs,
  // or a failed pass-1 solve) has nothing to show.
  if (!r.global.lp_solves.empty() && r.global.lp_solves.front().optimal)
    v.set("global", globalRecordToJson(r.global));
  if (!r.local.rounds.empty()) v.set("local", localRecordToJson(r.local));
  v.set("after", recordMetricsToJson(r.after));
  return v;
}

json::Value resultToJson(const core::FlowResult& r, bool include_record) {
  json::Value v = json::Value::object();
  v.set("before", metricsToJson(r.before));
  v.set("after", metricsToJson(r.after));

  json::Value g = json::Value::object();
  g.set("sum_before_ps", r.global.sum_before_ps);
  g.set("sum_after_ps", r.global.sum_after_ps);
  g.set("chosen_u_ps", r.global.chosen_u_ps);
  g.set("improved", r.global.improved);
  g.set("arcs_changed", r.global.arcs_changed);
  g.set("lp_solves", r.global.lp_solves.size());
  g.set("lp_warm_hits", r.global.lp_warm_hits);
  v.set("global", std::move(g));

  json::Value l = json::Value::object();
  l.set("sum_before_ps", r.local.sum_before_ps);
  l.set("sum_after_ps", r.local.sum_after_ps);
  l.set("improved", r.local.improved);
  l.set("moves_committed", r.local.history.size());
  l.set("golden_evaluations", r.local.golden_evaluations);
  v.set("local", std::move(l));

  json::Value t = json::Value::object();
  t.set("global_ms", r.stage_ms.global_ms);
  t.set("local_ms", r.stage_ms.local_ms);
  t.set("total_ms", r.stage_ms.total_ms);
  v.set("stage_ms", std::move(t));
  if (include_record) v.set("record", flightRecordToJson(r));
  return v;
}

// ---------------------------------------------------------------------------
// TCP front-end

namespace {

/// Writes all of `data`, looping on partial writes and retrying EINTR and
/// (for a socket with a send timeout) EAGAIN/EWOULDBLOCK — under sustained
/// load short writes are routine, not errors.
bool sendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// The transport's own reply, for a request line past max_line_bytes.
std::string oversizedReply(std::size_t max_line_bytes) {
  json::Value v = json::Value::object();
  v.set("ok", false);
  v.set("error",
        "request line exceeds " + std::to_string(max_line_bytes) + " bytes");
  return json::dump(v);
}

}  // namespace

TcpServer::TcpServer(LineHandler handler, TcpServerOptions opts)
    : handler_(std::move(handler)), opts_(std::move(opts)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: bad listen address " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: cannot listen on " + opts_.host + ":" +
                             std::to_string(opts_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { acceptLoop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  std::list<Connection> conns;
  {
    support::MutexLock lk(conn_mu_);
    conns.swap(conns_);
  }
  // Threads that finish from here on see stopping_ and leave their fd to
  // this loop.
  for (Connection& c : conns) {
    if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    if (c.thread.joinable()) c.thread.join();
    if (c.fd >= 0) ::close(c.fd);
  }
}

void TcpServer::reapFinished() {
  std::list<Connection> finished;
  {
    support::MutexLock lk(conn_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      const auto next = std::next(it);
      if (it->fd < 0) finished.splice(finished.end(), conns_, it);
      it = next;
    }
  }
  // A finished thread has only its return left, so these joins are brief.
  for (Connection& c : finished) c.thread.join();
}

void TcpServer::acceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      continue;
    }
    obs::logDebug("serve: connection accepted")
        .field("fd", static_cast<std::int64_t>(fd));
    reapFinished();
    support::MutexLock lk(conn_mu_);
    Connection& conn = conns_.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread([this, &conn, fd] {
      serveConnection(fd);
      // Reclaim the fd as soon as the peer goes away, which also marks the
      // thread joinable, unless stop() already took ownership of the
      // connections.
      support::MutexLock lk2(conn_mu_);
      if (stopping_.load()) return;
      ::close(fd);
      conn.fd = -1;
    });
  }
}

void TcpServer::serveConnection(int fd) {
  const LineSink emit = [fd](const std::string& reply) {
    return sendAll(fd, reply + "\n");
  };
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    if (n <= 0) return;  // EOF / error / stop(): fd is closed by stop()
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.size() > opts_.max_line_bytes) {
        obs::logWarn("serve: oversized request line, closing connection")
            .field("fd", static_cast<std::int64_t>(fd))
            .field("bytes", static_cast<std::uint64_t>(line.size()));
        emit(oversizedReply(opts_.max_line_bytes));
        return;
      }
      if (!handler_(line, emit)) return;
    }
    // A line fragment past the bound can never become a valid request;
    // answer once and drop the connection instead of buffering without
    // limit.
    if (buffer.size() > opts_.max_line_bytes) {
      obs::logWarn("serve: oversized request line, closing connection")
          .field("fd", static_cast<std::int64_t>(fd))
          .field("bytes", static_cast<std::uint64_t>(buffer.size()));
      emit(oversizedReply(opts_.max_line_bytes));
      return;
    }
  }
}

}  // namespace skewopt::serve
