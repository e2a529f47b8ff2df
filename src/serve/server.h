// Wire codecs + TCP transport for the optimization service.
//
// The protocol is newline-delimited JSON: one request object per line, one
// reply object per line (see docs/serving.md). Its one dispatcher is
// cluster::handleClusterLine (cluster/protocol.h); a single-scheduler
// deployment is a 1-shard ClusterFrontend. This header holds what that
// dispatcher and other clients share: the spec/result/delta codecs, the
// strict-key and id validators, and the line-oriented TCP transport.
//
// The spec JSON covers the commonly-tuned option knobs (see specFromJson);
// everything else takes its FlowOptions default, identically on both the
// wire and in-process paths, so a spec submitted over TCP hashes — and
// therefore caches and reproduces — exactly like the same spec submitted
// in-process. Unknown request/spec/option keys are rejected, not ignored:
// a typo must not silently change which job runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <list>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.h"
#include "serve/scheduler.h"
#include "support/thread_annotations.h"

namespace skewopt::serve {

/// spec <-> JSON (see file comment for coverage). specFromJson throws
/// std::runtime_error on unknown keys or malformed values.
json::Value specToJson(const JobSpec& spec);
JobSpec specFromJson(const json::Value& v);

json::Value metricsToJson(const core::DesignMetrics& m);
/// The run's flight record: its algorithmic trajectory (U-sweep LP effort,
/// realized candidates, local rounds and commits, the per-corner skew
/// curve), built from the finished result. Deterministic fields only, so
/// it is bit-identical between serial and parallel runs and across shard
/// counts; schema in docs/observability.md.
json::Value flightRecordToJson(const core::FlowResult& r);
/// `include_record` additionally emits flightRecordToJson(r) under
/// "record"; the default leaves the member out.
json::Value resultToJson(const core::FlowResult& r,
                         bool include_record = false);

/// Parses a DELTA "edits" object ({"u_sweep":..,"corner_dmax_derate":..,
/// "moved_sinks":..}); throws std::runtime_error on malformed input.
DeltaEdits deltaEditsFromJson(const json::Value& v);
/// Parses a request/spec "trace_id" value (16-digit hex string); throws
/// std::runtime_error on malformed input or the reserved id 0.
std::uint64_t traceIdFromJson(const json::Value& v);
/// Strict-key guard: throws std::runtime_error naming the first member of
/// `v` that is not in `allowed` ("unknown <context> key '<k>'").
void checkKeys(const json::Value& v, std::initializer_list<const char*> allowed,
               const char* context);
/// Throws std::runtime_error("<what> must be an object") unless `v` is one.
const json::Value& requireObject(const json::Value& v, const char* what);
/// The protocol's one integer parser, for job ids, the DELTA base, RESULTS
/// ids and the DRAIN shard: `v` must be an integral number in [0, 2^53],
/// the range a JSON double carries exactly. Anything else — null, a
/// fraction, a negative or larger number — throws std::runtime_error with
/// `error` as the message.
std::uint64_t uintFromJson(const json::Value* v, const char* error);
/// uintFromJson of the request's "id" member.
std::uint64_t requireId(const json::Value& request);

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port is reported by port()
  /// Per-connection read-buffer bound. A request line longer than this is
  /// answered with a JSON error and the connection is closed — the buffer
  /// never grows past the bound no matter what the peer sends.
  std::size_t max_line_bytes = 1u << 20;
};

/// Serves a line protocol over a local TCP socket: one accept loop, one
/// thread per connection, each processing requests sequentially (clients
/// wanting parallel jobs open several connections or use non-blocking
/// SUBMIT + STATUS polling). Each accept first joins the threads of
/// connections that have closed, so the server holds only live
/// connections. stop() (and the destructor) shuts every connection down
/// and joins all threads; whatever the handler serves is left running.
class TcpServer {
 public:
  /// Delivers one reply line to the peer ("\n" appended by the server);
  /// false when the peer is gone — the handler should stop emitting.
  using LineSink = std::function<bool(const std::string&)>;
  /// Full-generality request handler: one request line in, any number of
  /// reply lines out through the sink (streaming verbs emit many).
  /// Returning false closes the connection. Runs on the connection's
  /// thread, so concurrent connections mean concurrent handler calls.
  using LineHandler =
      std::function<bool(const std::string& line, const LineSink& emit)>;

  TcpServer(LineHandler handler, TcpServerOptions opts = {});
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  int port() const { return port_; }
  void stop();

 private:
  /// One accepted connection. Its thread sets `fd` to -1 as its last act
  /// after closing it, so the thread can then be joined.
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void acceptLoop();
  void serveConnection(int fd);
  /// Joins and drops the connections whose threads have finished.
  void reapFinished();

  LineHandler handler_;
  TcpServerOptions opts_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  support::Mutex conn_mu_;
  /// Live connections (plus finished ones not yet reaped). A list, so a
  /// thread's entry keeps its address while others are dropped.
  std::list<Connection> conns_ SKEWOPT_GUARDED_BY(conn_mu_);
};

}  // namespace skewopt::serve
