// Long-lived optimization daemon: a one-shard cluster front-end (one
// Scheduler) behind a local TCP socket.
//
//   skewopt_served [--port N] [--workers N] [--queue N] [--cache N]
//                  [--warm-capacity N] [--log PATH|-] [--log-level LEVEL]
//
// Speaks the newline-delimited JSON protocol of docs/serving.md. Try it
// with netcat:
//
//   $ skewopt_served --port 7447 &
//   $ printf '%s\n' '{"cmd":"SUBMIT","spec":{"source":{"kind":"testgen",
//     "testcase":"CLS1v1","sinks":80,"seed":3},"mode":"local",
//     "options":{"local":{"max_iterations":4}}}}' | nc 127.0.0.1 7447
//   {"ok":true,"id":1,"hash":"...","state":"QUEUED"}
//
// SIGINT/SIGTERM drains gracefully: intake stops, queued and running jobs
// finish, then the process exits.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "cluster/protocol.h"
#include "obs/log.h"
#include "serve/server.h"

using namespace skewopt;

namespace {

std::atomic<bool> g_stop{false};

void onSignal(int) { g_stop.store(true); }

int usage() {
  std::fprintf(stderr,
               "usage: skewopt_served [--port N] [--workers N] [--queue N] "
               "[--cache N] [--warm-capacity N] [--log PATH|-] "
               "[--log-level debug|info|warn|error]\n");
  return 2;
}

bool parseInt(const char* text, long min, long max, long* out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < min || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::SchedulerOptions sched_opts;
  serve::TcpServerOptions tcp_opts;
  obs::Logger::Options log_opts;
  bool log_requested = false;
  bool log_level_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "skewopt_served: missing value for %s\n",
                   flag.c_str());
      return usage();
    }
    const std::string text = argv[++i];

    // String-valued flags first; everything else takes an integer.
    if (flag == "--log") {
      log_requested = true;
      if (text != "-") log_opts.path = text;  // "-" = stderr
      continue;
    }
    if (flag == "--log-level") {
      log_requested = true;
      log_level_set = true;
      if (!obs::parseLogLevel(text, &log_opts.level)) {
        std::fprintf(stderr, "skewopt_served: bad log level '%s'\n",
                     text.c_str());
        return usage();
      }
      continue;
    }

    long value = 0;
    if (!parseInt(text.c_str(), 0, 1 << 20, &value)) {
      std::fprintf(stderr, "skewopt_served: bad value for %s\n", flag.c_str());
      return usage();
    }
    if (flag == "--port") {
      if (value > 65535) {
        std::fprintf(stderr, "skewopt_served: port out of range\n");
        return usage();
      }
      tcp_opts.port = static_cast<int>(value);
    } else if (flag == "--workers") {
      sched_opts.workers = static_cast<std::size_t>(value);
    } else if (flag == "--queue") {
      sched_opts.queue_capacity = static_cast<std::size_t>(value);
    } else if (flag == "--cache") {
      sched_opts.cache_capacity = static_cast<std::size_t>(value);
    } else if (flag == "--warm-capacity") {
      sched_opts.warm_capacity = static_cast<std::size_t>(value);
    } else {
      std::fprintf(stderr, "skewopt_served: unknown flag %s\n", flag.c_str());
      return usage();
    }
  }

  if (log_requested) {
    // --log without --log-level means info; --log-level alone logs to
    // stderr.
    if (!log_level_set) log_opts.level = obs::LogLevel::kInfo;
    std::string err;
    if (!obs::Logger::global().configure(log_opts, &err)) {
      std::fprintf(stderr, "skewopt_served: cannot open log: %s\n",
                   err.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  const tech::TechModel tech = tech::TechModel::make28nm();
  const eco::StageDelayLut lut(tech);
  cluster::ClusterOptions cluster_opts;
  cluster_opts.shards = 1;
  cluster_opts.shard = sched_opts;
  cluster::ClusterFrontend fe(tech, lut, cluster_opts);

  try {
    serve::TcpServer server(cluster::clusterLineHandler(fe), tcp_opts);
    std::printf("skewopt_served: listening on %s:%d (%zu workers, queue %zu, "
                "cache %zu)\n",
                tcp_opts.host.c_str(), server.port(), sched_opts.workers,
                sched_opts.queue_capacity, sched_opts.cache_capacity);
    std::fflush(stdout);
    while (!g_stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::printf("skewopt_served: draining...\n");
    std::fflush(stdout);
    server.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skewopt_served: %s\n", e.what());
    return 1;
  }
  fe.drain();
  const serve::SchedulerStats s = fe.stats().total;
  std::printf("skewopt_served: done=%zu failed=%zu cancelled=%zu "
              "cache_hits=%zu\n",
              s.done, s.failed, s.cancelled, s.cache.hits);
  return 0;
}
