// Command-line driver for the library: generate a testcase, report its
// multi-corner skew state, optimize it, and persist designs to disk.
//
//   skewopt_cli gen --testcase CLS1v1 --sinks 120 --pairs 120 --seed 1
//                   --out design.skv
//   skewopt_cli report design.skv [--detailed]
//   skewopt_cli diff before.skv after.skv
//   skewopt_cli optimize design.skv --flow global-local [--train]
//                   --out optimized.skv
//
// The .skv format round-trips the exact timing state (see network/io.h).
//
// Argument handling is strict: unknown flags, missing flag values, bad
// numeric values, and unreadable files all produce a diagnostic on stderr
// and a non-zero exit code instead of an abort or a silently ignored flag.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "check/check.h"
#include "core/flow.h"
#include "network/eco_export.h"
#include "network/io.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "sta/report.h"
#include "testgen/testgen.h"

using namespace skewopt;

namespace {

/// Thrown for malformed invocations; main() prints the message plus usage
/// and exits 2 (errors from the library itself exit 1).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses `--flag value` / `--flag` pairs starting at argv[start].
/// `valued` flags require a following value; `boolean` flags take none.
/// Anything else — unknown flags, stray positionals, a valued flag at the
/// end of the line — is rejected.
std::map<std::string, std::string> parseFlags(
    int argc, char** argv, int start, const std::set<std::string>& valued,
    const std::set<std::string>& boolean) {
  std::map<std::string, std::string> flags;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw UsageError("unexpected argument '" + arg + "'");
    const std::string key = arg.substr(2);
    if (boolean.count(key)) {
      // Move-assigned: GCC 12's -Wrestrict misdiagnoses the char* copy
      // path of operator=(const char*) under heavy inlining.
      flags[key] = std::string("1");
    } else if (valued.count(key)) {
      if (i + 1 >= argc)
        throw UsageError("flag '--" + key + "' requires a value");
      flags[key] = argv[++i];
    } else {
      throw UsageError("unknown flag '--" + key + "'");
    }
  }
  return flags;
}

/// Strict unsigned decimal parse: the whole token must be digits and fit.
unsigned long parseCount(const std::map<std::string, std::string>& flags,
                         const std::string& key, unsigned long fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-' || errno == ERANGE)
    throw UsageError("flag '--" + key + "' expects a non-negative integer, got '" +
                     text + "'");
  return v;
}

/// Configures the process-wide structured logger from `--log PATH|-` (the
/// JSON-lines sink; "-" = stderr) and `--log-level`. Either flag alone
/// works: --log defaults the level to info, --log-level alone logs to
/// stderr.
void configureLogging(const std::map<std::string, std::string>& flags) {
  const auto log_it = flags.find("log");
  const auto lvl_it = flags.find("log-level");
  if (log_it == flags.end() && lvl_it == flags.end()) return;
  obs::Logger::Options o;
  o.level = obs::LogLevel::kInfo;
  if (lvl_it != flags.end() && !obs::parseLogLevel(lvl_it->second, &o.level))
    throw UsageError(
        "flag '--log-level' expects debug|info|warn|error|off, got '" +
        lvl_it->second + "'");
  if (log_it != flags.end() && log_it->second != "-") o.path = log_it->second;
  std::string err;
  if (!obs::Logger::global().configure(o, &err))
    throw UsageError("flag '--log': " + err);
}

/// Resolves `--check` (plus the SKEWOPT_CHECK_LEVEL override) for a
/// command; `fallback` is the command's default gate level.
check::Level parseCheckFlag(const std::map<std::string, std::string>& flags,
                            check::Level fallback) {
  check::Level lvl = fallback;
  const auto it = flags.find("check");
  if (it != flags.end() && !check::parseLevel(it->second, &lvl))
    throw UsageError("flag '--check' expects off|cheap|deep, got '" +
                     it->second + "'");
  return check::effectiveLevel(lvl);
}

/// Scopes the `--trace out.json` / `--metrics out.prom` outputs of one
/// command. Paths are validated for writability up front (a bad path is a
/// usage error — diagnostic + exit 2 — before any optimization work);
/// the facilities are enabled only when requested, and finish() exports
/// after the command's work is done.
class ObsOutputs {
 public:
  explicit ObsOutputs(const std::map<std::string, std::string>& flags) {
    auto it = flags.find("trace");
    if (it != flags.end()) trace_path_ = it->second;
    it = flags.find("metrics");
    if (it != flags.end()) metrics_path_ = it->second;
    checkWritable(trace_path_, "trace");
    checkWritable(metrics_path_, "metrics");
    if (!metrics_path_.empty()) obs::setMetricsEnabled(true);
    if (!trace_path_.empty()) {
      since_ns_ = obs::nowNs();
      obs::Tracer::global().start();
    }
  }

  void finish() {
    if (!trace_path_.empty()) {
      obs::Tracer::global().stop();
      std::string err;
      if (!obs::Tracer::global().writeJsonFile(trace_path_, since_ns_, &err))
        throw std::runtime_error("cannot write trace: " + err);
      std::printf("wrote trace %s\n", trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      const std::string text =
          obs::prometheusText(obs::MetricsRegistry::global().snapshot());
      std::FILE* f = std::fopen(metrics_path_.c_str(), "w");
      if (f == nullptr ||
          std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
          std::fclose(f) != 0)
        throw std::runtime_error("cannot write metrics: " + metrics_path_);
      std::printf("wrote metrics %s\n", metrics_path_.c_str());
    }
  }

 private:
  static void checkWritable(const std::string& path, const char* flag) {
    if (path.empty()) return;
    // Open for append so an existing file is not truncated before the
    // command has produced anything; the export overwrites it later.
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr)
      throw UsageError("flag '--" + std::string(flag) + "': cannot write '" +
                       path + "'");
    std::fclose(f);
  }

  std::string trace_path_;
  std::string metrics_path_;
  std::uint64_t since_ns_ = 0;
};

int usage() {
  std::fprintf(stderr,
      "usage:\n"
      "  skewopt_cli gen --testcase CLS1v1|CLS1v2|CLS2v1 [--sinks N]\n"
      "                  [--pairs N] [--seed S] --out FILE\n"
      "  skewopt_cli report FILE [--detailed] [--check off|cheap|deep]\n"
      "                  [--trace FILE.json] [--metrics FILE.prom]\n"
      "  skewopt_cli diff BEFORE AFTER       (emit ECO script)\n"
      "  skewopt_cli optimize FILE --flow global|local|global-local\n"
      "                  [--train] [--iterations N]\n"
      "                  [--check off|cheap|deep] --out FILE\n"
      "                  [--trace FILE.json] [--metrics FILE.prom]\n"
      "                  [--record FILE.json]\n"
      "\n"
      "--check runs the SKW design-invariant verifiers (see\n"
      "docs/static_analysis.md); SKEWOPT_CHECK_LEVEL overrides it.\n"
      "--trace exports a Chrome trace-event JSON (open in Perfetto);\n"
      "--metrics exports a Prometheus text snapshot (docs/observability.md);\n"
      "--record exports the flight record JSON of the optimization run;\n"
      "--log FILE|- / --log-level enable JSON-lines structured logging\n"
      "(report and optimize; docs/observability.md \"Job telemetry\").\n");
  return 2;
}

void report(const tech::TechModel& tech, const network::Design& d) {
  const sta::Timer timer(tech);
  const core::Objective obj(d, timer);
  const core::VariationReport r = obj.evaluate(d, timer);
  std::printf("%s: %zu sinks, %zu buffers, %zu pairs, %.0f um wire\n",
              d.name.c_str(), d.tree.sinks().size(), d.tree.numBuffers(),
              d.pairs.size(), d.routing.totalWirelength());
  std::printf("  sum of normalized skew variations: %.1f ps\n",
              r.sum_variation_ps);
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
    std::printf("  %s: local skew %.1f ps, alpha %.3f, power %.3f mW\n",
                tech.corner(d.corners[ki]).name.c_str(), r.local_skew_ps[ki],
                obj.alphas()[ki], sta::clockTreePowerMw(d, d.corners[ki]));
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const tech::TechModel tech = tech::TechModel::make28nm();

  if (cmd == "gen") {
    const auto flags = parseFlags(argc, argv, 2,
                                  {"testcase", "sinks", "pairs", "seed", "out"},
                                  {});
    if (!flags.count("testcase"))
      throw UsageError("gen requires --testcase");
    if (!flags.count("out")) throw UsageError("gen requires --out");
    testgen::TestcaseOptions o;
    o.sinks = parseCount(flags, "sinks", o.sinks);
    o.max_pairs = parseCount(flags, "pairs", o.max_pairs);
    o.seed = parseCount(flags, "seed", o.seed);
    const network::Design d =
        testgen::makeTestcase(tech, flags.at("testcase"), o);
    network::saveDesign(d, flags.at("out"));
    std::printf("wrote %s\n", flags.at("out").c_str());
    report(tech, d);
    return 0;
  }

  if (cmd == "report") {
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0)
      throw UsageError("report requires a design file");
    const auto flags = parseFlags(
        argc, argv, 3, {"check", "trace", "metrics", "log", "log-level"},
        {"detailed"});
    configureLogging(flags);
    ObsOutputs outputs(flags);
    const network::Design d = network::loadDesign(tech, argv[2]);
    // report is a read-only audit, so unlike optimize it does not throw on
    // findings: it prints the full diagnostic report and exits non-zero.
    const check::Level chk = parseCheckFlag(flags, check::Level::kCheap);
    if (chk != check::Level::kOff) {
      check::DiagnosticEngine engine;
      engine.setContext("cli:report");
      check::CheckOptions copts;
      copts.level = chk;
      check::checkDesign(d, copts, engine);
      if (chk >= check::Level::kDeep && !engine.hasErrors())
        check::checkDesignTiming(d, sta::Timer(tech), engine);
      if (!engine.empty())
        std::fprintf(stderr, "%s", engine.text().c_str());
      if (engine.hasErrors()) {
        std::fprintf(stderr, "skewopt_cli: %zu design check error(s)\n",
                     engine.errorCount());
        return 1;
      }
    }
    if (flags.count("detailed")) {
      const sta::Timer timer(tech);
      sta::writeTimingReport(std::cout, d, timer);
    } else {
      report(tech, d);
    }
    outputs.finish();
    return 0;
  }

  if (cmd == "diff") {
    if (argc < 4) throw UsageError("diff requires BEFORE and AFTER files");
    parseFlags(argc, argv, 4, {}, {});  // rejects any trailing arguments
    const network::Design before = network::loadDesign(tech, argv[2]);
    const network::Design after = network::loadDesign(tech, argv[3]);
    const network::EcoDiffStats stats =
        network::writeEcoScript(before, after, std::cout);
    std::fprintf(stderr, "%zu ECO commands\n", stats.total());
    return 0;
  }

  if (cmd == "optimize") {
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0)
      throw UsageError("optimize requires a design file");
    const auto flags = parseFlags(argc, argv, 3,
                                  {"flow", "iterations", "out", "check",
                                   "trace", "metrics", "record", "log",
                                   "log-level"},
                                  {"train"});
    configureLogging(flags);
    ObsOutputs outputs(flags);
    network::Design d = network::loadDesign(tech, argv[2]);

    core::FlowMode mode = core::FlowMode::kGlobalLocal;
    const std::string fm =
        flags.count("flow") ? flags.at("flow") : "global-local";
    if (fm == "global") mode = core::FlowMode::kGlobal;
    else if (fm == "local") mode = core::FlowMode::kLocal;
    else if (fm != "global-local")
      throw UsageError("--flow expects global|local|global-local, got '" +
                       fm + "'");

    core::DeltaLatencyModel model;
    const core::DeltaLatencyModel* model_ptr = nullptr;
    if (flags.count("train")) {
      std::printf("training delta-latency models...\n");
      core::TrainOptions t;
      t.cases = 24;
      t.moves_per_case = 24;
      model.train(tech, d.corners, t);
      model_ptr = &model;
    }

    const eco::StageDelayLut lut(tech);
    core::FlowOptions fopts;
    fopts.local.max_iterations =
        parseCount(flags, "iterations", fopts.local.max_iterations);
    // The flow's stage gates throw check::CheckFailure on a violation;
    // main()'s std::exception handler prints the SKW report and exits 1.
    fopts.check_level = parseCheckFlag(flags, fopts.check_level);
    const core::Flow flow(tech, lut, fopts);
    const core::FlowResult r = flow.run(d, mode, model_ptr);

    if (flags.count("record")) {
      const std::string& path = flags.at("record");
      const std::string doc =
          serve::json::dump(serve::flightRecordToJson(r));
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr ||
          std::fwrite(doc.data(), 1, doc.size(), f) != doc.size() ||
          std::fputc('\n', f) == EOF || std::fclose(f) != 0)
        throw std::runtime_error("cannot write flight record: " + path);
      std::printf("wrote flight record %s\n", path.c_str());
    }

    std::printf("%s flow: %.1f -> %.1f ps (%.1f%% reduction)\n",
                core::flowModeName(mode), r.before.sum_variation_ps,
                r.after.sum_variation_ps,
                100.0 * (1.0 - r.after.sum_variation_ps /
                                   r.before.sum_variation_ps));
    report(tech, d);
    if (flags.count("out")) {
      network::saveDesign(d, flags.at("out"));
      std::printf("wrote %s\n", flags.at("out").c_str());
    }
    outputs.finish();
    return 0;
  }
  throw UsageError("unknown command '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "skewopt_cli: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skewopt_cli: error: %s\n", e.what());
    return 1;
  }
}
