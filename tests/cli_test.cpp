// End-to-end tests for the skewopt_cli binary's observability flags:
// --trace exports a Chrome trace-event JSON that the strict serve-side
// parser accepts, --metrics exports Prometheus text, and an unwritable
// output path is rejected up front with exit code 2 (usage error) before
// any optimization work runs. The binary path is injected at compile time
// (SKEWOPT_CLI_PATH, see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/json.h"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(SKEWOPT_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  if (!pipe) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) r.output.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmpPath(const std::string& name) {
  return ::testing::TempDir() + "skewopt_cli_test_" + name;
}

/// A generated design file shared by the tests below.
const std::string& designFile() {
  static const std::string path = [] {
    const std::string p = tmpPath("design.json");
    const RunResult r = run(
        "gen --testcase CLS1v1 --sinks 30 --pairs 30 --seed 3 --out " + p);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    return p;
  }();
  return path;
}

TEST(CliObsTest, ReportExportsTraceAndMetrics) {
  const std::string trace = tmpPath("report_trace.json");
  const std::string metrics = tmpPath("report_metrics.prom");
  const RunResult r = run("report " + designFile() + " --trace " + trace +
                          " --metrics " + metrics);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("wrote trace"), std::string::npos);
  EXPECT_NE(r.output.find("wrote metrics"), std::string::npos);

  // The trace must be strict JSON in Chrome trace-event shape.
  const skewopt::serve::json::Value v =
      skewopt::serve::json::parse(slurp(trace));
  EXPECT_EQ(v.str("displayTimeUnit", ""), "ms");
  ASSERT_NE(v.find("traceEvents"), nullptr);

  const std::string prom = slurp(metrics);
  EXPECT_NE(prom.find("# TYPE skewopt_sta_full_analyses_total counter"),
            std::string::npos);
}

TEST(CliObsTest, OptimizeTraceContainsFlowAndPerUSpans) {
  const std::string trace = tmpPath("opt_trace.json");
  const std::string out = tmpPath("opt_out.json");
  const RunResult r = run("optimize " + designFile() +
                          " --flow global-local --out " + out + " --trace " +
                          trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const skewopt::serve::json::Value v =
      skewopt::serve::json::parse(slurp(trace));
  const skewopt::serve::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t flow_runs = 0;
  std::size_t u_points = 0;
  std::size_t lp_builds = 0;
  std::size_t local_rounds = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const std::string name = events->at(i).str("name", "");
    if (name == "flow.run") ++flow_runs;
    if (name == "global.u_point") ++u_points;
    if (name == "global.lp_build") ++lp_builds;
    if (name == "local.round") ++local_rounds;
  }
  EXPECT_EQ(flow_runs, 1u);
  EXPECT_GT(u_points, 0u);   // one span per U-sweep point
  EXPECT_EQ(lp_builds, 2u);  // the pass-1 model and the sweep model
  EXPECT_GT(local_rounds, 0u);
}

TEST(CliObsTest, UnwritableOutputPathIsAUsageError) {
  const std::string bad = "/nonexistent-dir-for-cli-test/out.json";
  const RunResult trace_r =
      run("report " + designFile() + " --trace " + bad);
  EXPECT_EQ(trace_r.exit_code, 2);
  EXPECT_NE(trace_r.output.find("--trace"), std::string::npos);
  EXPECT_NE(trace_r.output.find("cannot write"), std::string::npos);

  const RunResult metrics_r =
      run("optimize " + designFile() + " --flow local --out " +
          tmpPath("unused.json") + " --metrics " + bad);
  EXPECT_EQ(metrics_r.exit_code, 2);
  EXPECT_NE(metrics_r.output.find("--metrics"), std::string::npos);
  // Validation happens before the design loads: no optimization output.
  EXPECT_EQ(metrics_r.output.find("flow:"), std::string::npos);
}

}  // namespace
