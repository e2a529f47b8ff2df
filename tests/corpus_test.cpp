// Malformed-input corpus: hostile, truncated, and oversized request lines
// driven through the protocol's one dispatcher (cluster::handleClusterLine).
// Every reply must be a clean one-line JSON error — parseable, ok:false, no
// crash. The same
// binary runs in the ASan/UBSan tier-1 variants, where a stack overflow
// from hostile nesting or an out-of-bounds parse would be fatal.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/frontend.h"
#include "cluster/protocol.h"
#include "serve/json.h"
#include "serve/server.h"

namespace skewopt::serve {
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

std::vector<std::string> corpusLines(const std::string& name) {
  const std::string path = std::string(SKEWOPT_CORPUS_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  EXPECT_GT(lines.size(), 10u) << "suspiciously small corpus " << path;
  return lines;
}

/// Programmatic hostiles that don't fit a line-oriented text file:
/// oversized payloads, deep nesting, embedded NULs.
std::vector<std::string> generatedHostiles() {
  std::vector<std::string> lines;
  lines.push_back(std::string(200000, '['));                 // deep array
  lines.push_back(std::string(200000, '{'));                 // deep object
  {
    std::string deep;
    for (int i = 0; i < 50000; ++i) deep += "{\"a\":";
    deep += "1";
    for (int i = 0; i < 50000; ++i) deep += "}";
    lines.push_back(deep);                                   // deep but closed
  }
  lines.push_back("{\"cmd\":\"" + std::string(4 << 20, 'a') + "\"}");
  lines.push_back("{\"cmd\":\"STATUS\",\"id\":" +
                  std::string(100000, '1') + "}");
  {
    std::string nul = "{\"cmd\":\"STATUS\"";
    nul += '\0';
    nul += ",\"id\":0}";
    lines.push_back(nul);
  }
  lines.push_back("\"" + std::string(1 << 20, '\\') + "\"");  // escape storm
  // Oversized payload truncated mid-string (no closing quote or braces).
  lines.push_back("{\"cmd\":\"SUBMIT\",\"spec\":{\"source\":{\"kind\":"
                  "\"inline\",\"text\":\"" +
                  std::string(2 << 20, 'x'));
  return lines;
}

/// The reply must parse as strict JSON, be an object, and carry ok:false.
void expectCleanError(const std::string& reply, const std::string& input) {
  const std::string label =
      input.size() > 80 ? input.substr(0, 80) + "..." : input;
  ASSERT_FALSE(reply.empty()) << "empty reply for: " << label;
  json::Value v;
  ASSERT_NO_THROW(v = json::parse(reply)) << "unparseable reply '" << reply
                                          << "' for: " << label;
  ASSERT_TRUE(v.isObject()) << "non-object reply for: " << label;
  EXPECT_FALSE(v.boolean("ok", true)) << "hostile input accepted: " << label
                                      << " -> " << reply;
  EXPECT_FALSE(v.str("error", "").empty()) << "no error text for: " << label;
}

TEST(MalformedCorpus, ClusterProtocolRepliesCleanErrors) {
  cluster::ClusterOptions copts;
  copts.shards = 2;
  copts.shard.workers = 1;
  copts.shard.queue_capacity = 8;
  copts.shard.cache_capacity = 8;
  copts.shard.warm_capacity = 4;
  // Dispatch-hermetic: nothing in the corpus may reach the runner (every
  // line must fail at parse or validation), and if one ever does, the stub
  // keeps the test fast instead of running a real flow.
  cluster::ClusterFrontend fe(
      sharedTech(), sharedLut(), copts,
      [](const JobSpec&) { return core::FlowResult{}; });

  std::vector<std::string> inputs = corpusLines("malformed_requests.txt");
  const std::vector<std::string> extra =
      corpusLines("malformed_cluster_requests.txt");
  inputs.insert(inputs.end(), extra.begin(), extra.end());
  const std::vector<std::string> gen = generatedHostiles();
  inputs.insert(inputs.end(), gen.begin(), gen.end());

  for (const std::string& line : inputs) {
    std::vector<std::string> replies;
    const TcpServer::LineSink sink = [&](const std::string& s) {
      replies.push_back(s);
      return true;
    };
    EXPECT_TRUE(cluster::handleClusterLine(fe, line, sink))
        << "connection dropped on: " << line.substr(0, 80);
    ASSERT_FALSE(replies.empty()) << "no reply for: " << line.substr(0, 80);
    // Streaming verbs may emit several lines; all must parse, and the
    // first must be the error verdict.
    for (const std::string& r : replies)
      ASSERT_NO_THROW(json::parse(r)) << "unparseable reply " << r;
    expectCleanError(replies.front(), line);
  }
  fe.shutdown();
}

// ---------------------------------------------------------------------------
// The parser-level guarantee behind the corpus: bounded recursion.

TEST(JsonDepthCap, DeepNestingThrowsInsteadOfOverflowing) {
  const std::string deep(100000, '[');
  EXPECT_THROW(json::parse(deep), std::runtime_error);

  std::string closed;
  for (int i = 0; i < 500; ++i) closed += "[";
  for (int i = 0; i < 500; ++i) closed += "]";
  EXPECT_THROW(json::parse(closed), std::runtime_error)
      << "even well-formed input beyond the cap must be rejected";
}

TEST(JsonDepthCap, ReasonableNestingStillParses) {
  std::string ok = "1";
  for (int i = 0; i < 100; ++i) ok = "[" + ok + "]";
  json::Value v;
  ASSERT_NO_THROW(v = json::parse(ok));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.size(), 1u);
    v = v.at(0);
  }
  EXPECT_EQ(v.asDouble(), 1.0);
}

}  // namespace
}  // namespace skewopt::serve
