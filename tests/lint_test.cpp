// Fixture suite for the skewlint engine: one seeded violation per LNT###
// rule, asserting each fires exactly where expected, that a
// suppression-with-reason silences it, and that a reason-less suppression
// is itself a finding (LNT090) which suppresses nothing.
#include "tools/lint/skewlint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/json.h"

namespace lint = skewopt::lint;

namespace {

std::vector<int> codes(const std::vector<lint::Finding>& fs) {
  std::vector<int> out;
  for (const auto& f : fs) out.push_back(f.code);
  return out;
}

bool fires(const std::vector<lint::Finding>& fs, int code, int line = 0) {
  return std::any_of(fs.begin(), fs.end(), [&](const lint::Finding& f) {
    return f.code == code && (line == 0 || f.line == line);
  });
}

}  // namespace

TEST(LintCode, FormatsZeroPadded) {
  EXPECT_EQ(lint::lintCodeString(1), "LNT001");
  EXPECT_EQ(lint::lintCodeString(30), "LNT030");
  EXPECT_EQ(lint::lintCodeString(90), "LNT090");
}

// ---------------------------------------------------------------------------
// LNT001: nondeterminism APIs.

TEST(Lnt001, FiresOnWallClockAndEnvInResultPath) {
  const std::string src =
      "void f() {\n"                                          // 1
      "  auto t = std::chrono::system_clock::now();\n"        // 2
      "  const char* e = std::getenv(\"X\");\n"               // 3
      "  int r = rand();\n"                                   // 4
      "  std::random_device rd;\n"                            // 5
      "  long s = time(nullptr);\n"                           // 6
      "}\n";
  const auto fs = lint::lintSource("src/core/x.cpp", src);
  EXPECT_TRUE(fires(fs, 1, 2));
  EXPECT_TRUE(fires(fs, 1, 3));
  EXPECT_TRUE(fires(fs, 1, 4));
  EXPECT_TRUE(fires(fs, 1, 5));
  EXPECT_TRUE(fires(fs, 1, 6));
}

TEST(Lnt001, SilentInObsAndOnLookalikes) {
  const std::string src =
      "void f() { auto t = std::chrono::system_clock::now(); }\n";
  EXPECT_TRUE(lint::lintSource("src/obs/clock.cpp", src).empty());

  // Word-boundary safety: retime(), time_point, randomize are not hits.
  const std::string lookalikes =
      "void g() {\n"
      "  retime(3);\n"
      "  std::chrono::steady_clock::time_point tp;\n"
      "  randomize_nothing();\n"
      "  double uptime = uptime_s;\n"
      "}\n";
  EXPECT_TRUE(lint::lintSource("src/core/y.cpp", lookalikes).empty());
}

TEST(Lnt001, SuppressedWithReason) {
  const std::string src =
      "void f() {\n"
      "  // SKEWLINT-ALLOW(LNT001: documented operator override)\n"
      "  const char* e = std::getenv(\"X\");\n"
      "}\n";
  EXPECT_TRUE(lint::lintSource("src/core/x.cpp", src).empty());

  const std::string same_line =
      "void f() {\n"
      "  const char* e = std::getenv(\"X\");  "
      "// SKEWLINT-ALLOW(LNT001: operator knob)\n"
      "}\n";
  EXPECT_TRUE(lint::lintSource("src/core/x.cpp", same_line).empty());
}

// ---------------------------------------------------------------------------
// LNT002: unordered iteration in result-affecting modules.

TEST(Lnt002, FiresOnRangeForOverUnorderedMember) {
  const std::string src =
      "#include <unordered_map>\n"                            // 1
      "struct S {\n"                                          // 2
      "  std::unordered_map<std::string, int> idx_;\n"        // 3
      "  int sum() const {\n"                                 // 4
      "    int s = 0;\n"                                      // 5
      "    for (const auto& kv : idx_) s += kv.second;\n"     // 6
      "    return s;\n"                                       // 7
      "  }\n"
      "};\n";
  const auto fs = lint::lintSource("src/serve/x.cpp", src);
  ASSERT_TRUE(fires(fs, 2, 6)) << lint::textReport(fs);
  // Same source outside the result-affecting modules: silent.
  EXPECT_TRUE(lint::lintSource("src/cts/x.cpp", src).empty());
}

TEST(Lnt002, SeesDeclarationsFromCompanionHeader) {
  const std::string header =
      "#include <unordered_map>\n"
      "struct R { std::unordered_map<int, double> nets_; double wl() "
      "const; };\n";
  const std::string impl =
      "double R::wl() const {\n"                              // 1
      "  double s = 0;\n"                                     // 2
      "  for (const auto& kv : nets_) s += kv.second;\n"      // 3
      "  return s;\n"
      "}\n";
  EXPECT_TRUE(lint::lintSource("src/network/r.cpp", impl).empty())
      << "without the header the member type is unknown";
  const auto fs = lint::lintSource("src/network/r.cpp", impl, header);
  EXPECT_TRUE(fires(fs, 2, 3)) << lint::textReport(fs);
}

TEST(Lnt002, SortedViewCallAndOrderedContainersAreClean) {
  const std::string src =
      "#include <map>\n"
      "#include <unordered_map>\n"
      "struct S {\n"
      "  std::unordered_map<std::string, int> idx_;\n"
      "  std::map<std::string, int> sorted_;\n"
      "  void f() {\n"
      "    for (const auto& kv : sorted_) use(kv);\n"
      "    for (const auto& k : sortedKeys(idx_)) use(k);\n"
      "  }\n"
      "};\n";
  EXPECT_TRUE(lint::lintSource("src/lp/x.cpp", src).empty());
}

TEST(Lnt002, FiresOnExplicitBeginAndSuppresses) {
  const std::string src =
      "#include <unordered_set>\n"                            // 1
      "std::unordered_set<int> seen_;\n"                      // 2
      "int first() { return *seen_.begin(); }\n"              // 3
      "// SKEWLINT-ALLOW(LNT002: feeds a sort below)\n"       // 4
      "void g() { for (int v : seen_) sink(v); }\n";          // 5
  const auto fs = lint::lintSource("src/check/x.cpp", src);
  EXPECT_TRUE(fires(fs, 2, 3)) << lint::textReport(fs);
  EXPECT_FALSE(fires(fs, 2, 5)) << "line-above suppression must hold";
}

// ---------------------------------------------------------------------------
// LNT003: mutex field without any GUARDED_BY member.

TEST(Lnt003, FiresOnUnguardedMutexField) {
  const std::string src =
      "#include <mutex>\n"                                    // 1
      "class C {\n"                                           // 2
      "  int x_ = 0;\n"                                       // 3
      "  std::mutex mu_;\n"                                   // 4
      "};\n";
  const auto fs = lint::lintSource("src/serve/x.h", src);
  EXPECT_TRUE(fires(fs, 3, 4)) << lint::textReport(fs);
}

TEST(Lnt003, SilentWhenAnyMemberIsGuarded) {
  const std::string src =
      "class C {\n"
      "  support::Mutex mu_;\n"
      "  int x_ SKEWOPT_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_TRUE(lint::lintSource("src/serve/x.h", src).empty());
}

TEST(Lnt003, TracksClassNamePastAttributeMacroAndLocalLocks) {
  const std::string src =
      "class SKEWOPT_CAPABILITY(\"mutex\") Wrapper {\n"       // 1
      " public:\n"                                            // 2
      "  void lock() { mu_.lock(); }\n"                       // 3
      " private:\n"                                           // 4
      "  std::mutex mu_;\n"                                   // 5
      "};\n";
  const auto fs = lint::lintSource("src/support/x.h", src);
  ASSERT_TRUE(fires(fs, 3, 5));
  EXPECT_NE(fs.front().message.find("Wrapper"), std::string::npos)
      << fs.front().message;

  // A MutexLock local inside a method body is not a field.
  const std::string local =
      "class C {\n"
      "  void f() { support::MutexLock lk(global_mu); }\n"
      "};\n";
  EXPECT_TRUE(lint::lintSource("src/serve/y.h", local).empty());
}

// ---------------------------------------------------------------------------
// LNT004: relaxed-ordering atomics.

TEST(Lnt004, FiresOutsideObsOnly) {
  const std::string src =
      "void f(std::atomic<int>& a) {\n"
      "  a.store(1, std::memory_order_relaxed);\n"            // 2
      "}\n";
  EXPECT_TRUE(fires(lint::lintSource("src/cluster/x.cpp", src), 4, 2));
  EXPECT_TRUE(lint::lintSource("src/obs/metrics.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// LNT005: clock reads outside the timing layer.

TEST(Lnt005, FiresOnClockReadsOutsideTheTimingLayer) {
  const std::string src =
      "double f() {\n"
      "  const std::uint64_t t0 = obs::nowNs();\n"              // 2
      "  auto t1 = std::chrono::steady_clock::now();\n"         // 3
      "  return 0.0;\n"
      "}\n";
  for (const char* path : {"src/core/x.cpp", "src/lp/x.h", "src/sta/x.cpp"}) {
    const auto fs = lint::lintSource(path, src);
    EXPECT_TRUE(fires(fs, 5, 2)) << path;
    EXPECT_TRUE(fires(fs, 5, 3)) << path;
  }
  for (const char* path : {"src/obs/clock.cpp", "src/serve/scheduler.cpp",
                           "src/cluster/x.cpp", "src/support/x.cpp",
                           "tests/x_test.cpp", "bench/x.cpp"})
    EXPECT_FALSE(fires(lint::lintSource(path, src), 5)) << path;
}

TEST(Lnt005, SpanDurationsAndMentionsDoNotFire) {
  const std::string src =
      "// obs::nowNs() and steady_clock::now in a comment\n"
      "double f() {\n"
      "  obs::Span s(\"obs::nowNs()\");\n"
      "  using C = std::chrono::steady_clock;\n"
      "  return s.end();\n"
      "}\n";
  EXPECT_TRUE(lint::lintSource("src/core/x.cpp", src).empty());
}

TEST(Lnt005, SuppressionWithReasonSilences) {
  const std::string src =
      "// SKEWLINT-ALLOW(LNT005: deadline needs a real time_point)\n"
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint::lintSource("src/core/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// LNT010: raw threads.

TEST(Lnt010, FiresOnRawThreadAndDetachOutsideOwners) {
  const std::string src =
      "void f() {\n"
      "  std::thread t([] {});\n"                             // 2
      "  t.detach();\n"                                       // 3
      "}\n";
  const auto fs = lint::lintSource("src/core/x.cpp", src);
  EXPECT_TRUE(fires(fs, 10, 2));
  EXPECT_TRUE(fires(fs, 10, 3));
  EXPECT_TRUE(lint::lintSource("src/serve/x.cpp", src).empty());
  EXPECT_TRUE(lint::lintSource("src/support/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// LNT011: swallowed catch (...).

TEST(Lnt011, FiresOnSilentSwallowOnly) {
  const std::string swallow =
      "void f() {\n"
      "  try { g(); } catch (...) { count++; }\n"             // 2
      "}\n";
  EXPECT_TRUE(fires(lint::lintSource("src/core/x.cpp", swallow), 11, 2));

  const std::string rethrow =
      "void f() { try { g(); } catch (...) { cleanup(); throw; } }\n";
  EXPECT_TRUE(lint::lintSource("src/core/x.cpp", rethrow).empty());

  const std::string captured =
      "void f() { try { g(); } catch (...) { e = "
      "std::current_exception(); } }\n";
  EXPECT_TRUE(lint::lintSource("src/core/x.cpp", captured).empty());

  const std::string logged =
      "void f() { try { g(); } catch (...) { std::fprintf(stderr, "
      "\"boom\"); } }\n";
  EXPECT_TRUE(lint::lintSource("src/core/x.cpp", logged).empty());
}

// ---------------------------------------------------------------------------
// LNT030: banned includes in headers.

TEST(Lnt030, FiresInHeadersNotSources) {
  const std::string src =
      "#include <iostream>\n"                                 // 1
      "#include <regex>\n"                                    // 2
      "#include <vector>\n";                                  // 3
  const auto fs = lint::lintSource("src/network/x.h", src);
  EXPECT_TRUE(fires(fs, 30, 1));
  EXPECT_TRUE(fires(fs, 30, 2));
  EXPECT_FALSE(fires(fs, 30, 3));
  EXPECT_TRUE(lint::lintSource("src/network/x.cpp", src).empty())
      << "banned only in headers";
}

// ---------------------------------------------------------------------------
// LNT090: reason-less suppressions are findings and suppress nothing.

TEST(Lnt090, ReasonlessSuppressionFiresAndDoesNotSuppress) {
  const std::string src =
      "void f() {\n"
      "  const char* e = std::getenv(\"X\");  // SKEWLINT-ALLOW(LNT001:)\n"
      "}\n";
  const auto fs = lint::lintSource("src/core/x.cpp", src);
  EXPECT_TRUE(fires(fs, 90, 2)) << lint::textReport(fs);
  EXPECT_TRUE(fires(fs, 1, 2)) << "a bad suppression must not silence";

  const std::string no_colon =
      "int r = rand();  // SKEWLINT-ALLOW(LNT001)\n";
  const auto fs2 = lint::lintSource("src/core/x.cpp", no_colon);
  EXPECT_TRUE(fires(fs2, 90, 1));
  EXPECT_TRUE(fires(fs2, 1, 1));

  const std::string blank_reason =
      "int r = rand();  // SKEWLINT-ALLOW(LNT001:   )\n";
  EXPECT_TRUE(fires(lint::lintSource("src/core/x.cpp", blank_reason), 90, 1));
}

TEST(Suppression, OnlyCoversItsOwnCode) {
  const std::string src =
      "void f() {\n"
      "  // SKEWLINT-ALLOW(LNT002: wrong code for this line)\n"
      "  const char* e = std::getenv(\"X\");\n"
      "}\n";
  EXPECT_TRUE(fires(lint::lintSource("src/core/x.cpp", src), 1, 3));
}

// ---------------------------------------------------------------------------
// Lexer robustness: strings and comments never produce findings.

TEST(Lexer, IgnoresStringsCommentsAndRawStrings) {
  const std::string src =
      "const char* a = \"rand() getenv system_clock\";\n"
      "// rand() in a comment\n"
      "/* std::getenv(\"X\") in a block comment */\n"
      "const char* b = R\"(time(nullptr) detach())\";\n"
      "char c = '\\\"'; int r2 = safe();\n";
  EXPECT_TRUE(lint::lintSource("src/core/x.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// Reports.

TEST(Reports, TextAndJsonCarryTheFinding) {
  const auto fs = lint::lintSource("src/core/x.cpp", "int r = rand();\n");
  ASSERT_EQ(codes(fs), std::vector<int>{1});
  const std::string text = lint::textReport(fs);
  EXPECT_NE(text.find("LNT001"), std::string::npos);
  EXPECT_NE(text.find("src/core/x.cpp:1"), std::string::npos);

  namespace json = skewopt::serve::json;
  const json::Value v = json::parse(lint::jsonReport(fs));
  EXPECT_EQ(v.str("tool", ""), "skewlint");
  EXPECT_EQ(v.num("errors", -1), 1.0);
  const json::Value* arr = v.find("findings");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->size(), 1u);
  EXPECT_EQ(arr->at(0).str("code", ""), "LNT001");
  EXPECT_EQ(arr->at(0).num("line", 0), 1.0);
}
