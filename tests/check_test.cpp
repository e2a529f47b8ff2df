// The design-invariant checker subsystem: clean designs must pass every
// verifier silently, and each seeded corruption must be caught by its
// documented SKW code (docs/static_analysis.md is the catalog).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "check/check.h"
#include "core/global_opt.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/spec_check.h"
#include "testgen/testgen.h"

namespace skewopt {
namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}
const eco::StageDelayLut& sharedLut() {
  static eco::StageDelayLut lut(sharedTech());
  return lut;
}

network::Design smallDesign(std::uint64_t seed = 3) {
  testgen::TestcaseOptions o;
  o.sinks = 40;
  o.max_pairs = 40;
  o.seed = seed;
  return testgen::makeTestcase(sharedTech(), "CLS1v1", o);
}

/// Runs the full cheap pass (plus deep placement scan) on a design.
check::DiagnosticEngine runChecks(const network::Design& d,
                                  check::Level level = check::Level::kDeep) {
  check::DiagnosticEngine engine;
  check::CheckOptions opts;
  opts.level = level;
  check::checkDesign(d, opts, engine);
  return engine;
}

/// First live buffer that has at least one child.
int someDrivingBuffer(const network::ClockTree& tree) {
  for (const int b : tree.buffers())
    if (!tree.node(b).children.empty()) return b;
  ADD_FAILURE() << "testcase has no driving buffer";
  return -1;
}

// --- diagnostics engine ---

TEST(Diagnostics, LevelNamesParseAndRoundTrip) {
  check::Level lvl = check::Level::kOff;
  EXPECT_TRUE(check::parseLevel("cheap", &lvl));
  EXPECT_EQ(lvl, check::Level::kCheap);
  EXPECT_TRUE(check::parseLevel("deep", &lvl));
  EXPECT_EQ(lvl, check::Level::kDeep);
  EXPECT_TRUE(check::parseLevel("0", &lvl));
  EXPECT_EQ(lvl, check::Level::kOff);
  EXPECT_FALSE(check::parseLevel("paranoid", &lvl));
  EXPECT_STREQ(check::levelName(check::Level::kDeep), "deep");
  EXPECT_EQ(check::codeString(7), "SKW007");
}

TEST(Diagnostics, EnvOverridesConfiguredLevel) {
  ::setenv("SKEWOPT_CHECK_LEVEL", "deep", 1);
  EXPECT_EQ(check::effectiveLevel(check::Level::kOff), check::Level::kDeep);
  ::setenv("SKEWOPT_CHECK_LEVEL", "not-a-level", 1);
  EXPECT_EQ(check::effectiveLevel(check::Level::kCheap),
            check::Level::kCheap);
  ::unsetenv("SKEWOPT_CHECK_LEVEL");
  EXPECT_EQ(check::effectiveLevel(check::Level::kCheap),
            check::Level::kCheap);
}

TEST(Diagnostics, ReportCapsAndCountsAndEmits) {
  check::DiagnosticEngine engine(/*max_diagnostics=*/4);
  engine.setContext("unit");
  engine.report(142, check::Severity::kWarning, "placement", "dup \"pos\"");
  for (int i = 0; i < 6; ++i)
    engine.report(101, check::Severity::kError, "tree-structure", "boom");
  EXPECT_EQ(engine.errorCount(), 6u);
  EXPECT_EQ(engine.warningCount(), 1u);
  EXPECT_EQ(engine.diagnostics().size(), 4u);
  EXPECT_EQ(engine.dropped(), 3u);
  EXPECT_TRUE(engine.hasCode(101));
  EXPECT_FALSE(engine.hasCode(999));
  const std::string text = engine.text();
  EXPECT_NE(text.find("SKW101 error [tree-structure] unit: boom"),
            std::string::npos);
  EXPECT_NE(text.find("suppressed"), std::string::npos);
  const std::string json = engine.json();
  EXPECT_NE(json.find("\"errors\":6"), std::string::npos);
  EXPECT_NE(json.find("\\\"pos\\\""), std::string::npos) << json;
  engine.clear();
  EXPECT_TRUE(engine.empty());
}

// --- clean designs: zero diagnostics at the deepest level ---

class CleanTestcase : public ::testing::TestWithParam<const char*> {};

TEST_P(CleanTestcase, NoFindingsAtDeepLevel) {
  testgen::TestcaseOptions o;
  o.sinks = 60;
  o.max_pairs = 60;
  o.seed = 11;
  const network::Design d =
      testgen::makeTestcase(sharedTech(), GetParam(), o);
  check::DiagnosticEngine engine = runChecks(d);
  const sta::Timer timer(sharedTech());
  check::checkDesignTiming(d, timer, engine);
  EXPECT_TRUE(engine.empty()) << engine.text();
  // And the gate agrees end to end.
  EXPECT_NO_THROW(
      check::gateDesign(d, timer, check::Level::kDeep, "test:clean"));
}
INSTANTIATE_TEST_SUITE_P(Testcases, CleanTestcase,
                         ::testing::Values("CLS1v1", "CLS1v2", "CLS2v1"));

// --- seeded corruptions, each caught by its documented code ---

TEST(Corruption, CycleIsUnreachable) {
  network::Design d = smallDesign();
  // Re-hang a driving buffer below one of its own descendants with
  // consistent parent/child links: a pure cycle, invisible to local link
  // checks, caught only by the reachability walk.
  const int b = someDrivingBuffer(d.tree);
  const int c = d.tree.node(b).children.front();
  const int p = d.tree.node(b).parent;
  auto& pk = d.tree.corruptNodeForTest(p).children;
  pk.erase(std::find(pk.begin(), pk.end(), b));
  d.tree.corruptNodeForTest(b).parent = c;
  d.tree.corruptNodeForTest(c).children.push_back(b);
  check::DiagnosticEngine engine = runChecks(d);
  EXPECT_TRUE(engine.hasCode(105)) << engine.text();
}

TEST(Corruption, DanglingChildId) {
  network::Design d = smallDesign();
  d.tree.corruptNodeForTest(0).children.push_back(
      static_cast<int>(d.tree.numNodes()) + 5);
  EXPECT_TRUE(runChecks(d).hasCode(104));
}

TEST(Corruption, SinkWithChildren) {
  network::Design d = smallDesign();
  const int sink = d.tree.sinks().front();
  d.tree.addBuffer(sink, d.tree.node(sink).pos, 0);
  EXPECT_TRUE(runChecks(d).hasCode(107));
}

TEST(Corruption, BufferCellOutsideLibrary) {
  network::Design d = smallDesign();
  d.tree.corruptNodeForTest(d.tree.buffers().front()).cell = 999;
  EXPECT_TRUE(runChecks(d).hasCode(109));
}

TEST(Corruption, DeletedNodeStillWired) {
  network::Design d = smallDesign();
  d.tree.corruptNodeForTest(someDrivingBuffer(d.tree)).valid = false;
  EXPECT_TRUE(runChecks(d).hasCode(110));
}

TEST(Corruption, DriverWithoutNet) {
  network::Design d = smallDesign();
  d.routing.eraseNet(someDrivingBuffer(d.tree));
  EXPECT_TRUE(runChecks(d).hasCode(120));
}

TEST(Corruption, StaleNetOnChildlessNode) {
  network::Design d = smallDesign();
  const route::SteinerTree* root_net = d.routing.net(0);
  ASSERT_NE(root_net, nullptr);
  d.routing.restoreNet(d.tree.sinks().front(), *root_net);
  EXPECT_TRUE(runChecks(d).hasCode(121));
}

TEST(Corruption, ReparentWithoutReroute) {
  network::Design d = smallDesign();
  const int b = someDrivingBuffer(d.tree);
  d.tree.reassignDriver(b, 0);  // tree surgery, no ECO reroute
  EXPECT_TRUE(runChecks(d).hasCode(122));
}

TEST(Corruption, MovedDriverWithoutReroute) {
  network::Design d = smallDesign();
  const int b = someDrivingBuffer(d.tree);
  const geom::Point p = d.tree.node(b).pos;
  d.tree.moveNode(b, {p.x + 3.0, p.y});
  check::DiagnosticEngine engine = runChecks(d);
  EXPECT_TRUE(engine.hasCode(125)) << engine.text();  // its own net
  EXPECT_TRUE(engine.hasCode(123)) << engine.text();  // parent's pin
}

TEST(Corruption, BufferFarOutsideFloorplan) {
  network::Design d = smallDesign();
  const int b = d.tree.buffers().front();
  d.tree.moveNode(b, {1e7, 1e7});
  d.routing.rebuildAround(d.tree, b);  // keep routing consistent: isolate 141
  check::DiagnosticEngine engine = runChecks(d);
  EXPECT_TRUE(engine.hasCode(141)) << engine.text();
  EXPECT_FALSE(engine.hasCode(123));
}

TEST(Corruption, DuplicateBufferPositionIsDeepWarning) {
  network::Design d = smallDesign();
  const std::vector<int> bufs = d.tree.buffers();
  ASSERT_GE(bufs.size(), 2u);
  d.tree.moveNode(bufs[1], d.tree.node(bufs[0]).pos);
  d.routing.rebuildAround(d.tree, bufs[1]);
  EXPECT_TRUE(runChecks(d, check::Level::kDeep).hasCode(142));
  // Warning-only, and a cheap pass skips the quadratic scan entirely.
  EXPECT_FALSE(runChecks(d, check::Level::kDeep).hasErrors());
  EXPECT_FALSE(runChecks(d, check::Level::kCheap).hasCode(142));
}

TEST(Corruption, SiteAlignmentIsOptIn) {
  const network::Design d = smallDesign();
  // Generated trees are deliberately off-grid; the default options must
  // not flag that, the opt-in must.
  EXPECT_FALSE(runChecks(d).hasCode(143));
  check::DiagnosticEngine engine;
  check::CheckOptions opts;
  opts.require_site_alignment = true;
  check::checkPlacement(d, opts, engine);
  EXPECT_TRUE(engine.hasCode(143));
}

TEST(Corruption, PairAndCornerRecords) {
  network::Design d = smallDesign();
  d.pairs[0].launch = 0;  // the source is not a sink
  d.pairs[1].weight = std::numeric_limits<double>::quiet_NaN();
  d.corners.push_back(99);
  d.corners.push_back(d.corners.front());
  check::DiagnosticEngine engine = runChecks(d);
  EXPECT_TRUE(engine.hasCode(152));
  EXPECT_TRUE(engine.hasCode(153));
  EXPECT_TRUE(engine.hasCode(151));
  d.corners.clear();
  EXPECT_TRUE(runChecks(d).hasCode(150));
}

TEST(Corruption, TamperedTimingState) {
  const network::Design d = smallDesign();
  const sta::Timer timer(sharedTech());
  sta::CornerTiming t = timer.analyze(d.tree, d.routing, d.corners[0]);
  {
    check::DiagnosticEngine engine;
    check::checkCornerTiming(d.tree, t, engine);
    ASSERT_TRUE(engine.empty()) << engine.text();
  }
  const int sink = d.tree.sinks().front();
  const int parent = d.tree.node(sink).parent;
  sta::CornerTiming bad = t;
  bad.arrival[static_cast<std::size_t>(sink)] =
      bad.arrival[static_cast<std::size_t>(parent)] - 50.0;
  check::DiagnosticEngine mono;
  check::checkCornerTiming(d.tree, bad, mono);
  EXPECT_TRUE(mono.hasCode(162)) << mono.text();

  bad = t;
  bad.in_arrival[static_cast<std::size_t>(sink)] =
      bad.arrival[static_cast<std::size_t>(parent)] - 10.0;
  check::DiagnosticEngine wire;
  check::checkCornerTiming(d.tree, bad, wire);
  EXPECT_TRUE(wire.hasCode(161)) << wire.text();

  bad = t;
  bad.arrival[static_cast<std::size_t>(sink)] =
      std::numeric_limits<double>::quiet_NaN();
  check::DiagnosticEngine nan;
  check::checkCornerTiming(d.tree, bad, nan);
  EXPECT_TRUE(nan.hasCode(160));

  bad = t;
  bad.driver_load[0] = -1.0;
  check::DiagnosticEngine load;
  check::checkCornerTiming(d.tree, bad, load);
  EXPECT_TRUE(load.hasCode(163));
}

// --- LP model verifiers ---

TEST(LpChecks, WellFormedModelPasses) {
  lp::Model m;
  const int x = m.addVar(0.0, 10.0, 1.0);
  const int y = m.addVar(-lp::kInf, lp::kInf, 0.0);
  m.addRow(-lp::kInf, 5.0, {{x, 1.0}, {y, 2.0}});
  check::DiagnosticEngine engine;
  check::checkLpModel(m, engine);
  check::checkBudgetRow(m, m.numRows() - 1, engine);
  EXPECT_TRUE(engine.empty()) << engine.text();
}

TEST(LpChecks, CatchesBadCoefficientsAndBounds) {
  lp::Model m;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int x = m.addVar(0.0, 1.0, nan);          // NaN objective
  m.addVar(nan, 1.0, 0.0);                        // NaN lower bound
  m.addVar(lp::kInf, lp::kInf, 0.0);              // +inf lower bound
  m.addRow(0.0, 1.0, {{x, nan}});                 // NaN row coefficient
  m.addRow(lp::kInf, lp::kInf, {{x, 1.0}});       // +inf row lower bound
  check::DiagnosticEngine engine;
  check::checkLpModel(m, engine);
  EXPECT_TRUE(engine.hasCode(201)) << engine.text();
  EXPECT_TRUE(engine.hasCode(203));
  EXPECT_TRUE(engine.hasCode(204));
}

TEST(LpChecks, BudgetRowIdentity) {
  lp::Model m;
  const int x = m.addVar(0.0, 1.0, 1.0);
  m.addRow(2.0, 2.0, {{x, -1.0}});  // equality row with a negative coef
  check::DiagnosticEngine engine;
  check::checkBudgetRow(m, 5, engine);  // not the final row
  EXPECT_TRUE(engine.hasCode(210));
  engine.clear();
  check::checkBudgetRow(m, m.numRows() - 1, engine);
  EXPECT_TRUE(engine.hasCode(211));
  EXPECT_TRUE(engine.hasCode(212));
}

TEST(LpChecks, RatioEnvelopeOfCharacterizedLutIsSane) {
  const network::Design d = smallDesign();
  check::DiagnosticEngine engine;
  check::checkRatioEnvelope(sharedLut(), d, engine);
  EXPECT_TRUE(engine.empty()) << engine.text();
}

// --- LP optimality certificate ---

/// min -x - y over x, y in [0, 3] s.t. x + 2y <= 4 (row 0), 3x + y <= 6
/// (row 1) and -5 <= x - y <= 5 (row 2). Optimum (1.6, 1.2) at -2.8: rows
/// 0 and 1 bind at their upper bounds with duals (-0.4, -0.2), row 2 is
/// slack.
lp::Model certificateLp() {
  lp::Model m;
  const int x = m.addVar(0.0, 3.0, -1.0);
  const int y = m.addVar(0.0, 3.0, -1.0);
  m.addRow(-lp::kInf, 4.0, {{x, 1.0}, {y, 2.0}});
  m.addRow(-lp::kInf, 6.0, {{x, 3.0}, {y, 1.0}});
  m.addRow(-5.0, 5.0, {{x, 1.0}, {y, -1.0}});
  return m;
}

check::DiagnosticEngine certify(const lp::Model& m, const lp::Solution& s) {
  check::DiagnosticEngine engine;
  check::checkLpOptimality(m, s, engine);
  return engine;
}

TEST(LpCertificate, CleanSolvesProduceNoDiagnostics) {
  const lp::Model m = certificateLp();
  const lp::Solution s = lp::solve(m);
  ASSERT_EQ(s.status, lp::Status::Optimal);
  EXPECT_TRUE(certify(m, s).empty()) << certify(m, s).text();

  // The global optimizer's own LP pair on a small testcase.
  const network::Design d = smallDesign();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d, timer);
  const core::GlobalOptimizer opt(sharedTech(), sharedLut());
  core::GlobalLpProbe probe = opt.extractGlobalLp(d, objective);
  const lp::Solution v = lp::solve(probe.min_v);
  ASSERT_EQ(v.status, lp::Status::Optimal);
  EXPECT_TRUE(certify(probe.min_v, v).empty())
      << certify(probe.min_v, v).text();
  probe.sweep.setRowBounds(probe.budget_row, -lp::kInf,
                           0.5 * (v.objective + probe.orig_sum_ps));
  const lp::Solution w = lp::solve(probe.sweep);
  ASSERT_EQ(w.status, lp::Status::Optimal);
  EXPECT_TRUE(certify(probe.sweep, w).empty())
      << certify(probe.sweep, w).text();
}

TEST(LpCertificate, Skw230PointOutsideABound) {
  const lp::Model m = certificateLp();
  lp::Solution s = lp::solve(m);
  s.x[0] = m.varUb(0) + 1.0;  // 1 past x's upper bound
  EXPECT_TRUE(certify(m, s).hasCode(230)) << certify(m, s).text();
}

TEST(LpCertificate, Skw231DualOfTheWrongSign) {
  const lp::Model m = certificateLp();
  lp::Solution s = lp::solve(m);
  ASSERT_LT(s.duals[0], 0.0);  // row 0 binds at its (only) upper bound
  s.duals[0] = -s.duals[0];    // a positive dual needs a finite lower bound
  EXPECT_TRUE(certify(m, s).hasCode(231)) << certify(m, s).text();
}

TEST(LpCertificate, Skw232DualOnASlackRow) {
  const lp::Model m = certificateLp();
  lp::Solution s = lp::solve(m);
  ASSERT_EQ(s.duals[2], 0.0);
  s.duals[2] = -0.5;  // prices row 2's upper bound, 4.6 away from x - y
  EXPECT_TRUE(certify(m, s).hasCode(232)) << certify(m, s).text();
}

TEST(LpCertificate, Skw233GapOnTwoVariableLp) {
  // min x + y s.t. x + y >= 1, x, y in [0, 10]: optimum 1, dual 1.
  lp::Model m;
  const int x = m.addVar(0.0, 10.0, 1.0);
  const int y = m.addVar(0.0, 10.0, 1.0);
  m.addRow(1.0, lp::kInf, {{x, 1.0}, {y, 1.0}});
  lp::Solution s = lp::solve(m);
  ASSERT_EQ(s.status, lp::Status::Optimal);
  EXPECT_TRUE(certify(m, s).empty()) << certify(m, s).text();
  s.objective += 0.5;  // the reported optimum no longer matches the duals
  const check::DiagnosticEngine engine = certify(m, s);
  EXPECT_TRUE(engine.hasCode(233)) << engine.text();
  EXPECT_EQ(engine.errorCount(), 1u) << engine.text();
}

TEST(LpCertificate, MissingDualsAndOtherStatuses) {
  const lp::Model m = certificateLp();
  lp::Solution s = lp::solve(m);
  s.duals.clear();  // an optimum that cannot be certified
  EXPECT_TRUE(certify(m, s).hasCode(231));
  s.status = lp::Status::IterLimit;  // claims no optimum: nothing to check
  EXPECT_TRUE(certify(m, s).empty());
}

// --- stage gate ---

TEST(Gate, ThrowsCheckFailureWithStageAndFindings) {
  network::Design d = smallDesign();
  d.tree.corruptNodeForTest(0).children.push_back(12345);
  const sta::Timer timer(sharedTech());
  try {
    check::gateDesign(d, timer, check::Level::kCheap, "test:gate");
    FAIL() << "gate did not throw";
  } catch (const check::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("test:gate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("SKW104"), std::string::npos);
    EXPECT_FALSE(e.diagnostics().empty());
  }
  // kOff gates nothing, even on a corrupt design.
  EXPECT_NO_THROW(
      check::gateDesign(d, timer, check::Level::kOff, "test:gate"));
}

// --- serve: spec records and scheduler integration ---

TEST(SpecChecks, SourceAndSchedulingFields) {
  serve::JobSpec spec;
  spec.source.testcase = "NOPE";
  spec.source.sinks = 0;
  spec.max_retries = -2;
  spec.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  check::DiagnosticEngine engine;
  serve::checkJobSpec(spec, engine);
  EXPECT_TRUE(engine.hasCode(303)) << engine.text();
  EXPECT_TRUE(engine.hasCode(305));

  serve::JobSpec file_spec;
  file_spec.source.kind = serve::DesignSource::Kind::kFile;
  engine.clear();
  serve::checkJobSpec(file_spec, engine);
  EXPECT_TRUE(engine.hasCode(304));

  serve::JobSpec inline_spec;
  inline_spec.source.kind = serve::DesignSource::Kind::kInline;
  engine.clear();
  serve::checkJobSpec(inline_spec, engine);
  EXPECT_TRUE(engine.hasCode(304));
}

TEST(SpecChecks, DeltaEditFieldsSkw306And307) {
  serve::JobSpec spec;  // valid testgen defaults
  check::DiagnosticEngine engine;

  // SKW306: negative id, non-finite position, unsorted / duplicate ids.
  spec.source.moved_sinks = {serve::MovedSink{-1, 0.0, 0.0}};
  serve::checkJobSpec(spec, engine);
  EXPECT_TRUE(engine.hasCode(306)) << engine.text();

  engine.clear();
  spec.source.moved_sinks = {
      serve::MovedSink{3, std::numeric_limits<double>::quiet_NaN(), 0.0}};
  serve::checkJobSpec(spec, engine);
  EXPECT_TRUE(engine.hasCode(306));

  engine.clear();
  spec.source.moved_sinks = {serve::MovedSink{5, 0.0, 0.0},
                             serve::MovedSink{3, 1.0, 1.0}};
  serve::checkJobSpec(spec, engine);
  EXPECT_TRUE(engine.hasCode(306));

  engine.clear();
  spec.source.moved_sinks = {serve::MovedSink{3, 0.0, 0.0},
                             serve::MovedSink{3, 1.0, 1.0}};
  serve::checkJobSpec(spec, engine);
  EXPECT_TRUE(engine.hasCode(306)) << "duplicate ids must be rejected";

  engine.clear();
  spec.source.moved_sinks = {serve::MovedSink{3, 0.0, 0.0},
                             serve::MovedSink{5, 1.0, 1.0}};
  serve::checkJobSpec(spec, engine);
  EXPECT_TRUE(engine.empty()) << engine.text();

  // SKW307: derates must be finite and positive.
  for (const double bad :
       {0.0, -1.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    engine.clear();
    spec.options.global.corner_dmax_derate = {bad};
    serve::checkJobSpec(spec, engine);
    EXPECT_TRUE(engine.hasCode(307)) << bad;
  }
  engine.clear();
  spec.options.global.corner_dmax_derate = {1.02, 0.97};
  serve::checkJobSpec(spec, engine);
  EXPECT_TRUE(engine.empty()) << engine.text();
}

TEST(SpecChecks, KeyAndHashCrossCheck) {
  serve::JobSpec spec;
  const std::string key = serve::canonicalKey(spec);
  const std::uint64_t hash = serve::contentHash(spec);
  check::DiagnosticEngine clean;
  serve::checkJobRecord(spec, key, hash, clean);
  EXPECT_TRUE(clean.empty()) << clean.text();

  check::DiagnosticEngine tampered;
  serve::checkJobRecord(spec, key + "|junk", hash, tampered);
  EXPECT_TRUE(tampered.hasCode(300));
  tampered.clear();
  serve::checkJobRecord(spec, key, hash ^ 1u, tampered);
  EXPECT_TRUE(tampered.hasCode(301));
  tampered.clear();
  serve::checkJobRecord(spec, "garbage-key", hash, tampered);
  EXPECT_TRUE(tampered.hasCode(302));
}

TEST(SpecChecks, SchedulerFailsInvalidSpecWithoutRunning) {
  serve::SchedulerOptions opts;
  opts.workers = 1;
  int runs = 0;
  serve::Scheduler sched(sharedTech(), sharedLut(), opts,
                         [&runs](const serve::JobSpec&) {
                           ++runs;
                           return core::FlowResult{};
                         });
  serve::JobSpec bad;
  bad.source.testcase = "NOPE";
  const auto job = sched.submit(bad);
  ASSERT_NE(job, nullptr);
  const serve::JobStatus st = sched.waitTerminal(job->id);
  EXPECT_EQ(st.state, serve::JobState::kFailed);
  EXPECT_NE(st.error.find("SKW303"), std::string::npos) << st.error;
  EXPECT_EQ(runs, 0);  // record validation fails before the runner
  sched.drain();
}

TEST(SpecChecks, ProtocolCheckField) {
  serve::JobSpec spec;
  spec.options.check_level = check::Level::kDeep;
  const serve::json::Value v = serve::specToJson(spec);
  const serve::JobSpec back = serve::specFromJson(v);
  EXPECT_EQ(back.options.check_level, check::Level::kDeep);

  // The default level stays implicit on the wire.
  const serve::json::Value def = serve::specToJson(serve::JobSpec{});
  EXPECT_EQ(def.find("check"), nullptr);
  EXPECT_EQ(serve::specFromJson(def).options.check_level,
            check::Level::kCheap);

  serve::json::Value bad = serve::specToJson(serve::JobSpec{});
  bad.set("check", serve::json::Value("paranoid"));
  EXPECT_THROW(serve::specFromJson(bad), std::runtime_error);
}

}  // namespace
}  // namespace skewopt
