#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "check/check.h"
#include "core/moves.h"
#include "lp/lp.h"
#include "serve/server.h"
#include "support/thread_pool.h"

namespace skewbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[i];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double medianOfJobMedians(const std::map<int, std::vector<double>>& by_job) {
  std::vector<double> medians;
  for (const auto& [job, samples] : by_job) medians.push_back(median(samples));
  return median(std::move(medians));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string servedDigest(const serve::json::Value& result) {
  namespace json = serve::json;
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

std::string servedDigest(const core::FlowResult& r) {
  return servedDigest(serve::resultToJson(r));
}

namespace {

void hex(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a,", v);
  *out += buf;
}

void hexMetrics(std::string* out, const core::DesignMetrics& m) {
  hex(out, m.sum_variation_ps);
  for (const double s : m.local_skew_ps) hex(out, s);
  hex(out, static_cast<double>(m.clock_cells));
  hex(out, m.power_mw);
  hex(out, m.area_um2);
}

double msSince(double t0) { return (nowS() - t0) * 1e3; }

/// Table-5 row of a design state from an objective report (the same fields
/// Flow::run fills).
core::DesignMetrics metricsFromReport(const network::Design& d,
                                      const core::VariationReport& r) {
  core::DesignMetrics m;
  m.sum_variation_ps = r.sum_variation_ps;
  m.local_skew_ps = r.local_skew_ps;
  m.clock_cells = d.tree.numBuffers();
  m.power_mw = sta::clockTreePowerMw(d, d.corners.front());
  m.area_um2 = sta::clockCellAreaUm2(d);
  return m;
}

/// The warm-run timer seeding Flow::run performs: diff the snapshot's node
/// positions against the design; a moved node dirties its parent.
std::optional<sta::IncrementalTimer> seedFromWarmState(
    const tech::TechModel& tech, const network::Design& d,
    const core::FlowWarmState& warm) {
  if (warm.positions.size() != d.tree.numNodes()) return std::nullopt;
  std::vector<int> dirty;
  for (std::size_t i = 0; i < d.tree.numNodes(); ++i) {
    const int id = static_cast<int>(i);
    if (!d.tree.isValid(id)) continue;
    const network::ClockNode& n = d.tree.node(id);
    if (n.pos == warm.positions[i]) continue;
    dirty.push_back(n.parent >= 0 ? n.parent : id);
  }
  try {
    return sta::IncrementalTimer(tech, d, warm.initial_timing, dirty);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// Full analysis + report, exactly as core::computeMetrics evaluates it,
/// with the STA share booked separately.
core::DesignMetrics timedMetrics(const network::Design& d,
                                 const core::Objective& objective,
                                 const sta::Timer& timer, Ledger* L) {
  double t0 = nowS();
  const std::vector<sta::CornerTiming> timing = timer.analyzeDesign(d);
  L->sta_ms += msSince(t0);
  ++L->sta_calls;
  t0 = nowS();
  std::vector<std::vector<double>> lat(timing.size());
  for (std::size_t ki = 0; ki < timing.size(); ++ki)
    lat[ki] = timing[ki].arrival;
  const core::DesignMetrics m =
      metricsFromReport(d, objective.evaluateFromLatencies(d, lat));
  L->metrics_ms += msSince(t0);
  return m;
}

/// A live (not replayed-from-warm-state) solve of the run. Replayed sweep
/// points are recorded with zero refactorizations and zero solve time; a
/// replayed pass 1 is flagged warm_started.
bool liveSolve(const core::LpSolveStats& s, bool pass1) {
  if (pass1) return !s.warm_started;
  return !(s.refactorizations == 0 && s.solve_ms == 0.0);
}

/// Side replay of the global stage's LP work: the model build and the
/// pass-1 + warm-chained sweep solves, booked only for the builds/solves
/// the real run performed live.
void replayLp(const core::GlobalOptimizer& gopt, const core::GlobalOptions& o,
              const network::Design& d, const core::Objective& objective,
              const core::GlobalResult& run, Ledger* L) {
  double t0 = nowS();
  core::GlobalLpProbe probe = gopt.extractGlobalLp(d, objective);
  const double build_ms = msSince(t0);
  if (!run.reused_models) L->lp_build_ms += build_ms;

  t0 = nowS();
  const lp::Solution vsol = lp::solve(probe.min_v, o.lp, nullptr);
  double ms = msSince(t0);
  const bool pass1_live = !run.lp_solves.empty() && liveSolve(run.lp_solves[0], true);
  if (pass1_live) {
    L->lp_solve_ms += ms;
    L->lp_iterations += static_cast<std::size_t>(vsol.iterations);
    if (vsol.iterations != run.lp_iterations) L->lp_replay_faithful = false;
  }
  if (vsol.status != lp::Status::Optimal) return;
  lp::Basis chain;
  if (o.warm_start_sweep && !vsol.basis.empty()) {
    chain = vsol.basis;
    chain.status.push_back(lp::BasisStatus::Basic);
  }
  std::size_t ix = 1;
  for (const double t : o.u_sweep) {
    const double u = vsol.objective + t * (probe.orig_sum_ps - vsol.objective);
    if (u >= probe.orig_sum_ps) continue;
    probe.sweep.setRowBounds(probe.budget_row, -lp::kInf, u);
    t0 = nowS();
    const lp::Solution s =
        lp::solve(probe.sweep, o.lp, chain.empty() ? nullptr : &chain);
    ms = msSince(t0);
    if (ix < run.lp_solves.size() && liveSolve(run.lp_solves[ix], false)) {
      L->lp_solve_ms += ms;
      L->lp_iterations += static_cast<std::size_t>(s.iterations);
      if (!chain.empty()) {
        ++L->lp_warm_tries;
        if (s.warm_started) ++L->lp_warm_hits;
      }
      if (s.iterations != run.lp_solves[ix].iterations)
        L->lp_replay_faithful = false;
    }
    if (o.warm_start_sweep) chain = s.basis;
    ++ix;
  }
}

/// Side replay of one local round's scoring: enumerate the candidate table
/// and score it with the trained predictor on the shared pool, as the
/// optimizer does at the top of every round. The second of two replays is
/// timed, since every round after the first runs with warm caches and a
/// busy pool. Returns the table size.
std::size_t replayScoring(const core::LocalOptions& lo,
                          const network::Design& d, const sta::Timer& timer,
                          const core::Objective& objective,
                          const core::DeltaLatencyModel* model,
                          double* score_ms) {
  const core::MovePredictor predictor(d, timer, objective, model);
  std::size_t table = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const double t0 = nowS();
    const std::vector<core::Move> moves =
        core::enumerateAllMoves(d, lo.enumerate);
    std::vector<double> scores(moves.size());
    predictor.scoreBatch(moves, scores,
                         lo.parallel_trials ? &support::ThreadPool::shared()
                                            : nullptr);
    *score_ms = msSince(t0);
    table = moves.size();
  }
  return table;
}

}  // namespace

std::string exactDigest(const core::FlowResult& r) {
  std::string out;
  hexMetrics(&out, r.before);
  out += '|';
  hexMetrics(&out, r.after);
  out += '|';
  const core::GlobalResult& g = r.global;
  for (const double v : {g.sum_before_ps, g.sum_after_ps, g.lp_min_sum_ps,
                         g.lp_orig_sum_ps, g.chosen_u_ps})
    hex(&out, v);
  for (const std::size_t v : {g.arcs_in_lp, g.arcs_changed, g.lp_rows,
                              g.lp_vars, g.lp_solves.size()})
    hex(&out, static_cast<double>(v));
  for (const int v : {g.lp_iterations, g.lp_warm_hits, g.lp_warm_misses,
                      g.realize_memo_hits, g.lp_replays})
    hex(&out, v);
  hex(&out, g.improved ? 1.0 : 0.0);
  hex(&out, g.reused_models ? 1.0 : 0.0);
  for (const auto& [u, sum] : g.candidates) {
    hex(&out, u);
    hex(&out, sum);
  }
  for (const core::LpSolveStats& s : g.lp_solves) {
    hex(&out, s.u_ps);
    hex(&out, s.iterations);
  }
  out += '|';
  const core::LocalResult& l = r.local;
  hex(&out, l.sum_before_ps);
  hex(&out, l.sum_after_ps);
  hex(&out, static_cast<double>(l.golden_evaluations));
  hex(&out, static_cast<double>(l.candidate_moves));
  for (const core::LocalIteration& it : l.history) {
    hex(&out, static_cast<double>(it.round));
    hex(&out, static_cast<double>(static_cast<int>(it.type)));
    hex(&out, it.predicted_delta_ps);
    hex(&out, it.realized_delta_ps);
    hex(&out, it.sum_after_ps);
  }
  return out;
}

core::FlowResult runStaged(network::Design& d, const StagedJob& job,
                           Ledger* L) {
  const double wall0 = nowS();
  const double replay0 = L->replay_ms;
  const sta::Timer timer(*job.tech);
  const check::Level chk = check::effectiveLevel(job.options.check_level);

  double t0 = nowS();
  check::gateDesign(d, timer, chk, "flow:input");
  L->check_ms += msSince(t0);

  std::optional<sta::IncrementalTimer> seed;
  if (job.warm_in != nullptr) {
    t0 = nowS();
    seed = seedFromWarmState(*job.tech, d, *job.warm_in);
    L->sta_ms += msSince(t0);
    ++L->sta_calls;
  }

  std::optional<core::Objective> objective;
  core::FlowResult res;
  if (seed.has_value()) {
    t0 = nowS();
    objective.emplace(d, seed->timings());
    res.before = metricsFromReport(
        d, objective->evaluateFromTimings(d, seed->timings()));
    L->metrics_ms += msSince(t0);
  } else {
    t0 = nowS();
    const std::vector<sta::CornerTiming> timing = timer.analyzeDesign(d);
    L->sta_ms += msSince(t0);
    ++L->sta_calls;
    t0 = nowS();
    objective.emplace(d, timing);
    L->metrics_ms += msSince(t0);
    res.before = timedMetrics(d, *objective, timer, L);
  }

  if (job.warm_out != nullptr) {
    core::FlowWarmState& w = *job.warm_out;
    if (seed.has_value()) {
      w.initial_timing = seed->timings();
    } else {
      t0 = nowS();
      w.initial_timing = timer.analyzeDesign(d);
      L->sta_ms += msSince(t0);
      ++L->sta_calls;
    }
    w.positions.assign(d.tree.numNodes(), geom::Point{});
    for (std::size_t i = 0; i < d.tree.numNodes(); ++i)
      if (d.tree.isValid(static_cast<int>(i)))
        w.positions[i] = d.tree.node(static_cast<int>(i)).pos;
    w.fingerprint = core::designFingerprint(d, w.initial_timing);
  }

  const bool global = job.mode == core::FlowMode::kGlobal ||
                      job.mode == core::FlowMode::kGlobalLocal;
  const bool local = job.mode == core::FlowMode::kLocal ||
                     job.mode == core::FlowMode::kGlobalLocal;
  if (global) {
    core::GlobalOptions gopts = job.options.global;
    gopts.check_level = chk;
    const core::GlobalOptimizer gopt(*job.tech, *job.lut, gopts);
    // The replay needs the pre-stage design, so copy it first (the copy is
    // replay cost, not stage cost).
    const double r0 = nowS();
    const network::Design pre = d;
    L->replay_ms += msSince(r0);
    t0 = nowS();
    res.global = gopt.run(
        d, *objective, seed.has_value() ? &*seed : nullptr,
        job.warm_in != nullptr ? &job.warm_in->global : nullptr,
        job.warm_out != nullptr ? &job.warm_out->global : nullptr);
    const double ms = msSince(t0);
    L->global_ms += ms;
    res.stage_ms.global_ms = ms;
    L->lp_replays += static_cast<std::size_t>(res.global.lp_replays);
    L->realize_memo_hits += static_cast<std::size_t>(res.global.realize_memo_hits);
    const double r1 = nowS();
    replayLp(gopt, gopts, pre, *objective, res.global, L);
    L->replay_ms += msSince(r1);
  }
  if (local) {
    core::LocalOptions lopts = job.options.local;
    lopts.check_level = chk;
    const double r0 = nowS();
    double one_round_ms = 0.0;
    const std::size_t table =
        lopts.max_iterations > 0
            ? replayScoring(lopts, d, timer, *objective, job.model,
                            &one_round_ms)
            : 0;
    L->replay_ms += msSince(r0);
    const core::LocalOptimizer lopt(*job.tech, lopts);
    t0 = nowS();
    res.local = lopt.run(d, *objective, job.model);
    const double ms = msSince(t0);
    L->local_ms += ms;
    res.stage_ms.local_ms = ms;
    // Every round scores one table; a round that commits nothing ends the
    // loop, so rounds = commits (+1 unless the budget ran out).
    const std::size_t commits = res.local.history.size();
    const std::size_t rounds =
        lopts.max_iterations == 0
            ? 0
            : commits + (commits < lopts.max_iterations ? 1 : 0);
    L->score_ms += one_round_ms * static_cast<double>(rounds);
    L->moves_scored += table * rounds;
    L->golden_evals += res.local.golden_evaluations;
    L->commits += commits;
  }

  res.after = timedMetrics(d, *objective, timer, L);
  t0 = nowS();
  check::gateDesign(d, timer, chk, "flow:output");
  L->check_ms += msSince(t0);
  ++L->jobs;
  L->staged_ms += msSince(wall0) - (L->replay_ms - replay0);
  return res;
}

const std::vector<std::pair<std::string, std::string>>& perLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sta.analyze_ms", "ms"},
      {"sta.analyze_calls", "count"},
      {"check.gate_ms", "ms"},
      {"core.metrics_ms", "ms"},
      {"lp.build_ms", "ms"},
      {"lp.solve_ms", "ms"},
      {"lp.iterations", "count"},
      {"lp.warm_hit_ratio", "ratio"},
      {"core.global_ms", "ms"},
      {"core.global.realize_ms", "ms"},
      {"core.global.lp_replays", "count"},
      {"core.global.realize_memo_hits", "count"},
      {"core.local_ms", "ms"},
      {"core.local.trials_ms", "ms"},
      {"core.local.golden_evals", "count"},
      {"core.local.accept_ratio", "ratio"},
      {"core.predictor.score_ms", "ms"},
      {"core.predictor.moves_scored", "count"},
      {"ml.train_ms", "ms"},
      {"testgen.make_ms", "ms"},
      {"serve.decode_ms", "ms"},
      {"serve.encode_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.warm.hit_ratio", "ratio"},
      {"cluster.handle_ms", "ms"},
      {"serve.server.transport_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.staged_identical", "ratio"},
  };
  return names;
}

void addLayerMetrics(Report* rep, const Ledger& L, double per,
                     double wall_ms) {
  const double score = L.score_ms * per;
  const double realize = (L.global_ms - L.lp_build_ms - L.lp_solve_ms) * per;
  rep->add("sta.analyze_ms", "ms", L.sta_ms * per);
  rep->add("sta.analyze_calls", "count", static_cast<double>(L.sta_calls) * per);
  rep->add("check.gate_ms", "ms", L.check_ms * per);
  rep->add("core.metrics_ms", "ms", L.metrics_ms * per);
  rep->add("lp.build_ms", "ms", L.lp_build_ms * per);
  rep->add("lp.solve_ms", "ms", L.lp_solve_ms * per);
  rep->add("lp.iterations", "count", static_cast<double>(L.lp_iterations) * per);
  rep->add("lp.warm_hit_ratio", "ratio",
           L.lp_warm_tries ? static_cast<double>(L.lp_warm_hits) /
                                 static_cast<double>(L.lp_warm_tries)
                           : 0.0);
  rep->add("core.global_ms", "ms", L.global_ms * per);
  rep->add("core.global.realize_ms", "ms", realize);
  rep->add("core.global.lp_replays", "count",
           static_cast<double>(L.lp_replays) * per);
  rep->add("core.global.realize_memo_hits", "count",
           static_cast<double>(L.realize_memo_hits) * per);
  rep->add("core.local_ms", "ms", L.local_ms * per);
  rep->add("core.local.trials_ms", "ms", L.local_ms * per - score);
  rep->add("core.local.golden_evals", "count",
           static_cast<double>(L.golden_evals) * per);
  rep->add("core.local.accept_ratio", "ratio",
           L.golden_evals ? static_cast<double>(L.commits) /
                                static_cast<double>(L.golden_evals)
                          : 0.0);
  rep->add("core.predictor.score_ms", "ms", score);
  rep->add("core.predictor.moves_scored", "count",
           static_cast<double>(L.moves_scored) * per);
  // Self times of the staged layers; global and local are split into their
  // replayed shares above, so only their totals enter the sum here.
  const double attributed = (L.sta_ms + L.check_ms + L.metrics_ms +
                             L.global_ms + L.local_ms + L.testgen_ms) *
                            per;
  rep->add("unattributed_ms", "ms", wall_ms - attributed);
}

}  // namespace skewbench
