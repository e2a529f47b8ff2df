// google-benchmark microbenchmarks of the computational kernels underneath
// the reproduction: NLDM lookup, Elmore/D2M moment analysis, Steiner
// construction, full multi-corner STA, stage-LUT arc evaluation, the
// simplex, and move prediction.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/global_opt.h"
#include "core/local_opt.h"
#include "core/predictor.h"
#include "sta/incremental.h"
#include "eco/stage_lut.h"
#include "lp/lp.h"
#include "rc/rc.h"
#include "route/route.h"
#include "sta/timer.h"
#include "testgen/testgen.h"

using namespace skewopt;

namespace {

const tech::TechModel& sharedTech() {
  static tech::TechModel t = tech::TechModel::make28nm();
  return t;
}

const network::Design& sharedDesign() {
  static network::Design d = [] {
    testgen::TestcaseOptions o;
    o.sinks = 120;
    o.max_pairs = 120;
    return testgen::makeCls1(sharedTech(), "v1", o);
  }();
  return d;
}

void BM_NldmLookup(benchmark::State& state) {
  const tech::Cell& cell = sharedTech().cell(2);
  double slew = 7.0, load = 3.0, acc = 0.0;
  for (auto _ : state) {
    acc += cell.delay[0].lookup(slew, load);
    slew = 5.0 + (slew * 1.37 > 300.0 ? 5.0 : slew * 1.37);
    load = 1.0 + (load * 1.21 > 200.0 ? 1.0 : load * 1.21);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NldmLookup);

// Scalar lookup with the cached interval hint: the ramp pattern makes the
// hint's ±1-neighbor validation hit almost always, skipping the two binary
// searches of the unhinted path.
void BM_NldmLookupHinted(benchmark::State& state) {
  const tech::Cell& cell = sharedTech().cell(2);
  tech::LutHint hint;
  double slew = 7.0, load = 3.0, acc = 0.0;
  for (auto _ : state) {
    acc += cell.delay[0].lookup(slew, load, &hint);
    slew = 5.0 + (slew * 1.37 > 300.0 ? 5.0 : slew * 1.37);
    load = 1.0 + (load * 1.21 > 200.0 ? 1.0 : load * 1.21);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NldmLookupHinted);

// SoA batch lookup over a contiguous vector of the same ramp pattern the
// scalar bench walks; items_per_second is the per-element comparison
// against BM_NldmLookup.
void BM_NldmLookupBatch(benchmark::State& state) {
  const tech::Cell& cell = sharedTech().cell(2);
  constexpr std::size_t kN = 1024;
  std::vector<double> slews(kN), loads(kN), out(kN);
  double slew = 7.0, load = 3.0;
  for (std::size_t i = 0; i < kN; ++i) {
    slews[i] = slew;
    loads[i] = load;
    slew = 5.0 + (slew * 1.37 > 300.0 ? 5.0 : slew * 1.37);
    load = 1.0 + (load * 1.21 > 200.0 ? 1.0 : load * 1.21);
  }
  for (auto _ : state) {
    cell.delay[0].lookupBatch(slews, loads, out);
    benchmark::DoNotOptimize(out.back());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_NldmLookupBatch);

// Corner-major packed view: all 4 corners of one (slew, load) point per
// call — one axis search, contiguous 4-wide value reads.
void BM_CornerLutLookupAll(benchmark::State& state) {
  const tech::Cell& cell = sharedTech().cell(2);
  double slew = 7.0, load = 3.0, acc = 0.0;
  double out[4];
  for (auto _ : state) {
    cell.delay_packed.lookupAll(slew, load, out);
    acc += out[0] + out[3];
    slew = 5.0 + (slew * 1.37 > 300.0 ? 5.0 : slew * 1.37);
    load = 1.0 + (load * 1.21 > 200.0 ? 1.0 : load * 1.21);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * 4));
}
BENCHMARK(BM_CornerLutLookupAll);

void BM_ElmoreMoments(benchmark::State& state) {
  geom::Rng rng(3);
  rc::RcTree t;
  std::vector<std::size_t> nodes = {0};
  for (int i = 0; i < 64; ++i)
    nodes.push_back(t.addNode(nodes[rng.index(nodes.size())],
                              rng.uniform(0.05, 0.5),
                              rng.uniform(0.5, 5.0)));
  for (auto _ : state) {
    const rc::Moments m = rc::Moments::compute(t);
    benchmark::DoNotOptimize(m.m2.back());
  }
}
BENCHMARK(BM_ElmoreMoments);

// The same random 64-node topology with 4 per-corner-scaled R/C lanes,
// both moment passes over all lanes in one walk. items_per_second counts
// lane-trees, so the per-lane comparison against BM_ElmoreMoments is
// 4 * t(BM_ElmoreMoments) / t(BM_ElmoreMomentsBatch).
void BM_ElmoreMomentsBatch(benchmark::State& state) {
  geom::Rng rng(3);
  constexpr std::size_t kLanes = 4;
  const double scale[kLanes] = {1.0, 1.21, 0.85, 0.94};
  rc::RcTreeBatch t(kLanes);
  std::vector<std::size_t> nodes = {0};
  for (int i = 0; i < 64; ++i) {
    const double r = rng.uniform(0.05, 0.5);
    const double c = rng.uniform(0.5, 5.0);
    double res[kLanes], cap[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k) {
      res[k] = r * scale[k];
      cap[k] = c * scale[kLanes - 1 - k];
    }
    nodes.push_back(t.addNode(nodes[rng.index(nodes.size())], res, cap));
  }
  rc::MomentsBatch m;
  std::vector<double> scratch;
  for (auto _ : state) {
    rc::elmoreMomentsBatch(t, m, scratch);
    benchmark::DoNotOptimize(m.m2.back());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kLanes));
}
BENCHMARK(BM_ElmoreMomentsBatch);

void BM_GreedySteiner(benchmark::State& state) {
  geom::Rng rng(5);
  std::vector<geom::Point> pins;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
    pins.push_back(rng.pointIn(geom::Rect{0, 0, 500, 500}));
  for (auto _ : state) {
    const route::SteinerTree t = route::greedySteiner({250, 250}, pins);
    benchmark::DoNotOptimize(t.wirelength());
  }
}
BENCHMARK(BM_GreedySteiner)->Arg(8)->Arg(24)->Arg(40);

void BM_FullStaCorner(benchmark::State& state) {
  const network::Design& d = sharedDesign();
  const sta::Timer timer(sharedTech());
  for (auto _ : state) {
    const sta::CornerTiming t = timer.analyze(d.tree, d.routing, 0);
    benchmark::DoNotOptimize(t.arrival.back());
  }
}
BENCHMARK(BM_FullStaCorner);

// Full propagation of all 4 corners: Arg(0) runs one propagateFrom pass
// per corner (the pre-batch path), Arg(1) one corner-batched sweep.
void BM_PropagateCornerBatch(benchmark::State& state) {
  const network::Design& d = sharedDesign();
  const sta::Timer timer(sharedTech());
  const std::size_t n = d.tree.numNodes();
  std::vector<sta::CornerTiming> t(d.corners.size());
  for (std::size_t ki = 0; ki < d.corners.size(); ++ki) {
    t[ki].corner = d.corners[ki];
    t[ki].arrival.assign(n, 0.0);
    t[ki].slew.assign(n, 0.0);
    t[ki].in_arrival.assign(n, 0.0);
    t[ki].in_slew.assign(n, 0.0);
    t[ki].driver_load.assign(n, 0.0);
  }
  sta::PropagateScratch scratch;
  const bool batched = state.range(0) != 0;
  for (auto _ : state) {
    if (batched) {
      timer.propagateFromAllCorners(d.tree, d.routing, d.corners,
                                    d.tree.root(), t, &scratch);
    } else {
      for (std::size_t ki = 0; ki < d.corners.size(); ++ki)
        timer.propagateFrom(d.tree, d.routing, d.corners[ki], d.tree.root(),
                            &t[ki], &scratch);
    }
    benchmark::DoNotOptimize(t.back().arrival.back());
  }
  state.SetLabel(batched ? "batched" : "per-corner");
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * d.corners.size()));
}
BENCHMARK(BM_PropagateCornerBatch)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_StageLutArcDelay(benchmark::State& state) {
  static eco::StageDelayLut lut(sharedTech());
  std::size_t qi = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += lut.arcDelay(2, qi, 4, 1, 35.0, 5.0);
    qi = (qi + 7) % lut.wirelengths().size();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_StageLutArcDelay);

void BM_SimplexTransport(benchmark::State& state) {
  const int ns = static_cast<int>(state.range(0)), nd = 10;
  geom::Rng rng(7);
  lp::Model m;
  for (int i = 0; i < ns * nd; ++i)
    m.addVar(0, lp::kInf, rng.uniform(1.0, 5.0));
  for (int i = 0; i < ns; ++i) {
    std::vector<lp::Term> t;
    for (int j = 0; j < nd; ++j) t.push_back({i * nd + j, 1.0});
    m.addRow(-lp::kInf, 10.0, std::move(t));
  }
  for (int j = 0; j < nd; ++j) {
    std::vector<lp::Term> t;
    for (int i = 0; i < ns; ++i) t.push_back({i * nd + j, 1.0});
    m.addRow(8.0, lp::kInf, std::move(t));
  }
  for (auto _ : state) {
    const lp::Solution s = lp::solve(m);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_SimplexTransport)->Arg(20)->Arg(60);

// The global optimizer's pass-1 LP (Eqs. 4-11) on the largest seeded
// testcase: Arg(0) solves with the legacy dense-inverse simplex, Arg(1)
// with the sparse revised simplex.
void BM_GlobalLpSolve(benchmark::State& state) {
  const network::Design& d = sharedDesign();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d, timer);
  static eco::StageDelayLut lut(sharedTech());
  const core::GlobalOptimizer gopt(sharedTech(), lut);
  const core::GlobalLpProbe probe = gopt.extractGlobalLp(d, objective);
  lp::SolverOptions o;
  o.algorithm = state.range(0) == 0 ? lp::SolverOptions::Algorithm::kDense
                                    : lp::SolverOptions::Algorithm::kSparse;
  for (auto _ : state) {
    const lp::Solution s = lp::solve(probe.min_v, o);
    benchmark::DoNotOptimize(s.objective);
  }
  state.SetLabel(state.range(0) == 0 ? "dense" : "sparse");
}
BENCHMARK(BM_GlobalLpSolve)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The full U-sweep LP sequence (pass 1 + one re-bounded solve per sweep
// point) as GlobalOptimizer::run issues it: Arg(0) is the pre-PR path —
// every LP cold on the dense solver — and Arg(1) the warm-started sparse
// path, each sweep point re-entering from the previous optimal basis.
void BM_USweepWarmStart(benchmark::State& state) {
  const network::Design& d = sharedDesign();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d, timer);
  static eco::StageDelayLut lut(sharedTech());
  const core::GlobalOptimizer gopt(sharedTech(), lut);
  core::GlobalLpProbe probe = gopt.extractGlobalLp(d, objective);
  const std::vector<double> sweep = {0.05, 0.2, 0.4};
  const bool warm_sparse = state.range(0) != 0;
  lp::SolverOptions o;
  o.algorithm = warm_sparse ? lp::SolverOptions::Algorithm::kSparse
                            : lp::SolverOptions::Algorithm::kDense;
  for (auto _ : state) {
    const lp::Solution vsol = lp::solve(probe.min_v, o);
    lp::Basis chain;
    if (warm_sparse) {
      chain = vsol.basis;
      chain.status.push_back(lp::BasisStatus::Basic);
    }
    double acc = vsol.objective;
    for (const double t : sweep) {
      const double u =
          vsol.objective + t * (probe.orig_sum_ps - vsol.objective);
      probe.sweep.setRowBounds(probe.budget_row, -lp::kInf, u);
      const lp::Solution s =
          lp::solve(probe.sweep, o, chain.empty() ? nullptr : &chain);
      if (warm_sparse) chain = s.basis;
      acc += s.objective;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel(warm_sparse ? "warm-sparse" : "cold-dense");
}
BENCHMARK(BM_USweepWarmStart)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MovePrediction(benchmark::State& state) {
  const network::Design& d = sharedDesign();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d, timer);
  core::MovePredictor predictor(d, timer, objective, nullptr);
  const std::vector<core::Move> moves = core::enumerateAllMoves(d);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predictor.predictedVariationDelta(moves[i % moves.size()]));
    ++i;
  }
}
BENCHMARK(BM_MovePrediction);

// A whole round's candidate table scored in one scoreBatch call (serial —
// the pool axis is covered by BM_LocalOptRound).
void BM_MoveScoreBatch(benchmark::State& state) {
  const network::Design& d = sharedDesign();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d, timer);
  core::MovePredictor predictor(d, timer, objective, nullptr);
  const std::vector<core::Move> moves = core::enumerateAllMoves(d);
  std::vector<double> scores(moves.size());
  for (auto _ : state) {
    predictor.scoreBatch(moves, scores, nullptr);
    benchmark::DoNotOptimize(scores.back());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * moves.size()));
}
BENCHMARK(BM_MoveScoreBatch)->Unit(benchmark::kMillisecond);

// Golden trial evaluation: Arg(0) is the seed path (deep-copy the design
// and the full multi-corner timing per trial), Arg(1) the scoped-overlay
// path (apply/retime-in-place/rollback/undo) the trial engine now uses.
void BM_GoldenTrialIncremental(benchmark::State& state) {
  const network::Design& d0 = sharedDesign();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d0, timer);
  const std::vector<core::Move> moves = core::enumerateAllMoves(d0);
  network::Design d = d0;
  sta::IncrementalTimer base(sharedTech(), d);
  sta::ScopedRetime overlay(base);
  core::TrialEval eval;
  core::UndoRecord undo;
  std::size_t i = 0;
  double acc = 0.0;
  for (auto _ : state) {
    const core::Move& m = moves[i % moves.size()];
    if (state.range(0) == 0) {
      network::Design trial = d;
      sta::IncrementalTimer inc = base;
      const std::vector<int> dirty = core::applyMoveTracked(trial, m);
      inc.update(trial, dirty);
      acc += objective.evaluateFromLatencies(trial, inc.latencies())
                 .sum_variation_ps;
    } else {
      core::applyMoveUndoable(d, m, &undo);
      overlay.retime(d, undo.dirty);
      objective.evaluateTrial(d, base.timings(), &eval);
      acc += eval.sum_variation_ps;
      overlay.rollback();
      core::undoMove(d, undo);
    }
    ++i;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_GoldenTrialIncremental)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// One full local-optimization round, serial vs pooled trial evaluation.
void BM_LocalOptRound(benchmark::State& state) {
  const network::Design& d0 = sharedDesign();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d0, timer);
  core::LocalOptions o;
  o.max_iterations = 1;
  o.r = 8;
  o.parallel_trials = state.range(0) != 0;
  const core::LocalOptimizer opt(sharedTech(), o);
  for (auto _ : state) {
    network::Design d = d0;
    const core::LocalResult r = opt.run(d, objective, nullptr);
    benchmark::DoNotOptimize(r.sum_after_ps);
  }
}
BENCHMARK(BM_LocalOptRound)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// A whole six-round local optimization on bench-scale CLS1v2 (analytical
// predictor, pooled): unlike BM_LocalOptRound it spans rounds, so it shows
// what MovePredictor::scoreRound's cross-round cache saves.
void BM_LocalOptRun(benchmark::State& state) {
  static const network::Design d0 = [] {
    testgen::TestcaseOptions o;
    o.sinks = 120;
    o.max_pairs = 120;
    return testgen::makeCls1(sharedTech(), "v2", o);
  }();
  const sta::Timer timer(sharedTech());
  const core::Objective objective(d0, timer);
  core::LocalOptions o;
  o.max_iterations = 6;
  const core::LocalOptimizer opt(sharedTech(), o);
  for (auto _ : state) {
    network::Design d = d0;
    const core::LocalResult r = opt.run(d, objective, nullptr);
    benchmark::DoNotOptimize(r.sum_after_ps);
  }
}
BENCHMARK(BM_LocalOptRun)->Unit(benchmark::kMillisecond);

// Console output as usual, plus every per-iteration run captured into
// BENCH_bench_kernels.json via bench::JsonEmitter (aggregate rows from
// --benchmark_repetitions are skipped; the raw runs carry the data).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(bench::JsonEmitter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      const std::string metric =
          std::string("real_time_") + benchmark::GetTimeUnitString(r.time_unit);
      out_->record(r.benchmark_name(), metric, r.GetAdjustedRealTime(),
                   r.real_accumulated_time * 1e3);
      out_->record(r.benchmark_name(), "iterations",
                   static_cast<double>(r.iterations),
                   r.real_accumulated_time * 1e3);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::JsonEmitter* out_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::JsonEmitter out("bench_kernels");
  JsonCaptureReporter reporter(&out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
