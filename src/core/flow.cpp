#include "core/flow.h"

#include <optional>
#include <stdexcept>

#include "check/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace skewopt::core {

namespace {

obs::Histogram& flowStageMs(const char* name, const char* help) {
  return obs::MetricsRegistry::global().histogram(
      name, obs::defaultMsBuckets(), help);
}

DesignMetrics metricsFromReport(const network::Design& d,
                                const VariationReport& r) {
  DesignMetrics m;
  m.sum_variation_ps = r.sum_variation_ps;
  m.local_skew_ps = r.local_skew_ps;
  m.clock_cells = d.tree.numBuffers();
  m.power_mw = sta::clockTreePowerMw(d, d.corners.front());
  m.area_um2 = sta::clockCellAreaUm2(d);
  return m;
}

/// Builds the seeded incremental timer for a warm run, or nullopt when the
/// snapshot does not fit this design (node count, corners) — the caller
/// then runs cold. The dirty set is derived by diffing the snapshot's node
/// positions against the freshly built design: a moved sink dirties its
/// parent (whose net geometry changed), which covers the sink itself.
std::optional<sta::IncrementalTimer> seedFromWarmState(
    const tech::TechModel& tech, const network::Design& d,
    const FlowWarmState& warm) {
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
    return std::nullopt;  // snapshot shape mismatch: cold fallback
  }
}

}  // namespace

const char* flowModeName(FlowMode m) {
  switch (m) {
    case FlowMode::kGlobal: return "global";
    case FlowMode::kLocal: return "local";
    case FlowMode::kGlobalLocal: return "global-local";
  }
  return "?";
}

DesignMetrics computeMetrics(const network::Design& d,
                             const Objective& objective,
                             const sta::Timer& timer) {
  return metricsFromReport(d, objective.evaluate(d, timer));
}

FlowResult Flow::run(network::Design& d, FlowMode mode,
                     const DeltaLatencyModel* model) const {
  return run(d, mode, model, /*warm_in=*/nullptr, /*warm_out=*/nullptr);
}

FlowResult Flow::run(network::Design& d, FlowMode mode,
                     const DeltaLatencyModel* model,
                     const FlowWarmState* warm_in,
                     FlowWarmState* warm_out) const {
  static obs::Counter& runs = obs::MetricsRegistry::global().counter(
      "skewopt_flow_runs_total", "Flow::run invocations");
  static obs::Histogram& global_hist =
      flowStageMs("skewopt_flow_global_stage_ms", "Global stage wall time");
  static obs::Histogram& local_hist =
      flowStageMs("skewopt_flow_local_stage_ms", "Local stage wall time");
  static obs::Histogram& total_hist =
      flowStageMs("skewopt_flow_total_ms", "Whole Flow::run wall time");
  runs.add();

  obs::Span flow_span("flow.run");
  flow_span.arg("mode", static_cast<std::int64_t>(mode));

  const check::Level chk = check::effectiveLevel(opts_.check_level);
  {
    obs::Span gate_span("flow.gate_input");
    check::gateDesign(d, timer_, chk, "flow:input");
  }

  // The job's one timer of the incoming design. Cross-job warm start seeds
  // it from the prior run's initial-design snapshot (re-propagating only
  // the subtrees this job's edits dirtied); without a usable snapshot it
  // is a full analysis, and the run proceeds exactly as a cold one.
  std::optional<sta::IncrementalTimer> timing;
  if (warm_in != nullptr) timing = seedFromWarmState(*tech_, d, *warm_in);
  const bool warm_start = timing.has_value();
  static obs::Counter& warm_runs = obs::MetricsRegistry::global().counter(
      "skewopt_flow_warm_runs_total",
      "Flow runs seeded from a prior run's warm state");
  if (warm_start)
    warm_runs.add();
  else
    timing.emplace(*tech_, d);

  // Alphas are locked to the incoming tree (they are an input parameter of
  // the formulation).
  const Objective objective(d, timing->timings());
  FlowResult res;
  res.mode = mode;
  res.warm_start = warm_start;
  {
    obs::Span metrics_span("flow.metrics_before");
    res.before = metricsFromReport(
        d, objective.evaluateFromTimings(d, timing->timings()));
  }

  // The outgoing snapshot describes the *initial* design, so capture it
  // before the stages mutate `d`.
  if (warm_out != nullptr) {
    warm_out->initial_timing = timing->timings();
    warm_out->positions.assign(d.tree.numNodes(), geom::Point{});
    for (std::size_t i = 0; i < d.tree.numNodes(); ++i)
      if (d.tree.isValid(static_cast<int>(i)))
        warm_out->positions[i] = d.tree.node(static_cast<int>(i)).pos;
    warm_out->fingerprint = designFingerprint(d, warm_out->initial_timing);
  }

  if (mode == FlowMode::kGlobal || mode == FlowMode::kGlobalLocal) {
    obs::Span stage_span("flow.global");
    GlobalOptions gopts = opts_.global;
    gopts.check_level = chk;
    GlobalOptimizer gopt(*tech_, *lut_, gopts);
    res.global = gopt.run(d, objective, &*timing,
                          warm_in != nullptr ? &warm_in->global : nullptr,
                          warm_out != nullptr ? &warm_out->global : nullptr);
    res.stage_ms.global_ms = stage_span.end();
    global_hist.observe(res.stage_ms.global_ms);
  }
  if (mode == FlowMode::kLocal || mode == FlowMode::kGlobalLocal) {
    obs::Span stage_span("flow.local");
    LocalOptions lopts = opts_.local;
    lopts.check_level = chk;
    LocalOptimizer lopt(*tech_, lopts);
    res.local = lopt.run(d, objective, model);
    res.stage_ms.local_ms = stage_span.end();
    local_hist.observe(res.stage_ms.local_ms);
  }
  {
    obs::Span metrics_span("flow.metrics_after");
    res.after = computeMetrics(d, objective, timer_);
  }
  {
    obs::Span gate_span("flow.gate_output");
    check::gateDesign(d, timer_, chk, "flow:output");
  }
  res.stage_ms.total_ms = flow_span.end();
  total_hist.observe(res.stage_ms.total_ms);
  return res;
}

}  // namespace skewopt::core
