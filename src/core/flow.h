// The complete optimization framework (paper Figure 1): global LP-guided
// optimization followed by local ML-guided iterative optimization, with the
// Table 5 metric set collected before and after.
#pragma once

#include "core/global_opt.h"
#include "core/local_opt.h"
#include "core/objective.h"
#include "core/predictor.h"
#include "eco/eco.h"
#include "network/design.h"

namespace skewopt::core {

/// The Table 5 row for one design state.
struct DesignMetrics {
  double sum_variation_ps = 0.0;
  std::vector<double> local_skew_ps;  ///< per active corner
  std::size_t clock_cells = 0;        ///< buffers (+1 root driver)
  double power_mw = 0.0;              ///< at the nominal corner
  double area_um2 = 0.0;
};

DesignMetrics computeMetrics(const network::Design& d,
                             const Objective& objective,
                             const sta::Timer& timer);

enum class FlowMode { kGlobal, kLocal, kGlobalLocal };
const char* flowModeName(FlowMode m);

struct FlowOptions {
  GlobalOptions global;
  LocalOptions local;
  /// Invariant-checker gate level (see src/check). The flow verifies the
  /// incoming and outgoing design and pushes this level down into the
  /// global and local stages; a gate with errors throws
  /// check::CheckFailure. SKEWOPT_CHECK_LEVEL overrides.
  check::Level check_level = check::Level::kCheap;
};

/// Wall-clock stage breakdown of one Flow::run, always measured: each
/// field is the duration of the span that times its scope (`flow.global`,
/// `flow.local`, `flow.run`; obs::Span::end, so the injectable clock makes
/// it deterministic in tests). Surfaced in CLI reports and the serve RESULT
/// payload.
struct StageTimings {
  double global_ms = 0.0;  ///< global stage (0 when the stage didn't run)
  double local_ms = 0.0;   ///< local stage (0 when the stage didn't run)
  double total_ms = 0.0;   ///< whole run() including metrics and gates
};

struct FlowResult {
  FlowMode mode = FlowMode::kGlobalLocal;  ///< the flow that ran
  bool warm_start = false;  ///< timer seeded from a prior run's warm state
  DesignMetrics before;
  DesignMetrics after;
  GlobalResult global;  ///< meaningful for kGlobal / kGlobalLocal
  LocalResult local;    ///< meaningful for kLocal / kGlobalLocal
  StageTimings stage_ms;
};

/// Everything one completed flow run leaves behind for a later run over the
/// same design topology (the serve warm-state store keeps one of these per
/// topology key). The snapshot describes the *initial* (pre-optimization)
/// design: a delta job whose edits touch a few sinks seeds its timer from
/// `initial_timing`, re-propagates only the subtrees whose node positions
/// differ, and feeds `global` back into the LP stage. A mismatched snapshot
/// (different node count or corners) degrades to a cold run.
struct FlowWarmState {
  std::vector<sta::CornerTiming> initial_timing;  ///< per active corner
  std::vector<geom::Point> positions;  ///< initial node positions by id
  std::uint64_t fingerprint = 0;  ///< designFingerprint of the initial design
  GlobalWarmState global;
};

class Flow {
 public:
  Flow(const tech::TechModel& tech, const eco::StageDelayLut& lut,
       FlowOptions opts = {})
      : tech_(&tech), lut_(&lut), opts_(opts), timer_(tech) {}

  /// Runs the selected flow on the design in place. `model` may be null
  /// (the local stage then predicts analytically).
  FlowResult run(network::Design& d, FlowMode mode,
                 const DeltaLatencyModel* model) const;

  /// Warm-start entry point: `warm_in` (may be null) is a prior run's
  /// state over the same topology, `warm_out` (may be null, must not alias
  /// `warm_in`) captures this run's state. Results are equal to the cold
  /// run — an unusable `warm_in` just falls back silently.
  FlowResult run(network::Design& d, FlowMode mode,
                 const DeltaLatencyModel* model, const FlowWarmState* warm_in,
                 FlowWarmState* warm_out) const;

 private:
  const tech::TechModel* tech_;
  const eco::StageDelayLut* lut_;
  FlowOptions opts_;
  sta::Timer timer_;
};

}  // namespace skewopt::core
