// Local iterative optimization (paper Sec. 4.2, Algorithm 2).
//
// Each round: enumerate every candidate move (Table 2), predict each move's
// skew-variation reduction with the delta-latency predictor (incrementally:
// MovePredictor::scoreRound keeps each move's group predictions across
// rounds and recomputes only those a commit touched), sort, and try
// the top-R predictions against the golden timer. Commit the best realized
// improvement and re-enumerate; when a chunk of R yields no improvement,
// fall through to the next R; terminate when the predictor offers no move
// with a meaningful predicted reduction or the iteration budget is spent.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "check/diagnostics.h"
#include "core/objective.h"
#include "core/predictor.h"
#include "network/design.h"

namespace skewopt::core {

/// One round's ranked input, as LocalOptions::on_scored sees it.
struct LocalRoundView {
  std::size_t round = 0;
  const network::Design& design;
  const std::vector<sta::CornerTiming>& baseline;  ///< the round's timing
  std::span<const Move> moves;
  std::span<double> scores;  ///< predicted delta per move, before sorting
  MovePredictor::RoundStats stats;
};

struct LocalOptions {
  std::size_t r = 5;               ///< paper: R = 5 trial moves per round
  std::size_t max_iterations = 25;
  std::size_t max_chunks_per_round = 20;  ///< give up a round after this many R-chunks
  double min_predicted_gain_ps = 0.5;
  double local_skew_tolerance = 1.03;
  /// Evaluate each chunk's R golden trials on the shared thread pool, as
  /// the paper does ("pick the top R moves to implement in R individual
  /// threads"), and score enumerated moves on the same pool. Each worker
  /// owns one persistent design replica plus a scoped-retime scratch timer
  /// reused across all chunks and rounds — no per-trial copies. Results
  /// are bit-identical to the serial path.
  bool parallel_trials = true;
  /// Trial-worker count; 0 = one per shared-pool thread. Setting this above
  /// the core count still interleaves real concurrency (the TSan test uses
  /// it to exercise races on single-core hosts).
  std::size_t threads = 0;
  /// Invariant-checker gate level (see src/check) applied to the design
  /// after the move loop. SKEWOPT_CHECK_LEVEL overrides.
  check::Level check_level = check::Level::kCheap;
  MoveEnumOptions enumerate;
  /// Test seam, unset in production: called once per round after scoring,
  /// before ranking. It may check the scores or replace them (the
  /// differential tests' full-rescore reference does).
  std::function<void(const LocalRoundView&)> on_scored;
};

struct LocalIteration {
  std::size_t round = 0;
  MoveType type = MoveType::kSizeDisplace;
  double predicted_delta_ps = 0.0;  ///< predicted objective change
  double realized_delta_ps = 0.0;   ///< golden objective change
  double sum_after_ps = 0.0;
};

struct LocalResult {
  double sum_before_ps = 0.0;
  double sum_after_ps = 0.0;
  std::vector<LocalIteration> history;  ///< committed moves, in order
  std::size_t golden_evaluations = 0;
  std::size_t candidate_moves = 0;  ///< enumerated+scored in the last round
  bool improved = false;
};

class LocalOptimizer {
 public:
  explicit LocalOptimizer(const tech::TechModel& tech, LocalOptions opts = {})
      : tech_(&tech), opts_(opts), timer_(tech) {}

  /// Optimizes in place; `model` may be null (pure analytical prediction,
  /// estimator index 0 — the Figure 6/8 comparison baselines).
  LocalResult run(network::Design& d, const Objective& objective,
                  const DeltaLatencyModel* model,
                  std::size_t analytic_fallback = 0) const;

  /// Figure 8's random baseline: per round, R uniformly random candidate
  /// moves are tried against the golden timer instead of the predictor's
  /// top R; the best improving one is committed.
  LocalResult runRandom(network::Design& d, const Objective& objective,
                        std::uint64_t seed) const;

 private:
  const tech::TechModel* tech_;
  LocalOptions opts_;
  sta::Timer timer_;
};

}  // namespace skewopt::core
