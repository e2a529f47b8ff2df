// Global skew-variation optimization (paper Sec. 4.1).
//
// Builds the LP of Eqs. (4)-(11) over per-arc, per-corner delay changes:
//
//   minimize    sum |Delta_j^k|                                  (4)
//   subject to  sum over pairs of V_{i,i'} <= U                  (5)
//               V >= +/- (alpha_k skew^k - alpha_k' skew^k')     (6)
//               |skew^k(new)| <= |skew^k(orig)|  (local skew)    (7)
//               |var vs c0 (new)| <= |var vs c0 (orig)|          (8)
//               path latency <= Dmax^k                           (9)
//               Dmin <= D + Delta <= beta * D                    (10)
//               W_min <= (D+Delta)^k / (D+Delta)^k' <= W_max     (11)
//
// with |Delta| split into Delta+ - Delta- (footnote 2 of the paper); (10)
// folds into variable bounds; W_min/W_max come from the characterized
// stage-delay LUT envelope (Figure 2). The upper bound U is swept between
// the LP's own minimum achievable sum of variations (found by first solving
// a min-sum-V variant) and the original sum; each LP solution is realized
// with the Algorithm-1 ECO flow, re-timed with the golden timer, and the
// best realized result is kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/diagnostics.h"
#include "core/objective.h"
#include "eco/eco.h"
#include "lp/lp.h"
#include "network/design.h"
#include "sta/incremental.h"
#include "sta/timer.h"

namespace skewopt::core {

struct GlobalOptions {
  double beta = 1.2;              ///< Constraint (10) upper factor
  std::size_t max_pairs_lp = 150; ///< top critical pairs entering the LP
  /// Arcs whose nominal delay is below this threshold (leaf stubs) are kept
  /// constant: they contribute little variation and excluding them keeps
  /// the LP compact.
  double min_arc_delay_ps = 6.0;
  /// After each arc rebuild, snake extra wire to close a nominal-corner
  /// undershoot of more than this (common-mode ECO error cancellation).
  double trim_threshold_ps = 2.0;
  /// Post-ECO repair passes: each pass snakes the fast sink of the single
  /// worst violator of the local-skew acceptance envelope (broad repair
  /// would cascade through shared driver loads).
  std::size_t repair_passes = 8;
  double repair_threshold_ps = 2.0;  ///< land this far inside the envelope
  /// Sweep positions between the LP's minimum achievable sum (t=0) and the
  /// original sum (t=1).
  std::vector<double> u_sweep = {0.05, 0.2, 0.4};
  double min_delta_ps = 1.5;      ///< ECO threshold on |Delta| per arc
  /// Realized local-skew acceptance gate: the LP forbids degradation, but
  /// the discrete ECO adds noise, so a candidate is accepted when each
  /// corner's realized local skew stays within tolerance * before +
  /// allowance.
  double local_skew_tolerance = 1.05;
  double local_skew_allowance_ps = 12.0;
  /// Algorithm-1 tie-breaks (see EcoEngine): per-inverter-pair penalty keeps
  /// the cell-count overhead negligible; overshoot weight biases toward
  /// trim-recoverable undershoot.
  double eco_pair_penalty_ps = 8.0;
  double eco_overshoot_weight = 2.0;
  /// Re-enter each U-sweep LP from the previous optimal basis (the sweep
  /// changes one row bound per step, so a warm re-solve is a handful of
  /// iterations). Off forces every LP to solve cold.
  bool warm_start_sweep = true;
  /// Invariant-checker gate level (see src/check): the built LPs are
  /// verified before solving and the optimized design before returning;
  /// kDeep adds the ratio-envelope scan and a full multi-corner re-time.
  /// SKEWOPT_CHECK_LEVEL overrides (check::effectiveLevel).
  check::Level check_level = check::Level::kCheap;
  /// Per-active-corner multiplier on the Dmax bound of the latency
  /// constraint (9): entry ki scales corner ki's original maximum sink
  /// latency (missing entries default to 1.0, empty means no derating).
  std::vector<double> corner_dmax_derate;
  lp::SolverOptions lp;
};

/// Per-LP-solve statistics of one global run (pass 1 first, then one entry
/// per attempted sweep point).
struct LpSolveStats {
  double u_ps = 0.0;  ///< budget U (0 for the pass-1 min-sum-V solve)
  int iterations = 0;
  int refactorizations = 0;
  bool warm_started = false;
  bool optimal = false;
  double solve_ms = 0.0;    ///< LP wall time
  double realize_ms = 0.0;  ///< ECO + re-time wall time (0 when LP failed)
};

struct GlobalResult {
  double sum_before_ps = 0.0;
  double sum_after_ps = 0.0;
  double lp_min_sum_ps = 0.0;  ///< V* of the min-sum-V LP (selected pairs)
  double lp_orig_sum_ps = 0.0; ///< original sum over the selected pairs
  double chosen_u_ps = 0.0;
  std::size_t arcs_in_lp = 0;
  std::size_t arcs_changed = 0;
  std::size_t lp_rows = 0;
  std::size_t lp_vars = 0;
  int lp_iterations = 0;
  bool improved = false;
  /// (U, realized full-objective sum) per sweep candidate; -1 if ECO failed.
  std::vector<std::pair<double, double>> candidates;
  /// One entry per LP solved (pass 1, then each sweep point).
  std::vector<LpSolveStats> lp_solves;
  int lp_warm_hits = 0;    ///< sweep solves that accepted a warm basis
  int lp_warm_misses = 0;  ///< sweep solves that fell back to a cold start
  /// Always false: every run builds its LP models. Kept for readers of
  /// the field (the benchmark's staged replay).
  bool reused_models = false;
  /// Cross-job warm-start effects of this run (all zero on cold runs):
  int realize_memo_hits = 0;      ///< sweep points served from the memo
  int lp_replays = 0;             ///< LP solves replayed from the solve log
};

/// Fingerprint of everything a global run's realization depends on beyond
/// the spec-level topology key: node placement/cell assignment and the
/// exact per-corner timing bits of the (initial) design. Two runs whose
/// topology keys and fingerprints both match solve coefficient-identical
/// LPs and realize identical candidates for identical LP solutions.
std::uint64_t designFingerprint(const network::Design& d,
                                const std::vector<sta::CornerTiming>& timing);

/// One realized sweep point memoized for cross-job reuse. A hit requires
/// the design fingerprint and the full LP solution vector to match
/// bit-exactly, so a hit can never change a result — it only skips the
/// deterministic ECO + golden re-time that would reproduce it.
struct RealizedPointMemo {
  std::uint64_t fingerprint = 0;
  std::vector<double> x;        ///< LP solution the point was realized from
  /// Realized candidate design, shared (immutable) so capturing a run's
  /// points into the memo does not copy whole designs.
  std::shared_ptr<const network::Design> trial;
  VariationReport after;        ///< its full evaluation
  std::size_t changed = 0;      ///< arcs rebuilt by the ECO
};

/// Solver and realization state captured from one global run for reuse by
/// a later run over the same design topology (serve keys its warm-state
/// store by serve::topologyKey, which pins every field of the spec except
/// the delta-editable ones: U sweep, corner derates, moved sinks).
/// Contract: a warm state may only be fed back into an optimizer whose
/// options differ at most in u_sweep and corner_dmax_derate.
///
/// Every reuse here is an exact replay, never a heuristic seed. Log entry i
/// replays only when the fingerprint and effective derates match (so the
/// freshly built models are bit-identical to the ones that produced the
/// log), every earlier entry replayed (the sweep chains bases serially, so
/// the chain state matches too), its budget `u` equals the current one, and
/// its basis deserializes to the current model's shape; then the entry IS
/// what the cold solve would return. Anything else solves live, and so
/// does every later entry. Bases are stored serialized
/// (lp::serializeBasis) so a corrupt entry degrades to a live solve.
/// Seeding the simplex with a foreign basis is deliberately not done — on
/// degenerate models it converges to an alternate optimal vertex whose
/// low-order bits differ from the cold solve, breaking delta==cold.
struct GlobalWarmState {
  std::uint64_t fingerprint = 0;  ///< designFingerprint of the logged run
  /// Effective per-active-corner derates the log was solved under (missing
  /// entries are 1.0).
  std::vector<double> derates;
  /// One optimal LP solve: pass 1 first (u = 0, as in LpSolveStats::u_ps),
  /// then each solved sweep point in solve order.
  struct Solve {
    double u = 0.0;  ///< budget bound of row (5), bitwise replay key
    double objective = 0.0;
    std::vector<double> x;
    int iterations = 0;
    std::vector<unsigned char> basis;  ///< optimal basis after this solve
  };
  std::vector<Solve> solves;
  std::vector<RealizedPointMemo> realize_memo;
};

/// Bench/test probe: the exact LPs run() would solve on a design — the
/// pass-1 min-sum-V model and the sweep model, whose budget row (5) is
/// appended last so it can be re-bounded per sweep point with
/// Model::setRowBounds. The pass-1 optimal basis extends to the sweep
/// model by appending one Basic entry for the budget slack.
struct GlobalLpProbe {
  lp::Model min_v;
  lp::Model sweep;
  int budget_row = -1;
  double orig_sum_ps = 0.0;  ///< original sum over the selected pairs
};

class GlobalOptimizer {
 public:
  GlobalOptimizer(const tech::TechModel& tech, const eco::StageDelayLut& lut,
                  GlobalOptions opts = {})
      : tech_(&tech), lut_(&lut), opts_(opts), timer_(tech) {}

  /// Optimizes the design in place (keeps the original when no sweep
  /// candidate realizes an improvement).
  GlobalResult run(network::Design& d, const Objective& objective) const;

  /// Warm-start entry point. `seed` (may be null) is an incremental timer
  /// already holding the timing of `d` — bit-identical to
  /// analyzeDesign(d) by the IncrementalTimer contract. It only spares the
  /// run its initial analysis: a null seed builds the same timer from `d`,
  /// and every sweep point realizes from a copy of that one timer, re-timing
  /// each rebuilt driver's subtree. `warm_in` (may be null) supplies a
  /// prior run's solve log and realize memo;
  /// `warm_out` (may be null) captures this run's state for the next delta.
  /// Results are equal to the cold run(d, objective) (asserted by the serve
  /// differential tests); only the work expended differs.
  GlobalResult run(network::Design& d, const Objective& objective,
                   const sta::IncrementalTimer* seed,
                   const GlobalWarmState* warm_in,
                   GlobalWarmState* warm_out) const;

  /// Builds the global LPs for `d` without running the sweep (see
  /// GlobalLpProbe). Used by the LP benchmarks and warm-start tests.
  GlobalLpProbe extractGlobalLp(const network::Design& d,
                                const Objective& objective) const;

 private:
  void repairLocalSkew(network::Design& trial, const Objective& objective,
                       const VariationReport& before,
                       sta::IncrementalTimer& inc) const;

  const tech::TechModel* tech_;
  const eco::StageDelayLut* lut_;
  GlobalOptions opts_;
  sta::Timer timer_;
};

/// Routed length of an arc (sum of its hop path lengths), um.
double arcRoutedLength(const network::Design& d, const network::Arc& arc);

}  // namespace skewopt::core
