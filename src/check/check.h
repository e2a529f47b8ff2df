// Design-invariant verifiers — the static-analysis counterpart of the
// dynamic sanitizers in the tier-1 suite.
//
// The flow mutates a shared Design from many directions (ECO realization,
// golden-trial move/undo overlays, warm-started LP re-bounding, concurrent
// serve jobs); a silently corrupted tree or an ill-formed LP model would
// otherwise surface only as a wrong objective value many stages later.
// Every verifier here walks one representation and reports violations as
// stable SKW### diagnostics (catalog: docs/static_analysis.md); the stage
// gates in Flow / GlobalOptimizer / LocalOptimizer / Scheduler compose
// them and throw check::CheckFailure on any error.
//
// Code blocks: SKW1xx design (tree/routing/placement/pairs), SKW16x
// timing, SKW2xx LP model / budget row / LUT ratio envelope / optimality
// certificate, SKW3xx serve
// JobSpec records (implemented in serve/spec_check.h — the serve module
// sits above this one).
#pragma once

#include "check/diagnostics.h"
#include "eco/stage_lut.h"
#include "lp/lp.h"
#include "network/design.h"
#include "sta/timer.h"

namespace skewopt::check {

struct CheckOptions {
  Level level = Level::kCheap;
  /// The flow legalizes only the cells it moves, so freshly generated
  /// trees sit off the site grid by design; alignment checking is opt-in
  /// for flows that ran a full legalization pass.
  bool require_site_alignment = false;
  /// Slack allowed outside the floorplan bounding box before a cell is
  /// flagged (the generators park the source port and routing-channel
  /// buffers slightly outside the placement rows).
  double placement_margin_um = 50.0;
};

// --- individual verifiers (each appends to the engine) ---

/// Tree structure: live parentless source at node 0, parent/child link
/// consistency, acyclicity, sink/buffer shape, reachability. SKW101-110.
void checkTreeStructure(const network::ClockTree& tree,
                        DiagnosticEngine& engine);

/// Routing <-> topology: every driver owns a net, pin counts and pin
/// positions match the children, net geometry is well-formed. SKW120-125.
void checkRouting(const network::Design& d, DiagnosticEngine& engine);

/// Placement legality: finite positions, cells inside the floorplan box,
/// (deep, warning-only) no two buffers on the same spot, (opt-in) site/row
/// alignment. SKW140-143.
void checkPlacement(const network::Design& d, const CheckOptions& opts,
                    DiagnosticEngine& engine);

/// Design bookkeeping: corners exist in the tech, sink pairs reference
/// live sinks, buffer cells are inside the library. SKW109, SKW150-154.
void checkDesignRecords(const network::Design& d, DiagnosticEngine& engine);

/// One corner's propagated timing state: finite arrivals/slews, monotone
/// source->sink latency, non-negative arc delays, sane driver loads.
/// Exposed separately so tests can feed a tampered CornerTiming.
/// SKW160-163.
void checkCornerTiming(const network::ClockTree& tree,
                       const sta::CornerTiming& timing,
                       DiagnosticEngine& engine);

/// Re-times the design at every active corner and runs checkCornerTiming
/// on each result (deep checks only — this is a full STA per corner).
void checkDesignTiming(const network::Design& d, const sta::Timer& timer,
                       DiagnosticEngine& engine);

/// LP model well-formedness: row/column index consistency, finite and
/// ordered bounds, no NaN coefficients, coalesced rows, exact nonzero
/// count. SKW200-206.
void checkLpModel(const lp::Model& model, DiagnosticEngine& engine);

/// The U-sweep budget-row identity (Eq. (5)): the re-bounded row must be
/// the final row, one-sided from above, with positive coefficients.
/// SKW210-212.
void checkBudgetRow(const lp::Model& model, int budget_row,
                    DiagnosticEngine& engine);

/// The Figure 2 envelope feeding Constraint (11): W_min(u) <= W_max(u)
/// and finite over each active corner pair's fitted range. SKW220-221.
void checkRatioEnvelope(const eco::StageDelayLut& lut,
                        const network::Design& d, DiagnosticEngine& engine);

/// Relative tolerances of the LP optimality certificate, one per residual
/// of LpResiduals (scaled as documented there). The solver's own pricing
/// and feasibility tolerances (SolverOptions::tolerance, 1e-7 absolute)
/// sit below them, so an answer the solver may legitimately return always
/// passes.
inline constexpr double kLpPrimalTol = 1e-6;
inline constexpr double kLpDualTol = 1e-6;
inline constexpr double kLpComplementarityTol = 1e-6;
inline constexpr double kLpGapTol = 1e-6;

/// Worst scaled residual of each optimality condition of an LP solution,
/// with the reduced costs d = c - A^T y recomputed from Model::rowTerms:
///   primal          — bound or row violation / max(1, |bound|);
///   dual            — a reduced cost or row dual whose sign no finite
///                     bound supports / max(1, max_j |c_j|);
///   complementarity — |multiplier| x distance to the bound it prices /
///                     max(1, |objective|);
///   gap             — |objective - dual objective| / max(1, |objective|),
///                     the objective being the one the solution reports.
struct LpResiduals {
  double primal = 0.0;
  double dual = 0.0;
  double complementarity = 0.0;
  double gap = 0.0;
};

/// The residuals of `solution` (which must carry finite x and duals sized
/// to the model; every field is +inf otherwise). O(nnz).
LpResiduals lpResiduals(const lp::Model& model, const lp::Solution& solution);

/// LP optimality certificate for an Optimal solution: primal feasibility
/// (SKW230), dual sign feasibility (SKW231), complementary slackness
/// (SKW232) and the duality gap against the reported objective (SKW233),
/// each against its kLp*Tol above, one diagnostic per violated condition
/// naming the worst offender. A solution of any other status claims no
/// optimum and is not checked. O(nnz).
void checkLpOptimality(const lp::Model& model, const lp::Solution& solution,
                       DiagnosticEngine& engine);

// --- composition ---

/// The cheap structural pass: tree + routing + placement + records.
void checkDesign(const network::Design& d, const CheckOptions& opts,
                 DiagnosticEngine& engine);

/// Stage gate: runs checkDesign at `level` (plus checkDesignTiming at
/// kDeep), stamping `stage` into the diagnostics, and throws CheckFailure
/// when any error was found. kOff is a no-op. The env override
/// (SKEWOPT_CHECK_LEVEL) is applied by the *callers* that own a
/// configured level; this function runs exactly the level it is given.
void gateDesign(const network::Design& d, const sta::Timer& timer,
                Level level, const char* stage);

}  // namespace skewopt::check
