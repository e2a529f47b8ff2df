// Linear programming for the global skew-variation optimization.
//
// The paper solves the LP of its Eqs. (4)-(11) with a commercial-grade
// solver; this module is a from-scratch replacement, one bounded-variable
// two-phase primal simplex (revised_simplex.cpp) with
//   * ranged rows (lo <= a.x <= hi) handled through slack variables,
//   * a phase 1 that drives the sum of bound infeasibilities to zero and
//     is re-entered if phase 2 drifts out of the feasible region,
//   * CSC column storage plus a CSR copy for row-wise pricing, a sparse LU
//     basis factorization with Markowitz-style pivoting, product-form eta
//     updates with drift-triggered refactorization, and Devex pricing with
//     a Bland anti-cycling fallback,
//   * a warm-start API: solve() accepts the Basis of a previous solve and
//     re-enters from it — the U-sweep of the global optimizer changes one
//     row bound per step, so each re-solve is a handful of iterations,
//   * the row duals of every optimal solve (Solution::duals), from which
//     check::checkLpOptimality certifies the answer in O(nnz) without
//     sharing the solver's arithmetic.
//
// The Model API is deliberately close to what callers of a commercial LP
// library would write, so the global optimizer reads like the paper.
#pragma once

#include <limits>
#include <vector>

namespace skewopt::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct Term {
  int var = -1;
  double coef = 0.0;
};

/// An LP in the form: minimize c.x subject to lo_r <= A x <= hi_r and
/// lb_j <= x_j <= ub_j. Equality rows use lo == hi; one-sided rows use
/// +/-kInf on the open side. Duplicate-variable terms in a row are
/// coalesced and zero coefficients dropped, so numNonzeros() is exact.
class Model {
 public:
  int addVar(double lb, double ub, double obj);
  void addRow(double lo, double hi, std::vector<Term> terms);

  /// Re-bounds an existing row (the U-sweep retightens Eq. (5) in place
  /// instead of rebuilding the whole model).
  void setRowBounds(int r, double lo, double hi);

  int numVars() const { return static_cast<int>(obj_.size()); }
  int numRows() const { return static_cast<int>(row_lo_.size()); }
  std::size_t numNonzeros() const { return nnz_; }

  double objCoef(int v) const { return obj_[static_cast<std::size_t>(v)]; }
  double varLb(int v) const { return var_lb_[static_cast<std::size_t>(v)]; }
  double varUb(int v) const { return var_ub_[static_cast<std::size_t>(v)]; }
  double rowLo(int r) const { return row_lo_[static_cast<std::size_t>(r)]; }
  double rowHi(int r) const { return row_hi_[static_cast<std::size_t>(r)]; }
  const std::vector<Term>& rowTerms(int r) const {
    return rows_[static_cast<std::size_t>(r)];
  }

  /// Evaluates a candidate point: objective and worst constraint violation.
  double objective(const std::vector<double>& x) const;
  double maxViolation(const std::vector<double>& x) const;

 private:
  std::vector<double> obj_, var_lb_, var_ub_;
  std::vector<double> row_lo_, row_hi_;
  std::vector<std::vector<Term>> rows_;
  std::size_t nnz_ = 0;
};

enum class Status { Optimal, Infeasible, Unbounded, IterLimit };

const char* statusName(Status s);

/// Status of one variable in a simplex basis. Indices 0..numVars()-1 are
/// the structural variables, numVars()..numVars()+numRows()-1 the row
/// slacks.
enum class BasisStatus : unsigned char { Basic, AtLower, AtUpper, FreeZero };

/// A basis snapshot: one status per structural variable and row slack.
/// Returned by the solver in Solution::basis and accepted back as a
/// warm start. A basis from a model with one fewer row can be extended by
/// appending a Basic entry for the new row's slack (the slack column is a
/// unit column, so the extended basis stays nonsingular) — this is how the
/// first U-sweep LP warm-starts from the min-sum-V pass.
struct Basis {
  std::vector<BasisStatus> status;
  bool empty() const { return status.empty(); }
};

/// Compact binary form of a Basis for persistence (the serve warm-state
/// store keeps bases in this form): a version byte, a little-endian entry
/// count, one status byte per entry, and a trailing FNV-1a-32 checksum of
/// everything before it. deserializeBasis rejects unknown versions,
/// truncated or oversized payloads, out-of-range status bytes, and
/// checksum mismatches — a corrupt blob yields `false` and leaves `*out`
/// empty, so callers fall back to a cold start instead of feeding the
/// solver garbage.
std::vector<unsigned char> serializeBasis(const Basis& basis);
bool deserializeBasis(const std::vector<unsigned char>& bytes, Basis* out);

struct Solution {
  Status status = Status::IterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< structural variable values
  int iterations = 0;
  int phase1_iterations = 0;
  int refactorizations = 0;  ///< sparse LU (re)factorizations performed
  /// True when a supplied warm-start basis was accepted (valid shape and
  /// factorizable, possibly after slack repair); false on cold starts and
  /// on fallbacks from an unusable warm basis.
  bool warm_started = false;
  /// Final basis (empty for a model without rows) — feed to the next
  /// solve's `warm_start` to re-enter from this vertex.
  Basis basis;
  /// Row duals y of the final pricing pass, one per row; filled only when
  /// the status is Optimal. The reduced cost of variable j is
  /// d_j = c_j - sum_r y_r a_rj; y_r > 0 prices a row held at its lower
  /// bound, y_r < 0 one held at its upper bound.
  std::vector<double> duals;
};

struct SolverOptions {
  /// Entering-variable rule. Devex approximates steepest-edge with
  /// reference weights; Dantzig is the classic most-negative reduced cost.
  enum class Pricing : unsigned char { kDevex, kDantzig };

  int max_iterations = 200000;
  double tolerance = 1e-7;
  /// Hard cap on accumulated eta vectors before a forced refactorization
  /// (drift-triggered refactorizations can come earlier).
  int refactor_every = 120;
  /// Switch to Bland's rule after this many consecutive non-improving
  /// iterations (degeneracy guard).
  int stall_limit = 500;
  Pricing pricing = Pricing::kDevex;
};

/// Solves the model. Deterministic for a given (model, options, warm
/// start). `warm_start` may be null (cold start) or a Basis from a prior
/// solve of a structurally compatible model; an unusable basis silently
/// falls back to a cold start (see Solution::warm_started).
Solution solve(const Model& model, const SolverOptions& opts = {},
               const Basis* warm_start = nullptr);

}  // namespace skewopt::lp
