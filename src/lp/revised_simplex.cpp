// Sparse revised simplex — the LP solver behind lp::solve().
//
// The global optimizer's LPs (Eqs. 4-11) are extremely sparse: a few terms
// per row, thousands of rows. The solver keeps the constraint matrix in
// CSC form and the basis as a sparse LU factorization:
//
//   * factorization: right-looking Gaussian elimination with
//     Markowitz-style pivoting — row/column singletons are eliminated
//     first (zero fill; slack-heavy bases triangularize almost entirely),
//     then the residual bump picks minimum-count columns with a relative
//     stability threshold;
//   * updates: product-form eta vectors per basis change, with
//     refactorization triggered by primal-residual drift or an eta cap —
//     never on a fixed schedule alone;
//   * storage: L, U and the eta file live in flat index/value arrays with
//     start offsets, in the order the solves walk them;
//   * solves: sparse ftran (B w = a) and btran (B^T y = c) through the
//     LU triangles plus the eta file;
//   * pricing: Devex reference weights (approximate steepest edge) with a
//     Bland anti-cycling fallback. Reduced costs and the Devex pivot row
//     are accumulated row-wise over a CSR copy of [A | -I], skipping zero
//     duals. A pivot's Devex update is deferred to the next iteration,
//     whose one fused btran yields both the new duals and the old pivot
//     row (two independent accumulation chains); a refactorization
//     applies a pending update first.
//
// None of this reorders floating-point work: every column sees the same
// operations in the same order as a column-wise dot product, minus exact
// zero terms, and a btran result's zeros are only ever skipped, so their
// sign is free. global_opt_test's LpTrajectoryTest pins the pivot path and
// every solution bit on the bench-scale CLS chains.
//
// Phase 2 only moves between feasible vertices in exact arithmetic; in
// floating point a long degenerate run can carry the basic values out of
// their bounds. When phase 2 stops (optimal or unbounded) with the point
// infeasible, the solver refactorizes and re-enters phase 1 from the
// current basis instead of reporting a point that is not feasible. The
// duals of the final pricing pass are returned with every optimal
// solution, so check::checkLpOptimality can certify it independently.
//
// A warm start re-enters from a caller-supplied Basis: the basis is
// refactorized directly (rank-deficient bases are repaired with slacks,
// unusable ones fall back to a cold start) and phase 1 only runs as far
// as the start point is infeasible. Re-solving after a single row-bound
// change — the U-sweep — typically costs a handful of iterations.
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/lp.h"

namespace skewopt::lp {
namespace {

struct Entry {
  int idx = -1;
  double val = 0.0;
};

// Numeric guards of the solver.
// Ratio test: basic rows whose |w_i| is below this cannot block.
constexpr double kRatioPivotTol = 1e-10;
// Exact-zero window: eta entries below it are dropped, ratio-test limits
// within it of the best are ties, and smaller pivots get no Devex update.
constexpr double kZeroTol = 1e-12;
// Smallest pivot that gets an eta; a smaller one refactorizes instead.
constexpr double kMinEtaPivot = 1e-8;
// Primal residual max |A x - s| above which the factors are rebuilt.
constexpr double kDriftResidual = 1e-7;
// Basis changes between two primal-residual checks.
constexpr int kDriftCheckPivots = 32;
// Devex weights restart from 1 once the largest exceeds this.
constexpr double kDevexReset = 1e8;
// Phase-1 infeasibility left above this proves the LP infeasible.
constexpr double kPhase1InfeasibleCut = 1e-6;
// LU: entries below this cannot pivot.
constexpr double kLuAbsTol = 1e-12;
// LU: fill that cancels below this is removed.
constexpr double kLuDropTol = 1e-13;
// LU: a bump pivot must be at least this fraction of its column's largest.
constexpr double kLuRelTol = 0.05;

/// Sparse LU factorization of one basis matrix B (columns indexed by basis
/// position, rows by constraint row), with the triangular solves. The
/// factorization records the elimination itself: per pivot step k the
/// pivot (row p_k, position q_k, value v_k), the L multipliers applied to
/// later-pivoted rows, and the U row (entries in later-pivoted positions).
/// Both factors live in flat index/value arrays with start offsets, in
/// elimination order; L keeps only the steps that have multipliers.
class BasisLu {
 public:
  /// Factorizes the m x m matrix whose position-j column is cols[j].
  /// Returns the positions left unpivoted (rank deficiency; pair them
  /// with unpivotedRows() to repair the basis), empty on success.
  std::vector<int> factorize(int m, const std::vector<std::vector<Entry>>& cols);

  /// Solves B w = b. In: b indexed by row. Out: w indexed by position.
  void ftran(std::vector<double>& v) const;

  /// Solves B^T y = c for each of the N vectors in one walk over the
  /// factors. In: c indexed by position. Out: y indexed by row.
  template <std::size_t N>
  void btran(const std::array<std::vector<double>*, N>& v) const;

  const std::vector<int>& unpivotedRows() const { return unpivoted_rows_; }

 private:
  struct Pivot {
    int row = -1, col = -1;
    double val = 0.0;
  };
  int m_ = 0;
  std::vector<Pivot> pivots_;         ///< in elimination order
  std::vector<std::size_t> u_start_;  ///< per step: its U row's offset
  std::vector<int> u_idx_;            ///< U row entries: position
  std::vector<double> u_val_;         ///<   and value
  std::vector<int> l_row_;            ///< steps with multipliers: pivot row
  std::vector<std::size_t> l_start_;  ///<   and offset into l_idx_/l_val_
  std::vector<int> l_idx_;            ///< L entries: later-pivoted row
  std::vector<double> l_val_;         ///<   and multiplier
  std::vector<int> unpivoted_rows_;
  std::vector<std::vector<Entry>> arow_;  ///< factorize's active matrix
  std::vector<std::vector<int>> colrows_;
  mutable std::array<std::vector<double>, 2> scratch_;
};

std::vector<int> BasisLu::factorize(int m,
                                    const std::vector<std::vector<Entry>>& cols) {
  m_ = m;
  pivots_.clear();
  u_start_.assign(1, 0);
  u_idx_.clear();
  u_val_.clear();
  l_row_.clear();
  l_start_.assign(1, 0);
  l_idx_.clear();
  l_val_.clear();
  unpivoted_rows_.clear();
  pivots_.reserve(static_cast<std::size_t>(m));

  const std::size_t sm = static_cast<std::size_t>(m);
  // Active matrix, row-major; removed entries are marked val == 0 and the
  // counts track the live ones. colrows may hold stale row ids (validated
  // against the row on use). Their storage is reused across calls.
  std::vector<std::vector<Entry>>& arow = arow_;
  std::vector<std::vector<int>>& colrows = colrows_;
  arow.resize(sm);
  colrows.resize(sm);
  for (std::vector<Entry>& row : arow) row.clear();
  for (std::vector<int>& col : colrows) col.clear();
  std::vector<int> rcount(sm, 0), ccount(sm, 0);
  std::vector<char> rdone(sm, 0), cdone(sm, 0);
  for (int j = 0; j < m; ++j) {
    for (const Entry& e : cols[static_cast<std::size_t>(j)]) {
      if (e.val == 0.0) continue;
      arow[static_cast<std::size_t>(e.idx)].push_back({j, e.val});
      colrows[static_cast<std::size_t>(j)].push_back(e.idx);
      ++rcount[static_cast<std::size_t>(e.idx)];
      ++ccount[static_cast<std::size_t>(j)];
    }
  }

  std::vector<int> col_single, row_single;
  for (int j = 0; j < m; ++j)
    if (ccount[static_cast<std::size_t>(j)] == 1) col_single.push_back(j);
  for (int r = 0; r < m; ++r)
    if (rcount[static_cast<std::size_t>(r)] == 1) row_single.push_back(r);

  // where[col] -> index of col's live entry in the row being updated.
  std::vector<int> where(sm, -1);

  auto liveEntry = [&](int r, int c) -> Entry* {
    for (Entry& e : arow[static_cast<std::size_t>(r)])
      if (e.idx == c && e.val != 0.0) return &e;
    return nullptr;
  };

  for (int step = 0; step < m; ++step) {
    int pr = -1, pc = -1;
    // 1) Column singletons: pivot with zero fill.
    while (pr < 0 && !col_single.empty()) {
      const int c = col_single.back();
      col_single.pop_back();
      if (cdone[static_cast<std::size_t>(c)] ||
          ccount[static_cast<std::size_t>(c)] != 1)
        continue;
      for (const int r : colrows[static_cast<std::size_t>(c)]) {
        if (rdone[static_cast<std::size_t>(r)]) continue;
        const Entry* e = liveEntry(r, c);
        if (e != nullptr && std::abs(e->val) >= kLuAbsTol) {
          pr = r;
          pc = c;
          break;
        }
      }
    }
    // 2) Row singletons: also zero fill in U (the row IS the pivot).
    while (pr < 0 && !row_single.empty()) {
      const int r = row_single.back();
      row_single.pop_back();
      if (rdone[static_cast<std::size_t>(r)] ||
          rcount[static_cast<std::size_t>(r)] != 1)
        continue;
      for (const Entry& e : arow[static_cast<std::size_t>(r)]) {
        if (e.val == 0.0 || cdone[static_cast<std::size_t>(e.idx)]) continue;
        if (std::abs(e.val) >= kLuAbsTol) {
          pr = r;
          pc = e.idx;
        }
        break;  // the single live entry either pivots or the row is stuck
      }
    }
    // 3) Markowitz fallback: minimum-count column, then the stable entry
    //    of minimum row count within it.
    if (pr < 0) {
      int best_c = -1;
      for (int j = 0; j < m; ++j) {
        const std::size_t sj = static_cast<std::size_t>(j);
        if (cdone[sj] || ccount[sj] == 0) continue;
        if (best_c < 0 || ccount[sj] < ccount[static_cast<std::size_t>(best_c)])
          best_c = j;
      }
      while (best_c >= 0 && pr < 0) {
        double colmax = 0.0;
        for (const int r : colrows[static_cast<std::size_t>(best_c)]) {
          if (rdone[static_cast<std::size_t>(r)]) continue;
          const Entry* e = liveEntry(r, best_c);
          if (e != nullptr) colmax = std::max(colmax, std::abs(e->val));
        }
        int best_r = -1;
        for (const int r : colrows[static_cast<std::size_t>(best_c)]) {
          if (rdone[static_cast<std::size_t>(r)]) continue;
          const Entry* e = liveEntry(r, best_c);
          if (e == nullptr) continue;
          if (std::abs(e->val) < kLuAbsTol ||
              std::abs(e->val) < kLuRelTol * colmax)
            continue;
          if (best_r < 0 || rcount[static_cast<std::size_t>(r)] <
                                rcount[static_cast<std::size_t>(best_r)])
            best_r = r;
        }
        if (best_r >= 0) {
          pr = best_r;
          pc = best_c;
        } else {
          // Numerically dead column: retire it as unpivotable.
          cdone[static_cast<std::size_t>(best_c)] = 1;
          best_c = -1;
          for (int j = 0; j < m; ++j) {
            const std::size_t sj = static_cast<std::size_t>(j);
            if (cdone[sj] || ccount[sj] == 0) continue;
            if (best_c < 0 ||
                ccount[sj] < ccount[static_cast<std::size_t>(best_c)])
              best_c = j;
          }
        }
      }
    }
    if (pr < 0) break;  // rank deficient: remaining rows/cols unpivoted

    const double pv = liveEntry(pr, pc)->val;
    pivots_.push_back({pr, pc, pv});
    // U row: the pivot row's live entries in not-yet-pivoted positions.
    const std::size_t u_begin = u_idx_.size();
    for (const Entry& e : arow[static_cast<std::size_t>(pr)])
      if (e.val != 0.0 && e.idx != pc &&
          !cdone[static_cast<std::size_t>(e.idx)]) {
        u_idx_.push_back(e.idx);
        u_val_.push_back(e.val);
      }
    const std::size_t u_end = u_idx_.size();
    u_start_.push_back(u_end);

    // Eliminate pc from every other live row.
    const std::size_t l_begin = l_idx_.size();
    for (const int r : colrows[static_cast<std::size_t>(pc)]) {
      const std::size_t sr = static_cast<std::size_t>(r);
      if (r == pr || rdone[sr]) continue;
      Entry* e = liveEntry(r, pc);
      if (e == nullptr) continue;
      const double f = e->val / pv;
      l_idx_.push_back(r);
      l_val_.push_back(f);
      e->val = 0.0;
      --rcount[sr];
      for (std::size_t i = 0; i < arow[sr].size(); ++i)
        if (arow[sr][i].val != 0.0)
          where[static_cast<std::size_t>(arow[sr][i].idx)] =
              static_cast<int>(i);
      for (std::size_t ui = u_begin; ui < u_end; ++ui) {
        const std::size_t spc = static_cast<std::size_t>(u_idx_[ui]);
        const double delta = -f * u_val_[ui];
        const int at = where[spc];
        if (at >= 0) {
          Entry& tgt = arow[sr][static_cast<std::size_t>(at)];
          tgt.val += delta;
          if (std::abs(tgt.val) < kLuDropTol) {
            tgt.val = 0.0;
            --rcount[sr];
            --ccount[spc];
            if (ccount[spc] == 1 && !cdone[spc])
              col_single.push_back(u_idx_[ui]);
          }
        } else {
          arow[sr].push_back({u_idx_[ui], delta});
          colrows[spc].push_back(r);
          ++rcount[sr];
          ++ccount[spc];
        }
      }
      for (const Entry& re : arow[sr])
        where[static_cast<std::size_t>(re.idx)] = -1;
      if (rcount[sr] == 1) row_single.push_back(r);
    }
    if (l_idx_.size() > l_begin) {
      l_row_.push_back(pr);
      l_start_.push_back(l_idx_.size());
    }

    // Retire the pivot row and column; surviving columns of the pivot row
    // lose one live entry each.
    rdone[static_cast<std::size_t>(pr)] = 1;
    cdone[static_cast<std::size_t>(pc)] = 1;
    for (const Entry& e : arow[static_cast<std::size_t>(pr)]) {
      const std::size_t sc = static_cast<std::size_t>(e.idx);
      if (e.val == 0.0 || e.idx == pc || cdone[sc]) continue;
      --ccount[sc];
      if (ccount[sc] == 1) col_single.push_back(e.idx);
    }
  }

  if (pivots_.size() < static_cast<std::size_t>(m)) {
    // cdone is also set for numerically dead columns, so derive the real
    // unpivoted set from the recorded pivots; same for rows.
    std::vector<char> rpiv(sm, 0), cpiv(sm, 0);
    for (const Pivot& p : pivots_) {
      rpiv[static_cast<std::size_t>(p.row)] = 1;
      cpiv[static_cast<std::size_t>(p.col)] = 1;
    }
    std::vector<int> unpivoted_cols;
    for (int j = 0; j < m; ++j)
      if (!cpiv[static_cast<std::size_t>(j)]) unpivoted_cols.push_back(j);
    for (int r = 0; r < m; ++r)
      if (!rpiv[static_cast<std::size_t>(r)]) unpivoted_rows_.push_back(r);
    return unpivoted_cols;
  }
  return {};
}

void BasisLu::ftran(std::vector<double>& v) const {
  // L solve in row space: forward through the elimination.
  for (std::size_t i = 0; i < l_row_.size(); ++i) {
    const double t = v[static_cast<std::size_t>(l_row_[i])];
    if (t == 0.0) continue;
    for (std::size_t at = l_start_[i]; at < l_start_[i + 1]; ++at)
      v[static_cast<std::size_t>(l_idx_[at])] -= l_val_[at] * t;
  }
  // U backward solve into position space.
  std::vector<double>& out = scratch_[0];
  out.assign(static_cast<std::size_t>(m_), 0.0);
  for (std::size_t k = pivots_.size(); k-- > 0;) {
    double s = v[static_cast<std::size_t>(pivots_[k].row)];
    for (std::size_t at = u_start_[k]; at < u_start_[k + 1]; ++at)
      s -= u_val_[at] * out[static_cast<std::size_t>(u_idx_[at])];
    out[static_cast<std::size_t>(pivots_[k].col)] = s / pivots_[k].val;
  }
  v.swap(out);
}

template <std::size_t N>
void BasisLu::btran(const std::array<std::vector<double>*, N>& v) const {
  // U^T forward solve with scatter: v holds position-space costs.
  std::array<double*, N> c{}, out{};
  for (std::size_t q = 0; q < N; ++q) {
    scratch_[q].assign(static_cast<std::size_t>(m_), 0.0);
    c[q] = v[q]->data();
    out[q] = scratch_[q].data();
  }
  for (std::size_t k = 0; k < pivots_.size(); ++k) {
    const Pivot& p = pivots_[k];
    for (std::size_t q = 0; q < N; ++q) {
      // A zero stays the +0 it was cleared to: the sign of a zero in a
      // btran result reaches nothing, since every consumer skips zeros.
      const double ck = c[q][static_cast<std::size_t>(p.col)];
      if (ck == 0.0) continue;
      const double zk = ck / p.val;
      out[q][static_cast<std::size_t>(p.row)] = zk;
      if (zk == 0.0) continue;
      for (std::size_t at = u_start_[k]; at < u_start_[k + 1]; ++at)
        c[q][static_cast<std::size_t>(u_idx_[at])] -= u_val_[at] * zk;
    }
  }
  // L^T backward solve in row space: one independent gather chain per
  // vector, interleaved.
  for (std::size_t i = l_row_.size(); i-- > 0;) {
    const std::size_t r = static_cast<std::size_t>(l_row_[i]);
    std::array<double, N> t{};
    for (std::size_t q = 0; q < N; ++q) t[q] = out[q][r];
    for (std::size_t at = l_start_[i]; at < l_start_[i + 1]; ++at) {
      const double lv = l_val_[at];
      const std::size_t li = static_cast<std::size_t>(l_idx_[at]);
      for (std::size_t q = 0; q < N; ++q) t[q] -= lv * out[q][li];
    }
    for (std::size_t q = 0; q < N; ++q) out[q][r] = t[q];
  }
  for (std::size_t q = 0; q < N; ++q) v[q]->swap(scratch_[q]);
}

/// The revised simplex itself: the two-phase driver, pricing, ratio test
/// and bound handling over the factorized basis.
class SparseSimplex {
 public:
  SparseSimplex(const Model& model, const SolverOptions& opts)
      : model_(model), opts_(opts), n_(model.numVars()), m_(model.numRows()),
        total_(n_ + m_) {
    buildCsc();
  }

  Solution run(const Basis* warm) {
    Solution sol;
    sol.warm_started = warm != nullptr && tryWarmStart(*warm);
    if (!sol.warm_started) coldStart();
    computeBasics();
    while (true) {
      const int phase1_start = sol.iterations;
      if (!iterate(/*phase1=*/true, sol)) return finish(sol);
      sol.phase1_iterations += sol.iterations - phase1_start;
      if (infeasibility() > kPhase1InfeasibleCut) {
        sol.status = Status::Infeasible;
        extract(sol);
        return finish(sol);
      }
      const bool optimal = iterate(/*phase1=*/false, sol);
      if (infeasibility() <= opts_.tolerance) {
        if (optimal) break;
        return finish(sol);
      }
      if (!optimal && sol.status != Status::Unbounded) return finish(sol);
      // Phase 2 stopped on a point outside the bounds: rebuild the factors
      // and restore feasibility from the current basis. A round only ends
      // here after phase-2 pivots, so max_iterations bounds the loop.
      refactorAndRecompute();
    }
    sol.status = Status::Optimal;
    extract(sol);
    sol.duals = y_;
    return finish(sol);
  }

 private:
  // ---- setup -------------------------------------------------------------

  /// Compressed sparse columns of [A | -I] (structurals, then one slack
  /// per row), a compressed sparse row copy of the same matrix for
  /// row-wise pricing, and the merged bound/cost arrays.
  void buildCsc() {
    const std::size_t st = static_cast<std::size_t>(total_);
    col_start_.assign(st + 1, 0);
    for (int r = 0; r < m_; ++r)
      for (const Term& t : model_.rowTerms(r))
        ++col_start_[static_cast<std::size_t>(t.var) + 1];
    for (int r = 0; r < m_; ++r)
      col_start_[static_cast<std::size_t>(n_ + r) + 1] = 1;
    for (std::size_t j = 0; j < st; ++j) col_start_[j + 1] += col_start_[j];
    row_ix_.resize(col_start_[st]);
    a_val_.resize(col_start_[st]);
    std::vector<int> fill(st, 0);
    for (int r = 0; r < m_; ++r)
      for (const Term& t : model_.rowTerms(r)) {
        const std::size_t sj = static_cast<std::size_t>(t.var);
        const std::size_t at = col_start_[sj] +
                               static_cast<std::size_t>(fill[sj]++);
        row_ix_[at] = r;
        a_val_[at] = t.coef;
      }
    for (int r = 0; r < m_; ++r) {
      const std::size_t at = col_start_[static_cast<std::size_t>(n_ + r)];
      row_ix_[at] = r;
      a_val_[at] = -1.0;
    }

    row_start_.assign(1, 0);
    col_ix_.reserve(col_start_[st]);
    r_val_.reserve(col_start_[st]);
    for (int r = 0; r < m_; ++r) {
      for (const Term& t : model_.rowTerms(r)) {
        col_ix_.push_back(t.var);
        r_val_.push_back(t.coef);
      }
      col_ix_.push_back(n_ + r);
      r_val_.push_back(-1.0);
      row_start_.push_back(col_ix_.size());
    }

    lb_.resize(st);
    ub_.resize(st);
    cost_.assign(st, 0.0);
    for (int j = 0; j < n_; ++j) {
      lb_[static_cast<std::size_t>(j)] = model_.varLb(j);
      ub_[static_cast<std::size_t>(j)] = model_.varUb(j);
      cost_[static_cast<std::size_t>(j)] = model_.objCoef(j);
      if (model_.objCoef(j) != 0.0) cost_cols_.push_back(j);
    }
    for (int r = 0; r < m_; ++r) {
      lb_[static_cast<std::size_t>(n_ + r)] = model_.rowLo(r);
      ub_[static_cast<std::size_t>(n_ + r)] = model_.rowHi(r);
    }
    alpha_.resize(st);
    touched_mark_.assign(st, 0);
  }

  void setNonbasicAtBound(int j) {
    const std::size_t sj = static_cast<std::size_t>(j);
    if (lb_[sj] > -kInf) {
      state_[sj] = BasisStatus::AtLower;
      x_[sj] = lb_[sj];
    } else if (ub_[sj] < kInf) {
      state_[sj] = BasisStatus::AtUpper;
      x_[sj] = ub_[sj];
    } else {
      state_[sj] = BasisStatus::FreeZero;
      x_[sj] = 0.0;
    }
  }

  void coldStart() {
    x_.assign(static_cast<std::size_t>(total_), 0.0);
    state_.assign(static_cast<std::size_t>(total_), BasisStatus::AtLower);
    basic_.resize(static_cast<std::size_t>(m_));
    pos_.assign(static_cast<std::size_t>(total_), -1);
    for (int j = 0; j < total_; ++j) setNonbasicAtBound(j);
    for (int r = 0; r < m_; ++r) {
      basic_[static_cast<std::size_t>(r)] = n_ + r;
      pos_[static_cast<std::size_t>(n_ + r)] = r;
      state_[static_cast<std::size_t>(n_ + r)] = BasisStatus::Basic;
    }
    factorizeBasis();
  }

  /// Adopts a caller basis when its shape is valid and its matrix
  /// factorizes (repairing rank deficiency with slacks). Returns false to
  /// request a cold start instead.
  bool tryWarmStart(const Basis& warm) {
    if (warm.status.size() != static_cast<std::size_t>(total_)) return false;
    int nbasic = 0;
    for (const BasisStatus s : warm.status)
      if (s == BasisStatus::Basic) ++nbasic;
    if (nbasic != m_) return false;

    x_.assign(static_cast<std::size_t>(total_), 0.0);
    state_.assign(static_cast<std::size_t>(total_), BasisStatus::AtLower);
    basic_.clear();
    basic_.reserve(static_cast<std::size_t>(m_));
    pos_.assign(static_cast<std::size_t>(total_), -1);
    for (int j = 0; j < total_; ++j) {
      const std::size_t sj = static_cast<std::size_t>(j);
      const BasisStatus st = warm.status[sj];
      if (st == BasisStatus::Basic) {
        state_[sj] = st;
        pos_[sj] = static_cast<int>(basic_.size());
        basic_.push_back(j);
        continue;
      }
      // A nonbasic status whose bound is infinite falls back to the
      // variable's default bound.
      const double at = st == BasisStatus::AtUpper   ? ub_[sj]
                        : st == BasisStatus::AtLower ? lb_[sj]
                                                     : 0.0;
      if (std::isfinite(at)) {
        state_[sj] = st;
        x_[sj] = at;
      } else {
        setNonbasicAtBound(j);
      }
    }
    return factorizeBasis();
  }

  /// (Re)factorizes the current basis, repairing rank deficiency by
  /// swapping dependent basic columns for the slacks of the unpivoted
  /// rows. Returns false only when repair is impossible.
  bool factorizeBasis() {
    std::vector<std::vector<Entry>>& cols = basis_cols_;
    auto loadColumns = [&] {
      cols.resize(static_cast<std::size_t>(m_));
      for (int i = 0; i < m_; ++i) {
        const int j = basic_[static_cast<std::size_t>(i)];
        auto& col = cols[static_cast<std::size_t>(i)];
        col.clear();
        for (std::size_t at = col_start_[static_cast<std::size_t>(j)];
             at < col_start_[static_cast<std::size_t>(j) + 1]; ++at)
          col.push_back({row_ix_[at], a_val_[at]});
      }
    };
    loadColumns();
    std::vector<int> bad = lu_.factorize(m_, cols);
    if (!bad.empty()) {
      const std::vector<int>& rows = lu_.unpivotedRows();
      if (rows.size() != bad.size()) return false;
      for (std::size_t i = 0; i < bad.size(); ++i) {
        const int position = bad[i];
        const int slack = n_ + rows[i];
        const std::size_t sslack = static_cast<std::size_t>(slack);
        if (state_[sslack] == BasisStatus::Basic)
          return false;  // pathological
        const int out = basic_[static_cast<std::size_t>(position)];
        pos_[static_cast<std::size_t>(out)] = -1;
        setNonbasicAtBound(out);
        basic_[static_cast<std::size_t>(position)] = slack;
        pos_[sslack] = position;
        state_[sslack] = BasisStatus::Basic;
      }
      loadColumns();
      if (!lu_.factorize(m_, cols).empty()) return false;
    }
    eta_row_.clear();
    eta_diag_.clear();
    eta_start_.assign(1, 0);
    eta_idx_.clear();
    eta_val_.clear();
    ++refactorizations_;
    return true;
  }

  // ---- solves ------------------------------------------------------------

  void ftranFull(std::vector<double>& v) const {
    lu_.ftran(v);
    for (std::size_t k = 0; k < eta_row_.size(); ++k) {
      const std::size_t r = static_cast<std::size_t>(eta_row_[k]);
      const double t = v[r];
      if (t == 0.0) continue;
      v[r] = t * eta_diag_[k];
      for (std::size_t at = eta_start_[k]; at < eta_start_[k + 1]; ++at)
        v[static_cast<std::size_t>(eta_idx_[at])] += eta_val_[at] * t;
    }
  }

  /// Applies etas [begin, end) transposed, newest first, to each of the
  /// N vectors: one independent accumulation chain per vector, interleaved.
  template <std::size_t N>
  void btranEtas(const std::array<std::vector<double>*, N>& v,
                 std::size_t begin, std::size_t end) const {
    std::array<double*, N> p{};
    for (std::size_t q = 0; q < N; ++q) p[q] = v[q]->data();
    for (std::size_t k = end; k-- > begin;) {
      const std::size_t r = static_cast<std::size_t>(eta_row_[k]);
      std::array<double, N> s{};
      for (std::size_t q = 0; q < N; ++q) s[q] = p[q][r] * eta_diag_[k];
      for (std::size_t at = eta_start_[k]; at < eta_start_[k + 1]; ++at) {
        const double c = eta_val_[at];
        const std::size_t i = static_cast<std::size_t>(eta_idx_[at]);
        for (std::size_t q = 0; q < N; ++q) s[q] += c * p[q][i];
      }
      for (std::size_t q = 0; q < N; ++q) p[q][r] = s[q];
    }
  }

  /// Solves B^T v = c through the oldest `netas` etas and the LU.
  void btranFull(std::vector<double>& v, std::size_t netas) const {
    btranEtas<1>({&v}, 0, netas);
    lu_.btran<1>({&v});
  }

  /// x_B = B^-1 * (-(A_N x_N)) from the current nonbasic values.
  void computeBasics() {
    rhs_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int j = 0; j < total_; ++j) {
      const std::size_t sj = static_cast<std::size_t>(j);
      if (state_[sj] == BasisStatus::Basic || x_[sj] == 0.0) continue;
      for (std::size_t at = col_start_[sj]; at < col_start_[sj + 1]; ++at)
        rhs_[static_cast<std::size_t>(row_ix_[at])] -= a_val_[at] * x_[sj];
    }
    ftranFull(rhs_);
    for (int i = 0; i < m_; ++i)
      x_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] =
          rhs_[static_cast<std::size_t>(i)];
  }

  // ---- pricing -----------------------------------------------------------

  double infeasibility() const {
    double s = 0.0;
    for (int i = 0; i < m_; ++i) {
      const std::size_t b =
          static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)]);
      if (x_[b] < lb_[b]) s += lb_[b] - x_[b];
      if (x_[b] > ub_[b]) s += x_[b] - ub_[b];
    }
    return s;
  }

  /// Loads y_ with the basic costs: the phase-1 infeasibility gradient or
  /// the phase-2 objective.
  void basicCosts(bool phase1) {
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    if (!phase1) {
      for (const int j : cost_cols_) {
        const int i = pos_[static_cast<std::size_t>(j)];
        if (i >= 0)
          y_[static_cast<std::size_t>(i)] = cost_[static_cast<std::size_t>(j)];
      }
      return;
    }
    for (int i = 0; i < m_; ++i) {
      const std::size_t b =
          static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)]);
      if (x_[b] < lb_[b] - opts_.tolerance)
        y_[static_cast<std::size_t>(i)] = -1.0;
      else if (x_[b] > ub_[b] + opts_.tolerance)
        y_[static_cast<std::size_t>(i)] = 1.0;
    }
  }

  /// d_j = c_j - y . a_j for every column, row by row over the CSR copy:
  /// each column sees the same subtractions in the same (ascending row)
  /// order as a column-wise dot product; rows with y_r == 0 would only
  /// subtract exact zeros and are skipped.
  void reducedCosts(bool phase1) {
    if (phase1)
      d_.assign(static_cast<std::size_t>(total_), 0.0);
    else
      d_ = cost_;
    for (int r = 0; r < m_; ++r) {
      const double yr = y_[static_cast<std::size_t>(r)];
      if (yr == 0.0) continue;
      for (std::size_t at = row_start_[static_cast<std::size_t>(r)];
           at < row_start_[static_cast<std::size_t>(r) + 1]; ++at)
        d_[static_cast<std::size_t>(col_ix_[at])] -= yr * r_val_[at];
    }
  }

  // ---- main loop ---------------------------------------------------------

  /// Phase 1: the infeasibility. Phase 2: c . x over the nonzero-cost
  /// columns (the others add exact zeros to the sum).
  double currentObjective(bool phase1) const {
    if (phase1) return infeasibility();
    double o = 0.0;
    for (const int j : cost_cols_)
      o += cost_[static_cast<std::size_t>(j)] * x_[static_cast<std::size_t>(j)];
    return o;
  }

  /// Max |A x - s| over rows via the CSC arrays: O(nnz). The eta-updated
  /// representation drifts; this is the refactorization trigger.
  double primalResidual() const {
    rhs_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int j = 0; j < total_; ++j) {
      const std::size_t sj = static_cast<std::size_t>(j);
      const double v = x_[sj];
      if (v == 0.0) continue;
      for (std::size_t at = col_start_[sj]; at < col_start_[sj + 1]; ++at)
        rhs_[static_cast<std::size_t>(row_ix_[at])] += a_val_[at] * v;
    }
    double worst = 0.0;
    for (const double r : rhs_) worst = std::max(worst, std::abs(r));
    return worst;
  }

  bool iterate(bool phase1, Solution& sol) {
    const double tol = opts_.tolerance;
    int stall = 0;
    bool bland = false;
    // The phase objective of the current point; in phase 1 it is also the
    // infeasibility the loop-top test reads.
    double obj = currentObjective(phase1);
    double last_obj = obj;
    int pivots_since_check = 0;
    devex_.assign(static_cast<std::size_t>(total_), 1.0);
    pending_.reset();

    while (true) {
      if (sol.iterations >= opts_.max_iterations) {
        sol.status = Status::IterLimit;
        extract(sol);
        return false;
      }
      if (phase1 && obj <= tol) return true;

      basicCosts(phase1);
      if (pending_) {
        // The previous pivot's pivot row (through the etas before its own)
        // and this iteration's duals, in one walk over the factors.
        startPivotRow();
        btranEtas<1>({&y_}, pending_->etas, eta_row_.size());
        btranEtas<2>({&y_, &rho_}, 0, pending_->etas);
        lu_.btran<2>({&y_, &rho_});
        updateDevex();
      } else {
        btranFull(y_, eta_row_.size());
      }
      reducedCosts(phase1);

      // --- entering variable: Devex-weighted (or Bland) pricing ---
      const bool devex = opts_.pricing == SolverOptions::Pricing::kDevex;
      int enter = -1;
      double enter_dir = 0.0;
      double best_score = 0.0;
      for (int j = 0; j < total_; ++j) {
        const std::size_t sj = static_cast<std::size_t>(j);
        if (state_[sj] == BasisStatus::Basic) continue;
        if (lb_[sj] == ub_[sj]) continue;  // fixed variable
        const double d = d_[sj];
        double dir = 0.0;
        if ((state_[sj] == BasisStatus::AtLower ||
             state_[sj] == BasisStatus::FreeZero) &&
            d < -tol)
          dir = 1.0;
        else if ((state_[sj] == BasisStatus::AtUpper ||
                  state_[sj] == BasisStatus::FreeZero) &&
                 d > tol)
          dir = -1.0;
        if (dir == 0.0) continue;
        const double score = devex ? d * d / devex_[sj] : std::abs(d);
        if (enter < 0 || score > best_score) {
          enter = j;
          enter_dir = dir;
          best_score = score;
          if (bland) break;  // Bland: first eligible index
        }
      }
      if (enter < 0) {
        if (phase1)
          return obj <= tol
                     ? true
                     : (sol.status = Status::Infeasible, extract(sol), false);
        return true;  // phase-2 optimal
      }

      // --- ratio test ---
      w_.assign(static_cast<std::size_t>(m_), 0.0);
      {
        const std::size_t se = static_cast<std::size_t>(enter);
        for (std::size_t at = col_start_[se]; at < col_start_[se + 1]; ++at)
          w_[static_cast<std::size_t>(row_ix_[at])] = a_val_[at];
      }
      ftranFull(w_);
      const std::size_t se = static_cast<std::size_t>(enter);
      double t_max = kInf;
      int leave_pos = -1;
      double leave_to = 0.0;
      if (lb_[se] > -kInf && ub_[se] < kInf) t_max = ub_[se] - lb_[se];

      for (int i = 0; i < m_; ++i) {
        const double wi = w_[static_cast<std::size_t>(i)];
        if (std::abs(wi) < kRatioPivotTol) continue;
        const std::size_t b =
            static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)]);
        const double rate = -enter_dir * wi;  // d x_b / d t
        const bool below = x_[b] < lb_[b] - tol;
        const bool above = x_[b] > ub_[b] + tol;
        double limit = kInf, to = 0.0;
        if (phase1 && below) {
          if (rate > 0.0) {
            limit = (lb_[b] - x_[b]) / rate;
            to = lb_[b];
          }
        } else if (phase1 && above) {
          if (rate < 0.0) {
            limit = (ub_[b] - x_[b]) / rate;
            to = ub_[b];
          }
        } else {
          if (rate > 0.0 && ub_[b] < kInf) {
            limit = (ub_[b] - x_[b]) / rate;
            to = ub_[b];
          } else if (rate < 0.0 && lb_[b] > -kInf) {
            limit = (lb_[b] - x_[b]) / rate;
            to = lb_[b];
          }
        }
        if (limit == kInf) continue;
        limit = std::max(limit, 0.0);  // tiny negative from roundoff
        bool take = limit < t_max - kZeroTol;
        if (!take && limit < t_max + kZeroTol && leave_pos >= 0) {
          // Tie-break: Bland favors the smallest basic index; otherwise
          // prefer the larger pivot magnitude for stability.
          take = bland
                     ? basic_[static_cast<std::size_t>(i)] <
                           basic_[static_cast<std::size_t>(leave_pos)]
                     : std::abs(wi) >
                           std::abs(w_[static_cast<std::size_t>(leave_pos)]);
        }
        if (take) {
          t_max = limit;
          leave_pos = i;
          leave_to = to;
        }
      }

      if (t_max == kInf) {
        sol.status = phase1 ? Status::Infeasible : Status::Unbounded;
        extract(sol);
        return false;
      }

      // --- apply step ---
      ++sol.iterations;
      if (leave_pos < 0) {
        // Bound flip: entering travels to its opposite bound; no basis
        // change, no eta, no weight update.
        x_[se] += enter_dir * t_max;
        for (int i = 0; i < m_; ++i)
          x_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] -=
              enter_dir * t_max * w_[static_cast<std::size_t>(i)];
        state_[se] =
            (enter_dir > 0.0) ? BasisStatus::AtUpper : BasisStatus::AtLower;
      } else {
        const int leave = basic_[static_cast<std::size_t>(leave_pos)];
        const std::size_t bl = static_cast<std::size_t>(leave);
        x_[se] += enter_dir * t_max;
        for (int i = 0; i < m_; ++i)
          x_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] -=
              enter_dir * t_max * w_[static_cast<std::size_t>(i)];
        x_[bl] = leave_to;  // land exactly on its bound
        state_[bl] = (lb_[bl] > -kInf && leave_to <= lb_[bl] + tol)
                         ? BasisStatus::AtLower
                         : BasisStatus::AtUpper;
        pos_[bl] = -1;
        basic_[static_cast<std::size_t>(leave_pos)] = enter;
        pos_[se] = leave_pos;
        state_[se] = BasisStatus::Basic;

        // The Devex update needs this pivot's row of the old basis. It is
        // deferred to the next iteration's btran; nothing reads the
        // weights before then except a refactorization, which flushes it.
        const double wr = w_[static_cast<std::size_t>(leave_pos)];
        if (devex && !bland && std::abs(wr) >= kZeroTol) {
          pending_ = PendingDevex{enter, leave, leave_pos, wr,
                                  eta_row_.size()};
        }

        // Product-form update, or a refactorization when the pivot is too
        // small for a stable eta.
        if (std::abs(wr) < kMinEtaPivot ||
            static_cast<int>(eta_row_.size()) + 1 >= opts_.refactor_every) {
          refactorAndRecompute();
        } else {
          eta_row_.push_back(leave_pos);
          eta_diag_.push_back(1.0 / wr);
          for (int i = 0; i < m_; ++i) {
            if (i == leave_pos) continue;
            const double wi = w_[static_cast<std::size_t>(i)];
            if (std::abs(wi) > kZeroTol) {
              eta_idx_.push_back(i);
              eta_val_.push_back(-wi / wr);
            }
          }
          eta_start_.push_back(eta_idx_.size());
        }
        // Drift-triggered refactorization: check the cheap O(nnz) primal
        // residual periodically instead of refactorizing on a schedule.
        if (++pivots_since_check >= kDriftCheckPivots) {
          pivots_since_check = 0;
          if (!eta_row_.empty() && primalResidual() > kDriftResidual)
            refactorAndRecompute();
        }
      }

      obj = currentObjective(phase1);
      if (obj < last_obj - tol) {
        stall = 0;
        bland = false;
        last_obj = obj;
      } else if (++stall > opts_.stall_limit) {
        bland = true;  // degeneracy guard
      }
    }
  }

  /// Applies a pending Devex update against the factors it was taken on,
  /// then refactorizes and recomputes the basic values.
  void refactorAndRecompute() {
    if (pending_) {
      startPivotRow();
      btranFull(rho_, pending_->etas);
      updateDevex();
    }
    if (!factorizeBasis())
      throw std::runtime_error("simplex: singular basis during refactor");
    computeBasics();
  }

  /// Seeds rho_ with the unit vector of the pending pivot's position.
  void startPivotRow() {
    rho_.assign(static_cast<std::size_t>(m_), 0.0);
    rho_[static_cast<std::size_t>(pending_->leave_pos)] = 1.0;
  }

  /// Devex reference-weight update after a basis change, given the pivot
  /// row rho_ = e_r^T B^-1 of the basis before it: every nonbasic weight
  /// absorbs its pivot-row tableau entry alpha_rj = rho . a_j, and the
  /// leaving variable re-enters the nonbasic set with the transformed
  /// entering weight. alpha is accumulated row by row over the nonzeros of
  /// rho (the same additions per column as a column-wise dot product,
  /// minus exact zeros); the touched columns are updated independently, so
  /// their order does not matter.
  void updateDevex() {
    const PendingDevex p = *pending_;
    pending_.reset();
    for (int r = 0; r < m_; ++r) {
      const double pr = rho_[static_cast<std::size_t>(r)];
      if (pr == 0.0) continue;
      for (std::size_t at = row_start_[static_cast<std::size_t>(r)];
           at < row_start_[static_cast<std::size_t>(r) + 1]; ++at) {
        const std::size_t j = static_cast<std::size_t>(col_ix_[at]);
        if (!touched_mark_[j]) {
          touched_mark_[j] = 1;
          alpha_[j] = 0.0;
          touched_.push_back(col_ix_[at]);
        }
        alpha_[j] += pr * r_val_[at];
      }
    }
    const double alpha_e = p.alpha_e;
    const double we = devex_[static_cast<std::size_t>(p.enter)];
    double maxw = 0.0;
    for (const int j : touched_) {
      const std::size_t sj = static_cast<std::size_t>(j);
      touched_mark_[sj] = 0;
      if (state_[sj] == BasisStatus::Basic || j == p.leave) continue;
      const double alpha = alpha_[sj];
      if (alpha == 0.0) continue;
      const double cand = (alpha / alpha_e) * (alpha / alpha_e) * we;
      if (cand > devex_[sj]) devex_[sj] = cand;
      maxw = std::max(maxw, devex_[sj]);
    }
    touched_.clear();
    devex_[static_cast<std::size_t>(p.leave)] =
        std::max(we / (alpha_e * alpha_e), 1.0);
    // Reference framework reset once the weights have grown stale.
    if (maxw > kDevexReset)
      devex_.assign(static_cast<std::size_t>(total_), 1.0);
  }

  void extract(Solution& sol) const {
    sol.x.assign(x_.begin(), x_.begin() + n_);
    sol.objective = model_.objective(sol.x);
  }

  Solution& finish(Solution& sol) const {
    sol.refactorizations = refactorizations_;
    sol.basis.status = state_;
    return sol;
  }

  const Model& model_;
  SolverOptions opts_;
  int n_, m_, total_;
  std::vector<std::size_t> col_start_;  // CSC of [A | -I]
  std::vector<int> row_ix_;
  std::vector<double> a_val_;
  std::vector<std::size_t> row_start_;  // CSR of [A | -I]
  std::vector<int> col_ix_;
  std::vector<double> r_val_;
  std::vector<double> lb_, ub_, cost_;
  std::vector<int> cost_cols_;  // columns with a nonzero cost, ascending
  std::vector<double> x_;
  std::vector<BasisStatus> state_;
  std::vector<int> basic_, pos_;
  BasisLu lu_;
  std::vector<std::vector<Entry>> basis_cols_;  // factorizeBasis's input
  // Eta file, oldest first: per eta its pivot position, 1/pivot and the
  // offset of its (position, -w_i/pivot) entries.
  std::vector<int> eta_row_;
  std::vector<double> eta_diag_;
  std::vector<std::size_t> eta_start_;
  std::vector<int> eta_idx_;
  std::vector<double> eta_val_;
  int refactorizations_ = 0;
  std::vector<double> devex_;
  // The last pivot's deferred Devex update: entering and leaving
  // variables, pivot position and value, and the eta count of its basis.
  struct PendingDevex {
    int enter = -1, leave = -1, leave_pos = -1;
    double alpha_e = 0.0;
    std::size_t etas = 0;
  };
  std::optional<PendingDevex> pending_;
  std::vector<double> alpha_;      // pivot-row entries of touched columns
  std::vector<char> touched_mark_;
  std::vector<int> touched_;
  std::vector<double> d_, y_, w_, rho_;
  mutable std::vector<double> rhs_;
};

/// A model with no rows is a pure bound problem: each variable sits on its
/// cheaper bound.
Solution solveBoundsOnly(const Model& model) {
  Solution sol;
  sol.status = Status::Optimal;
  sol.x.resize(static_cast<std::size_t>(model.numVars()));
  for (int j = 0; j < model.numVars(); ++j) {
    const double c = model.objCoef(j);
    const double lb = model.varLb(j), ub = model.varUb(j);
    double v;
    if (c > 0.0)
      v = lb;
    else if (c < 0.0)
      v = ub;
    else
      v = (lb > -kInf) ? lb : (ub < kInf ? ub : 0.0);
    if (v == -kInf || v == kInf) {
      sol.status = Status::Unbounded;
      v = 0.0;
    }
    sol.x[static_cast<std::size_t>(j)] = v;
  }
  sol.objective = model.objective(sol.x);
  return sol;
}

}  // namespace

Solution solve(const Model& model, const SolverOptions& opts,
               const Basis* warm_start) {
  if (model.numRows() == 0) return solveBoundsOnly(model);
  return SparseSimplex(model, opts).run(warm_start);
}

}  // namespace skewopt::lp
