#include "lp/lp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "check/check.h"
#include "geom/geom.h"

namespace skewopt::lp {
namespace {

/// Asserts that the optimality certificate accepts an optimal solution.
void expectCertified(const Model& m, const Solution& s,
                     const std::string& label = "") {
  check::DiagnosticEngine engine;
  check::checkLpOptimality(m, s, engine);
  EXPECT_TRUE(engine.empty()) << label << "\n" << engine.text();
}

TEST(Model, BuildAndEvaluate) {
  Model m;
  const int x = m.addVar(0, 10, 1.0);
  const int y = m.addVar(-kInf, kInf, -2.0);
  m.addRow(-kInf, 5.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(m.numVars(), 2);
  EXPECT_EQ(m.numRows(), 1);
  EXPECT_EQ(m.numNonzeros(), 2u);
  EXPECT_DOUBLE_EQ(m.objective({3.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(m.maxViolation({3.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.maxViolation({4.0, 2.0}), 1.0);
  EXPECT_THROW(m.addVar(3, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(m.addRow(0, -1, {}), std::invalid_argument);
  EXPECT_THROW(m.addRow(0, 1, {{7, 1.0}}), std::out_of_range);
}

TEST(Simplex, PureBoundsProblem) {
  Model m;
  m.addVar(1, 4, 2.0);    // min at lb
  m.addVar(-3, 9, -1.0);  // min at ub
  m.addVar(0, 5, 0.0);    // free choice, lands on a bound
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(s.x[0], 1.0);
  EXPECT_DOUBLE_EQ(s.x[1], 9.0);
  EXPECT_DOUBLE_EQ(s.objective, 2.0 - 9.0);
}

TEST(Simplex, TextbookTwoVar) {
  // max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0 -> (1.6, 1.2), obj 2.8
  Model m;
  const int x = m.addVar(0, kInf, -1.0);
  const int y = m.addVar(0, kInf, -1.0);
  m.addRow(-kInf, 4, {{x, 1}, {y, 2}});
  m.addRow(-kInf, 6, {{x, 3}, {y, 1}});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0], 1.6, 1e-6);
  EXPECT_NEAR(s.x[1], 1.2, 1e-6);
  EXPECT_NEAR(s.objective, -2.8, 1e-6);
  // Both rows bind at their upper bounds: y = (-0.4, -0.2) solves
  // A^T y = c, and the dual objective 4 y_1 + 6 y_2 equals the optimum.
  ASSERT_EQ(s.duals.size(), 2u);
  EXPECT_NEAR(s.duals[0], -0.4, 1e-9);
  EXPECT_NEAR(s.duals[1], -0.2, 1e-9);
  expectCertified(m, s);
}

TEST(Simplex, DualsOnlyOnOptimalSolves) {
  Model infeasible;
  const int x = infeasible.addVar(0, 1, 1.0);
  infeasible.addRow(2, kInf, {{x, 1}});
  const Solution a = solve(infeasible);
  ASSERT_EQ(a.status, Status::Infeasible);
  EXPECT_TRUE(a.duals.empty());

  Model unbounded;
  const int y = unbounded.addVar(0, kInf, -1.0);
  unbounded.addRow(-kInf, kInf, {{y, 1}});
  const Solution b = solve(unbounded);
  ASSERT_EQ(b.status, Status::Unbounded);
  EXPECT_TRUE(b.duals.empty());
}

TEST(Simplex, EqualityRow) {
  // min x + y s.t. x + y = 3, x in [0,2], y in [0,2] -> obj 3.
  Model m;
  const int x = m.addVar(0, 2, 1.0);
  const int y = m.addVar(0, 2, 1.0);
  m.addRow(3, 3, {{x, 1}, {y, 1}});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
  EXPECT_NEAR(s.x[0] + s.x[1], 3.0, 1e-7);
}

TEST(Simplex, RangedRow) {
  // min x s.t. 2 <= x + y <= 5, 0 <= x,y <= 4.
  Model m;
  const int x = m.addVar(0, 4, 1.0);
  const int y = m.addVar(0, 4, 0.0);
  m.addRow(2, 5, {{x, 1}, {y, 1}});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0], 0.0, 1e-7);  // y alone satisfies the range
  EXPECT_DOUBLE_EQ(m.maxViolation(s.x), 0.0);
}

TEST(Simplex, InfeasibleDetected) {
  Model m;
  const int x = m.addVar(0, 1, 1.0);
  m.addRow(5, kInf, {{x, 1.0}});  // x >= 5 impossible
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, InfeasibleConflictingRows) {
  Model m;
  const int x = m.addVar(-kInf, kInf, 0.0);
  const int y = m.addVar(-kInf, kInf, 1.0);
  m.addRow(4, kInf, {{x, 1}, {y, 1}});
  m.addRow(-kInf, 2, {{x, 1}, {y, 1}});
  EXPECT_EQ(solve(m).status, Status::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  Model m;
  m.addVar(0, kInf, -1.0);  // min -x, x unbounded above
  const int y = m.addVar(0, 1, 0.0);
  m.addRow(-kInf, 10, {{y, 1.0}});
  EXPECT_EQ(solve(m).status, Status::Unbounded);
}

TEST(Simplex, FreeVariable) {
  // min |style| objective: y free; x - y = 1, min x with x >= 0 -> x=0,y=-1.
  Model m;
  const int x = m.addVar(0, kInf, 1.0);
  const int y = m.addVar(-kInf, kInf, 0.0);
  m.addRow(1, 1, {{x, 1}, {y, -1}});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0], 0.0, 1e-7);
  EXPECT_NEAR(s.x[1], -1.0, 1e-7);
}

TEST(Simplex, FixedVariable) {
  Model m;
  const int x = m.addVar(2, 2, 1.0);  // fixed
  const int y = m.addVar(0, kInf, 1.0);
  m.addRow(5, kInf, {{x, 1}, {y, 1}});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_DOUBLE_EQ(s.x[0], 2.0);
  EXPECT_NEAR(s.x[1], 3.0, 1e-7);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Many redundant constraints through the same vertex.
  Model m;
  const int x = m.addVar(0, kInf, -1.0);
  const int y = m.addVar(0, kInf, -1.0);
  for (int i = 1; i <= 6; ++i)
    m.addRow(-kInf, 2.0 * i, {{x, static_cast<double>(i)}, {y, static_cast<double>(i)}});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0] + s.x[1], 2.0, 1e-6);
}

TEST(Simplex, AbsValueSplitPattern) {
  // The global optimizer's |Delta| encoding: min d+ + d- with d+ - d- = t.
  for (const double target : {-3.0, 0.0, 4.5}) {
    Model m;
    const int dp = m.addVar(0, kInf, 1.0);
    const int dm = m.addVar(0, kInf, 1.0);
    m.addRow(target, target, {{dp, 1}, {dm, -1}});
    const Solution s = solve(m);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_NEAR(s.objective, std::abs(target), 1e-7);
  }
}

TEST(Simplex, MinimaxPattern) {
  // The paper's V >= +/- expr encoding: min V with V >= x-3, V >= 3-x at
  // fixed x=5 -> V = 2.
  Model m;
  const int v = m.addVar(0, kInf, 1.0);
  const int x = m.addVar(5, 5, 0.0);
  m.addRow(-3, kInf, {{v, 1}, {x, -1}});
  m.addRow(3, kInf, {{v, 1}, {x, 1}});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
}

// ---------------------------------------------------------------------------
// Property test: LPs with a known optimum by construction (KKT/Farkas):
// pick x*, pick an active set, set c = -sum(lambda_i * a_i) over active
// rows with lambda > 0 (plus bound multipliers). Then x* is optimal and the
// solver's objective must match c.x* exactly.
// ---------------------------------------------------------------------------

class KnownOptimumProp : public ::testing::TestWithParam<int> {};

TEST_P(KnownOptimumProp, SolverReachesConstructedOptimum) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1013 + 7);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 3 + static_cast<int>(rng.index(5));
    const int rows = 2 + static_cast<int>(rng.index(5));

    std::vector<double> xstar(static_cast<std::size_t>(n));
    for (double& v : xstar) v = rng.uniform(-3.0, 3.0);

    Model m;
    std::vector<double> c(static_cast<std::size_t>(n), 0.0);

    // Row constraints: a.x <= a.x* + slack (slack 0 => active).
    struct RowSpec {
      std::vector<double> a;
      bool active;
    };
    std::vector<RowSpec> specs;
    for (int r = 0; r < rows; ++r) {
      RowSpec rs;
      rs.a.resize(static_cast<std::size_t>(n));
      for (double& v : rs.a) v = rng.uniform(-2.0, 2.0);
      rs.active = rng.uniform() < 0.5;
      specs.push_back(rs);
    }
    // Objective from active-row multipliers: c = -sum lambda a (so that the
    // gradient of c.x is blocked by the active constraints at x*).
    bool any_active = false;
    for (const RowSpec& rs : specs) {
      if (!rs.active) continue;
      any_active = true;
      const double lambda = rng.uniform(0.2, 2.0);
      for (int j = 0; j < n; ++j)
        c[static_cast<std::size_t>(j)] -= lambda * rs.a[static_cast<std::size_t>(j)];
    }
    // A couple of active *bound* multipliers for spice: variable j at its
    // lower bound with c_j > 0 contribution.
    std::vector<double> lb(static_cast<std::size_t>(n), -10.0);
    std::vector<double> ub(static_cast<std::size_t>(n), 10.0);
    for (int j = 0; j < n; ++j) {
      if (rng.uniform() < 0.3) {
        lb[static_cast<std::size_t>(j)] = xstar[static_cast<std::size_t>(j)];
        c[static_cast<std::size_t>(j)] += rng.uniform(0.2, 1.5);
        any_active = true;
      }
    }
    if (!any_active) {
      // Make x* an unconstrained-in-the-box optimum: c = 0.
      std::fill(c.begin(), c.end(), 0.0);
    }

    for (int j = 0; j < n; ++j)
      m.addVar(lb[static_cast<std::size_t>(j)], ub[static_cast<std::size_t>(j)],
               c[static_cast<std::size_t>(j)]);
    for (const RowSpec& rs : specs) {
      double ax = 0.0;
      for (int j = 0; j < n; ++j)
        ax += rs.a[static_cast<std::size_t>(j)] * xstar[static_cast<std::size_t>(j)];
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j)
        terms.push_back({j, rs.a[static_cast<std::size_t>(j)]});
      m.addRow(-kInf, rs.active ? ax : ax + rng.uniform(0.5, 3.0),
               std::move(terms));
    }

    const Solution s = solve(m);
    ASSERT_EQ(s.status, Status::Optimal) << "trial " << trial;
    double cx = 0.0;
    for (int j = 0; j < n; ++j)
      cx += c[static_cast<std::size_t>(j)] * xstar[static_cast<std::size_t>(j)];
    EXPECT_NEAR(s.objective, cx, 1e-5) << "trial " << trial;
    EXPECT_LT(m.maxViolation(s.x), 1e-6);
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, KnownOptimumProp, ::testing::Range(0, 10));

// Random feasible LPs: whatever the solver returns as Optimal must be
// feasible and no worse than a crowd of random feasible points.
class FeasibleDominanceProp : public ::testing::TestWithParam<int> {};

TEST_P(FeasibleDominanceProp, OptimalBeatsSampledPoints) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4;
    Model m;
    std::vector<double> c(n);
    for (int j = 0; j < n; ++j) {
      c[static_cast<std::size_t>(j)] = rng.uniform(-1, 1);
      m.addVar(0.0, 5.0, c[static_cast<std::size_t>(j)]);
    }
    // Rows are satisfied by x = 0 (rhs >= 0), so the LP is feasible.
    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 5; ++r) {
      std::vector<double> a(n);
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j) {
        a[static_cast<std::size_t>(j)] = rng.uniform(-1, 1);
        terms.push_back({j, a[static_cast<std::size_t>(j)]});
      }
      m.addRow(-kInf, rng.uniform(0.0, 4.0), std::move(terms));
      rows.push_back(a);
    }
    const Solution s = solve(m);
    ASSERT_EQ(s.status, Status::Optimal);
    EXPECT_LT(m.maxViolation(s.x), 1e-6);
    // Sampled feasible points never beat the reported optimum.
    for (int pt = 0; pt < 200; ++pt) {
      std::vector<double> x(n);
      for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = rng.uniform(0, 5);
      if (m.maxViolation(x) > 0.0) continue;
      EXPECT_GE(m.objective(x) + 1e-6, s.objective);
    }
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, FeasibleDominanceProp, ::testing::Range(0, 8));

TEST(Simplex, ModeratelySizedSparseProblem) {
  // A transportation-style LP: 40 supplies x 12 demands.
  geom::Rng rng(99);
  Model m;
  const int ns = 40, nd = 12;
  std::vector<int> var(static_cast<std::size_t>(ns * nd));
  for (int i = 0; i < ns; ++i)
    for (int j = 0; j < nd; ++j)
      var[static_cast<std::size_t>(i * nd + j)] =
          m.addVar(0, kInf, rng.uniform(1.0, 5.0));
  for (int i = 0; i < ns; ++i) {
    std::vector<Term> t;
    for (int j = 0; j < nd; ++j) t.push_back({var[static_cast<std::size_t>(i * nd + j)], 1.0});
    m.addRow(-kInf, 10.0, std::move(t));  // supply cap
  }
  for (int j = 0; j < nd; ++j) {
    std::vector<Term> t;
    for (int i = 0; i < ns; ++i) t.push_back({var[static_cast<std::size_t>(i * nd + j)], 1.0});
    m.addRow(8.0, kInf, std::move(t));  // demand floor
  }
  const Solution s = solve(m);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_LT(m.maxViolation(s.x), 1e-6);
  EXPECT_GT(s.objective, 0.0);
  // Total shipped is exactly total demand at optimality (costs positive).
  double shipped = 0.0;
  for (const double v : s.x) shipped += v;
  EXPECT_NEAR(shipped, 8.0 * nd, 1e-5);
}

TEST(Model, AddRowCoalescesDuplicateTerms) {
  // The global LP builder emits one term per (slot, corner) mention, so a
  // row can repeat a variable; addRow must sum them and keep nnz_ exact.
  Model m;
  const int x = m.addVar(0, 10, 1.0);
  const int y = m.addVar(0, 10, 1.0);
  m.addRow(-kInf, 6.0, {{x, 1.0}, {y, 2.0}, {x, 2.0}});
  EXPECT_EQ(m.numNonzeros(), 2u);
  ASSERT_EQ(m.rowTerms(0).size(), 2u);
  double cx = 0.0;
  for (const Term& t : m.rowTerms(0))
    if (t.var == x) cx = t.coef;
  EXPECT_DOUBLE_EQ(cx, 3.0);
  // Exactly-cancelling duplicates are dropped entirely.
  m.addRow(-kInf, 1.0, {{x, 1.0}, {y, 0.5}, {x, -1.0}});
  EXPECT_EQ(m.rowTerms(1).size(), 1u);
  EXPECT_EQ(m.numNonzeros(), 3u);
  // Coalescing must not change the solved problem: 3x <= 6 binds.
  Model plain;
  plain.addVar(0, 10, -1.0);
  plain.addVar(0, 10, 0.0);
  plain.addRow(-kInf, 6.0, {{0, 3.0}});
  Model dup;
  dup.addVar(0, 10, -1.0);
  dup.addVar(0, 10, 0.0);
  dup.addRow(-kInf, 6.0, {{0, 1.0}, {0, 2.0}, {1, 0.0}});
  EXPECT_NEAR(solve(plain).objective, solve(dup).objective, 1e-9);
}

TEST(Model, SetRowBounds) {
  Model m;
  const int x = m.addVar(0, 10, -1.0);
  m.addRow(-kInf, 8.0, {{x, 1.0}});
  EXPECT_NEAR(solve(m).x[0], 8.0, 1e-7);
  m.setRowBounds(0, -kInf, 3.0);
  EXPECT_NEAR(solve(m).x[0], 3.0, 1e-7);
  EXPECT_THROW(m.setRowBounds(1, 0.0, 1.0), std::out_of_range);
  EXPECT_THROW(m.setRowBounds(0, 2.0, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Warm-start API.
// ---------------------------------------------------------------------------

/// A ranged/degenerate fixture shaped like the paper LP: |Delta| splits,
/// a minimax V, ranged preservation rows, and a budget row appended last.
Model paperMiniModel(double budget) {
  Model m;
  const int dp = m.addVar(0, 6, 1.0);
  const int dm = m.addVar(0, 4, 1.0);
  const int v = m.addVar(0, kInf, 0.0);
  m.addRow(-2, kInf, {{v, 1.0}, {dp, -1.0}, {dm, 1.0}});
  m.addRow(2, kInf, {{v, 1.0}, {dp, 1.0}, {dm, -1.0}});
  m.addRow(-3.0, 3.0, {{dp, 1.0}, {dm, -1.0}});  // ranged preservation
  m.addRow(0.0, 0.0, {{dp, 1.0}, {dm, -1.0}});   // degenerate equality
  m.addRow(-kInf, budget, {{v, 1.0}});           // budget row (last)
  return m;
}

TEST(WarmStart, MatchesColdOnRangedDegenerateFixture) {
  const Model m = paperMiniModel(5.0);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_FALSE(cold.basis.empty());
  const Solution warm = solve(m, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  // Re-entering at the optimal vertex costs no pivots.
  EXPECT_EQ(warm.iterations, 0);
}

TEST(WarmStart, RowReboundResolvesToColdObjective) {
  // The U-sweep pattern: tighten the last row's bound, re-enter from the
  // previous basis, and land on the same optimum a cold solve finds.
  Model m = paperMiniModel(5.0);
  Solution prev = solve(m);
  ASSERT_EQ(prev.status, Status::Optimal);
  for (const double budget : {4.0, 3.0, 2.5}) {
    m.setRowBounds(4, -kInf, budget);
    const Solution cold = solve(m);
    const Solution warm = solve(m, {}, &prev.basis);
    ASSERT_EQ(warm.status, cold.status);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
    EXPECT_LE(warm.iterations, cold.iterations);
    prev = warm;
  }
}

TEST(WarmStart, BasisExtendsAcrossAppendedRow) {
  // GlobalOpt solves pass 1 without the budget row, then appends it for
  // the sweep model; the pass-1 basis plus one Basic slack entry must be
  // accepted and reach the cold optimum.
  Model no_budget;
  const int dp = no_budget.addVar(0, 6, 1.0);
  const int dm = no_budget.addVar(0, 4, 1.0);
  const int v = no_budget.addVar(0, kInf, 0.0);
  no_budget.addRow(-2, kInf, {{v, 1.0}, {dp, -1.0}, {dm, 1.0}});
  no_budget.addRow(2, kInf, {{v, 1.0}, {dp, 1.0}, {dm, -1.0}});
  no_budget.addRow(-3.0, 3.0, {{dp, 1.0}, {dm, -1.0}});
  no_budget.addRow(0.0, 0.0, {{dp, 1.0}, {dm, -1.0}});
  const Solution base = solve(no_budget);
  ASSERT_EQ(base.status, Status::Optimal);

  Model with_budget = paperMiniModel(4.0);
  Basis extended = base.basis;
  extended.status.push_back(BasisStatus::Basic);
  const Solution warm = solve(with_budget, {}, &extended);
  const Solution cold = solve(with_budget);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
}

TEST(BasisIo, RoundTripPreservesStatusExactly) {
  const Model m = paperMiniModel(5.0);
  const Solution cold = solve(m);
  ASSERT_EQ(cold.status, Status::Optimal);
  ASSERT_FALSE(cold.basis.empty());

  const std::vector<unsigned char> bytes = serializeBasis(cold.basis);
  Basis back;
  ASSERT_TRUE(deserializeBasis(bytes, &back));
  EXPECT_EQ(back.status, cold.basis.status);

  // The round-tripped basis is usable: warm re-entry at the optimal vertex
  // costs no pivots.
  const Solution warm = solve(m, {}, &back);
  ASSERT_EQ(warm.status, Status::Optimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);

  // Empty basis round-trips to empty.
  Basis empty_back;
  empty_back.status.push_back(BasisStatus::Basic);  // must be cleared
  ASSERT_TRUE(deserializeBasis(serializeBasis(Basis{}), &empty_back));
  EXPECT_TRUE(empty_back.empty());
}

TEST(BasisIo, CorruptionIsRejectedNotTrusted) {
  const Model m = paperMiniModel(5.0);
  const Solution cold = solve(m);
  const std::vector<unsigned char> good = serializeBasis(cold.basis);

  Basis out;
  out.status.assign(3, BasisStatus::Basic);
  // Too short to even carry the header.
  EXPECT_FALSE(deserializeBasis({1, 0, 0}, &out));
  EXPECT_TRUE(out.empty()) << "failed deserialize must clear the output";

  // Unknown format version.
  std::vector<unsigned char> bad = good;
  bad[0] = 99;
  EXPECT_FALSE(deserializeBasis(bad, &out));

  // Truncated payload.
  bad = good;
  bad.pop_back();
  EXPECT_FALSE(deserializeBasis(bad, &out));

  // A flipped status byte breaks the checksum.
  bad = good;
  bad[6] ^= 1;
  EXPECT_FALSE(deserializeBasis(bad, &out));

  // A status byte outside the enum range is rejected even if the checksum
  // is recomputed to match (forged blob).
  Basis forged = cold.basis;
  forged.status[0] = static_cast<BasisStatus>(7);
  EXPECT_FALSE(deserializeBasis(serializeBasis(forged), &out));
}

TEST(BasisIo, ShapeMismatchAfterRoundTripFallsBackToCold) {
  // The cross-job path deserializes a stored basis and hands it to solve();
  // a basis from a differently-shaped model must degrade to a cold solve
  // (warm_started == false), never crash or mis-solve.
  Model small;
  small.addVar(0, 1, 1.0);
  small.addRow(0.0, 1.0, {{0, 1.0}});
  const Solution small_sol = solve(small);
  ASSERT_EQ(small_sol.status, Status::Optimal);

  Basis wrong_shape;
  ASSERT_TRUE(deserializeBasis(serializeBasis(small_sol.basis), &wrong_shape));
  const Model m = paperMiniModel(5.0);
  const Solution s = solve(m, {}, &wrong_shape);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, solve(m).objective, 1e-9);
}

TEST(WarmStart, UnusableBasisFallsBackToCold) {
  const Model m = paperMiniModel(5.0);
  Basis bad;
  bad.status.assign(3, BasisStatus::AtLower);  // wrong size entirely
  const Solution s = solve(m, {}, &bad);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_FALSE(s.warm_started);
  // Right size but wrong Basic count is also rejected, not crashed on.
  Basis wrong_count;
  wrong_count.status.assign(m.numVars() + m.numRows(), BasisStatus::AtLower);
  const Solution s2 = solve(m, {}, &wrong_count);
  ASSERT_EQ(s2.status, Status::Optimal);
  EXPECT_FALSE(s2.warm_started);
  EXPECT_NEAR(s.objective, s2.objective, 1e-9);
}

// ---------------------------------------------------------------------------
// Random feasible LPs under both pricing rules: every solve must be optimal
// and pass the optimality certificate, and the two rules must agree on the
// objective (a certified optimum fixes it).
// ---------------------------------------------------------------------------

class CertifiedRandomLpProp : public ::testing::TestWithParam<int> {};

TEST_P(CertifiedRandomLpProp, BothPricingRulesCertify) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 11);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4 + static_cast<int>(rng.index(4));
    Model m;
    for (int j = 0; j < n; ++j) m.addVar(0.0, 5.0, rng.uniform(-1, 1));
    for (int r = 0; r < 6; ++r) {
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j) terms.push_back({j, rng.uniform(-1, 1)});
      if (rng.uniform() < 0.3)
        m.addRow(rng.uniform(-4.0, 0.0), rng.uniform(0.0, 4.0),
                 std::move(terms));
      else
        m.addRow(-kInf, rng.uniform(0.0, 4.0), std::move(terms));
    }
    std::vector<double> objectives;
    for (const auto pricing :
         {SolverOptions::Pricing::kDevex, SolverOptions::Pricing::kDantzig}) {
      SolverOptions o;
      o.pricing = pricing;
      const Solution s = solve(m, o);
      const std::string label = "trial " + std::to_string(trial);
      ASSERT_EQ(s.status, Status::Optimal) << label;
      expectCertified(m, s, label);
      objectives.push_back(s.objective);
    }
    EXPECT_NEAR(objectives[0], objectives[1], 1e-6) << "trial " << trial;
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, CertifiedRandomLpProp, ::testing::Range(0, 6));

}  // namespace
}  // namespace skewopt::lp
