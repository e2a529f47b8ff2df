// Stress tests of the simplex on problems shaped like the global
// optimizer's LP (Eqs. 4-11): absolute-value splits, minimax V variables,
// ranged preservation rows, ratio rows, and a budget row — at sizes well
// beyond the unit tests — plus randomized known-optimum instances.
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
                     const std::string& label) {
  check::DiagnosticEngine engine;
  check::checkLpOptimality(m, s, engine);
  EXPECT_TRUE(engine.empty()) << label << "\n" << engine.text();
}

/// Builds a synthetic instance of the paper-shaped LP:
///   arcs x corners delta+/- variables with (10)-style bounds,
///   V variables with (6)-style rows, (7)-style ranged rows,
///   (11)-style ratio rows, and min sum|delta| s.t. sum V <= U.
struct PaperShapedLp {
  Model model;
  int narcs, ncorners, npairs;
  std::vector<int> v_var;
  int base(int arc, int k) const { return 2 * (arc * ncorners + k); }
};

PaperShapedLp buildPaperShaped(geom::Rng& rng, int narcs, int ncorners,
                               int npairs, double u_bound_scale) {
  PaperShapedLp p;
  p.narcs = narcs;
  p.ncorners = ncorners;
  p.npairs = npairs;

  std::vector<std::vector<double>> delay(
      static_cast<std::size_t>(narcs),
      std::vector<double>(static_cast<std::size_t>(ncorners)));
  for (auto& row : delay)
    for (double& d : row) d = rng.uniform(20.0, 200.0);

  for (int a = 0; a < narcs; ++a) {
    for (int k = 0; k < ncorners; ++k) {
      const double d = delay[static_cast<std::size_t>(a)][static_cast<std::size_t>(k)];
      p.model.addVar(0.0, 0.2 * d, 1.0);   // delta+
      p.model.addVar(0.0, 0.4 * d, 1.0);   // delta-
    }
  }
  std::vector<double> alphas(static_cast<std::size_t>(ncorners), 1.0);
  for (int k = 1; k < ncorners; ++k)
    alphas[static_cast<std::size_t>(k)] = rng.uniform(0.6, 1.4);

  double orig_sum_v = 0.0;
  for (int pi = 0; pi < npairs; ++pi) {
    const int v = p.model.addVar(0.0, kInf, 0.0);
    p.v_var.push_back(v);
    // A pair touches 2-5 arcs with +/-1 coefficients.
    std::vector<std::pair<int, double>> coefs;
    const int touch = 2 + static_cast<int>(rng.index(4));
    for (int t = 0; t < touch; ++t)
      coefs.push_back({static_cast<int>(rng.index(static_cast<std::size_t>(narcs))),
                       rng.uniform() < 0.5 ? 1.0 : -1.0});
    std::vector<double> c(static_cast<std::size_t>(ncorners), 0.0);
    for (int k = 0; k < ncorners; ++k)
      for (const auto& [arc, cf] : coefs)
        c[static_cast<std::size_t>(k)] +=
            cf * delay[static_cast<std::size_t>(arc)][static_cast<std::size_t>(k)];
    double vmax = 0.0;
    for (int ka = 0; ka < ncorners; ++ka)
      for (int kb = ka + 1; kb < ncorners; ++kb)
        vmax = std::max(vmax, std::abs(alphas[static_cast<std::size_t>(ka)] *
                                           c[static_cast<std::size_t>(ka)] -
                                       alphas[static_cast<std::size_t>(kb)] *
                                           c[static_cast<std::size_t>(kb)]));
    orig_sum_v += vmax;

    for (int ka = 0; ka < ncorners; ++ka) {
      for (int kb = ka + 1; kb < ncorners; ++kb) {
        for (int sign = -1; sign <= 1; sign += 2) {
          std::vector<Term> terms = {{v, 1.0}};
          for (const auto& [arc, cf] : coefs) {
            const int va = p.base(arc, ka);
            const int vb = p.base(arc, kb);
            const double kca = -sign * alphas[static_cast<std::size_t>(ka)] * cf;
            const double kcb = sign * alphas[static_cast<std::size_t>(kb)] * cf;
            terms.push_back({va, kca});
            terms.push_back({va + 1, -kca});
            terms.push_back({vb, kcb});
            terms.push_back({vb + 1, -kcb});
          }
          const double rhs = sign * (alphas[static_cast<std::size_t>(ka)] *
                                         c[static_cast<std::size_t>(ka)] -
                                     alphas[static_cast<std::size_t>(kb)] *
                                         c[static_cast<std::size_t>(kb)]);
          p.model.addRow(rhs, kInf, std::move(terms));
        }
      }
    }
    // (7)-style ranged local-skew row at each corner.
    for (int k = 0; k < ncorners; ++k) {
      std::vector<Term> terms;
      for (const auto& [arc, cf] : coefs) {
        const int va = p.base(arc, k);
        terms.push_back({va, cf});
        terms.push_back({va + 1, -cf});
      }
      const double ck = c[static_cast<std::size_t>(k)];
      p.model.addRow(-std::abs(ck) - ck, std::abs(ck) - ck, std::move(terms));
    }
  }
  // (11)-style ratio rows between consecutive corners.
  for (int a = 0; a < narcs; ++a) {
    for (int k = 1; k < ncorners; ++k) {
      const double da = delay[static_cast<std::size_t>(a)][0];
      const double db = delay[static_cast<std::size_t>(a)][static_cast<std::size_t>(k)];
      const double r0 = da / db;
      const double w_up = r0 * 1.3, w_lo = r0 * 0.7;
      const int va = p.base(a, 0), vb = p.base(a, k);
      p.model.addRow(-kInf, w_up * db - da,
                     {{va, 1.0}, {va + 1, -1.0}, {vb, -w_up}, {vb + 1, w_up}});
      p.model.addRow(w_lo * db - da, kInf,
                     {{va, 1.0}, {va + 1, -1.0}, {vb, -w_lo}, {vb + 1, w_lo}});
    }
  }
  // (5): budget row.
  std::vector<Term> budget;
  for (const int v : p.v_var) budget.push_back({v, 1.0});
  p.model.addRow(-kInf, u_bound_scale * orig_sum_v, std::move(budget));
  return p;
}

class PaperShapedProp : public ::testing::TestWithParam<int> {};

TEST_P(PaperShapedProp, SolvesToFeasibleOptimum) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  PaperShapedLp p = buildPaperShaped(rng, /*narcs=*/30, /*ncorners=*/3,
                                     /*npairs=*/25, /*u_scale=*/0.7);
  const Solution s = solve(p.model);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_LT(p.model.maxViolation(s.x), 1e-5);
  EXPECT_GE(s.objective, -1e-6);  // sum of |delta| parts
  // Delta = 0 with V at the original variation satisfies every row except
  // possibly the budget; with u_scale < 1 some delta work is required, so
  // the objective should be strictly positive.
  EXPECT_GT(s.objective, 1.0);
}
INSTANTIATE_TEST_SUITE_P(Seeds, PaperShapedProp, ::testing::Range(0, 6));

TEST(PaperShapedLp, LooseBudgetNeedsNoWork) {
  geom::Rng rng(99);
  PaperShapedLp p =
      buildPaperShaped(rng, 20, 3, 15, /*u_scale=*/1.01);
  const Solution s = solve(p.model);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-6) << "delta = 0 should be optimal";
}

TEST(PaperShapedLp, TighterBudgetCostsMore) {
  geom::Rng rng(7);
  double prev_cost = -1.0;
  for (const double scale : {0.9, 0.7, 0.5}) {
    geom::Rng r2(7);  // same instance every time
    PaperShapedLp p = buildPaperShaped(r2, 25, 3, 20, scale);
    const Solution s = solve(p.model);
    if (s.status != Status::Optimal) {
      // Very tight budgets can be genuinely infeasible; acceptable once
      // costs have been seen to increase.
      EXPECT_GT(prev_cost, 0.0);
      break;
    }
    EXPECT_GT(s.objective + 1e-9, prev_cost);
    prev_cost = s.objective;
  }
}

TEST(Simplex, DeterministicAcrossRuns) {
  geom::Rng rng(31);
  PaperShapedLp p = buildPaperShaped(rng, 15, 3, 12, 0.8);
  const Solution a = solve(p.model);
  const Solution b = solve(p.model);
  ASSERT_EQ(a.status, b.status);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.x, b.x);
}

TEST(Simplex, LargerKnownOptimumInstances) {
  // Same KKT construction as lp_test, at 20 variables / 14 rows.
  geom::Rng rng(1234);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 20, rows = 14;
    std::vector<double> xstar(static_cast<std::size_t>(n));
    for (double& v : xstar) v = rng.uniform(-2.0, 2.0);
    Model m;
    std::vector<double> c(static_cast<std::size_t>(n), 0.0);
    std::vector<std::vector<double>> a(static_cast<std::size_t>(rows),
                                       std::vector<double>(static_cast<std::size_t>(n)));
    std::vector<bool> active(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      for (double& v : a[static_cast<std::size_t>(r)]) v = rng.uniform(-1, 1);
      active[static_cast<std::size_t>(r)] = rng.uniform() < 0.4;
      if (active[static_cast<std::size_t>(r)]) {
        const double lambda = rng.uniform(0.1, 1.0);
        for (int j = 0; j < n; ++j)
          c[static_cast<std::size_t>(j)] -=
              lambda * a[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)];
      }
    }
    for (int j = 0; j < n; ++j) m.addVar(-5.0, 5.0, c[static_cast<std::size_t>(j)]);
    for (int r = 0; r < rows; ++r) {
      double ax = 0.0;
      for (int j = 0; j < n; ++j)
        ax += a[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] *
              xstar[static_cast<std::size_t>(j)];
      std::vector<Term> terms;
      for (int j = 0; j < n; ++j)
        terms.push_back({j, a[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)]});
      m.addRow(-kInf,
               active[static_cast<std::size_t>(r)] ? ax : ax + rng.uniform(0.5, 2.0),
               std::move(terms));
    }
    const Solution s = solve(m);
    ASSERT_EQ(s.status, Status::Optimal) << trial;
    double cx = 0.0;
    for (int j = 0; j < n; ++j)
      cx += c[static_cast<std::size_t>(j)] * xstar[static_cast<std::size_t>(j)];
    EXPECT_NEAR(s.objective, cx, 1e-4) << trial;
    expectCertified(m, s, "trial " + std::to_string(trial));
  }
}

TEST(WarmStart, PaperShapedWarmChainMatchesCold) {
  // The U-sweep access pattern at stress scale: the budget row is the last
  // row of the paper-shaped model; tighten it step by step, re-entering
  // each solve from the previous basis, and compare against cold solves.
  geom::Rng rng(41);
  PaperShapedLp p = buildPaperShaped(rng, 30, 3, 25, /*u_scale=*/1.0);
  const int budget_row = p.model.numRows() - 1;
  const double loose_u = p.model.rowHi(budget_row);

  Solution prev = solve(p.model);
  ASSERT_EQ(prev.status, Status::Optimal);
  expectCertified(p.model, prev, "loose");
  int warm_total = 0, cold_total = 0;
  for (const double scale : {0.9, 0.8, 0.7, 0.6}) {
    p.model.setRowBounds(budget_row, -kInf, scale * loose_u);
    const Solution cold = solve(p.model);
    const Solution warm = solve(p.model, {}, &prev.basis);
    ASSERT_EQ(warm.status, cold.status) << "scale " << scale;
    if (cold.status != Status::Optimal) break;
    EXPECT_TRUE(warm.warm_started);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * std::max(1.0, std::abs(cold.objective)))
        << "scale " << scale;
    EXPECT_LT(p.model.maxViolation(warm.x), 1e-5);
    expectCertified(p.model, cold, "cold at scale " + std::to_string(scale));
    expectCertified(p.model, warm, "warm at scale " + std::to_string(scale));
    warm_total += warm.iterations;
    cold_total += cold.iterations;
    prev = warm;
  }
  // Re-entering from the neighbouring vertex must not cost more pivots
  // than solving from scratch (it is the whole point of the warm start).
  EXPECT_LE(warm_total, cold_total);
}

TEST(Simplex, PaperShapedCertifiedUnderBothPricings) {
  for (const int seed : {3, 17}) {
    geom::Rng rng(static_cast<std::uint64_t>(seed));
    PaperShapedLp p = buildPaperShaped(rng, 20, 3, 15, 0.75);
    std::vector<double> objectives;
    for (const auto pricing :
         {SolverOptions::Pricing::kDevex, SolverOptions::Pricing::kDantzig}) {
      SolverOptions o;
      o.pricing = pricing;
      const Solution s = solve(p.model, o);
      const std::string label = "seed " + std::to_string(seed);
      ASSERT_EQ(s.status, Status::Optimal) << label;
      expectCertified(p.model, s, label);
      objectives.push_back(s.objective);
    }
    EXPECT_NEAR(objectives[0], objectives[1],
                1e-6 * std::max(1.0, std::abs(objectives[0])))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace skewopt::lp
