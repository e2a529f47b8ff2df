#include "ml/ml.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace skewopt::ml {
namespace {

Dataset makeDataset(std::size_t n, std::size_t d, geom::Rng& rng,
                    double (*f)(const double*), double noise = 0.0) {
  Dataset ds;
  ds.x = Matrix(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) ds.x.at(i, j) = rng.uniform(-2, 2);
    ds.y.push_back(f(ds.x.row(i)) + (noise > 0 ? rng.normal(0, noise) : 0.0));
  }
  return ds;
}

double linearFn(const double* x) { return 3.0 * x[0] - 2.0 * x[1] + 0.5; }
double mildNonlinear(const double* x) {
  return x[0] * x[0] + std::sin(x[1]) + 0.3 * x[0] * x[1];
}

TEST(Scaler, ZeroMeanUnitVariance) {
  geom::Rng rng(1);
  Matrix x(200, 3);
  for (std::size_t i = 0; i < 200; ++i) {
    x.at(i, 0) = rng.uniform(10, 20);
    x.at(i, 1) = rng.normal(-5, 3);
    x.at(i, 2) = 7.0;  // constant column must not divide by zero
  }
  StandardScaler s;
  s.fit(x);
  const Matrix t = s.transform(x);
  for (std::size_t j = 0; j < 2; ++j) {
    double mean = 0, var = 0;
    for (std::size_t i = 0; i < 200; ++i) mean += t.at(i, j);
    mean /= 200;
    for (std::size_t i = 0; i < 200; ++i)
      var += (t.at(i, j) - mean) * (t.at(i, j) - mean);
    var /= 200;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-9);
  }
  EXPECT_DOUBLE_EQ(t.at(0, 2), 0.0);
  // transformRow matches transform.
  std::vector<double> row(3);
  s.transformRow(x.row(5), row.data());
  for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(row[j], t.at(5, j));
}

TEST(Metrics, RmseMaeMape) {
  EXPECT_DOUBLE_EQ(rmse({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(meanAbsError({0, 0}, {3, -4}), 3.5);
  EXPECT_NEAR(mape({90, 110}, {100, 100}), 10.0, 1e-9);
  EXPECT_THROW(rmse({1}, {1, 2}), std::invalid_argument);
}

TEST(Split, DeterministicAndDisjoint) {
  geom::Rng rng(2);
  const Dataset all = makeDataset(100, 2, rng, linearFn);
  Dataset tr1, va1, tr2, va2;
  splitDataset(all, 0.2, 9, &tr1, &va1);
  splitDataset(all, 0.2, 9, &tr2, &va2);
  EXPECT_EQ(va1.size(), 20u);
  EXPECT_EQ(tr1.size(), 80u);
  EXPECT_EQ(tr1.y, tr2.y);
  EXPECT_EQ(va1.y, va2.y);
}

TEST(MeanRegressor, PredictsMean) {
  MeanRegressor r;
  Dataset d;
  d.x = Matrix(3, 1);
  d.y = {1.0, 2.0, 6.0};
  r.fit(d);
  EXPECT_DOUBLE_EQ(r.predict(d.x.row(0)), 3.0);
}

TEST(Mlp, LearnsLinearFunction) {
  geom::Rng rng(3);
  const Dataset train = makeDataset(400, 2, rng, linearFn, 0.02);
  const Dataset test = makeDataset(100, 2, rng, linearFn);
  MlpOptions o;
  o.epochs = 300;
  MlpRegressor mlp(o);
  mlp.fit(train);
  MeanRegressor base;
  base.fit(train);
  const double e_mlp = rmse(mlp.predictAll(test.x), test.y);
  const double e_base = rmse(base.predictAll(test.x), test.y);
  EXPECT_LT(e_mlp, 0.25 * e_base);
}

TEST(Mlp, LearnsMildNonlinearity) {
  geom::Rng rng(4);
  const Dataset train = makeDataset(600, 2, rng, mildNonlinear, 0.02);
  const Dataset test = makeDataset(150, 2, rng, mildNonlinear);
  MlpRegressor mlp;
  mlp.fit(train);
  MeanRegressor base;
  base.fit(train);
  EXPECT_LT(rmse(mlp.predictAll(test.x), test.y),
            0.4 * rmse(base.predictAll(test.x), test.y));
}

TEST(Mlp, DeterministicForSeed) {
  geom::Rng rng(5);
  const Dataset train = makeDataset(100, 2, rng, linearFn, 0.05);
  MlpOptions o;
  o.epochs = 50;
  MlpRegressor a(o), b(o);
  a.fit(train);
  b.fit(train);
  EXPECT_DOUBLE_EQ(a.predict(train.x.row(0)), b.predict(train.x.row(0)));
}

TEST(Svr, LearnsLinearFunction) {
  geom::Rng rng(6);
  const Dataset train = makeDataset(300, 2, rng, linearFn, 0.02);
  const Dataset test = makeDataset(80, 2, rng, linearFn);
  SvrRbf svr;
  svr.fit(train);
  MeanRegressor base;
  base.fit(train);
  EXPECT_LT(rmse(svr.predictAll(test.x), test.y),
            0.3 * rmse(base.predictAll(test.x), test.y));
  EXPECT_GT(svr.numSupportVectors(), 0u);
}

TEST(Svr, LearnsNonlinearity) {
  geom::Rng rng(7);
  const Dataset train = makeDataset(400, 2, rng, mildNonlinear, 0.02);
  const Dataset test = makeDataset(100, 2, rng, mildNonlinear);
  SvrRbf svr;
  svr.fit(train);
  MeanRegressor base;
  base.fit(train);
  EXPECT_LT(rmse(svr.predictAll(test.x), test.y),
            0.4 * rmse(base.predictAll(test.x), test.y));
}

TEST(Svr, SubsamplesWhenHuge) {
  geom::Rng rng(8);
  SvrOptions o;
  o.max_samples = 50;
  o.max_sweeps = 20;
  const Dataset train = makeDataset(300, 2, rng, linearFn, 0.1);
  SvrRbf svr(o);
  svr.fit(train);
  EXPECT_LE(svr.numSupportVectors(), 50u);
}

TEST(Svr, EpsilonSparsifies) {
  geom::Rng rng(9);
  const Dataset train = makeDataset(200, 2, rng, linearFn, 0.01);
  SvrOptions tight, loose;
  tight.epsilon = 0.01;
  loose.epsilon = 0.8;
  SvrRbf a(tight), b(loose);
  a.fit(train);
  b.fit(train);
  EXPECT_LT(b.numSupportVectors(), a.numSupportVectors());
}

TEST(Hsm, BlendsAndBeatsWorstMember) {
  geom::Rng rng(10);
  const Dataset train = makeDataset(500, 2, rng, mildNonlinear, 0.03);
  const Dataset test = makeDataset(120, 2, rng, mildNonlinear);
  HybridSurrogate hsm;
  hsm.fit(train);
  MlpRegressor mlp;
  mlp.fit(train);
  SvrRbf svr;
  svr.fit(train);
  const double e_h = rmse(hsm.predictAll(test.x), test.y);
  const double e_m = rmse(mlp.predictAll(test.x), test.y);
  const double e_s = rmse(svr.predictAll(test.x), test.y);
  EXPECT_LE(e_h, std::max(e_m, e_s) * 1.15);
  EXPECT_GT(hsm.mlpWeight(), 0.0);
  EXPECT_LT(hsm.mlpWeight(), 1.0);
}

TEST(Kfold, EstimatesGeneralizationError) {
  geom::Rng rng(11);
  const Dataset all = makeDataset(200, 2, rng, linearFn, 0.05);
  const double cv = kfoldRmse(all, 4, [] {
    MlpOptions o;
    o.epochs = 120;
    return std::make_unique<MlpRegressor>(o);
  });
  EXPECT_GT(cv, 0.0);
  EXPECT_LT(cv, 1.0);  // linear target with tiny noise: near-perfect fit
}

// Parameterized sweep: every family beats the mean baseline on the linear
// target across several seeds (the property the paper's Sec 4.2 relies on).
class FamilyBeatsBaseline : public ::testing::TestWithParam<int> {};
TEST_P(FamilyBeatsBaseline, AllThreeFamilies) {
  geom::Rng rng(static_cast<std::uint64_t>(GetParam()) + 50);
  const Dataset train = makeDataset(250, 3, rng, linearFn, 0.05);
  const Dataset test = makeDataset(80, 3, rng, linearFn);
  MeanRegressor base;
  base.fit(train);
  const double e_base = rmse(base.predictAll(test.x), test.y);

  MlpOptions mo;
  mo.epochs = 150;
  MlpRegressor mlp(mo);
  mlp.fit(train);
  EXPECT_LT(rmse(mlp.predictAll(test.x), test.y), e_base);

  SvrRbf svr;
  svr.fit(train);
  EXPECT_LT(rmse(svr.predictAll(test.x), test.y), e_base);

  HsmOptions ho;
  ho.mlp = mo;
  HybridSurrogate hsm(ho);
  hsm.fit(train);
  EXPECT_LT(rmse(hsm.predictAll(test.x), test.y), e_base);
}
INSTANTIATE_TEST_SUITE_P(Seeds, FamilyBeatsBaseline, ::testing::Range(0, 3));

// ---- MlKernelPinned: lane-remainder bit pins ------------------------------
//
// The MLP and SVR kernels run four lanes at a time (an MLP lane is one
// sample of a batch, an SVR lane one support-vector row), so every tail
// size 0-3 must give the bits a scalar loop gives. These fits hit each
// remainder: MLP batches of 1, 5, 7, 32 and 33 over 37, 47 and 200 rows,
// with and without a validation split; SVR fits of n % 4 = 1, 2 and 3
// rows, one subsampled and one epsilon-compacted, keeping 14-40 support
// vectors. The literals, captured from the scalar kernels, are FNV-1a-64
// digests of each model's predictions over a fixed query grid, plus the
// support-vector count. On a mismatch the test prints one line
// `MlKernelPinned literal <case> <digest> <nsv>`.

std::uint64_t fnv1a64(const std::vector<double>& v) {
  std::uint64_t x = 0xcbf29ce484222325ULL;
  for (const double d : v) {
    const std::uint64_t b = std::bit_cast<std::uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      x ^= (b >> (8 * i)) & 0xffu;
      x *= 0x100000001b3ULL;
    }
  }
  return x;
}

/// 5^3 = 125 query rows spanning the training range [-2, 2]^3 and past it.
Matrix pinQueryGrid() {
  Matrix q(125, 3);
  for (std::size_t i = 0; i < 125; ++i) {
    q.at(i, 0) = -2.5 + 1.25 * static_cast<double>(i % 5);
    q.at(i, 1) = -2.5 + 1.25 * static_cast<double>((i / 5) % 5);
    q.at(i, 2) = -2.5 + 1.25 * static_cast<double>(i / 25);
  }
  return q;
}

double pinTarget(const double* x) {
  return x[0] * x[0] - 1.5 * x[1] + std::sin(x[2]) + 0.4 * x[0] * x[2];
}

void expectPinned(const std::string& name, const Regressor& model,
                  const char* want, std::size_t nsv = 0,
                  std::size_t want_nsv = 0) {
  char got[17];
  std::snprintf(got, sizeof got, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a64(model.predictAll(pinQueryGrid()))));
  EXPECT_EQ(std::string(got), want) << name;
  EXPECT_EQ(nsv, want_nsv) << name;
  if (std::string(got) != want || nsv != want_nsv)
    std::printf("MlKernelPinned literal %s %s %zu\n", name.c_str(), got, nsv);
}

TEST(MlKernelPinned, MlpBatchAndValidationRemainders) {
  struct Case {
    std::size_t n, batch;
    bool val;
    const char* digest;
  };
  const Case cases[] = {
      {37, 1, true, "ee757f8debb88958"},
      {37, 5, true, "382a9f3f80c028b3"},
      {37, 32, true, "e7d501abb75eb7fb"},
      {37, 33, true, "e7d501abb75eb7fb"},
      {37, 1, false, "0a582fc775080e30"},
      {37, 5, false, "c8b2af4584505a43"},
      {37, 32, false, "eae401af1bb91140"},
      {37, 33, false, "fbb362baeba10133"},
      {200, 1, true, "d00f3d84c3a127d6"},
      {200, 5, true, "6202b6f3aa03ea94"},
      {200, 32, true, "c9df3b6b9076f452"},
      {200, 33, true, "a5a4d45ba3ee4ec3"},
      {200, 1, false, "8f28f859daa7493e"},
      {200, 5, false, "6db934d09eb66534"},
      {200, 32, false, "444533d2d238a6b7"},
      {200, 33, false, "80d50b8fc7baf93b"},
      // Remainder 3: a 4+3 batch of 7, and 7 validation rows.
      {37, 7, true, "fe5551bae30eb4e4"},
      {47, 33, true, "f9b85c2b625e73bb"},
  };
  for (const Case& c : cases) {
    geom::Rng rng(100 + c.n);
    const Dataset train = makeDataset(c.n, 3, rng, pinTarget, 0.05);
    MlpOptions o;
    o.hidden = {7, 5};
    o.epochs = 30;
    o.patience = 6;
    o.batch = c.batch;
    o.val_fraction = c.val ? 0.15 : 0.0;
    MlpRegressor mlp(o);
    mlp.fit(train);
    expectPinned("mlp_n" + std::to_string(c.n) + "_b" +
                     std::to_string(c.batch) + (c.val ? "_val" : "_noval"),
                 mlp, c.digest);
  }
}

TEST(MlKernelPinned, SvrRowRemainders) {
  struct Case {
    const char* name;
    std::size_t n, max_samples;
    double epsilon;
    const char* digest;
    std::size_t nsv;
  };
  const Case cases[] = {
      {"svr_n41", 41, 2500, 0.05, "fd8bf6fb6bfa621a", 33},
      {"svr_n42", 42, 2500, 0.05, "59b93bd0af32fe74", 30},
      {"svr_n43", 43, 2500, 0.05, "f7aeb6fab0fe2c43", 32},
      {"svr_subsampled", 120, 61, 0.05, "913d7196552e1d8c", 40},
      {"svr_compacted", 90, 2500, 0.6, "7627afa3ee9ee8cb", 14},
      // 35 support vectors: a predict tail of 3.
      {"svr_n38", 38, 2500, 0.05, "5fe5d5bc829e449e", 35},
  };
  for (const Case& c : cases) {
    geom::Rng rng(200 + c.n);
    const Dataset train = makeDataset(c.n, 3, rng, pinTarget, 0.05);
    SvrOptions o;
    o.max_samples = c.max_samples;
    o.epsilon = c.epsilon;
    SvrRbf svr(o);
    svr.fit(train);
    expectPinned(c.name, svr, c.digest, svr.numSupportVectors(), c.nsv);
  }
}

// predictBatch runs four rows per kernel call; for every batch size 1..9
// (each lane remainder, one and two full groups) every row's prediction
// must carry predict()'s bits, for each family and the default loop.
TEST(PredictBatch, EqualsPredictForEveryLaneRemainder) {
  geom::Rng rng(301);
  const Dataset train = makeDataset(60, 3, rng, pinTarget, 0.05);
  MlpOptions mo;
  mo.hidden = {7, 5};
  mo.epochs = 20;
  SvrOptions so;
  HsmOptions ho;
  ho.mlp = mo;
  ho.svr = so;
  MlpRegressor mlp(mo);
  SvrRbf svr(so);
  HybridSurrogate hsm(ho);
  MeanRegressor mean;
  const std::pair<const char*, Regressor*> models[] = {
      {"mlp", &mlp}, {"svr", &svr}, {"hsm", &hsm}, {"mean", &mean}};
  const Matrix q = pinQueryGrid();
  for (const auto& [name, model] : models) {
    model->fit(train);
    for (std::size_t n = 1; n <= 9; ++n) {
      for (const std::size_t at : {std::size_t{0}, std::size_t{57}}) {
        std::vector<const double*> rows(n);
        for (std::size_t i = 0; i < n; ++i) rows[i] = q.row(at + 7 * i);
        std::vector<double> got(n, -1.0);
        model->predictBatch(rows.data(), n, got.data());
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(model->predict(rows[i])))
              << name << " n=" << n << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace skewopt::ml
