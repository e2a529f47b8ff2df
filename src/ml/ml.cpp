// Scaler, metrics, dataset utilities, HSM and the mean baseline.
#include "ml/ml.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace skewopt::ml {

void StandardScaler::fit(const Matrix& x) {
  const std::size_t n = x.rows(), d = x.cols();
  if (n == 0) throw std::invalid_argument("StandardScaler::fit: empty data");
  mean_.assign(d, 0.0);
  scale_.assign(d, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j) mean_[j] += x.at(i, j);
  for (std::size_t j = 0; j < d; ++j) mean_[j] /= static_cast<double>(n);
  std::vector<double> var(d, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < d; ++j) {
      const double e = x.at(i, j) - mean_[j];
      var[j] += e * e;
    }
  for (std::size_t j = 0; j < d; ++j) {
    const double s = std::sqrt(var[j] / static_cast<double>(n));
    scale_[j] = (s > 1e-12) ? s : 1.0;
  }
}

Matrix StandardScaler::transform(const Matrix& x) const {
  Matrix out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      out.at(i, j) = (x.at(i, j) - mean_[j]) / scale_[j];
  return out;
}

void StandardScaler::transformRow(const double* row, double* out) const {
  for (std::size_t j = 0; j < mean_.size(); ++j)
    out[j] = (row[j] - mean_[j]) / scale_[j];
}

double Regressor::predict(const double* row) const {
  double out;
  predictBatch(&row, 1, &out);
  return out;
}

std::vector<double> Regressor::predictAll(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict(x.row(i));
  return out;
}

void MeanRegressor::fit(const Dataset& train) {
  mean_ = train.y.empty()
              ? 0.0
              : std::accumulate(train.y.begin(), train.y.end(), 0.0) /
                    static_cast<double>(train.y.size());
}

void MeanRegressor::predictBatch(const double* const*, std::size_t n,
                                 double* out) const {
  std::fill_n(out, n, mean_);
}

double rmse(const std::vector<double>& pred,
            const std::vector<double>& truth) {
  if (pred.size() != truth.size() || pred.empty())
    throw std::invalid_argument("rmse: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double e = pred[i] - truth[i];
    s += e * e;
  }
  return std::sqrt(s / static_cast<double>(pred.size()));
}

double meanAbsError(const std::vector<double>& pred,
                    const std::vector<double>& truth) {
  double s = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    s += std::abs(pred[i] - truth[i]);
  return pred.empty() ? 0.0 : s / static_cast<double>(pred.size());
}

void splitDataset(const Dataset& all, double val_fraction, std::uint64_t seed,
                  Dataset* train, Dataset* val) {
  const std::size_t n = all.size(), d = all.x.cols();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  geom::Rng rng(seed);
  for (std::size_t i = n; i-- > 1;)
    std::swap(idx[i], idx[rng.index(i + 1)]);
  const std::size_t nval =
      std::min(n > 1 ? n - 1 : 0,
               static_cast<std::size_t>(val_fraction * static_cast<double>(n)));
  auto fill = [&](Dataset* out, std::size_t lo, std::size_t hi) {
    out->x = Matrix(hi - lo, d);
    out->y.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 0; j < d; ++j)
        out->x.at(i - lo, j) = all.x.at(idx[i], j);
      out->y.push_back(all.y[idx[i]]);
    }
  };
  fill(val, 0, nval);
  fill(train, nval, n);
}

void HybridSurrogate::fit(const Dataset& train) {
  for (const FitTask& t : planFit(train)) t.model->fit(*t.data);
  finishFit();
}

std::vector<FitTask> HybridSurrogate::planFit(const Dataset& train) {
  splitDataset(train, opts_.val_fraction, opts_.seed, &tr_, &val_);
  if (val_.size() < 4) {  // too small to weight: train on everything, 50/50
    tr_ = train;
    val_ = train;
  }
  val_mlp_ = std::make_unique<MlpRegressor>(opts_.mlp);
  val_svr_ = std::make_unique<SvrRbf>(opts_.svr);
  // The final members fit the full training set; the weights come from
  // the validation-split members alone.
  mlp_ = std::make_unique<MlpRegressor>(opts_.mlp);
  svr_ = std::make_unique<SvrRbf>(opts_.svr);
  return {{val_mlp_.get(), &tr_, true},
          {val_svr_.get(), &tr_, true},
          {mlp_.get(), &train, false},
          {svr_.get(), &train, false}};
}

void HybridSurrogate::finishFit() {
  const double e_mlp = rmse(val_mlp_->predictAll(val_.x), val_.y);
  const double e_svr = rmse(val_svr_->predictAll(val_.x), val_.y);
  const double inv_mlp = 1.0 / (e_mlp + 1e-9);
  const double inv_svr = 1.0 / (e_svr + 1e-9);
  w_mlp_ = inv_mlp / (inv_mlp + inv_svr);
  val_mlp_.reset();
  val_svr_.reset();
  tr_ = {};
  val_ = {};
}

void HybridSurrogate::predictBatch(const double* const* rows, std::size_t n,
                                   double* out) const {
  // One buffer per thread, as in MlpRegressor::predictBatch.
  thread_local std::vector<double> svr;
  svr.resize(n);
  mlp_->predictBatch(rows, n, out);
  svr_->predictBatch(rows, n, svr.data());
  for (std::size_t i = 0; i < n; ++i)
    out[i] = w_mlp_ * out[i] + (1.0 - w_mlp_) * svr[i];
}

}  // namespace skewopt::ml
