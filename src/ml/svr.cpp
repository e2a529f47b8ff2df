// epsilon-SVR with an RBF kernel.
//
// Trained in the bias-free dual (targets are centered, and the RBF kernel
// is universal, so the explicit bias term of classical SVR is unnecessary):
//
//   min over beta in [-C, C]^n:
//       1/2 beta' K beta - beta' y + epsilon * |beta|_1
//
// solved by exact cyclic coordinate descent: each coordinate update is a
// soft-threshold followed by a box clip, which is the global minimizer of
// the one-dimensional subproblem, so the objective decreases monotonically.
//
// The rows are stored column-major, and one 4-lane squared-distance kernel
// (a row per lane, each row's terms summed in feature order) serves both
// the kernel matrix and predict(); std::exp stays scalar, so the bits are
// those of a scalar loop (DESIGN.md, "4-lane ML kernels").
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/ml.h"
#include "support/simd.h"

namespace skewopt::ml {

namespace {
using support::load4;
using support::store4;
using support::v4df;

constexpr std::size_t kLanes = 4;

// out[i] = sum over j of (rows[j * stride + i] - q[j])^2 for i in [0, n),
// the terms added in order j = 0..d-1.
SKEWOPT_VEC_CLONES
void squaredDistances(const double* rows, std::size_t stride, std::size_t n,
                      std::size_t d, const double* q, double* out) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    v4df s = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < d; ++j) {
      const v4df e = load4(rows + j * stride + i) - q[j];
      s += e * e;
    }
    store4(out + i, s);
  }
  for (; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double e = rows[j * stride + i] - q[j];
      s += e * e;
    }
    out[i] = s;
  }
}

// f[j] += delta * k[j] for j in [0, n).
SKEWOPT_VEC_CLONES
void addScaled(double delta, const double* k, double* f, std::size_t n) {
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store4(f + j, load4(f + j) + delta * load4(k + j));
  for (; j < n; ++j) f[j] += delta * k[j];
}
}  // namespace

void SvrRbf::fit(const Dataset& train) {
  if (train.size() == 0) throw std::invalid_argument("SvrRbf: empty data");
  const std::size_t d = train.x.cols();
  iterations_ = 0;
  gamma_ = (opts_.gamma > 0.0) ? opts_.gamma : 1.0 / static_cast<double>(d);

  // Deterministic subsample if the kernel matrix would be too large.
  std::size_t n = train.size();
  std::vector<std::size_t> keep(n);
  std::iota(keep.begin(), keep.end(), std::size_t{0});
  if (n > opts_.max_samples) {
    geom::Rng rng(opts_.seed);
    for (std::size_t i = n; i-- > 1;) std::swap(keep[i], keep[rng.index(i + 1)]);
    keep.resize(opts_.max_samples);
    std::sort(keep.begin(), keep.end());
    n = opts_.max_samples;
  }

  sv_ = Matrix(d, n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) sv_.at(j, i) = train.x.at(keep[i], j);
    y[i] = train.y[keep[i]];
  }
  y_mean_ = std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(n);
  double var = 0.0;
  for (double& v : y) {
    v -= y_mean_;
    var += v * v;
  }
  y_scale_ = std::sqrt(var / static_cast<double>(n));
  if (y_scale_ < 1e-12) y_scale_ = 1.0;
  for (double& v : y) v /= y_scale_;

  // Dense kernel matrix (bounded by max_samples^2): row i's distances to
  // rows i+1..n-1 in one kernel call, mirrored below the diagonal. The
  // kernel squares x_j - x_i, the exact negation of x_i - x_j.
  Matrix k(n, n);
  std::vector<double> q(d), dist(n);
  for (std::size_t i = 0; i < n; ++i) {
    k.at(i, i) = 1.0;
    for (std::size_t j = 0; j < d; ++j) q[j] = sv_.at(j, i);
    squaredDistances(sv_.data().data() + i + 1, n, n - i - 1, d, q.data(),
                     dist.data());
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = std::exp(-gamma_ * dist[j - i - 1]);
      k.at(i, j) = v;
      k.at(j, i) = v;
    }
  }

  beta_.assign(n, 0.0);
  std::vector<double> f(n, 0.0);  // f_i = (K beta)_i, maintained incrementally
  for (std::size_t sweep = 0; sweep < opts_.max_sweeps; ++sweep) {
    ++iterations_;
    double max_change = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // One-dimensional objective in t = beta_i:
      //   1/2 K_ii t^2 + r t + epsilon |t|,   r = f_i - K_ii beta_i - y_i
      const double kii = k.at(i, i);
      const double r = f[i] - kii * beta_[i] - y[i];
      double t;
      if (r > opts_.epsilon)
        t = -(r - opts_.epsilon) / kii;
      else if (r < -opts_.epsilon)
        t = -(r + opts_.epsilon) / kii;
      else
        t = 0.0;
      t = std::clamp(t, -opts_.c, opts_.c);
      const double delta = t - beta_[i];
      if (std::abs(delta) > 1e-14) {
        beta_[i] = t;
        addScaled(delta, k.row(i), f.data(), n);
        max_change = std::max(max_change, std::abs(delta));
      }
    }
    if (max_change < opts_.tolerance) break;
  }

  // Compact: drop non-support vectors to speed up prediction.
  std::size_t nsv = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (std::abs(beta_[i]) > 1e-10) ++nsv;
  if (nsv < n) {
    Matrix sv2(d, nsv);
    std::vector<double> b2;
    b2.reserve(nsv);
    std::size_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::abs(beta_[i]) <= 1e-10) continue;
      for (std::size_t j = 0; j < d; ++j) sv2.at(j, w) = sv_.at(j, i);
      b2.push_back(beta_[i]);
      ++w;
    }
    sv_ = std::move(sv2);
    beta_ = std::move(b2);
  }
}

void SvrRbf::predictBatch(const double* const* rows, std::size_t n,
                          double* out) const {
  // One buffer per thread, as in MlpRegressor::predictBatch: the distances of
  // up to four rows, row s at [s * nsv, (s + 1) * nsv).
  const std::size_t nsv = beta_.size();
  thread_local std::vector<double> dist;
  dist.resize(kLanes * nsv);
  for (std::size_t i = 0; i < n; i += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - i);
    for (std::size_t s = 0; s < lanes; ++s)
      squaredDistances(sv_.data().data(), nsv, nsv, sv_.rows(), rows[i + s],
                       dist.data() + s * nsv);
    // The rows' exp chains interleave; each sums its terms in row order.
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < nsv; ++j)
      for (std::size_t s = 0; s < lanes; ++s)
        acc[s] += beta_[j] * std::exp(-gamma_ * dist[s * nsv + j]);
    for (std::size_t s = 0; s < lanes; ++s)
      out[i + s] = acc[s] * y_scale_ + y_mean_;
  }
}

}  // namespace skewopt::ml
