// Feed-forward tanh MLP trained with Adam and early stopping.
//
// All per-sample work runs in buffers sized once per fit (one flat
// activation buffer, one flat delta buffer at the same offsets, gradient
// and Adam-moment buffers per layer), so a fit allocates only at set-up.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/ml.h"

namespace skewopt::ml {

namespace {
double tanhAct(double v) { return std::tanh(v); }
double tanhGrad(double a) { return 1.0 - a * a; }  // in terms of activation
}  // namespace

double MlpRegressor::forward(const double* row, double* acts) const {
  // The last layer is linear.
  std::copy_n(row, layers_.front().in, acts);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& L = layers_[l];
    const double* cur = acts + L.at;
    double* next = acts + L.at + L.in;
    for (std::size_t o = 0; o < L.out; ++o) {
      double v = L.b[o];
      const double* w = &L.w[o * L.in];
      for (std::size_t i = 0; i < L.in; ++i) v += w[i] * cur[i];
      next[o] = (l + 1 == layers_.size()) ? v : tanhAct(v);
    }
  }
  return acts[acts_size_ - 1];
}

void MlpRegressor::fit(const Dataset& all) {
  if (all.size() == 0) throw std::invalid_argument("MlpRegressor: empty data");
  const std::size_t d = all.x.cols();

  // Center/scale the target internally so the loss is well-conditioned.
  y_mean_ = std::accumulate(all.y.begin(), all.y.end(), 0.0) /
            static_cast<double>(all.y.size());
  double var = 0.0;
  for (const double y : all.y) var += (y - y_mean_) * (y - y_mean_);
  y_scale_ = std::sqrt(var / static_cast<double>(all.y.size()));
  if (y_scale_ < 1e-12) y_scale_ = 1.0;

  Dataset train, val;
  splitDataset(all, opts_.val_fraction, opts_.seed, &train, &val);
  if (train.size() == 0) train = all;

  // Layer setup with Xavier-style init.
  geom::Rng rng(opts_.seed);
  layers_.clear();
  std::vector<std::size_t> sizes = {d};
  for (const std::size_t h : opts_.hidden) sizes.push_back(h);
  sizes.push_back(1);
  acts_size_ = d;
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    Layer L;
    L.in = sizes[l];
    L.out = sizes[l + 1];
    L.at = acts_size_ - L.in;
    acts_size_ += L.out;
    L.w.resize(L.in * L.out);
    L.b.assign(L.out, 0.0);
    const double s = std::sqrt(2.0 / static_cast<double>(L.in + L.out));
    for (double& w : L.w) w = rng.normal(0.0, s);
    layers_.push_back(std::move(L));
  }

  // Per-layer batch gradients and Adam moments.
  struct Moments {
    std::vector<double> gw, gb, mw, vw, mb, vb;
  };
  std::vector<Moments> mom(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::size_t nw = layers_[l].w.size(), nb = layers_[l].out;
    mom[l] = {std::vector<double>(nw), std::vector<double>(nb),
              std::vector<double>(nw, 0.0), std::vector<double>(nw, 0.0),
              std::vector<double>(nb, 0.0), std::vector<double>(nb, 0.0)};
  }
  // delta[at + in + o] is d(loss)/d(pre-activation o) of the layer at `at`.
  std::vector<double> acts(acts_size_), delta(acts_size_);

  const std::size_t n = train.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  auto valLoss = [&]() {
    if (val.size() == 0) return 0.0;
    double s = 0.0;
    for (std::size_t i = 0; i < val.size(); ++i) {
      const double p = forward(val.x.row(i), acts.data());
      const double t = (val.y[i] - y_mean_) / y_scale_;
      s += (p - t) * (p - t);
    }
    return s / static_cast<double>(val.size());
  };

  std::vector<Layer> best_layers = layers_;
  double best_val = valLoss();
  std::size_t since_best = 0;
  std::size_t step = 0;

  for (std::size_t epoch = 0; epoch < opts_.epochs; ++epoch) {
    // Deterministic shuffle per epoch.
    for (std::size_t i = n; i-- > 1;) std::swap(order[i], order[rng.index(i + 1)]);

    for (std::size_t start = 0; start < n; start += opts_.batch) {
      const std::size_t end = std::min(n, start + opts_.batch);
      // Accumulate gradients over the batch.
      for (Moments& m : mom) {
        std::fill(m.gw.begin(), m.gw.end(), 0.0);
        std::fill(m.gb.begin(), m.gb.end(), 0.0);
      }
      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t i = order[bi];
        const double target = (train.y[i] - y_mean_) / y_scale_;
        delta[acts_size_ - 1] = forward(train.x.row(i), acts.data()) - target;
        // Backprop.
        for (std::size_t l = layers_.size(); l-- > 0;) {
          const Layer& L = layers_[l];
          const double* in = acts.data() + L.at;
          const double* dl = delta.data() + L.at + L.in;
          double* gw = mom[l].gw.data();
          double* gb = mom[l].gb.data();
          for (std::size_t o = 0; o < L.out; ++o) {
            gb[o] += dl[o];
            double* g = &gw[o * L.in];
            for (std::size_t ii = 0; ii < L.in; ++ii) g[ii] += dl[o] * in[ii];
          }
          if (l == 0) break;
          double* dprev = delta.data() + L.at;
          std::fill_n(dprev, L.in, 0.0);
          for (std::size_t o = 0; o < L.out; ++o) {
            const double* w = &L.w[o * L.in];
            for (std::size_t ii = 0; ii < L.in; ++ii)
              dprev[ii] += dl[o] * w[ii];
          }
          for (std::size_t ii = 0; ii < L.in; ++ii)
            dprev[ii] *= tanhGrad(in[ii]);
        }
      }
      // Adam step.
      ++step;
      const double bsz = static_cast<double>(end - start);
      const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
      const double bc1 = 1.0 - std::pow(b1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(b2, static_cast<double>(step));
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& L = layers_[l];
        Moments& m = mom[l];
        for (std::size_t k = 0; k < L.w.size(); ++k) {
          const double g = m.gw[k] / bsz + opts_.l2 * L.w[k];
          m.mw[k] = b1 * m.mw[k] + (1 - b1) * g;
          m.vw[k] = b2 * m.vw[k] + (1 - b2) * g * g;
          L.w[k] -= opts_.learning_rate * (m.mw[k] / bc1) /
                    (std::sqrt(m.vw[k] / bc2) + eps);
        }
        for (std::size_t k = 0; k < L.out; ++k) {
          const double g = m.gb[k] / bsz;
          m.mb[k] = b1 * m.mb[k] + (1 - b1) * g;
          m.vb[k] = b2 * m.vb[k] + (1 - b2) * g * g;
          L.b[k] -= opts_.learning_rate * (m.mb[k] / bc1) /
                    (std::sqrt(m.vb[k] / bc2) + eps);
        }
      }
    }

    if (val.size() > 0) {
      const double vl = valLoss();
      if (vl < best_val - 1e-9) {
        best_val = vl;
        best_layers = layers_;  // same shapes: reuses best_layers' storage
        since_best = 0;
      } else if (++since_best >= opts_.patience) {
        break;  // early stop
      }
    }
  }
  if (val.size() > 0) layers_ = best_layers;
}

double MlpRegressor::predict(const double* row) const {
  if (layers_.empty()) return y_mean_;
  // One buffer per thread: predict stays const and safe to call
  // concurrently (local scoring runs it on pool slices).
  thread_local std::vector<double> acts;
  acts.resize(acts_size_);
  return forward(row, acts.data()) * y_scale_ + y_mean_;
}

}  // namespace skewopt::ml
