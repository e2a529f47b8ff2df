// Feed-forward tanh MLP trained with Adam and early stopping.
//
// Every pass over the network runs four samples at once, one per lane of
// the support/simd.h kernels below (the training batches, the validation
// loss, and predictBatch(), whose one-row call is predict()). Activations
// and deltas are lane-major: unit u of lane s sits at [u * 4 + s]. Each
// lane repeats the scalar network's operations on its sample in the scalar
// order, and each weight's batch gradient adds its samples' terms in batch
// order, so the model bits are those of a one-sample-at-a-time loop
// (DESIGN.md, "4-lane ML kernels"). A fit allocates its buffers only at
// set-up.
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
constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

// out[o] = b[o] + w[o][0] * in[0] + ... + w[o][nin-1] * in[nin-1], per lane.
SKEWOPT_VEC_CLONES
void layerForward(const double* w, const double* b, const double* in,
                  double* out, std::size_t nin, std::size_t nout) {
  for (std::size_t o = 0; o < nout; ++o) {
    const double* wo = w + o * nin;
    v4df v = {b[o], b[o], b[o], b[o]};
    for (std::size_t i = 0; i < nin; ++i) v += wo[i] * load4(in + i * kLanes);
    store4(out + o * kLanes, v);
  }
}

// din[i] = (delta[0] * w[0][i] + ... + delta[nout-1] * w[nout-1][i]) *
// (1 - a[i]^2), per lane: the delta below a tanh unit of activation a[i].
SKEWOPT_VEC_CLONES
void layerBackward(const double* w, const double* delta, const double* a,
                   double* din, std::size_t nin, std::size_t nout) {
  for (std::size_t i = 0; i < nin; ++i) {
    v4df v = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t o = 0; o < nout; ++o)
      v += load4(delta + o * kLanes) * w[o * nin + i];
    const v4df ai = load4(a + i * kLanes);
    store4(din + i * kLanes, v * (1.0 - ai * ai));
  }
}

// Adds the gradient terms of lanes 0..lanes-1, in lane order, to gw
// (out x in) and gb: gw[o][i] += delta_s[o] * x_s[i]. `delta` is
// lane-major; lane s's inputs are x[s * stride, s * stride + nin).
SKEWOPT_VEC_CLONES
void accumulateGrad(double* gw, double* gb, const double* delta,
                    const double* x, std::size_t stride, std::size_t lanes,
                    std::size_t nin, std::size_t nout) {
  for (std::size_t s = 0; s < lanes; ++s) {
    const double* xs = x + s * stride;
    for (std::size_t o = 0; o < nout; ++o) {
      const double d = delta[o * kLanes + s];
      gb[o] += d;
      double* g = gw + o * nin;
      std::size_t i = 0;
      for (; i + kLanes <= nin; i += kLanes)
        store4(g + i, load4(g + i) + d * load4(xs + i));
      for (; i < nin; ++i) g[i] += d * xs[i];
    }
  }
}

// One Adam step of n parameters p from their batch-summed gradients gsum,
// with L2 weight decay when `decay`.
SKEWOPT_VEC_CLONES
void adamUpdate(double* p, const double* gsum, double* m, double* v,
                std::size_t n, double bsz, bool decay, double l2, double lr,
                double bc1, double bc2) {
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    v4df g = load4(gsum + k) / bsz;
    if (decay) g += l2 * load4(p + k);
    const v4df mk = kBeta1 * load4(m + k) + (1 - kBeta1) * g;
    const v4df vk = kBeta2 * load4(v + k) + (1 - kBeta2) * g * g;
    v4df r = vk / bc2;
    for (std::size_t s = 0; s < kLanes; ++s) r[s] = std::sqrt(r[s]);
    store4(m + k, mk);
    store4(v + k, vk);
    store4(p + k, load4(p + k) - lr * (mk / bc1) / (r + kEps));
  }
  for (; k < n; ++k) {
    double g = gsum[k] / bsz;
    if (decay) g += l2 * p[k];
    m[k] = kBeta1 * m[k] + (1 - kBeta1) * g;
    v[k] = kBeta2 * v[k] + (1 - kBeta2) * g * g;
    p[k] -= lr * (m[k] / bc1) / (std::sqrt(v[k] / bc2) + kEps);
  }
}

}  // namespace

void MlpRegressor::forward(const double* const* rows, std::size_t lanes,
                           double* acts) const {
  // Idle lanes get zero inputs, so they compute finite values nobody reads.
  for (std::size_t i = 0; i < layers_.front().in; ++i)
    for (std::size_t s = 0; s < kLanes; ++s)
      acts[i * kLanes + s] = s < lanes ? rows[s][i] : 0.0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& L = layers_[l];
    double* out = acts + (L.at + L.in) * kLanes;
    layerForward(L.w.data(), L.b.data(), acts + L.at * kLanes, out, L.in,
                 L.out);
    if (l + 1 == layers_.size()) break;  // the last layer is linear
    for (std::size_t o = 0; o < L.out; ++o)
      for (std::size_t s = 0; s < lanes; ++s)
        out[o * kLanes + s] = std::tanh(out[o * kLanes + s]);
  }
}

void MlpRegressor::fit(const Dataset& all) {
  if (all.size() == 0) throw std::invalid_argument("MlpRegressor: empty data");
  const std::size_t d = all.x.cols();
  iterations_ = 0;

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
  // Lane-major activations and deltas (delta of unit u: d(loss)/d(its
  // pre-activation)), and the activations again sample-major for the
  // gradient kernel: acts_t[s * acts_size_ + u].
  const std::size_t slots = acts_size_ * kLanes;
  std::vector<double> acts(slots), delta(slots), acts_t(slots);
  const std::size_t out_at = (acts_size_ - 1) * kLanes;

  const std::size_t n = train.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const double* rows[kLanes];

  auto valLoss = [&]() {
    if (val.size() == 0) return 0.0;
    double s = 0.0;
    for (std::size_t i = 0; i < val.size(); i += kLanes) {
      const std::size_t lanes = std::min(kLanes, val.size() - i);
      for (std::size_t k = 0; k < lanes; ++k) rows[k] = val.x.row(i + k);
      forward(rows, lanes, acts.data());
      for (std::size_t k = 0; k < lanes; ++k) {
        const double p = acts[out_at + k];
        const double t = (val.y[i + k] - y_mean_) / y_scale_;
        s += (p - t) * (p - t);
      }
    }
    return s / static_cast<double>(val.size());
  };

  std::vector<Layer> best_layers = layers_;
  double best_val = valLoss();
  std::size_t since_best = 0;
  std::size_t step = 0;

  for (std::size_t epoch = 0; epoch < opts_.epochs; ++epoch) {
    ++iterations_;
    // Deterministic shuffle per epoch.
    for (std::size_t i = n; i-- > 1;) std::swap(order[i], order[rng.index(i + 1)]);

    for (std::size_t start = 0; start < n; start += opts_.batch) {
      const std::size_t end = std::min(n, start + opts_.batch);
      // Accumulate gradients over the batch, four samples at a time.
      for (Moments& m : mom) {
        std::fill(m.gw.begin(), m.gw.end(), 0.0);
        std::fill(m.gb.begin(), m.gb.end(), 0.0);
      }
      for (std::size_t g = start; g < end; g += kLanes) {
        const std::size_t lanes = std::min(kLanes, end - g);
        for (std::size_t s = 0; s < lanes; ++s)
          rows[s] = train.x.row(order[g + s]);
        forward(rows, lanes, acts.data());
        for (std::size_t s = 0; s < lanes; ++s) {
          const double target = (train.y[order[g + s]] - y_mean_) / y_scale_;
          delta[out_at + s] = acts[out_at + s] - target;
          for (std::size_t u = 0; u < acts_size_; ++u)
            acts_t[s * acts_size_ + u] = acts[u * kLanes + s];
        }
        // Backprop.
        for (std::size_t l = layers_.size(); l-- > 0;) {
          const Layer& L = layers_[l];
          const double* dl = delta.data() + (L.at + L.in) * kLanes;
          accumulateGrad(mom[l].gw.data(), mom[l].gb.data(), dl,
                         acts_t.data() + L.at, acts_size_, lanes, L.in, L.out);
          if (l == 0) break;
          layerBackward(L.w.data(), dl, acts.data() + L.at * kLanes,
                        delta.data() + L.at * kLanes, L.in, L.out);
        }
      }
      // Adam step.
      ++step;
      const double bsz = static_cast<double>(end - start);
      const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(step));
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& L = layers_[l];
        Moments& m = mom[l];
        adamUpdate(L.w.data(), m.gw.data(), m.mw.data(), m.vw.data(),
                   L.w.size(), bsz, true, opts_.l2, opts_.learning_rate, bc1,
                   bc2);
        adamUpdate(L.b.data(), m.gb.data(), m.mb.data(), m.vb.data(), L.out,
                   bsz, false, 0.0, opts_.learning_rate, bc1, bc2);
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

void MlpRegressor::predictBatch(const double* const* rows, std::size_t n,
                                double* out) const {
  if (layers_.empty()) {
    std::fill_n(out, n, y_mean_);
    return;
  }
  // One buffer per thread: predict stays const and safe to call
  // concurrently (local scoring runs it on pool slices).
  thread_local std::vector<double> acts;
  acts.resize(acts_size_ * kLanes);
  const std::size_t out_at = (acts_size_ - 1) * kLanes;
  for (std::size_t i = 0; i < n; i += kLanes) {
    const std::size_t lanes = std::min(kLanes, n - i);
    forward(rows + i, lanes, acts.data());
    for (std::size_t s = 0; s < lanes; ++s)
      out[i + s] = acts[out_at + s] * y_scale_ + y_mean_;
  }
}

}  // namespace skewopt::ml
