// Machine-learning substrate for the delta-latency predictor.
//
// The paper trains, per corner, three model families in MATLAB: an
// Artificial Neural Network, an SVM regressor with an RBF kernel, and
// Hybrid Surrogate Modeling (HSM) [Kahng/Lin/Nath, DATE 2013] which blends
// metamodels weighted by their validation accuracy. This module provides
// from-scratch equivalents:
//
//  * MlpRegressor     — feed-forward tanh network trained with Adam and
//                       early stopping on a validation split.
//  * SvrRbf           — epsilon-SVR, RBF kernel, solved in the (bias-free,
//                       target-centered) dual by exact coordinate descent
//                       with soft-thresholding.
//  * HybridSurrogate  — HSM-style inverse-error-weighted blend of the two.
//
// Inputs must be standardized with StandardScaler before training; the
// regressors are deterministic for a fixed seed.
//
// fit() and predict() run on 4-lane kernels (support/simd.h): an MLP lane
// is one sample, an SVR lane one retained training row. Lanes are
// elementwise IEEE with no FMA, every sum keeps its scalar order, and
// std::tanh/std::exp/std::sqrt stay scalar, so the model bits are those of
// a scalar loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/geom.h"

namespace skewopt::ml {

/// Dense row-major matrix, sized once.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  const double* row(std::size_t r) const { return &data_[r * cols_]; }
  double* row(std::size_t r) { return &data_[r * cols_]; }
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

struct Dataset {
  Matrix x;
  std::vector<double> y;
  std::size_t size() const { return x.rows(); }
};

/// Per-feature standardization (zero mean, unit variance).
class StandardScaler {
 public:
  void fit(const Matrix& x);
  Matrix transform(const Matrix& x) const;
  /// Scales one row into `out` (mean().size() slots).
  void transformRow(const double* row, double* out) const;
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& scale() const { return scale_; }

 private:
  std::vector<double> mean_, scale_;
};

class Regressor;

/// One leaf regressor fit, model->fit(*data): the unit of parallel
/// training. Fits share no mutable state, so a plan's tasks may run in any
/// order, on any threads, with the same bits as running them in order.
struct FitTask {
  Regressor* model = nullptr;
  const Dataset* data = nullptr;
  bool validation = false;  ///< fits an HSM validation split, not the full set
};

/// Common regressor interface (inputs are pre-scaled feature rows).
/// predict() and predictBatch() are const and thread-safe.
class Regressor {
 public:
  virtual ~Regressor() = default;
  virtual void fit(const Dataset& train) = 0;
  /// out[i] = the prediction for rows[i], i in [0, n). A row's bits never
  /// depend on the batch it is in; the MLP, SVR and HSM run four rows per
  /// kernel call.
  virtual void predictBatch(const double* const* rows, std::size_t n,
                            double* out) const = 0;
  /// One row: predictBatch(&row, 1, ...).
  double predict(const double* row) const;
  std::vector<double> predictAll(const Matrix& x) const;

  /// fit(train) as separable steps: run every returned task, then call
  /// finishFit() on the planning thread. `train` must outlive the tasks. A
  /// leaf regressor's plan is one task, itself on `train`.
  virtual std::vector<FitTask> planFit(const Dataset& train) {
    return {{this, &train, false}};
  }
  virtual void finishFit() {}
};

// ---------------------------------------------------------------------------

struct MlpOptions {
  std::vector<std::size_t> hidden = {32, 16};
  std::size_t epochs = 400;
  std::size_t batch = 32;
  double learning_rate = 2e-3;
  double l2 = 1e-5;
  double val_fraction = 0.15;
  std::size_t patience = 40;  ///< early-stopping patience (epochs)
  std::uint64_t seed = 7;
};

/// fit() allocates its buffers once and predict() reuses one per-thread
/// activation buffer, so neither allocates per sample.
class MlpRegressor : public Regressor {
 public:
  explicit MlpRegressor(MlpOptions opts = {}) : opts_(std::move(opts)) {}
  void fit(const Dataset& train) override;
  /// One forward() per four rows.
  void predictBatch(const double* const* rows, std::size_t n,
                    double* out) const override;
  /// Epochs the last fit() ran, the one that stopped it early included.
  std::size_t iterations() const { return iterations_; }

 private:
  struct Layer {
    std::size_t in = 0, out = 0;
    std::size_t at = 0;        // first unit of the layer's input activations
    std::vector<double> w, b;  // weights out x in, biases out
  };
  /// Runs the network on rows[0..lanes), lanes <= 4, one per lane of the
  /// lane-major buffer `acts` (4 x acts_size_ slots, unit u of lane s at
  /// [u * 4 + s]): the input row, then each layer's outputs, so a layer
  /// reads units [at, at + in) and writes [at + in, at + in + out). The
  /// last unit is the (linear) output.
  void forward(const double* const* rows, std::size_t lanes,
               double* acts) const;

  MlpOptions opts_;
  std::vector<Layer> layers_;
  std::size_t acts_size_ = 0;  // units per lane
  double y_mean_ = 0.0, y_scale_ = 1.0;
  std::size_t iterations_ = 0;
};

// ---------------------------------------------------------------------------

struct SvrOptions {
  double c = 10.0;
  double epsilon = 0.05;     ///< in units of the centered/scaled target
  double gamma = 0.0;        ///< RBF width; 0 = auto (1 / num features)
  std::size_t max_sweeps = 200;
  double tolerance = 1e-4;
  std::size_t max_samples = 2500;  ///< subsample cap (kernel matrix is n^2)
  std::uint64_t seed = 11;
};

class SvrRbf : public Regressor {
 public:
  explicit SvrRbf(SvrOptions opts = {}) : opts_(std::move(opts)) {}
  void fit(const Dataset& train) override;
  /// Per row the distance kernel of predict(); four rows' sums of
  /// beta_i * exp(-gamma * d_i) are interleaved, each in row order.
  void predictBatch(const double* const* rows, std::size_t n,
                    double* out) const override;
  std::size_t numSupportVectors() const { return beta_.size(); }
  /// Coordinate-descent sweeps the last fit() ran, the converged one
  /// included.
  std::size_t iterations() const { return iterations_; }

 private:
  SvrOptions opts_;
  Matrix sv_;  // retained rows, column-major: at(j, i) is row i's feature j
  std::vector<double> beta_;  // dual coefficients, one per retained row
  double gamma_ = 1.0;
  double y_mean_ = 0.0, y_scale_ = 1.0;
  std::size_t iterations_ = 0;
};

// ---------------------------------------------------------------------------

struct HsmOptions {
  MlpOptions mlp;
  SvrOptions svr;
  double val_fraction = 0.2;
  std::uint64_t seed = 13;
};

/// HSM: trains both families, weights them by inverse validation RMSE.
/// The fit is four independent leaf fits — an MLP and an SVR on a
/// validation split (which only set the weights), and both again on the
/// full set — then the weighting; fit() runs planFit's tasks in order.
class HybridSurrogate : public Regressor {
 public:
  explicit HybridSurrogate(HsmOptions opts = {}) : opts_(std::move(opts)) {}
  void fit(const Dataset& train) override;
  /// Both members' batches, blended per row by the validation weights.
  void predictBatch(const double* const* rows, std::size_t n,
                    double* out) const override;
  double mlpWeight() const { return w_mlp_; }

  std::vector<FitTask> planFit(const Dataset& train) override;
  void finishFit() override;

 private:
  HsmOptions opts_;
  std::unique_ptr<MlpRegressor> mlp_;
  std::unique_ptr<SvrRbf> svr_;
  double w_mlp_ = 0.5;
  // Between planFit and finishFit: the validation split and its models.
  Dataset tr_, val_;
  std::unique_ptr<MlpRegressor> val_mlp_;
  std::unique_ptr<SvrRbf> val_svr_;
};

// ---------------------------------------------------------------------------

/// Trivial baseline used in tests: predicts the training mean.
class MeanRegressor : public Regressor {
 public:
  void fit(const Dataset& train) override;
  void predictBatch(const double* const* rows, std::size_t n,
                    double* out) const override;

 private:
  double mean_ = 0.0;
};

// ---- metrics & utilities --------------------------------------------------

double rmse(const std::vector<double>& pred, const std::vector<double>& truth);
double meanAbsError(const std::vector<double>& pred,
                    const std::vector<double>& truth);

/// Deterministic train/validation split.
void splitDataset(const Dataset& all, double val_fraction, std::uint64_t seed,
                  Dataset* train, Dataset* val);

}  // namespace skewopt::ml
