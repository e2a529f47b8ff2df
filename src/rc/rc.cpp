#include "rc/rc.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "support/simd.h"

namespace skewopt::rc {

std::size_t RcTree::addNode(std::size_t parent, double res_kohm,
                            double cap_ff) {
  if (parent >= nodes_.size())
    throw std::out_of_range("RcTree::addNode: bad parent");
  nodes_.push_back({static_cast<int>(parent), res_kohm, cap_ff});
  return nodes_.size() - 1;
}

double RcTree::totalCap() const {
  double c = 0.0;
  for (const Node& n : nodes_) c += n.cap;
  return c;
}

// Moment computation by the standard two-pass path-tracing scheme.
// Because addNode only ever appends under an existing node, node indices are
// already in topological (parent-before-child) order.
Moments Moments::compute(const RcTree& tree) {
  const std::size_t n = tree.size();
  Moments m;
  m.m1.assign(n, 0.0);
  m.m2.assign(n, 0.0);

  // Pass 1: m1. Downstream cap below each node, then accumulate R * Cdown.
  std::vector<double> cdown(n);
  for (std::size_t i = 0; i < n; ++i) cdown[i] = tree.cap(i);
  for (std::size_t i = n; i-- > 1;) cdown[tree.parent(i)] += cdown[i];
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t p = static_cast<std::size_t>(tree.parent(i));
    m.m1[i] = m.m1[p] - tree.res(i) * cdown[i];
  }

  // Pass 2: m2 uses the "moment weights" m1 * C in place of C.
  std::vector<double> wdown(n);
  for (std::size_t i = 0; i < n; ++i) wdown[i] = m.m1[i] * tree.cap(i);
  for (std::size_t i = n; i-- > 1;) wdown[tree.parent(i)] += wdown[i];
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t p = static_cast<std::size_t>(tree.parent(i));
    m.m2[i] = m.m2[p] - tree.res(i) * wdown[i];
  }
  return m;
}

void RcTreeBatch::reset(std::size_t lanes) {
  if (lanes == 0) throw std::invalid_argument("RcTreeBatch: zero lanes");
  lanes_ = lanes;
  parent_.assign(1, -1);
  res_.assign(lanes_, 0.0);
  cap_.assign(lanes_, 0.0);
}

std::size_t RcTreeBatch::addNode(std::size_t parent, const double* res_kohm,
                                 const double* cap_ff) {
  if (parent >= parent_.size())
    throw std::out_of_range("RcTreeBatch::addNode: bad parent");
  parent_.push_back(static_cast<int>(parent));
  res_.insert(res_.end(), res_kohm, res_kohm + lanes_);
  cap_.insert(cap_.end(), cap_ff, cap_ff + lanes_);
  return parent_.size() - 1;
}

void RcTreeBatch::addCap(std::size_t node, const double* cap_ff) {
  double* c = cap_.data() + node * lanes_;
  for (std::size_t k = 0; k < lanes_; ++k) c[k] += cap_ff[k];
}

void RcTreeBatch::totalCapInto(double* out) const {
  for (std::size_t k = 0; k < lanes_; ++k) out[k] = 0.0;
  const std::size_t n = parent_.size();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < lanes_; ++k) out[k] += cap_[i * lanes_ + k];
}

// The batch passes mirror Moments::compute / elmoreDelaysInto exactly: same
// node traversal order, same expression per node, with the lane loop
// innermost over contiguous values. Per lane the arithmetic is an
// independent chain of the identical operations, so results match the
// scalar paths bit for bit.
//
// The kernels are templated on the lane count: with KC known at compile
// time the inner lane loops unroll into straight-line vector code (KC = 4
// corners is one AVX2 register of doubles) instead of a trip-counted loop
// per node. The runtime entry points dispatch to the specialization for
// 1-4 lanes and fall back to the generic version above that.

namespace {

using support::load4;
using support::store4;
using support::v4df;

// Bottom-up accumulation of per-lane weights, then top-down moments, for
// the hot 4-lane (= 4-corner) case: one vector op per node replaces the
// 4-iteration lane loop.
SKEWOPT_VEC_CLONES
void momentsPass4(const int* par, const double* res, double* down,
                  double* moments, std::size_t n) {
  for (std::size_t i = n; i-- > 1;) {
    double* p = down + static_cast<std::size_t>(par[i]) * 4;
    store4(p, load4(p) + load4(down + i * 4));
  }
  for (std::size_t i = 1; i < n; ++i) {
    const double* p = moments + static_cast<std::size_t>(par[i]) * 4;
    store4(moments + i * 4, load4(p) - load4(res + i * 4) * load4(down + i * 4));
  }
}

// Elementwise product of two arrays (the m2 pass's moment weights).
SKEWOPT_VEC_CLONES
void mulInto4(const double* a, const double* b, double* out, std::size_t nk) {
  std::size_t i = 0;
  for (; i + 4 <= nk; i += 4) store4(out + i, load4(a + i) * load4(b + i));
  for (; i < nk; ++i) out[i] = a[i] * b[i];
}

// Generic lane-count fallback.
void momentsPassN(const int* par, const double* res, double* down,
                  double* moments, std::size_t n, std::size_t K) {
  for (std::size_t i = n; i-- > 1;) {
    double* p = down + static_cast<std::size_t>(par[i]) * K;
    const double* c = down + i * K;
    for (std::size_t k = 0; k < K; ++k) p[k] += c[k];
  }
  for (std::size_t i = 1; i < n; ++i) {
    const double* p = moments + static_cast<std::size_t>(par[i]) * K;
    double* m = moments + i * K;
    const double* r = res + i * K;
    const double* c = down + i * K;
    for (std::size_t k = 0; k < K; ++k) m[k] = p[k] - r[k] * c[k];
  }
}

// Sizes a result array without the full memset of assign(): every entry of
// node >= 1 is overwritten by the top-down pass, so only the root's lanes
// need explicit zeroing.
inline void sizeAndZeroRoot(std::vector<double>& v, std::size_t nk,
                            std::size_t K) {
  v.resize(nk);
  for (std::size_t k = 0; k < K; ++k) v[k] = 0.0;
}

}  // namespace

void elmoreMomentsBatch(const RcTreeBatch& tree, MomentsBatch& out,
                        std::vector<double>& scratch) {
  const std::size_t n = tree.size();
  const std::size_t K = tree.lanes();
  const std::size_t nk = n * K;
  sizeAndZeroRoot(out.m1, nk, K);
  sizeAndZeroRoot(out.m2, nk, K);
  scratch.resize(2 * nk);
  double* cdown = scratch.data();
  double* wdown = scratch.data() + nk;
  const double* cap = tree.capData();
  const double* res = tree.resData();
  const int* par = tree.parentData();
  double* m1 = out.m1.data();
  std::memcpy(cdown, cap, nk * sizeof(double));
  if (K == 4) {
    // Pass 1: m1 from downstream cap; pass 2: m2 from the weights m1 * C.
    momentsPass4(par, res, cdown, m1, n);
    mulInto4(m1, cap, wdown, nk);
    momentsPass4(par, res, wdown, out.m2.data(), n);
    return;
  }
  momentsPassN(par, res, cdown, m1, n, K);
  for (std::size_t i = 0; i < nk; ++i) wdown[i] = m1[i] * cap[i];
  momentsPassN(par, res, wdown, out.m2.data(), n, K);
}

namespace {

SKEWOPT_VEC_CLONES
void delaysPass4(const int* par, const double* res, double* cdown,
                 double* delays, std::size_t n) {
  for (std::size_t i = n; i-- > 1;) {
    double* p = cdown + static_cast<std::size_t>(par[i]) * 4;
    store4(p, load4(p) + load4(cdown + i * 4));
  }
  for (std::size_t i = 1; i < n; ++i) {
    const double* p = delays + static_cast<std::size_t>(par[i]) * 4;
    store4(delays + i * 4, load4(p) + load4(res + i * 4) * load4(cdown + i * 4));
  }
}

}  // namespace

void elmoreDelaysBatch(const RcTreeBatch& tree, std::vector<double>& delays,
                       std::vector<double>& cdown) {
  const std::size_t n = tree.size();
  const std::size_t K = tree.lanes();
  const std::size_t nk = n * K;
  sizeAndZeroRoot(delays, nk, K);
  cdown.resize(nk);
  const double* cap = tree.capData();
  const double* res = tree.resData();
  const int* par = tree.parentData();
  std::memcpy(cdown.data(), cap, nk * sizeof(double));
  if (K == 4) {
    delaysPass4(par, res, cdown.data(), delays.data(), n);
    return;
  }
  for (std::size_t i = n; i-- > 1;) {
    double* p = cdown.data() + static_cast<std::size_t>(par[i]) * K;
    const double* c = cdown.data() + i * K;
    for (std::size_t k = 0; k < K; ++k) p[k] += c[k];
  }
  for (std::size_t i = 1; i < n; ++i) {
    const double* p = delays.data() + static_cast<std::size_t>(par[i]) * K;
    double* d = delays.data() + i * K;
    const double* r = res + i * K;
    const double* c = cdown.data() + i * K;
    for (std::size_t k = 0; k < K; ++k) d[k] = p[k] + r[k] * c[k];
  }
}

std::vector<double> elmoreDelays(const RcTree& tree) {
  Moments m = Moments::compute(tree);
  std::vector<double> d(m.m1.size());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = -m.m1[i];
  return d;
}

void elmoreDelaysInto(const RcTree& tree, std::vector<double>& delays,
                      std::vector<double>& cdown) {
  const std::size_t n = tree.size();
  delays.assign(n, 0.0);
  cdown.resize(n);
  for (std::size_t i = 0; i < n; ++i) cdown[i] = tree.cap(i);
  for (std::size_t i = n; i-- > 1;) cdown[tree.parent(i)] += cdown[i];
  for (std::size_t i = 1; i < n; ++i)
    delays[i] = delays[static_cast<std::size_t>(tree.parent(i))] +
                tree.res(i) * cdown[i];
}

double d2mFromMoments(double m1, double m2) {
  if (m2 <= 0.0) return -m1;  // degenerate: fall back to Elmore
  // D2M = (m1^2 / sqrt(m2)) * ln(2)
  return (m1 * m1 / std::sqrt(m2)) * 0.6931471805599453;
}

double periSlew(double slew_in_ps, double step_slew_ps) {
  return std::sqrt(slew_in_ps * slew_in_ps + step_slew_ps * step_slew_ps);
}

double uniformWireElmore(double len_um, double res_per_um, double cap_per_um,
                         double load_ff) {
  const double r = res_per_um * len_um;
  const double c = cap_per_um * len_um;
  return r * (c / 2.0 + load_ff);
}

}  // namespace skewopt::rc
