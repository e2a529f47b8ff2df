#include "eco/stage_lut.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rc/rc.h"

namespace skewopt::eco {

double RatioBound::eval(double u) const {
  const double x = std::clamp(u, u_lo, u_hi);
  return (a * x + b) * x + c;
}

StageDelayLut::StageDelayLut(const tech::TechModel& tech, LutKnobs knobs)
    : tech_(&tech), knobs_(knobs) {
  for (double q = knobs_.wl_min_um; q <= knobs_.wl_max_um + 1e-9;
       q += knobs_.wl_step_um)
    wls_.push_back(q);
  characterize();
  fitBounds();
}

double StageDelayLut::pairDelayOnce(std::size_t p, double q_um,
                                    std::size_t corner, double slew_in,
                                    double next_pin_load_ff,
                                    double* out_slew) const {
  const tech::Cell& cell = tech_->cell(p);
  const tech::WireParams& w = tech_->wire(corner);
  const double wr = q_um * w.res_kohm_per_um;
  const double wc = q_um * w.cap_ff_per_um;
  const double pin = cell.pin_cap_ff[corner];

  // First inverter drives wire(q) + second inverter's pin.
  const double load1 = wc + pin;
  const double d1 = cell.delay[corner].lookup(slew_in, load1);
  const double s1 = cell.out_slew[corner].lookup(slew_in, load1);
  const double wire1 = wr * (wc / 2.0 + pin);
  const double s1w = rc::periSlew(s1, rc::wireSlewFromElmore(wire1));

  // Second inverter drives wire(q) + the trailing load.
  const double load2 = wc + next_pin_load_ff;
  const double d2 = cell.delay[corner].lookup(s1w, load2);
  const double s2 = cell.out_slew[corner].lookup(s1w, load2);
  const double wire2 = wr * (wc / 2.0 + next_pin_load_ff);
  if (out_slew != nullptr)
    *out_slew = rc::periSlew(s2, rc::wireSlewFromElmore(wire2));
  return d1 + wire1 + d2 + wire2;
}

void StageDelayLut::characterize() {
  const std::size_t np = tech_->numCells();
  const std::size_t nq = wls_.size();
  const std::size_t nk = tech_->numCorners();
  uni_delay_.assign(np, std::vector<std::vector<double>>(
                            nq, std::vector<double>(nk, 0.0)));
  uni_slew_ = uni_delay_;
  for (std::size_t p = 0; p < np; ++p) {
    const double pin = 0.0;  // next pair's pin cap handled inside pairDelay
    (void)pin;
    for (std::size_t qi = 0; qi < nq; ++qi) {
      for (std::size_t k = 0; k < nk; ++k) {
        // Fixpoint of the repeating chain's slew.
        double slew = 30.0;
        double delay = 0.0;
        const double next_pin = tech_->cell(p).pin_cap_ff[k];
        for (int it = 0; it < 12; ++it) {
          double out = 0.0;
          delay = pairDelayOnce(p, wls_[qi], k, slew, next_pin, &out);
          if (std::abs(out - slew) < 0.05) {
            slew = out;
            break;
          }
          slew = out;
        }
        uni_slew_[p][qi][k] = slew;
        uni_delay_[p][qi][k] = delay;
      }
    }
  }
}

double StageDelayLut::uniformDelay(std::size_t p, std::size_t q_idx,
                                   std::size_t corner) const {
  return uni_delay_[p][q_idx][corner];
}

double StageDelayLut::uniformSlew(std::size_t p, std::size_t q_idx,
                                  std::size_t corner) const {
  return uni_slew_[p][q_idx][corner];
}

double StageDelayLut::detailDelay(std::size_t p, double q_um,
                                  std::size_t corner, double slew_in,
                                  double last_load_ff) const {
  return pairDelayOnce(p, q_um, corner, slew_in, last_load_ff, nullptr);
}

double StageDelayLut::detailOutSlew(std::size_t p, double q_um,
                                    std::size_t corner, double slew_in,
                                    double last_load_ff) const {
  double out = 0.0;
  pairDelayOnce(p, q_um, corner, slew_in, last_load_ff, &out);
  return out;
}

double StageDelayLut::arcDelay(std::size_t p, std::size_t q_idx,
                               std::size_t u, std::size_t corner,
                               double slew_in, double last_load_ff) const {
  if (u == 0) throw std::invalid_argument("arcDelay: u must be >= 1");
  const double q = wls_[q_idx];
  if (u == 1) return detailDelay(p, q, corner, slew_in, last_load_ff);
  const double pin = tech_->cell(p).pin_cap_ff[corner];
  double out = 0.0;
  const double first = pairDelayOnce(p, q, corner, slew_in, pin, &out);
  const double middle =
      static_cast<double>(u - 2) * uni_delay_[p][q_idx][corner];
  const double last =
      detailDelay(p, q, corner, uni_slew_[p][q_idx][corner], last_load_ff);
  return first + middle + last;
}

double StageDelayLut::minAchievableDelay(double arc_len_um,
                                         std::size_t corner) const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < numSizes(); ++p) {
    for (std::size_t qi = 0; qi < wls_.size(); ++qi) {
      if (!comboLegal(p, qi)) continue;
      const double q = wls_[qi];
      const double raw = (arc_len_um / q - 1.0) / 2.0;
      const std::size_t u =
          std::max<std::size_t>(1, static_cast<std::size_t>(
                                       std::ceil(std::max(raw, 0.0))));
      best = std::min(best,
                      static_cast<double>(u) * uni_delay_[p][qi][corner]);
    }
  }
  return best;
}

bool StageDelayLut::comboLegal(std::size_t p, std::size_t q_idx) const {
  const tech::Cell& cell = tech_->cell(p);
  for (std::size_t k = 0; k < tech_->numCorners(); ++k) {
    const double load =
        wls_[q_idx] * tech_->wire(k).cap_ff_per_um + cell.pin_cap_ff[k];
    if (load > 0.9 * cell.max_cap_ff) return false;
  }
  return true;
}

std::vector<RatioSample> StageDelayLut::ratioScatter(std::size_t k,
                                                     std::size_t k2) const {
  std::vector<RatioSample> out;
  for (std::size_t p = 0; p < numSizes(); ++p) {
    for (std::size_t qi = 0; qi < wls_.size(); ++qi) {
      const double q = wls_[qi];
      for (const double s : knobs_.sample_slews) {
        for (const double l : knobs_.sample_loads) {
          const double dk = pairDelayOnce(p, q, k, s, l, nullptr);
          const double dk2 = pairDelayOnce(p, q, k2, s, l, nullptr);
          const double d0 = pairDelayOnce(p, q, 0, s, l, nullptr);
          RatioSample smp;
          smp.delay_per_um_c0 = d0 / (2.0 * q);
          smp.ratio = dk / dk2;
          smp.size = p;
          smp.wl = q;
          out.push_back(smp);
        }
      }
    }
  }
  return out;
}

namespace {
// Least-squares quadratic through (x, y) points; returns {a, b, c}.
void fitQuadratic(const std::vector<double>& x, const std::vector<double>& y,
                  double* a, double* b, double* c) {
  const std::size_t n = x.size();
  if (n < 3) {  // degenerate: constant fit
    double m = 0.0;
    for (const double v : y) m += v;
    *a = *b = 0.0;
    *c = y.empty() ? 1.0 : m / static_cast<double>(n);
    return;
  }
  double s0 = static_cast<double>(n), s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  double t0 = 0, t1 = 0, t2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    const double x2 = xi * xi;
    s1 += xi;
    s2 += x2;
    s3 += x2 * xi;
    s4 += x2 * x2;
    t0 += yi;
    t1 += xi * yi;
    t2 += x2 * yi;
  }
  // Solve [[s4 s3 s2][s3 s2 s1][s2 s1 s0]] [a b c]' = [t2 t1 t0]'.
  double m[3][4] = {{s4, s3, s2, t2}, {s3, s2, s1, t1}, {s2, s1, s0, t0}};
  for (int col = 0; col < 3; ++col) {
    int piv = col;
    for (int r = col + 1; r < 3; ++r)
      if (std::abs(m[r][col]) > std::abs(m[piv][col])) piv = r;
    for (int j = 0; j < 4; ++j) std::swap(m[piv][j], m[col][j]);
    if (std::abs(m[col][col]) < 1e-12) {
      *a = *b = 0.0;
      *c = t0 / s0;
      return;
    }
    for (int r = 0; r < 3; ++r) {
      if (r == col) continue;
      const double f = m[r][col] / m[col][col];
      for (int j = col; j < 4; ++j) m[r][j] -= f * m[col][j];
    }
  }
  *a = m[0][3] / m[0][0];
  *b = m[1][3] / m[1][1];
  *c = m[2][3] / m[2][2];
}
}  // namespace

void StageDelayLut::fitBounds() {
  const std::size_t nk = tech_->numCorners();
  bounds_.assign(nk, std::vector<std::vector<RatioBound>>(
                         nk, std::vector<RatioBound>(2)));
  for (std::size_t k = 0; k < nk; ++k) {
    for (std::size_t k2 = 0; k2 < nk; ++k2) {
      if (k == k2) {
        for (int ub = 0; ub < 2; ++ub) {
          bounds_[k][k2][static_cast<std::size_t>(ub)] =
              RatioBound{0.0, 0.0, 1.0, 0.0, 1.0};
        }
        continue;
      }
      const std::vector<RatioSample> samples = ratioScatter(k, k2);
      double u_lo = std::numeric_limits<double>::infinity(), u_hi = -u_lo;
      for (const RatioSample& s : samples) {
        u_lo = std::min(u_lo, s.delay_per_um_c0);
        u_hi = std::max(u_hi, s.delay_per_um_c0);
      }
      // Bin by delay-per-unit-distance; envelope through bin extrema.
      const std::size_t nb = knobs_.ratio_bins;
      std::vector<double> bin_max(nb, -std::numeric_limits<double>::infinity());
      std::vector<double> bin_min(nb, std::numeric_limits<double>::infinity());
      for (const RatioSample& s : samples) {
        std::size_t bi = static_cast<std::size_t>(
            (s.delay_per_um_c0 - u_lo) / (u_hi - u_lo + 1e-12) *
            static_cast<double>(nb));
        bi = std::min(bi, nb - 1);
        bin_max[bi] = std::max(bin_max[bi], s.ratio);
        bin_min[bi] = std::min(bin_min[bi], s.ratio);
      }
      std::vector<double> xs, ys_max, ys_min;
      for (std::size_t bi = 0; bi < nb; ++bi) {
        if (bin_max[bi] < bin_min[bi]) continue;  // empty bin
        xs.push_back(u_lo + (static_cast<double>(bi) + 0.5) *
                                (u_hi - u_lo) / static_cast<double>(nb));
        ys_max.push_back(bin_max[bi]);
        ys_min.push_back(bin_min[bi]);
      }
      for (int upper = 0; upper < 2; ++upper) {
        RatioBound rb;
        fitQuadratic(xs, upper ? ys_max : ys_min, &rb.a, &rb.b, &rb.c);
        rb.u_lo = u_lo;
        rb.u_hi = u_hi;
        // Margin, then a final pass guaranteeing the fit truly envelopes
        // every sample.
        const double scale =
            upper ? 1.0 + knobs_.ratio_margin : 1.0 - knobs_.ratio_margin;
        rb.a *= scale;
        rb.b *= scale;
        rb.c *= scale;
        double worst = 0.0;
        for (const RatioSample& s : samples) {
          const double v = rb.eval(s.delay_per_um_c0);
          if (upper)
            worst = std::max(worst, s.ratio - v);
          else
            worst = std::max(worst, v - s.ratio);
        }
        rb.c += upper ? worst : -worst;
        bounds_[k][k2][static_cast<std::size_t>(upper)] = rb;
      }
    }
  }
}

const RatioBound& StageDelayLut::ratioBound(std::size_t k, std::size_t k2,
                                            bool upper) const {
  return bounds_[k][k2][upper ? 1 : 0];
}

}  // namespace skewopt::eco
