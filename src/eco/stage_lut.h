// Stage-delay lookup tables for inverter pairs (paper Sec. 4.1, Figs. 2-3).
//
// A clock "buffer" is an inverter pair. A *stage* is one pair plus its two
// fanout wire segments of length q: INV -> wire(q) -> INV -> wire(q). The
// paper characterizes, once per technology:
//
//   * LUTuniform — steady-state stage delay per (gate size p, inter-inverter
//     wirelength q, corner): the input slew is the pair chain's settled
//     (fixpoint) slew, and the trailing wire drives the next pair's input.
//     Applied to the middle pairs of an arc.
//   * LUTdetail  — stage delay of a boundary pair given an explicit input
//     slew and trailing load. Applied to the first and last pair of an arc.
//     (Evaluated on demand from the characterized NLDM library; the grid
//     sampling below exists for the ratio-bound fit.)
//
// From the same sweep the module derives the paper's Figure 2 envelope: for
// each corner pair, quadratic upper/lower bounds W_max/W_min on the
// achievable stage-delay ratio as a function of delay-per-unit-distance at
// the nominal corner. The global LP uses these in its Constraint (11).
#pragma once

#include <cstddef>
#include <vector>

#include "tech/tech.h"

namespace skewopt::eco {

struct LutKnobs {
  double wl_min_um = 10.0;
  double wl_max_um = 200.0;
  double wl_step_um = 5.0;
  std::vector<double> sample_slews = {10.0, 20.0, 40.0, 80.0, 160.0};
  std::vector<double> sample_loads = {2.0, 4.0, 8.0, 16.0, 32.0};
  double ratio_margin = 0.03;  ///< slack added outside the fitted envelope
  std::size_t ratio_bins = 14;
};

/// Quadratic bound a*u^2 + b*u + c over u in [u_lo, u_hi] (clamped outside).
struct RatioBound {
  double a = 0.0, b = 0.0, c = 1.0;
  double u_lo = 0.0, u_hi = 1.0;
  double eval(double u) const;
};

/// One scatter sample of the Figure 2 plot.
struct RatioSample {
  double delay_per_um_c0 = 0.0;
  double ratio = 1.0;
  std::size_t size = 0;
  double wl = 0.0;
};

class StageDelayLut {
 public:
  explicit StageDelayLut(const tech::TechModel& tech, LutKnobs knobs = {});

  const tech::TechModel& tech() const { return *tech_; }
  std::size_t numSizes() const { return tech_->numCells(); }
  const std::vector<double>& wirelengths() const { return wls_; }

  /// LUTuniform: settled per-pair stage delay (ps).
  double uniformDelay(std::size_t p, std::size_t q_idx,
                      std::size_t corner) const;
  /// Settled input slew of the repeating chain (ps).
  double uniformSlew(std::size_t p, std::size_t q_idx,
                     std::size_t corner) const;

  /// LUTdetail: boundary-pair stage delay with explicit input slew and
  /// trailing load (the receiver pin plus its wire), evaluated from the
  /// characterized library.
  double detailDelay(std::size_t p, double q_um, std::size_t corner,
                     double slew_in, double last_load_ff) const;
  /// Output slew of a boundary pair (for chaining detail evaluations).
  double detailOutSlew(std::size_t p, double q_um, std::size_t corner,
                       double slew_in, double last_load_ff) const;

  /// Estimated delay of an arc built as u pairs of size p spaced q, seen
  /// from input slew `slew_in` into final load `last_load_ff`
  /// (first/last pair from LUTdetail, middle pairs from LUTuniform).
  double arcDelay(std::size_t p, std::size_t q_idx, std::size_t u,
                  std::size_t corner, double slew_in,
                  double last_load_ff) const;

  /// Minimum achievable delay for an arc of the given Manhattan length
  /// (optimal buffer insertion, no routing detour) — the LP's lower bound
  /// D_min of its Constraint (10).
  double minAchievableDelay(double arc_len_um, std::size_t corner) const;

  /// Figure 2 envelope for corner pair (k, k'): bounds on
  /// stage_delay(k)/stage_delay(k') vs delay-per-unit-distance at c0.
  const RatioBound& ratioBound(std::size_t k, std::size_t k2,
                               bool upper) const;

  /// Raw scatter samples for corner pair (k, k') — used by the Figure 2
  /// bench and by tests that check the envelope actually envelopes.
  std::vector<RatioSample> ratioScatter(std::size_t k, std::size_t k2) const;

  /// True iff a (size, spacing) combo keeps every inverter in the chain
  /// within its max-cap limit at every corner (worst case: Cmax BEOL).
  bool comboLegal(std::size_t p, std::size_t q_idx) const;

 private:
  double pairDelayOnce(std::size_t p, double q_um, std::size_t corner,
                       double slew_in, double next_pin_load_ff,
                       double* out_slew) const;
  void characterize();
  void fitBounds();

  const tech::TechModel* tech_;
  LutKnobs knobs_;
  std::vector<double> wls_;
  // [p][q][corner]
  std::vector<std::vector<std::vector<double>>> uni_delay_, uni_slew_;
  // bounds_[k][k2][0/1] lower/upper, only for k < k2 pairs + (k,0) usage
  std::vector<std::vector<std::vector<RatioBound>>> bounds_;
};

}  // namespace skewopt::eco
