#include "tech/tech.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "support/simd.h"

namespace skewopt::tech {

DelayTable::DelayTable(std::vector<double> slews, std::vector<double> loads,
                       std::vector<double> values)
    : slews_(std::move(slews)), loads_(std::move(loads)),
      values_(std::move(values)) {
  if (slews_.size() < 2 || loads_.size() < 2)
    throw std::invalid_argument("DelayTable axes need at least 2 points");
  if (values_.size() != slews_.size() * loads_.size())
    throw std::invalid_argument("DelayTable value count mismatch");
}

namespace {
// The lookup helpers work on raw axis pointers: the batch loops below then
// keep the axis base addresses and table dimensions in locals/registers
// instead of reloading them through the vector header after every store to
// the (potentially aliasing) output span.

// Index of the interval [axis[i], axis[i+1]] used for v, clamped so that
// values outside the axis extrapolate with the boundary interval's slope.
// `top` is size - 2 (the last usable interval index).
std::size_t intervalIndex(const double* axis, std::size_t top, double v) {
  if (v <= axis[0]) return 0;
  if (v >= axis[top]) return top;
  std::size_t lo = 0, hi = top;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (axis[mid] <= v)
      lo = mid;
    else
      hi = mid - 1;
  }
  return lo;
}

// True iff `i` is exactly the index intervalIndex(axis, v) would return
// (axes are strictly increasing, so the clamped interval is unique).
inline bool intervalOk(const double* axis, double v, std::size_t i,
                       std::size_t top) {
  return (i == 0 || axis[i] <= v) && (i == top || v < axis[i + 1]);
}

// Hinted interval search: validates the cached index and its two
// neighbours before falling back to the binary search, and refreshes the
// hint with the answer. Returns exactly intervalIndex's result.
inline std::size_t intervalIndexHinted(const double* axis, std::size_t top,
                                       double v, std::uint32_t* hint) {
  std::size_t h = *hint;
  if (h > top) h = top;
  if (intervalOk(axis, v, h, top)) {
    *hint = static_cast<std::uint32_t>(h);
    return h;
  }
  if (h < top && intervalOk(axis, v, h + 1, top)) {
    *hint = static_cast<std::uint32_t>(h + 1);
    return h + 1;
  }
  if (h > 0 && intervalOk(axis, v, h - 1, top)) {
    *hint = static_cast<std::uint32_t>(h - 1);
    return h - 1;
  }
  const std::size_t r = intervalIndex(axis, top, v);
  *hint = static_cast<std::uint32_t>(r);
  return r;
}

// The bilinear core shared by every lookup path — one expression tree, so
// scalar, hinted, batch, and packed lookups are bit-identical.
inline double bilinear(const double* slews, const double* loads,
                       double slew_ps, double load_ff, std::size_t si,
                       std::size_t li, double v00, double v01, double v10,
                       double v11) {
  const double ts = (slew_ps - slews[si]) / (slews[si + 1] - slews[si]);
  const double tl = (load_ff - loads[li]) / (loads[li + 1] - loads[li]);
  const double a = v00 + (v01 - v00) * tl;
  const double b = v10 + (v11 - v10) * tl;
  return a + (b - a) * ts;
}

// Branchless clamped interval index: on a strictly increasing axis the
// result of intervalIndex is exactly the number of points axis[1..top]
// that are <= v (0 below the axis, `top` at/above axis[top], the interval
// index in between). Counting replaces the two data-dependent branches per
// binary-search step with straight-line compares — the batch loop below
// stays misprediction-free on arbitrary (slew, load) sequences.
inline std::size_t intervalIndexCount(const double* axis, std::size_t top,
                                      double v) {
  std::size_t i = 0;
  for (std::size_t j = 1; j <= top; ++j) i += axis[j] <= v ? 1u : 0u;
  return i;
}

// Vector lanes (support/simd.h) evaluate the bilinear expression tree above
// operation for operation, so results stay bit-identical to the scalar path.
using support::load4;
using support::store4;
using support::v4df;
typedef double v2df __attribute__((vector_size(16)));
typedef long long v4di __attribute__((vector_size(32)));

inline v2df load2d(const double* p) {
  v2df v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

// Transposes four (x, x_next) pairs into lane vectors: lo = the four x,
// hi = the four x_next. An axis interval and a table-row pair are both
// adjacent in memory, so every gather below is a 16-byte pair load plus
// this shuffle tree instead of eight scalar loads.
inline void transpose4x2(v2df p0, v2df p1, v2df p2, v2df p3, v4df& lo,
                         v4df& hi) {
  lo = __builtin_shufflevector(__builtin_shufflevector(p0, p1, 0, 2),
                               __builtin_shufflevector(p2, p3, 0, 2), 0, 1, 2,
                               3);
  hi = __builtin_shufflevector(__builtin_shufflevector(p0, p1, 1, 3),
                               __builtin_shufflevector(p2, p3, 1, 3), 0, 1, 2,
                               3);
}

// Four lookups whose interval indices are already in `sc`/`lc`: pair-load
// gathers through the shuffle tree, then vector bilinear. The per-lane
// arithmetic matches `bilinear` above op for op.
__attribute__((always_inline)) inline void lookupQuad(
    const double* sax, const double* lax, const double* vals, std::size_t nl,
    v4df sv, v4df lv, v4di sc, v4di lc, double* out) {
  long long sidx[4], lidx[4];
  __builtin_memcpy(sidx, &sc, sizeof(sidx));
  __builtin_memcpy(lidx, &lc, sizeof(lidx));
  const double* c0 = vals + static_cast<std::size_t>(sidx[0]) * nl + lidx[0];
  const double* c1 = vals + static_cast<std::size_t>(sidx[1]) * nl + lidx[1];
  const double* c2 = vals + static_cast<std::size_t>(sidx[2]) * nl + lidx[2];
  const double* c3 = vals + static_cast<std::size_t>(sidx[3]) * nl + lidx[3];
  v4df s0, s1, l0, l1, v00, v01, v10, v11;
  transpose4x2(load2d(sax + sidx[0]), load2d(sax + sidx[1]),
               load2d(sax + sidx[2]), load2d(sax + sidx[3]), s0, s1);
  transpose4x2(load2d(lax + lidx[0]), load2d(lax + lidx[1]),
               load2d(lax + lidx[2]), load2d(lax + lidx[3]), l0, l1);
  transpose4x2(load2d(c0), load2d(c1), load2d(c2), load2d(c3), v00, v01);
  transpose4x2(load2d(c0 + nl), load2d(c1 + nl), load2d(c2 + nl),
               load2d(c3 + nl), v10, v11);
  const v4df ts = (sv - s0) / (s1 - s0);
  const v4df tl = (lv - l0) / (l1 - l0);
  const v4df a = v00 + (v01 - v00) * tl;
  const v4df b = v10 + (v11 - v10) * tl;
  store4(out, a + (b - a) * ts);
}

// A run of bilinear lookups, eight per step: SIMD interval counts shared
// across two quads (each axis point is broadcast once and compared against
// both), then two gather-interpolate quads. Marked always_inline so the
// SKEWOPT_VEC_CLONES wrappers below compile it per target with the grid
// dimensions constant-folded.
__attribute__((always_inline)) inline void lookupRunImpl(
    const double* sax, const double* lax, const double* vals, std::size_t stop,
    std::size_t ltop, std::size_t nl, const double* slews, const double* loads,
    double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const v4df sva = load4(slews + i), svb = load4(slews + i + 4);
    const v4df lva = load4(loads + i), lvb = load4(loads + i + 4);
    // intervalIndexCount across eight lanes: a <=-mask is all-ones (-1),
    // so subtracting it counts the axis points at or below each value.
    v4di sca = {0, 0, 0, 0}, scb = {0, 0, 0, 0};
    v4di lca = {0, 0, 0, 0}, lcb = {0, 0, 0, 0};
#pragma GCC unroll 8
    for (std::size_t j = 1; j <= stop; ++j) {
      const v4df b = {sax[j], sax[j], sax[j], sax[j]};
      sca -= reinterpret_cast<v4di>(b <= sva);
      scb -= reinterpret_cast<v4di>(b <= svb);
    }
#pragma GCC unroll 8
    for (std::size_t j = 1; j <= ltop; ++j) {
      const v4df b = {lax[j], lax[j], lax[j], lax[j]};
      lca -= reinterpret_cast<v4di>(b <= lva);
      lcb -= reinterpret_cast<v4di>(b <= lvb);
    }
    lookupQuad(sax, lax, vals, nl, sva, lva, sca, lca, out + i);
    lookupQuad(sax, lax, vals, nl, svb, lvb, scb, lcb, out + i + 4);
  }
  for (; i < n; ++i) {
    const std::size_t si = intervalIndexCount(sax, stop, slews[i]);
    const std::size_t li = intervalIndexCount(lax, ltop, loads[i]);
    const double* row = vals + si * nl + li;
    out[i] = bilinear(sax, lax, slews[i], loads[i], si, li, row[0], row[1],
                      row[nl], row[nl + 1]);
  }
}

// Instantiation for the standard 7-slew x 9-load characterization grid
// (every make28nm table): the interval-count loops fully unroll and the
// row stride becomes an addressing-mode constant.
SKEWOPT_VEC_CLONES
void lookupRun7x9(const double* sax, const double* lax, const double* vals,
                  const double* slews, const double* loads, double* out,
                  std::size_t n) {
  lookupRunImpl(sax, lax, vals, 5, 7, 9, slews, loads, out, n);
}

SKEWOPT_VEC_CLONES
void lookupRunAny(const double* sax, const double* lax, const double* vals,
                  std::size_t stop, std::size_t ltop, std::size_t nl,
                  const double* slews, const double* loads, double* out,
                  std::size_t n) {
  lookupRunImpl(sax, lax, vals, stop, ltop, nl, slews, loads, out, n);
}
}  // namespace

double DelayTable::lookup(double slew_ps, double load_ff) const {
  const double* sax = slews_.data();
  const double* lax = loads_.data();
  const std::size_t si = intervalIndex(sax, slews_.size() - 2, slew_ps);
  const std::size_t li = intervalIndex(lax, loads_.size() - 2, load_ff);
  return bilinear(sax, lax, slew_ps, load_ff, si, li, at(si, li),
                  at(si, li + 1), at(si + 1, li), at(si + 1, li + 1));
}

double DelayTable::lookup(double slew_ps, double load_ff,
                          LutHint* hint) const {
  const double* sax = slews_.data();
  const double* lax = loads_.data();
  const std::size_t si =
      intervalIndexHinted(sax, slews_.size() - 2, slew_ps, &hint->slew);
  const std::size_t li =
      intervalIndexHinted(lax, loads_.size() - 2, load_ff, &hint->load);
  return bilinear(sax, lax, slew_ps, load_ff, si, li, at(si, li),
                  at(si, li + 1), at(si + 1, li), at(si + 1, li + 1));
}

void DelayTable::lookupBatch(std::span<const double> slews,
                             std::span<const double> loads,
                             std::span<double> out) const {
  if (slews.size() != loads.size() || slews.size() != out.size())
    throw std::invalid_argument("lookupBatch: span size mismatch");
  const double* sax = slews_.data();
  const double* lax = loads_.data();
  const double* vals = values_.data();
  const std::size_t stop = slews_.size() - 2;
  const std::size_t ltop = loads_.size() - 2;
  const std::size_t nl = loads_.size();
  const std::size_t n = slews.size();
  if (stop == 5 && ltop == 7 && nl == 9)
    lookupRun7x9(sax, lax, vals, slews.data(), loads.data(), out.data(), n);
  else
    lookupRunAny(sax, lax, vals, stop, ltop, nl, slews.data(), loads.data(),
                 out.data(), n);
}

CornerLut::CornerLut(const std::vector<DelayTable>& per_corner) {
  if (per_corner.empty()) return;
  slews_ = per_corner.front().slewAxis();
  loads_ = per_corner.front().loadAxis();
  corners_ = per_corner.size();
  for (const DelayTable& t : per_corner)
    if (t.slewAxis() != slews_ || t.loadAxis() != loads_)
      throw std::invalid_argument("CornerLut: corner tables must share axes");
  values_.resize(slews_.size() * loads_.size() * corners_);
  // Verbatim copies of the per-corner values, interleaved at table-cell
  // granularity — re-interpolating here would not be bit-exact at the axis
  // boundaries.
  const std::size_t cells = slews_.size() * loads_.size();
  for (std::size_t c = 0; c < cells; ++c)
    for (std::size_t k = 0; k < corners_; ++k)
      values_[c * corners_ + k] = per_corner[k].values()[c];
}

void CornerLut::lookupEach(std::span<const std::size_t> corner_ids,
                           const double* slew, const double* load, double* out,
                           LutHint* hint) const {
  const double* sax = slews_.data();
  const double* lax = loads_.data();
  const double* vals = values_.data();
  const std::size_t stop = slews_.size() - 2;
  const std::size_t ltop = loads_.size() - 2;
  const std::size_t nl = loads_.size(), kk = corners_;
  std::uint32_t sh = hint->slew, lh = hint->load;
  for (std::size_t i = 0; i < corner_ids.size(); ++i) {
    const std::size_t si = intervalIndexHinted(sax, stop, slew[i], &sh);
    const std::size_t li = intervalIndexHinted(lax, ltop, load[i], &lh);
    const double* cell = vals + (si * nl + li) * kk + corner_ids[i];
    out[i] = bilinear(sax, lax, slew[i], load[i], si, li, cell[0], cell[kk],
                      cell[nl * kk], cell[(nl + 1) * kk]);
  }
  hint->slew = sh;
  hint->load = lh;
}

void CornerLut::lookupAll(double slew, double load, double* out) const {
  const double* sax = slews_.data();
  const double* lax = loads_.data();
  const std::size_t si = intervalIndex(sax, slews_.size() - 2, slew);
  const std::size_t li = intervalIndex(lax, loads_.size() - 2, load);
  const std::size_t nl = loads_.size(), kk = corners_;
  const double* cell = values_.data() + (si * nl + li) * kk;
  for (std::size_t k = 0; k < kk; ++k)
    out[k] = bilinear(sax, lax, slew, load, si, li, cell[k], cell[kk + k],
                      cell[nl * kk + k], cell[(nl + 1) * kk + k]);
}

namespace {

// Alpha-power-law gate speed model. Returns the delay multiplier of a corner
// (before normalization to c0). SS devices have higher Vth and a process
// slow-down; delay grows as V / (V - Vth)^1.3; resistance-like temperature
// dependence adds a mild slope.
double rawGateDerate(const Corner& c) {
  const double vth = (c.process == Process::SS) ? 0.50 : 0.38;
  const double proc = (c.process == Process::SS) ? 1.15 : 0.85;
  const double overdrive = c.voltage - vth;
  assert(overdrive > 0.0);
  const double alpha = c.voltage / std::pow(overdrive, 1.3);
  const double temp = 1.0 + 0.0006 * (c.temp_c - 25.0);
  return proc * alpha * temp;
}

WireParams wireAt(const Corner& c) {
  // Nominal clock-layer parasitics at 25C / typical BEOL.
  constexpr double kResNom = 0.0015;  // kOhm/um (1.5 Ohm/um)
  constexpr double kCapNom = 0.18;    // fF/um
  WireParams w;
  w.res_kohm_per_um = kResNom * (1.0 + 0.0035 * (c.temp_c - 25.0));
  w.cap_ff_per_um = kCapNom * ((c.beol == Beol::CMAX) ? 1.08 : 0.85);
  return w;
}

// Builds the two NLDM tables (delay, output slew) of an inverter of the
// given drive at a corner with gate derate g (already normalized to c0).
void characterizeCell(Cell& cell, std::size_t k, double g) {
  const std::vector<double> slews = {5, 10, 20, 40, 80, 160, 320};
  const std::vector<double> loads = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const double rdrv = 2.8 / cell.drive;  // kOhm
  const double t_int = 6.0 + 0.8 * std::log2(cell.drive + 1.0);  // ps
  const double s_int = 4.0;                                      // ps

  std::vector<double> dvals, svals;
  dvals.reserve(slews.size() * loads.size());
  svals.reserve(slews.size() * loads.size());
  for (const double s : slews) {
    for (const double c : loads) {
      // Base linear RC behavior plus a mild cross nonlinearity so that table
      // interpolation genuinely differs from any closed-form model a
      // predictor might assume.
      const double d = g * (t_int + rdrv * c) + 0.18 * s +
                       g * 0.03 * rdrv * c * std::sqrt(s / 50.0);
      const double os = g * (s_int + 2.2 * rdrv * c) + 0.10 * s;
      dvals.push_back(d);
      svals.push_back(os);
    }
  }
  cell.delay[k] = DelayTable(slews, loads, dvals);
  cell.out_slew[k] = DelayTable(slews, loads, svals);
}

}  // namespace

TechModel TechModel::make28nm(double gate_derate_compression) {
  if (gate_derate_compression < 0.0 || gate_derate_compression >= 1.0)
    throw std::invalid_argument("make28nm: compression must be in [0, 1)");
  TechModel t;
  t.corners_ = {
      {"c0", Process::SS, 0.90, -25.0, Beol::CMAX},
      {"c1", Process::SS, 0.75, -25.0, Beol::CMAX},
      {"c2", Process::FF, 1.10, 125.0, Beol::CMIN},
      {"c3", Process::FF, 1.32, 125.0, Beol::CMIN},
  };
  const std::size_t K = t.corners_.size();

  const double g0 = rawGateDerate(t.corners_[0]);
  t.gate_derate_.resize(K);
  t.wire_.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    const double g = rawGateDerate(t.corners_[k]) / g0;
    // Corner-desensitized library option (paper future work (iii)).
    t.gate_derate_[k] = g + gate_derate_compression * (1.0 - g);
    t.wire_[k] = wireAt(t.corners_[k]);
  }

  const double drives[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (const double drive : drives) {
    Cell c;
    c.name = "INVX" + std::to_string(static_cast<int>(drive));
    c.drive = drive;
    c.area_um2 = 0.6 + 0.35 * drive;
    c.max_cap_ff = 22.0 * drive;
    c.pin_cap_ff.resize(K);
    c.delay.resize(K);
    c.out_slew.resize(K);
    c.leakage_nw.resize(K);
    c.internal_energy_fj.resize(K);
    for (std::size_t k = 0; k < K; ++k) {
      const Corner& crn = t.corners_[k];
      // Gate cap barely moves across corners; FF silicon is slightly hotter.
      c.pin_cap_ff[k] = 0.9 * drive * (crn.process == Process::FF ? 1.05 : 1.0);
      characterizeCell(c, k, t.gate_derate_[k]);
      // Leakage is dominated by temperature and process (FF/125C worst).
      const double leak_base = 0.4 * drive;
      const double leak_temp = std::exp(0.018 * (crn.temp_c - 25.0));
      const double leak_proc = (crn.process == Process::FF) ? 3.0 : 1.0;
      c.leakage_nw[k] = leak_base * leak_temp * leak_proc;
      // Internal (short-circuit + parasitic) energy per toggle.
      c.internal_energy_fj[k] =
          0.45 * drive * crn.voltage * crn.voltage;
    }
    c.delay_packed = CornerLut(c.delay);
    c.out_slew_packed = CornerLut(c.out_slew);
    t.cells_.push_back(std::move(c));
  }

  t.sink_cap_ff_.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    t.sink_cap_ff_[k] =
        1.2 * (t.corners_[k].process == Process::FF ? 1.05 : 1.0);
  }
  return t;
}

}  // namespace skewopt::tech
