// RC interconnect analysis: Elmore delay, circuit moments, the D2M
// two-moment delay metric [Alpert/Devgan/Kashyap, ISPD 2000], and the PERI
// slew-extension rule [Kashyap et al., TAU 2002].
//
// The paper's delta-latency predictor estimates wire delay with both Elmore
// and D2M on two candidate route topologies; the golden timer uses Elmore
// with PERI slew propagation. Both consumers share this module.
//
// Units: res kOhm, cap fF, time ps (kOhm * fF = ps).
#pragma once

#include <cstddef>
#include <vector>

namespace skewopt::rc {

/// A distributed RC tree. Node 0 is always the driving point (root); every
/// other node hangs off a parent through a series resistance and carries a
/// grounded capacitance (wire cap plus any receiver pin cap).
class RcTree {
 public:
  RcTree() { nodes_.push_back({-1, 0.0, 0.0}); }

  /// Adds a node under `parent`, returns its index. `res` is the series
  /// resistance from parent to the new node; `cap` its grounded capacitance.
  std::size_t addNode(std::size_t parent, double res_kohm, double cap_ff);

  /// Adds extra grounded capacitance at an existing node (e.g. a pin cap).
  void addCap(std::size_t node, double cap_ff) { nodes_[node].cap += cap_ff; }

  /// Resets to the bare driving point, keeping the node storage — lets hot
  /// loops rebuild nets without reallocating.
  void clear() {
    nodes_.resize(1);
    nodes_[0] = {-1, 0.0, 0.0};
  }

  std::size_t size() const { return nodes_.size(); }
  double cap(std::size_t n) const { return nodes_[n].cap; }
  double res(std::size_t n) const { return nodes_[n].res; }
  int parent(std::size_t n) const { return nodes_[n].parent; }

  /// Total capacitance of the tree — the load seen by an ideal driver.
  double totalCap() const;

 private:
  struct Node {
    int parent;
    double res;  // series resistance to parent
    double cap;  // grounded capacitance at this node
  };
  std::vector<Node> nodes_;
  friend struct Moments;
};

/// First and second moments of the impulse response at every node.
/// m1[n] is the (negated) Elmore delay; m2 feeds the D2M metric.
struct Moments {
  std::vector<double> m1;
  std::vector<double> m2;

  static Moments compute(const RcTree& tree);
};

/// A multi-lane RC tree in structure-of-arrays layout: one shared topology
/// (clock net routes do not depend on the corner) with K per-lane
/// resistance/capacitance values per node, stored lane-interleaved —
/// res[n * K + k]. One lane per corner lets the moment passes below walk
/// the tree once and accumulate all corners in the inner loop, which the
/// compiler turns into vector code (K = 4 corners is exactly one AVX2
/// register of doubles).
class RcTreeBatch {
 public:
  explicit RcTreeBatch(std::size_t lanes = 1) { reset(lanes); }

  /// Resets to the bare driving point with `lanes` lanes, keeping storage.
  void reset(std::size_t lanes);

  /// Adds a node under `parent`; `res`/`cap` point at `lanes()` values.
  std::size_t addNode(std::size_t parent, const double* res_kohm,
                      const double* cap_ff);

  /// Adds extra grounded capacitance (`lanes()` values) at a node.
  void addCap(std::size_t node, const double* cap_ff);

  std::size_t size() const { return parent_.size(); }
  std::size_t lanes() const { return lanes_; }
  int parent(std::size_t n) const { return parent_[n]; }
  double res(std::size_t n, std::size_t k) const { return res_[n * lanes_ + k]; }
  double cap(std::size_t n, std::size_t k) const { return cap_[n * lanes_ + k]; }
  const double* resData() const { return res_.data(); }
  const double* capData() const { return cap_.data(); }
  const int* parentData() const { return parent_.data(); }

  /// Per-lane total capacitance, accumulated in node-index order (the same
  /// order RcTree::totalCap uses). `out` receives `lanes()` values.
  void totalCapInto(double* out) const;

 private:
  std::size_t lanes_ = 1;
  std::vector<int> parent_;
  std::vector<double> res_;  ///< [n * lanes + k]
  std::vector<double> cap_;  ///< [n * lanes + k]
};

/// Lane-interleaved moments of an RcTreeBatch: m1[n * K + k]. Each lane is
/// bit-identical to Moments::compute on the equivalent single-lane RcTree —
/// the batch passes only interchange the lane loop into the innermost
/// position, leaving every lane's per-node summation order untouched.
struct MomentsBatch {
  std::vector<double> m1;
  std::vector<double> m2;
};

/// Both moment passes over all lanes in one tree walk. `scratch` is caller
/// scratch (grown to 2 * size * lanes).
void elmoreMomentsBatch(const RcTreeBatch& tree, MomentsBatch& out,
                        std::vector<double>& scratch);

/// Positive Elmore delays for all lanes in one walk: delays[n * K + k].
/// Each lane is bit-identical to elmoreDelaysInto on the equivalent
/// single-lane RcTree. `cdown` is caller scratch.
void elmoreDelaysBatch(const RcTreeBatch& tree, std::vector<double>& delays,
                       std::vector<double>& cdown);

/// Elmore delay from the driving point to every node, in ps.
std::vector<double> elmoreDelays(const RcTree& tree);

/// Elmore delays into reusable buffers, computing only the first moment
/// (no m2 pass). Bit-identical to elmoreDelays; `cdown` is caller scratch.
void elmoreDelaysInto(const RcTree& tree, std::vector<double>& delays,
                      std::vector<double>& cdown);

/// D2M delay metric at one node given its moments: D2M = m1^2/sqrt(m2) * ln2.
double d2mFromMoments(double m1, double m2);

/// Step-response wire output slew estimate from the Elmore delay of the
/// node (the classical ln(9) * Elmore 20-80%-style approximation).
inline double wireSlewFromElmore(double elmore_ps) {
  return 2.1972245773362196 * elmore_ps;  // ln(9)
}

/// PERI rule: extends a step-input slew metric to a ramp input.
/// out^2 = in^2 + step_out^2.
double periSlew(double slew_in_ps, double step_slew_ps);

/// Convenience: builds a 2-node RC for a uniform wire of length `len_um`
/// driven at one end with an optional lumped load at the far end, and
/// returns its Elmore delay. Uses the standard pi-equivalent (R*C/2 + R*Cl).
double uniformWireElmore(double len_um, double res_per_um, double cap_per_um,
                         double load_ff);

}  // namespace skewopt::rc
