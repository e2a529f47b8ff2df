// Delta-latency prediction for local moves (paper Sec. 4.2).
//
// For every candidate move the paper first estimates the new routing with
// two topologies (a FLUTE tree and a single-trunk Steiner tree) and the new
// wire delays with two metrics (Elmore and D2M), updates the driver and its
// resized child through Liberty interpolation, propagates slew with PERI,
// and refreshes gate delays one and two stages downstream. Those four
// analytical delta-latency estimates — plus the fanout count and the
// bounding-box area and aspect ratio of the driven pins — feed a per-corner
// machine-learning model (ANN / SVM-RBF / HSM) that predicts the *actual*
// post-ECO delta-latency the golden timer would report.
//
// MoveAnalyzer produces the analytical estimates and features;
// DeltaLatencyModel owns the trained per-corner regressors;
// MovePredictor combines them into predicted skew-variation changes.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/moves.h"
#include "core/objective.h"
#include "ml/ml.h"
#include "network/design.h"
#include "sta/timer.h"

namespace skewopt::support {
class ThreadPool;
}

namespace skewopt::core {

/// Index layout of the four analytical estimators.
///   0: FLUTE x Elmore   1: FLUTE x D2M
///   2: single-trunk x Elmore   3: single-trunk x D2M
inline constexpr std::size_t kNumAnalytic = 4;
const char* analyticName(std::size_t idx);

/// Feature vector layout fed to the ML model (paper Sec. 4.2): the four
/// analytical estimates, fanout-cell count, bounding-box area, aspect.
inline constexpr std::size_t kNumFeatures = kNumAnalytic + 3;

/// One group of sinks shifted together by a move, with its per-corner,
/// per-estimator analytical delta-latency.
struct ImpactGroup {
  int root = -1;       ///< sinks under this node move together...
  int exclude = -1;    ///< ...except sinks under this node (-1: none)
  bool primary = false;  ///< the group the ML model corrects
  /// delta[cornerIdx][estimator], ps.
  std::vector<std::array<double, kNumAnalytic>> delta;
};

/// Most groups a move shifts (type III: moved, old-driver, new-driver).
inline constexpr std::size_t kMaxImpactGroups = 3;

/// The sinks one predicted impact group shifts: those under `root` minus
/// those under `exclude`. MovePredictor keeps the group's per-corner
/// delta-latency next to it.
struct GroupPrediction {
  int root = -1;
  int exclude = -1;
};

/// Analytical move analysis against a fixed baseline timing.
class MoveAnalyzer {
 public:
  /// When `baseline` is non-null its timing states are adopted instead of
  /// running a fresh full analysis — callers that already maintain the
  /// design's multi-corner timing (the local optimizer's per-round
  /// IncrementalTimer) pass it here so each round costs one STA, not two.
  MoveAnalyzer(const network::Design& d, const sta::Timer& timer,
               const std::vector<sta::CornerTiming>* baseline = nullptr);

  /// Re-times the baseline after the design changed.
  void refresh();

  /// Adopts an externally computed baseline (must match the design's
  /// active corners) instead of re-analyzing.
  void refresh(const std::vector<sta::CornerTiming>& baseline);

  /// Affected sink groups and their analytical delta estimates.
  std::vector<ImpactGroup> analyze(const Move& m) const;

  /// The kNumFeatures model inputs of a move at active-corner index ki
  /// (requires the groups from analyze(), to reuse the primary estimates).
  std::array<double, kNumFeatures> features(const Move& m,
                                            const ImpactGroup& primary,
                                            std::size_t ki) const;

  /// Bitwise capture of every per-node input analyze() and features() read:
  /// geometry (validity, kind, cell, position, parent, child list, subtree
  /// sink count) and timing (in_slew, in_arrival, driver_load at every
  /// active corner).
  struct Inputs {
    struct Node {
      bool valid = false;
      int kind = 0, cell = -1, parent = -1;
      std::uint64_t x = 0, y = 0;  // position bits
      std::size_t sinks = 0;
      std::size_t child_begin = 0, child_end = 0;  // into `children`
    };
    std::vector<Node> nodes;
    std::vector<int> children;
    std::vector<std::uint64_t> timing;  // [(node * corners + ki) * 3 + field]
  };
  /// Per-node flags: which nodes' geometry / timing differ between two
  /// captures.
  struct ChangedNodes {
    std::vector<char> geometry;
    std::vector<char> timing;
  };

  /// Refills `out` with the current inputs (buffers are reused).
  void captureInputs(Inputs* out) const;
  /// Bitwise diff of two captures. False when they are not comparable
  /// (different node or corner counts) — then every move is stale.
  static bool diffInputs(const Inputs& before, const Inputs& after,
                         ChangedNodes* out);

  /// The read set of analyze(m) and features(m), as node roles (b = m.node,
  /// p = its driver; type III reads both p_old and p_new = m.new_parent):
  ///   geometry of p, b, children(p), children(b), grandchildren(b);
  ///   timing of p, children(b), grandchildren(b), and of b for type III.
  /// The timing window is downstreamGateDelta's depth-2 truncation (the
  /// paper's "two stages of downstream update"). If none of these nodes
  /// changed, the parent/child links that name them did not change either,
  /// so analyze(m) and the model inputs are bitwise what they were. True
  /// iff the read set intersects `changed`.
  bool readSetChanged(const Move& m, const ChangedNodes& changed) const;

  /// The before-state net table. Per route model analyze() estimates four
  /// nets, and two of them describe the design as it stands, not the move:
  /// a driver's current net fed by its golden input slew (p for types
  /// I/II; p_old and p_new for type III), and the moved buffer b's current
  /// net fed by that driver net's child slew (types I/II). Each depends
  /// only on its node, so analyze() reads it from the table when present
  /// and estimates it itself otherwise — the same bits either way.
  /// requestBeforeNets(m) marks the nets analyze(m) reads;
  /// buildBeforeNets() builds every marked net the table lacks, sliced
  /// over drivers on `pool` (driver nets first: a buffer net reads its
  /// driver's), and returns how many nets it built (one per node, kind and
  /// route model). The table lives for one refresh(), which drops it.
  /// Build it before a parallel region: analyze() only reads it, so
  /// slices share it without locks or copies.
  void requestBeforeNets(const Move& m);
  std::size_t buildBeforeNets(support::ThreadPool* pool);

  const std::vector<sta::CornerTiming>& baseline() const { return timing_; }
  const network::Design& design() const { return *design_; }

 private:
  /// Subtree sink counts, and an empty before-state table.
  void resetRoundState();

  // Corner-batched net estimation: the candidate route is a function of
  // pin positions only, so it is built once, and the RC/NLDM evaluation
  // runs over all active corners as SoA lanes (RcTreeBatch +
  // elmoreMomentsBatch + the cells' corner-major packed tables) instead of
  // once per corner. Each lane is bit-identical to the former per-corner
  // scalar estimate.
  struct BatchDriverSpec;
  struct BatchChildSpec;
  /// Per-active-corner lanes of one candidate net's estimates. Lane-
  /// interleaved child arrays: wire_elm[child * lanes + ki].
  struct NetEstimatesBatch {
    std::size_t lanes = 0;
    std::vector<double> load;        // [ki]
    std::vector<double> gate_delay;  // [ki]
    std::vector<double> out_slew;    // [ki]
    std::vector<double> wire_elm;    // [child * lanes + ki]
    std::vector<double> wire_d2m;    // [child * lanes + ki]
    std::vector<double> in_slew;     // [child * lanes + ki]

    double wire(std::size_t child, std::size_t ki, int met) const {
      const std::size_t idx = child * lanes + ki;
      return met == 0 ? wire_elm[idx] : wire_d2m[idx];
    }
    double childSlew(std::size_t child, std::size_t ki) const {
      return in_slew[child * lanes + ki];
    }
  };
  /// Fills `est`, reusing its buffers.
  void estimateNetBatch(const BatchDriverSpec& drv,
                        const std::vector<BatchChildSpec>& children,
                        int route_model, NetEstimatesBatch& est) const;
  BatchDriverSpec driverSpec(int id) const;
  std::vector<double> capLanes(int id, int cell_override) const;
  /// The current children of `driver`, minus `skip`, plus `extra` last.
  std::vector<BatchChildSpec> childSpecs(int driver, int skip,
                                         int extra) const;

  enum BeforeKind : std::size_t { kDriverNet = 0, kBufferNet = 1 };
  /// A before-state net estimated afresh; a buffer net reads its driver's
  /// net `p_net`.
  NetEstimatesBatch estimateBeforeNet(BeforeKind kind, int id, int rm,
                                      const NetEstimatesBatch* p_net) const;
  /// The before-state net of `id` at route model rm: the table's, or
  /// estimated into `tmp`.
  const NetEstimatesBatch& beforeNet(BeforeKind kind, int id, int rm,
                                     const NetEstimatesBatch* p_net,
                                     NetEstimatesBatch& tmp) const;

  /// Gate-delay change of `node` and, weighted by subtree sinks, of its
  /// children (the paper's two stages of downstream update) when its input
  /// slew moves from `in_slew_old` to `in_slew_new`. Every call site feeds
  /// one new slew to all four estimators, and the window reads neither the
  /// route model nor the delay metric, so it is one scalar walk per route
  /// model, corner and child, shared by both metrics.
  double downstreamGateDelta(int node, double in_slew_new, double in_slew_old,
                             std::size_t ki, int depth) const;

  const network::Design* design_;
  const sta::Timer* timer_;
  std::vector<sta::CornerTiming> timing_;
  std::vector<std::size_t> subtree_sink_count_;
  // Per kind and node: kNoNet, kWanted, or the slot s of its nets
  // (before_nets_[2 * s + route model]); the marked nodes not yet built.
  std::array<std::vector<std::uint32_t>, 2> before_slot_;
  std::array<std::vector<int>, 2> wanted_;
  std::vector<NetEstimatesBatch> before_nets_;
};

// ---------------------------------------------------------------------------

struct TrainOptions {
  std::size_t cases = 40;           ///< paper: 150 artificial testcases
  std::size_t moves_per_case = 40;  ///< paper: ~450 moves per testcase
  double last_stage_fraction = 0.35;
  std::uint64_t seed = 5;
  enum class Family { kHsm, kAnn, kSvr } family = Family::kHsm;
  ml::MlpOptions mlp;
  ml::SvrOptions svr;
};

/// Per-corner delta-latency regressors trained on artificial testcases.
class DeltaLatencyModel {
 public:
  /// Trains one model per corner id in `corners`. Returns the number of
  /// training samples collected per corner. Throws std::invalid_argument,
  /// before any work, when an id is out of range or listed twice.
  ///
  /// Samples are collected serially; then every regressor fit (an HSM is
  /// four) is a task on support::ThreadPool::shared(). SVR fits run one at
  /// a time on the calling thread, MLP fits on every thread; the models
  /// are bit-identical to fitting them in order. Like runSlices, train
  /// must not be called from inside a pool job.
  std::size_t train(const tech::TechModel& tech,
                    const std::vector<std::size_t>& corners,
                    const TrainOptions& opts);

  bool trainedFor(std::size_t corner) const;

  /// Corrected delta-latency (ps) at a corner from the feature vector.
  double predict(std::size_t corner,
                 const std::array<double, kNumFeatures>& feat) const;
  /// out[i] = predict(corner, rows[i]) for i in [0, n), bit for bit, in
  /// one Regressor::predictBatch call.
  void predictBatch(std::size_t corner,
                    const std::array<double, kNumFeatures>* rows,
                    std::size_t n, double* out) const;

  /// Training-set evaluation artifacts for the Figure 5 bench: predicted
  /// and golden deltas of a held-out sample set.
  struct Holdout {
    std::vector<double> predicted;
    std::vector<double> golden;
  };
  const Holdout& holdout(std::size_t corner) const;

 private:
  struct PerCorner {
    ml::StandardScaler scaler;
    std::unique_ptr<ml::Regressor> model;
    Holdout holdout;
    /// Residual-correction clamp (training-set residual range): guards
    /// against wild extrapolation on out-of-distribution moves.
    double residual_lo = 0.0, residual_hi = 0.0;
  };
  std::vector<PerCorner> per_corner_;  // indexed by corner id
};

/// Collects (features, golden delta) samples for one design's moves —
/// shared by the trainer and the Figure 5/6 benches. A move's golden delta
/// is a golden trial on one working copy of the design (undoable apply,
/// in-place retime of its dirty subtrees, rollback, undo) averaging the
/// latency change over the sinks of its primary subtree, one value per
/// active corner; moves with no primary impact group are skipped.
struct MoveSample {
  Move move;
  std::vector<std::array<double, kNumFeatures>> features;  // per active corner
  std::vector<double> golden_delta;                        // per active corner
};
std::vector<MoveSample> collectMoveSamples(const network::Design& d,
                                           const sta::Timer& timer,
                                           const std::vector<Move>& moves);

// ---------------------------------------------------------------------------

/// Cross-round state of MovePredictor::scoreRound, owned by one
/// optimization run: every candidate move's group predictions and score
/// from the previous round, keyed by full move identity, plus the analyzer
/// inputs, sink layout and base report they were computed from. Stored
/// flat, kMaxImpactGroups slots per move.
class ScoreCache {
 public:
  /// Whether move i of the last scoreRound kept its cached score.
  bool kept(std::size_t move) const { return keep_[move] != 0; }

 private:
  friend class MovePredictor;
  /// Moves per scheduling chunk of scoreRound.
  static constexpr std::size_t kChunk = 32;
  /// Per-thread buffers of the flat pair aggregation: per-sink summed
  /// deltas, epoch stamps marking the sinks and pairs the current move
  /// touches (no clearing between moves), the touched pair list, and one
  /// move's group predictions. A chunk's batched inference queues, per
  /// corner, the feature rows of its stale moves' primary groups and the
  /// dval slot each prediction fills.
  struct Scratch {
    std::vector<double> acc;  // [node * corners + ki]
    std::vector<std::uint32_t> sink_stamp;
    std::vector<std::uint32_t> pair_stamp;
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> pairs;
    std::vector<double> skew;
    std::array<GroupPrediction, kMaxImpactGroups> groups;
    std::vector<double> dval;  // [group * corners + ki]
    std::vector<std::array<double, kNumFeatures>> rows;  // [ki * kChunk + r]
    std::vector<double*> dest;                           // [ki * kChunk + r]
    std::vector<std::size_t> nrows;                      // [ki]
    std::array<double, kChunk> pred;
  };
  struct Key {
    int type = 0, node = -1, size_step = 0, child = -1, new_parent = -1;
    std::uint64_t dx = 0, dy = 0;  // displacement bits
    auto operator<=>(const Key&) const = default;
  };
  struct Table {
    std::vector<std::pair<Key, std::uint32_t>> index;  // sorted by key
    std::vector<GroupPrediction> groups;  // [move * kMaxImpactGroups + g]
    std::vector<std::uint8_t> ngroups;
    std::vector<double> dval;  // [(move * kMaxImpactGroups + g) * corners + ki]
    std::vector<double> score;  // [move], as scoreRound returned it
  };
  /// What prev_'s scores were aggregated against: the sink layout, the
  /// pair endpoints and the base report.
  struct Layout {
    std::vector<int> dfs_sinks;
    std::vector<std::size_t> span_begin, span_end;
    std::vector<std::pair<int, int>> pairs;  // (launch, capture)
    VariationReport report;
  };
  Table prev_, next_;
  Layout layout_;
  MoveAnalyzer::Inputs inputs_, now_inputs_;  // prev_'s inputs, this round's
  MoveAnalyzer::ChangedNodes changed_;
  bool primed_ = false;
  std::vector<std::uint32_t> source_;  // per move: prev_ slot or kStale
  std::vector<char> keep_;  // per move: its prev_ score is its score
  /// Sinks at DFS positions [0, p) incident to a pair whose base changed.
  std::vector<std::uint32_t> changed_prefix_;
  std::vector<char> sink_changed_;  // per node, scratch
  std::vector<Scratch> scratch_;  // per slice
};

/// Combines analyzer + model + objective into move scoring.
class MovePredictor {
 public:
  /// `model` may be null: the predictor then falls back to the analytical
  /// estimator `analytic_fallback` (0..3) — this is the paper's Figure 6
  /// comparison axis. A non-null `baseline` is adopted as the current
  /// timing instead of running a full analysis (see MoveAnalyzer).
  MovePredictor(const network::Design& d, const sta::Timer& timer,
                const Objective& objective, const DeltaLatencyModel* model,
                std::size_t analytic_fallback = 0,
                const std::vector<sta::CornerTiming>* baseline = nullptr);

  void refresh();

  /// refresh() adopting an externally computed baseline timing.
  void refresh(const std::vector<sta::CornerTiming>& baseline);

  /// Predicted change of the sum of normalized skew variations (ps;
  /// negative is an improvement).
  double predictedVariationDelta(const Move& m) const;

  /// Scores a whole round's candidate table in one call:
  /// out[i] = predictedVariationDelta(moves[i]). It first builds the
  /// analyzer's before-state nets for every move (MoveAnalyzer::
  /// buildBeforeNets); then, with a pool, the moves are scored on its
  /// threads, which only read that table. Results are identical either
  /// way. `out` must have `moves.size()` slots. Keeps nothing across
  /// rounds: every move is analyzed afresh — the reference scoreRound is
  /// checked against. Scoring calls fill the table, so they must not run
  /// concurrently on one predictor.
  void scoreBatch(std::span<const Move> moves, std::span<double> out,
                  support::ThreadPool* pool = nullptr) const;

  struct RoundStats {
    std::size_t computed = 0;  ///< moves whose groups were predicted afresh
    std::size_t reused = 0;    ///< moves whose cached groups were kept
    std::size_t nets = 0;      ///< before-state nets built for the stale moves
    std::size_t kept = 0;      ///< reused moves whose cached score was kept
  };
  /// The local optimizer's round scorer: same scores as scoreBatch, bit for
  /// bit, but a move's group predictions (analyze + model) are kept in
  /// `cache` across rounds and recomputed only when the move is new or its
  /// read set (MoveAnalyzer::readSetChanged) intersects the nodes whose
  /// inputs changed since the previous call; the before-state table is
  /// built for those stale moves only. A reused move also keeps its cached
  /// score when the sink DFS order, the spans and the pairs are those of
  /// the cached round and no sink it shifts is an endpoint of a pair whose
  /// base skew or variation changed: its aggregation would repeat every
  /// operand. Every other move is aggregated against the refreshed
  /// baseline. The moves are scored in ScoreCache::kChunk-move chunks
  /// handed to the pool's threads from one counter, and a chunk's model
  /// predictions run as one DeltaLatencyModel::predictBatch per corner.
  /// Call refresh() between rounds.
  RoundStats scoreRound(std::span<const Move> moves, std::span<double> out,
                        ScoreCache* cache,
                        support::ThreadPool* pool = nullptr) const;

  const MoveAnalyzer& analyzer() const { return analyzer_; }

 private:
  void rebuildBase();
  /// analyze(m) plus the per-corner shift of each group (ML-corrected for
  /// the primary group where a model covers the corner); returns the group
  /// count. `dval` has kMaxImpactGroups * corners slots. With a non-null
  /// `batch` the model shifts are not predicted here: their feature rows
  /// are queued on it for predictQueued().
  std::size_t predictGroups(const Move& m, GroupPrediction* groups,
                            double* dval,
                            ScoreCache::Scratch* batch = nullptr) const;
  /// One DeltaLatencyModel::predictBatch per corner over the rows queued
  /// on `s`, each prediction written to its dval slot.
  void predictQueued(ScoreCache::Scratch& s) const;
  /// Marks the sinks incident to a pair whose base skew or variation
  /// differs from `c`'s cached report, as DFS-position prefix counts. False
  /// when the sink layout or the pairs changed: then no score is kept.
  bool markChangedSinks(ScoreCache& c) const;
  /// Scores moves [lo, hi) of a scoreRound.
  void scoreChunk(std::span<const Move> moves, std::size_t lo, std::size_t hi,
                  ScoreCache& c, ScoreCache::Scratch& s,
                  std::span<double> out) const;
  /// Predicted change of the sum of variations from a move's groups:
  /// per-sink shifts summed in group order, then every touched pair
  /// re-evaluated in ascending pair order.
  double aggregate(const GroupPrediction* groups, std::size_t ngroups,
                   const double* dval, ScoreCache::Scratch& s) const;

  const network::Design* design_;
  const sta::Timer* timer_;
  const Objective* objective_;
  const DeltaLatencyModel* model_;
  std::size_t fallback_;
  // mutable: the const scorers fill its before-state table.
  mutable MoveAnalyzer analyzer_;
  VariationReport base_report_;
  // Per round: sinks in DFS order, so every node's subtree sinks are the
  // contiguous span [span_begin_[n], span_end_[n]) of dfs_sinks_; and the
  // pairs of each sink as CSR (pair_idx_[pair_off_[s] .. pair_off_[s+1])).
  std::vector<int> dfs_sinks_;
  std::vector<std::size_t> span_begin_, span_end_;
  std::vector<std::size_t> pair_off_;
  std::vector<std::uint32_t> pair_idx_;
};

}  // namespace skewopt::core
