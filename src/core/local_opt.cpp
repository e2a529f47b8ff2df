#include "core/local_opt.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "check/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sta/incremental.h"
#include "support/thread_pool.h"

namespace skewopt::core {

using network::Design;

namespace {

// All skewopt_local_* metrics are driven only by deterministic algorithm
// state (never by thread identity or scheduling), so a serial and a
// parallel run of the same optimization produce identical snapshots under
// a fake clock — asserted by obs_test.
struct LocalObs {
  obs::Counter& rounds = obs::MetricsRegistry::global().counter(
      "skewopt_local_rounds_total", "Local-optimizer rounds started");
  obs::Counter& trials = obs::MetricsRegistry::global().counter(
      "skewopt_local_trials_total", "Golden-evaluated candidate moves");
  obs::Counter& accepted = obs::MetricsRegistry::global().counter(
      "skewopt_local_accepted_moves_total", "Committed moves (all types)");
  obs::Counter& accepted_i = obs::MetricsRegistry::global().counter(
      "skewopt_local_accepted_moves_type_i_total",
      "Committed type-I (size/displace) moves");
  obs::Counter& accepted_ii = obs::MetricsRegistry::global().counter(
      "skewopt_local_accepted_moves_type_ii_total",
      "Committed type-II (child displace/size) moves");
  obs::Counter& accepted_iii = obs::MetricsRegistry::global().counter(
      "skewopt_local_accepted_moves_type_iii_total",
      "Committed type-III (reassign) moves");
  obs::Counter& predictor_hits = obs::MetricsRegistry::global().counter(
      "skewopt_local_predictor_hits_total",
      "Predictor-proposed trials that realized an improvement");
  obs::Counter& predictor_misses = obs::MetricsRegistry::global().counter(
      "skewopt_local_predictor_misses_total",
      "Predictor-proposed trials that did not realize an improvement");
  obs::Histogram& golden_ms = obs::MetricsRegistry::global().histogram(
      "skewopt_local_golden_trial_ms", obs::defaultMsBuckets(),
      "Per-trial golden evaluation wall time");
  obs::Counter& scores_computed = obs::MetricsRegistry::global().counter(
      "skewopt_local_scores_computed_total",
      "Candidate moves whose group predictions were computed afresh");
  obs::Counter& scores_reused = obs::MetricsRegistry::global().counter(
      "skewopt_local_scores_reused_total",
      "Candidate moves whose group predictions were reused from the "
      "previous round");
  obs::Histogram& residual_ps = obs::MetricsRegistry::global().histogram(
      "skewopt_local_predictor_residual_ps",
      {-50.0, -20.0, -10.0, -5.0, -2.0, -1.0, 0.0, 1.0, 2.0, 5.0, 10.0, 20.0,
       50.0},
      "Predicted minus realized objective change per golden trial");

  obs::Counter& acceptedByType(MoveType t) {
    switch (t) {
      case MoveType::kSizeDisplace: return accepted_i;
      case MoveType::kChildDisplaceSize: return accepted_ii;
      case MoveType::kReassign: return accepted_iii;
    }
    return accepted_i;
  }
  static LocalObs& get() {
    static LocalObs o;
    return o;
  }
};

bool skewOk(const std::vector<double>& before_local_skew,
            const std::vector<double>& after_local_skew, double tol) {
  for (std::size_t ki = 0; ki < before_local_skew.size(); ++ki)
    if (after_local_skew[ki] > before_local_skew[ki] * tol + 1.0)
      return false;
  return true;
}

/// One trial worker's persistent state: a design replica kept in lockstep
/// with the optimizer's design, the replica's own incremental multi-corner
/// timing, and the scoped-retime scratch reused by every trial the worker
/// runs. Created once per run and updated in place on each commit — the
/// only full design copies of the whole optimization.
struct WorkerContext {
  Design replica;
  sta::IncrementalTimer timing;
  sta::ScopedRetime overlay;
  UndoRecord undo;  // scratch reused by every trial this worker runs

  WorkerContext(const Design& d, const sta::IncrementalTimer& base)
      : replica(d), timing(base), overlay(timing) {}
};

/// Copy-free golden trial: apply the move to `d`, retime only its dirty
/// subtrees in place inside the timer `overlay` wraps (which holds `d`'s
/// timing), read the objective, roll everything back. Bit-identical to
/// evaluating a full copy (asserted by tests).
void goldenTrialScoped(Design& d, sta::ScopedRetime& overlay,
                       UndoRecord& undo, const Objective& objective,
                       const Move& m, TrialEval* out) {
  applyMoveUndoable(d, m, &undo);
  overlay.retime(d, undo.dirty);
  objective.evaluateTrial(d, overlay.base().timings(), out);
  overlay.rollback();
  undoMove(d, undo);
}

}  // namespace

LocalResult LocalOptimizer::run(Design& d, const Objective& objective,
                                const DeltaLatencyModel* model,
                                std::size_t analytic_fallback) const {
  obs::Span run_span("local.run");
  LocalObs& lobs = LocalObs::get();
  LocalResult res;
  // The round's base timing: one full multi-corner STA here, then only
  // incremental subtree updates after each committed move.
  sta::IncrementalTimer base_timing(*tech_, d);
  const VariationReport initial =
      objective.evaluateFromTimings(d, base_timing.timings());
  double current_sum = initial.sum_variation_ps;
  res.sum_before_ps = current_sum;
  res.sum_after_ps = current_sum;
  if (opts_.max_iterations == 0) return res;

  MovePredictor predictor(d, timer_, objective, model, analytic_fallback,
                          &base_timing.timings());

  support::ThreadPool& pool = support::ThreadPool::shared();
  const std::size_t max_workers =
      std::max<std::size_t>(1, opts_.threads ? opts_.threads : pool.size());
  std::vector<std::unique_ptr<WorkerContext>> workers;
  auto ensureWorkers = [&](std::size_t n) {
    while (workers.size() < n)
      workers.push_back(std::make_unique<WorkerContext>(d, base_timing));
  };
  std::vector<TrialEval> reports;  // slots reused across chunks and rounds
  std::vector<double> scores;      // scoreRound output, reused across rounds
  ScoreCache score_cache;          // group predictions kept across rounds

  for (std::size_t round = 0; round < opts_.max_iterations; ++round) {
    obs::Span round_span("local.round");
    round_span.arg("round", static_cast<std::int64_t>(round));
    lobs.rounds.add();
    if (round > 0) predictor.refresh(base_timing.timings());
    std::vector<Move> moves = enumerateAllMoves(d, opts_.enumerate);
    res.candidate_moves = moves.size();
    std::size_t round_trials = 0;

    scores.resize(moves.size());
    obs::Span score_span("local.score");
    const MovePredictor::RoundStats st = predictor.scoreRound(
        moves, scores, &score_cache, opts_.parallel_trials ? &pool : nullptr);
    score_span.arg("computed", static_cast<std::int64_t>(st.computed));
    score_span.arg("reused", static_cast<std::int64_t>(st.reused));
    score_span.arg("nets", static_cast<std::int64_t>(st.nets));
    score_span.arg("kept", static_cast<std::int64_t>(st.kept));
    score_span.end();
    lobs.scores_computed.add(st.computed);
    lobs.scores_reused.add(st.reused);
    if (opts_.on_scored)
      opts_.on_scored({round, d, base_timing.timings(), moves, scores, st});
    std::vector<std::pair<double, std::size_t>> scored(moves.size());
    for (std::size_t i = 0; i < moves.size(); ++i) scored[i] = {scores[i], i};
    std::sort(scored.begin(), scored.end());

    bool committed = false;
    for (std::size_t chunk = 0;
         chunk < opts_.max_chunks_per_round && !committed; ++chunk) {
      const std::size_t lo = chunk * opts_.r;
      if (lo >= scored.size()) break;
      if (scored[lo].first > -opts_.min_predicted_gain_ps) break;
      const std::size_t hi = std::min(scored.size(), lo + opts_.r);

      // Golden-evaluate the chunk (the paper's "R individual threads").
      std::vector<std::size_t> todo;
      for (std::size_t i = lo; i < hi; ++i) {
        if (scored[i].first > -opts_.min_predicted_gain_ps) break;
        todo.push_back(i);
      }
      if (reports.size() < todo.size()) reports.resize(todo.size());
      const std::size_t slices =
          (opts_.parallel_trials && todo.size() > 1)
              ? std::min(max_workers, todo.size())
              : 1;
      ensureWorkers(slices);
      pool.runSlices(slices, [&](std::size_t s) {
        for (std::size_t t = s; t < todo.size(); t += slices) {
          obs::Span trial_span("local.golden_trial");
          WorkerContext& w = *workers[s];
          goldenTrialScoped(w.replica, w.overlay, w.undo, objective,
                            moves[scored[todo[t]].second], &reports[t]);
          lobs.golden_ms.observe(trial_span.end());
        }
      });
      res.golden_evaluations += todo.size();
      round_trials += todo.size();
      lobs.trials.add(todo.size());
      // Every trial in `todo` came with a predicted gain; a "hit" is one
      // that realized any improvement over the current sum. Driven purely
      // by the deterministic reports, so serial == parallel.
      for (std::size_t t = 0; t < todo.size(); ++t) {
        if (reports[t].sum_variation_ps < current_sum)
          lobs.predictor_hits.add();
        else
          lobs.predictor_misses.add();
        lobs.residual_ps.observe(scored[todo[t]].first -
                                 (reports[t].sum_variation_ps - current_sum));
      }

      // Pick the best realized improvement (lowest index on ties, so the
      // parallel and serial paths commit identically).
      double best_sum = current_sum;
      std::size_t best_t = todo.size();
      for (std::size_t t = 0; t < todo.size(); ++t) {
        if (reports[t].sum_variation_ps < best_sum &&
            skewOk(initial.local_skew_ps, reports[t].local_skew_ps,
                   opts_.local_skew_tolerance)) {
          best_sum = reports[t].sum_variation_ps;
          best_t = t;
        }
      }
      if (best_t < todo.size()) {
        const std::size_t best_idx = todo[best_t];
        const Move& mv = moves[scored[best_idx].second];
        LocalIteration it;
        it.round = round;
        it.type = mv.type;
        it.predicted_delta_ps = scored[best_idx].first;
        it.realized_delta_ps = reports[best_t].sum_variation_ps - current_sum;
        it.sum_after_ps = reports[best_t].sum_variation_ps;
        it.local_skew_ps = reports[best_t].local_skew_ps;
        res.history.push_back(std::move(it));
        lobs.accepted.add();
        lobs.acceptedByType(mv.type).add();
        // Commit: re-apply the move to the design and every replica and
        // retime just the dirty subtrees — no full STA, no design copies.
        const std::vector<int> dirty = applyMoveTracked(d, mv);
        base_timing.update(d, dirty);
        for (const std::unique_ptr<WorkerContext>& w : workers) {
          const std::vector<int> wdirty = applyMoveTracked(w->replica, mv);
          w->timing.update(w->replica, wdirty);
        }
        current_sum = reports[best_t].sum_variation_ps;
        committed = true;
      }
    }
    res.rounds.push_back({moves.size(), round_trials});
    if (!committed) break;  // predictor shows no further reduction
  }
  res.sum_after_ps = current_sum;
  res.improved = res.sum_after_ps < res.sum_before_ps - 1e-9;
  check::gateDesign(d, timer_, check::effectiveLevel(opts_.check_level),
                    "local:output");
  return res;
}

LocalResult LocalOptimizer::runRandom(Design& d, const Objective& objective,
                                      std::uint64_t seed) const {
  LocalResult res;
  // Same trial protocol as run()'s, on the one design: every trial is
  // applied, retimed and rolled back in place, and a commit re-applies the
  // winner and updates the timer.
  sta::IncrementalTimer timing(*tech_, d);
  sta::ScopedRetime overlay(timing);
  UndoRecord undo;
  const VariationReport initial =
      objective.evaluateFromTimings(d, timing.timings());
  double current_sum = initial.sum_variation_ps;
  res.sum_before_ps = current_sum;
  geom::Rng rng(seed);
  TrialEval trial, best;

  LocalObs& lobs = LocalObs::get();
  for (std::size_t round = 0; round < opts_.max_iterations; ++round) {
    obs::Span round_span("local.random_round");
    round_span.arg("round", static_cast<std::int64_t>(round));
    lobs.rounds.add();
    std::vector<Move> moves = enumerateAllMoves(d, opts_.enumerate);
    if (moves.empty()) break;
    res.candidate_moves = moves.size();

    best.sum_variation_ps = current_sum;
    const Move* best_move = nullptr;
    for (std::size_t i = 0; i < opts_.r; ++i) {
      const Move& m = moves[rng.index(moves.size())];
      goldenTrialScoped(d, overlay, undo, objective, m, &trial);
      ++res.golden_evaluations;
      lobs.trials.add();
      if (trial.sum_variation_ps < best.sum_variation_ps &&
          skewOk(initial.local_skew_ps, trial.local_skew_ps,
                 opts_.local_skew_tolerance)) {
        std::swap(best, trial);
        best_move = &m;
      }
    }
    if (best_move == nullptr) continue;  // a random round may find nothing
    LocalIteration it;
    it.round = round;
    it.type = best_move->type;
    it.realized_delta_ps = best.sum_variation_ps - current_sum;
    it.sum_after_ps = best.sum_variation_ps;
    it.local_skew_ps = best.local_skew_ps;
    res.history.push_back(std::move(it));
    lobs.accepted.add();
    lobs.acceptedByType(best_move->type).add();
    timing.update(d, applyMoveTracked(d, *best_move));
    current_sum = best.sum_variation_ps;
  }
  res.sum_after_ps = current_sum;
  res.improved = res.sum_after_ps < res.sum_before_ps - 1e-9;
  check::gateDesign(d, timer_, check::effectiveLevel(opts_.check_level),
                    "local:output");
  return res;
}

}  // namespace skewopt::core
