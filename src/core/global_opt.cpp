#include "core/global_opt.h"

#include "check/check.h"
#include "cts/cts.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

#include <algorithm>
#include <cstring>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace skewopt::core {

using network::Arc;
using network::ClockTree;
using network::Design;
using network::NodeKind;

double arcRoutedLength(const Design& d, const Arc& arc) {
  double len = 0.0;
  int prev = arc.src;
  auto hop = [&](int child) {
    const route::SteinerTree* net = d.routing.net(prev);
    double l = geom::manhattan(d.tree.node(prev).pos, d.tree.node(child).pos);
    if (net != nullptr) {
      const auto& kids = d.tree.node(prev).children;
      for (std::size_t i = 0; i < kids.size(); ++i)
        if (kids[i] == child) {
          l = net->pathLength(i);
          break;
        }
    }
    len += l;
    prev = child;
  };
  for (const int b : arc.interior) hop(b);
  hop(arc.dst);
  return len;
}

namespace {

/// Everything the LP needs, extracted once from the design snapshot.
struct LpContext {
  std::vector<Arc> arcs;
  std::vector<int> arc_by_dst;       // node id -> arc id (-1 if none)
  std::vector<std::size_t> opt_pairs;  // indices into d.pairs
  std::vector<int> slot_arc;         // slot -> arc id
  std::vector<int> arc_slot;         // arc id -> slot (-1 if not optimized)
  std::vector<std::vector<double>> delay;  // [slot][ki]
  std::vector<double> routed_len, direct_len;
  std::vector<std::vector<int>> path_of_sink;  // sink id -> slots (unsorted)
  std::vector<int> opt_sinks;
  std::vector<double> dmax;  // per ki, original max latency
};

LpContext buildContext(const Design& d,
                       const std::vector<sta::CornerTiming>& timing,
                       const VariationReport& report, std::size_t max_pairs,
                       double min_arc_delay_ps) {
  LpContext ctx;
  ctx.arcs = d.tree.extractArcs();
  ctx.arc_by_dst.assign(d.tree.numNodes(), -1);
  for (const Arc& a : ctx.arcs)
    ctx.arc_by_dst[static_cast<std::size_t>(a.dst)] = a.id;

  // Top critical pairs by weight.
  std::vector<std::size_t> order(d.pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return d.pairs[a].weight != d.pairs[b].weight
               ? d.pairs[a].weight > d.pairs[b].weight
               : a < b;
  });
  order.resize(std::min(order.size(), max_pairs));
  ctx.opt_pairs = order;

  // Arc paths of the involved sinks; arcs on any such path get LP slots.
  ctx.arc_slot.assign(ctx.arcs.size(), -1);
  ctx.path_of_sink.assign(d.tree.numNodes(), {});
  std::vector<char> sink_seen(d.tree.numNodes(), 0);
  auto addSink = [&](int s) {
    if (sink_seen[static_cast<std::size_t>(s)]) return;
    sink_seen[static_cast<std::size_t>(s)] = 1;
    ctx.opt_sinks.push_back(s);
    int cur = s;
    while (cur != d.tree.root()) {
      const int aid = ctx.arc_by_dst[static_cast<std::size_t>(cur)];
      if (aid < 0) break;  // cur is an interior node: step to its anchor
      const Arc& a = ctx.arcs[static_cast<std::size_t>(aid)];
      const double d0 = timing[0].arrival[static_cast<std::size_t>(a.dst)] -
                        timing[0].arrival[static_cast<std::size_t>(a.src)];
      // Tiny leaf stubs stay constant (no LP slot).
      if (d0 >= min_arc_delay_ps) {
        if (ctx.arc_slot[static_cast<std::size_t>(aid)] < 0) {
          ctx.arc_slot[static_cast<std::size_t>(aid)] =
              static_cast<int>(ctx.slot_arc.size());
          ctx.slot_arc.push_back(aid);
        }
        ctx.path_of_sink[static_cast<std::size_t>(s)].push_back(
            ctx.arc_slot[static_cast<std::size_t>(aid)]);
      }
      cur = a.src;
    }
  };
  for (const std::size_t pi : ctx.opt_pairs) {
    addSink(d.pairs[pi].launch);
    addSink(d.pairs[pi].capture);
  }

  const std::size_t nk = d.corners.size();
  ctx.delay.assign(ctx.slot_arc.size(), std::vector<double>(nk, 0.0));
  ctx.routed_len.resize(ctx.slot_arc.size());
  ctx.direct_len.resize(ctx.slot_arc.size());
  for (std::size_t s = 0; s < ctx.slot_arc.size(); ++s) {
    const Arc& a = ctx.arcs[static_cast<std::size_t>(ctx.slot_arc[s])];
    for (std::size_t ki = 0; ki < nk; ++ki)
      ctx.delay[s][ki] =
          timing[ki].arrival[static_cast<std::size_t>(a.dst)] -
          timing[ki].arrival[static_cast<std::size_t>(a.src)];
    ctx.routed_len[s] = arcRoutedLength(d, a);
    ctx.direct_len[s] = a.direct_len_um;
  }

  ctx.dmax.assign(nk, 0.0);
  for (std::size_t ki = 0; ki < nk; ++ki)
    for (std::size_t i = 0; i < d.tree.numNodes(); ++i) {
      const int id = static_cast<int>(i);
      if (d.tree.isValid(id) && d.tree.node(id).kind == NodeKind::Sink)
        ctx.dmax[ki] = std::max(ctx.dmax[ki], timing[ki].arrival[i]);
    }
  (void)report;
  return ctx;
}

/// Per-pair arc coefficients: +1 launch-path only, -1 capture-path only.
std::vector<std::pair<int, double>> pairCoefs(const Design& d,
                                              const LpContext& ctx,
                                              std::size_t pi) {
  std::vector<double> coef(ctx.slot_arc.size(), 0.0);
  for (const int s :
       ctx.path_of_sink[static_cast<std::size_t>(d.pairs[pi].launch)])
    coef[static_cast<std::size_t>(s)] += 1.0;
  for (const int s :
       ctx.path_of_sink[static_cast<std::size_t>(d.pairs[pi].capture)])
    coef[static_cast<std::size_t>(s)] -= 1.0;
  std::vector<std::pair<int, double>> out;
  for (std::size_t s = 0; s < coef.size(); ++s)
    if (coef[s] != 0.0) out.push_back({static_cast<int>(s), coef[s]});
  return out;
}

struct BuiltLp {
  lp::Model model;
  // dp/dm var index of (slot, ki): dp = base(slot,ki), dm = base+1.
  int varBase(std::size_t slot, std::size_t ki, std::size_t nk) const {
    return static_cast<int>(2 * (slot * nk + ki));
  }
  std::vector<int> v_var;  // per opt-pair position
  /// Constraint-(9) rows, recorded so a cached model can be re-bounded for
  /// new corner derates instead of rebuilt (see GlobalWarmState).
  std::vector<GlobalWarmState::LatencyRow> latency_rows;
};

/// Dmax multiplier of active corner ki (1.0 past the end / when empty).
double derateOf(const std::vector<double>& derates, std::size_t ki) {
  return ki < derates.size() ? derates[ki] : 1.0;
}

BuiltLp buildLp(const Design& d, const LpContext& ctx,
                const eco::StageDelayLut& lut, const Objective& objective,
                const VariationReport& report, double beta,
                const std::vector<double>& derates, bool min_sum_v,
                double u_bound) {
  BuiltLp built;
  lp::Model& m = built.model;
  const std::size_t nk = d.corners.size();
  const std::vector<double>& alpha = objective.alphas();

  // Delta variables, with Constraint (10) folded into their bounds.
  for (std::size_t s = 0; s < ctx.slot_arc.size(); ++s) {
    for (std::size_t ki = 0; ki < nk; ++ki) {
      const double dj = ctx.delay[s][ki];
      const double dmin =
          lut.minAchievableDelay(ctx.direct_len[s], d.corners[ki]);
      const double up = std::max(0.0, (beta - 1.0) * dj);
      const double down = std::max(0.0, dj - dmin);
      m.addVar(0.0, up, min_sum_v ? 0.0 : 1.0);    // Delta+
      m.addVar(0.0, down, min_sum_v ? 0.0 : 1.0);  // Delta-
    }
  }
  // V variables.
  built.v_var.reserve(ctx.opt_pairs.size());
  for (std::size_t p = 0; p < ctx.opt_pairs.size(); ++p)
    built.v_var.push_back(m.addVar(0.0, lp::kInf, min_sum_v ? 1.0 : 0.0));

  // (6) V lower bounds, (7) local-skew, (8) variation-vs-c0 preservation.
  for (std::size_t p = 0; p < ctx.opt_pairs.size(); ++p) {
    const std::size_t pi = ctx.opt_pairs[p];
    const auto coefs = pairCoefs(d, ctx, pi);
    // Original skew constants per active corner.
    std::vector<double> c(nk);
    for (std::size_t ki = 0; ki < nk; ++ki) c[ki] = report.skew_ps[ki][pi];

    for (std::size_t a = 0; a < nk; ++a) {
      for (std::size_t b = a + 1; b < nk; ++b) {
        for (int sign = -1; sign <= 1; sign += 2) {
          // V >= sign * (alpha_a * S^a - alpha_b * S^b)
          std::vector<lp::Term> terms;
          terms.push_back({built.v_var[p], 1.0});
          for (const auto& [slot, cf] : coefs) {
            const int va = built.varBase(static_cast<std::size_t>(slot), a, nk);
            const int vb = built.varBase(static_cast<std::size_t>(slot), b, nk);
            const double ka = -sign * alpha[a] * cf;
            const double kb = sign * alpha[b] * cf;
            terms.push_back({va, ka});
            terms.push_back({va + 1, -ka});
            terms.push_back({vb, kb});
            terms.push_back({vb + 1, -kb});
          }
          const double rhs = sign * (alpha[a] * c[a] - alpha[b] * c[b]);
          m.addRow(rhs, lp::kInf, std::move(terms));
        }
      }
    }
    // (7): -|c^k| <= c^k + sum coef*Delta^k <= |c^k| for every corner.
    for (std::size_t ki = 0; ki < nk; ++ki) {
      std::vector<lp::Term> terms;
      for (const auto& [slot, cf] : coefs) {
        const int v = built.varBase(static_cast<std::size_t>(slot), ki, nk);
        terms.push_back({v, cf});
        terms.push_back({v + 1, -cf});
      }
      if (terms.empty()) continue;
      m.addRow(-std::abs(c[ki]) - c[ki], std::abs(c[ki]) - c[ki],
               std::move(terms));
    }
    // (8): variation against the nominal corner must not degrade.
    for (std::size_t ki = 1; ki < nk; ++ki) {
      const double v0 = alpha[ki] * c[ki] - alpha[0] * c[0];
      std::vector<lp::Term> terms;
      for (const auto& [slot, cf] : coefs) {
        const int vk = built.varBase(static_cast<std::size_t>(slot), ki, nk);
        const int v0i = built.varBase(static_cast<std::size_t>(slot), 0, nk);
        terms.push_back({vk, alpha[ki] * cf});
        terms.push_back({vk + 1, -alpha[ki] * cf});
        terms.push_back({v0i, -alpha[0] * cf});
        terms.push_back({v0i + 1, alpha[0] * cf});
      }
      if (terms.empty()) continue;
      m.addRow(-std::abs(v0) - v0, std::abs(v0) - v0, std::move(terms));
    }
  }

  // (9): latency bound per optimized sink and corner; the RHS carries the
  // per-corner Dmax derate, and each row is recorded so delta jobs that
  // change only derates can re-bound a cached model in place.
  for (const int s : ctx.opt_sinks) {
    for (std::size_t ki = 0; ki < nk; ++ki) {
      double lat = 0.0;
      for (const int slot : ctx.path_of_sink[static_cast<std::size_t>(s)])
        lat += ctx.delay[static_cast<std::size_t>(slot)][ki];
      std::vector<lp::Term> terms;
      for (const int slot : ctx.path_of_sink[static_cast<std::size_t>(s)]) {
        const int v = built.varBase(static_cast<std::size_t>(slot), ki, nk);
        terms.push_back({v, 1.0});
        terms.push_back({v + 1, -1.0});
      }
      if (terms.empty()) continue;
      built.latency_rows.push_back({m.numRows(), ki, ctx.dmax[ki], lat});
      m.addRow(-lp::kInf, derateOf(derates, ki) * ctx.dmax[ki] - lat,
               std::move(terms));
    }
  }

  // (11): achievable cross-corner delay ratios per arc.
  for (std::size_t s = 0; s < ctx.slot_arc.size(); ++s) {
    const double d0 = ctx.delay[s][0];
    if (d0 < 1.0 || ctx.routed_len[s] < 5.0) continue;  // degenerate arc
    const double u0 = d0 / ctx.routed_len[s];
    for (std::size_t a = 0; a < nk; ++a) {
      for (std::size_t b = a + 1; b < nk; ++b) {
        const double da = ctx.delay[s][a], db = ctx.delay[s][b];
        if (db < 1.0) continue;
        double w_up =
            lut.ratioBound(d.corners[a], d.corners[b], true).eval(u0);
        double w_lo =
            lut.ratioBound(d.corners[a], d.corners[b], false).eval(u0);
        // Keep the original configuration feasible (Delta = 0).
        const double r0 = da / db;
        w_up = std::max(w_up, r0 * 1.001);
        w_lo = std::min(w_lo, r0 * 0.999);
        const int va = built.varBase(s, a, nk);
        const int vb = built.varBase(s, b, nk);
        // da + Dla - W*(db + Dlb) <= 0  (upper), >= 0 with w_lo (lower)
        m.addRow(-lp::kInf, w_up * db - da,
                 {{va, 1.0}, {va + 1, -1.0}, {vb, -w_up}, {vb + 1, w_up}});
        m.addRow(w_lo * db - da, lp::kInf,
                 {{va, 1.0}, {va + 1, -1.0}, {vb, -w_lo}, {vb + 1, w_lo}});
      }
    }
  }

  // (5): sum of V <= U (only in the min-|Delta| mode).
  if (!min_sum_v) {
    std::vector<lp::Term> terms;
    for (const int v : built.v_var) terms.push_back({v, 1.0});
    m.addRow(-lp::kInf, u_bound, std::move(terms));
  }
  return built;
}

}  // namespace

std::uint64_t designFingerprint(const Design& d,
                                const std::vector<sta::CornerTiming>& timing) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  const auto mixDouble = [&mix](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(d.tree.numNodes()));
  mix(static_cast<std::uint64_t>(d.corners.size()));
  for (std::size_t i = 0; i < d.tree.numNodes(); ++i) {
    const int id = static_cast<int>(i);
    if (!d.tree.isValid(id)) {
      mix(0x517eadull);  // keep invalid slots from aliasing valid ones
      continue;
    }
    const network::ClockNode& n = d.tree.node(id);
    mix(static_cast<std::uint64_t>(n.kind));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(n.cell)));
    mixDouble(n.pos.x);
    mixDouble(n.pos.y);
  }
  for (const sta::CornerTiming& t : timing) {
    mix(static_cast<std::uint64_t>(t.corner));
    for (const double a : t.arrival) mixDouble(a);
    for (const double s : t.slew) mixDouble(s);
  }
  return h;
}

// Post-ECO local-skew cleanup: for every pair whose |skew| degraded beyond
// the repair threshold at some corner, snake the *fast* sink's leaf wire
// until the pair is back inside its original envelope. Wire delay scales
// almost uniformly across corners, so the repair barely moves the pair's
// normalized variation while restoring the paper's "no local skew
// degradation" property that the LP guaranteed but the discrete ECO broke.
// `inc` holds `trial`'s timing: each pass reads it, and each snake
// re-times only the touched driver's subtree.
void GlobalOptimizer::repairLocalSkew(Design& trial,
                                      const Objective& objective,
                                      const VariationReport& before,
                                      sta::IncrementalTimer& inc) const {
  // Targeted: each pass fixes only the single worst violator of the
  // acceptance envelope (the gate metric is the max |skew| per corner, so
  // one or two pairs are usually responsible). Broad repair cascades
  // through shared driver loads and erodes the variation gain.
  const std::size_t nk = trial.corners.size();
  for (std::size_t pass = 0; pass < opts_.repair_passes; ++pass) {
    const VariationReport now =
        objective.evaluateFromTimings(trial, inc.timings());
    double worst_excess = 0.0;
    std::size_t worst_ki = 0, worst_pi = 0;
    for (std::size_t pi = 0; pi < trial.pairs.size(); ++pi) {
      for (std::size_t ki = 0; ki < nk; ++ki) {
        // Only pairs that currently define/threaten the gate metric
        // matter: compare against the acceptance envelope of the *corner
        // max*, not per-pair budgets.
        const double gate = before.local_skew_ps[ki] *
                                opts_.local_skew_tolerance +
                            opts_.local_skew_allowance_ps -
                            opts_.repair_threshold_ps;
        const double excess = std::abs(now.skew_ps[ki][pi]) - gate;
        if (excess > worst_excess) {
          worst_excess = excess;
          worst_ki = ki;
          worst_pi = pi;
        }
      }
    }
    if (worst_excess <= 0.0) break;

    const network::SinkPair& p = trial.pairs[worst_pi];
    const double skew = now.skew_ps[worst_ki][worst_pi];
    const int fast = skew > 0 ? p.capture : p.launch;
    const int drv = trial.tree.node(fast).parent;
    if (drv < 0) break;
    const auto& kids = trial.tree.node(drv).children;
    std::size_t pin = 0;
    for (std::size_t pi2 = 0; pi2 < kids.size(); ++pi2)
      if (kids[pi2] == fast) pin = pi2;
    // Sensitivity at the violating corner (snake delay there per um).
    const std::size_t k = trial.corners[worst_ki];
    const tech::WireParams& w = tech_->wire(k);
    const network::ClockNode& dn = trial.tree.node(drv);
    const double reff =
        (dn.kind == NodeKind::Buffer)
            ? cts::CtsEngine::effectiveDriveRes(
                  tech_->cell(static_cast<std::size_t>(dn.cell)), k)
            : 0.2;
    const double cur = trial.routing.extraOf(drv, pin);
    const double cpin = (trial.tree.node(fast).kind == NodeKind::Sink)
                            ? tech_->sinkCapFf(k)
                            : tech_->cell(static_cast<std::size_t>(
                                              trial.tree.node(fast).cell))
                                  .pin_cap_ff[k];
    const double sens = w.res_kohm_per_um * w.cap_ff_per_um * cur +
                        w.res_kohm_per_um * (cpin + 2.0) +
                        reff * w.cap_ff_per_um + 1e-4;
    const double extra = std::min(0.7 * worst_excess / sens, 250.0);
    if (extra < 1.0) break;
    trial.routing.addExtra(drv, pin, extra);
    inc.update(trial, {drv});
  }
}

namespace {

/// LP-model gate: verifies the freshly built model (and, for the sweep
/// model, the budget-row identity) before handing it to the solver.
void gateLp(const lp::Model& model, int budget_row, check::Level level,
            const char* stage) {
  if (level == check::Level::kOff) return;
  check::DiagnosticEngine engine;
  engine.setContext(stage);
  check::checkLpModel(model, engine);
  if (budget_row >= 0) check::checkBudgetRow(model, budget_row, engine);
  if (engine.hasErrors()) throw check::CheckFailure(engine, stage);
}

/// LP certificate gate: certifies a live Optimal solve against its model
/// before its x is used. Replayed solutions skip it — they carry no duals
/// and are bit-copies of an earlier live solve that passed it.
void gateLpCertificate(const lp::Model& model, const lp::Solution& sol,
                       check::Level level) {
  if (level == check::Level::kOff || sol.status != lp::Status::Optimal) return;
  const char* stage = "global:lp-cert";
  check::DiagnosticEngine engine;
  engine.setContext(stage);
  check::checkLpOptimality(model, sol, engine);
  if (engine.hasErrors()) throw check::CheckFailure(engine, stage);
}

}  // namespace

namespace {

// Shared LP-solve bookkeeping for pass 1 and every sweep point.
struct LpObs {
  obs::Counter& solves = obs::MetricsRegistry::global().counter(
      "skewopt_lp_solves_total", "LP solves issued by the global stage");
  obs::Counter& iterations = obs::MetricsRegistry::global().counter(
      "skewopt_lp_simplex_iterations_total", "Simplex iterations across solves");
  obs::Counter& warm_hits = obs::MetricsRegistry::global().counter(
      "skewopt_lp_warm_hits_total", "Sweep solves that reused the basis chain");
  obs::Counter& warm_misses = obs::MetricsRegistry::global().counter(
      "skewopt_lp_warm_misses_total", "Sweep solves that fell back to cold");
  obs::Histogram& solve_ms = obs::MetricsRegistry::global().histogram(
      "skewopt_lp_solve_ms", obs::defaultMsBuckets(), "Per-LP solve wall time");
  static LpObs& get() {
    static LpObs o;
    return o;
  }
};

}  // namespace

GlobalResult GlobalOptimizer::run(Design& d, const Objective& objective) const {
  return run(d, objective, /*seed=*/nullptr, /*warm_in=*/nullptr,
             /*warm_out=*/nullptr);
}

GlobalResult GlobalOptimizer::run(Design& d, const Objective& objective,
                                  const sta::IncrementalTimer* seed,
                                  const GlobalWarmState* warm_in,
                                  GlobalWarmState* warm_out) const {
  obs::Span run_span("global.run");
  LpObs& lpo = LpObs::get();
  const check::Level chk = check::effectiveLevel(opts_.check_level);
  GlobalResult res;
  // A cold run analyzes the design once into its own incremental timer; a
  // seeded run reads the caller's, whose state is bit-identical to it.
  std::optional<sta::IncrementalTimer> own_timer;
  if (seed == nullptr) seed = &own_timer.emplace(*tech_, d);
  const std::vector<sta::CornerTiming>& timing = seed->timings();
  const VariationReport before = objective.evaluateFromTimings(d, timing);
  res.sum_before_ps = before.sum_variation_ps;
  res.sum_after_ps = before.sum_variation_ps;

  if (d.pairs.empty()) return res;
  LpContext ctx = buildContext(d, timing, before, opts_.max_pairs_lp,
                               opts_.min_arc_delay_ps);
  res.arcs_in_lp = ctx.slot_arc.size();
  if (ctx.slot_arc.empty()) return res;

  for (const std::size_t pi : ctx.opt_pairs)
    res.lp_orig_sum_ps += before.v_pair_ps[pi];

  // Cross-job warm state: reuse prior models only when the design's
  // placement/timing bits match exactly (then the prior models are
  // coefficient-identical and only row RHS can differ via derates).
  const bool cross_job = warm_in != nullptr || warm_out != nullptr;
  const std::uint64_t fp = cross_job ? designFingerprint(d, timing) : 0;
  // Solution replay below is additionally gated on matching derates;
  // design-changing edits (moved sinks) fail the fingerprint here and run
  // the LPs cold, keeping only the incremental-STA seed.
  const bool warm_data_match = warm_in != nullptr && warm_in->models_valid &&
                               warm_in->model_fingerprint == fp;
  const bool reuse_models =
      warm_data_match && warm_in->min_v_model.numVars() > 0;
  static obs::Counter& model_reuses = obs::MetricsRegistry::global().counter(
      "skewopt_global_model_reuses_total",
      "Global runs that re-bounded cached LP models instead of rebuilding");
  static obs::Counter& memo_hits_ctr = obs::MetricsRegistry::global().counter(
      "skewopt_global_realize_memo_hits_total",
      "Sweep points served from the cross-job realization memo");

  // Pass 1: minimum achievable sum of variations over the selected pairs.
  BuiltLp min_lp;
  std::vector<GlobalWarmState::LatencyRow> latency_rows;
  {
    obs::Span build_span("global.lp_build");
    build_span.arg("pass", std::int64_t{1});
    if (reuse_models) {
      min_lp.model = warm_in->min_v_model;
      latency_rows = warm_in->latency_rows;
      for (const GlobalWarmState::LatencyRow& lr : latency_rows)
        min_lp.model.setRowBounds(
            lr.row, -lp::kInf,
            derateOf(opts_.corner_dmax_derate, lr.ki) * lr.dmax - lr.lat);
      res.reused_models = true;
      model_reuses.add();
    } else {
      min_lp = buildLp(d, ctx, *lut_, objective, before, opts_.beta,
                       opts_.corner_dmax_derate, /*min_sum_v=*/true, 0.0);
      latency_rows = std::move(min_lp.latency_rows);
    }
  }
  res.lp_rows = static_cast<std::size_t>(min_lp.model.numRows());
  res.lp_vars = static_cast<std::size_t>(min_lp.model.numVars());
  gateLp(min_lp.model, /*budget_row=*/-1, chk, "global:lp");
  // Exact solve replay: when the fingerprint AND the effective derates
  // match the cached state bitwise, the (re-bounded) models are
  // bit-identical to the ones the cached run solved, so its recorded
  // solutions ARE the cold answers and the solves can be skipped outright.
  // This is the only equality-safe way to reuse prior solver work; seeding
  // the simplex with a foreign basis converges, on degenerate models, to
  // an alternate optimal vertex whose low-order bits differ from the cold
  // solve, which the differential delta==cold tests reject.
  std::vector<double> eff_derates(d.corners.size());
  for (std::size_t ki = 0; ki < eff_derates.size(); ++ki)
    eff_derates[ki] = derateOf(opts_.corner_dmax_derate, ki);
  static obs::Counter& replays_ctr = obs::MetricsRegistry::global().counter(
      "skewopt_global_lp_replays_total",
      "LP solves skipped by replaying a cached bit-identical solution");
  lp::Basis pass1_cached;
  const bool pass1_replay =
      warm_data_match && warm_in->pass1_valid &&
      warm_in->solve_derates == eff_derates &&
      lp::deserializeBasis(warm_in->pass1_basis, &pass1_cached) &&
      pass1_cached.status.size() ==
          static_cast<std::size_t>(min_lp.model.numVars() +
                                   min_lp.model.numRows());
  lp::Solution vsol;
  double pass1_ms = 0.0;  // a replayed solve has no span and reports 0
  if (pass1_replay) {
    vsol.status = lp::Status::Optimal;
    vsol.objective = warm_in->pass1_objective;
    vsol.iterations = warm_in->pass1_iterations;
    vsol.basis = std::move(pass1_cached);
    ++res.lp_replays;
    replays_ctr.add();
  } else {
    obs::Span solve_span("global.lp_solve");
    solve_span.arg("pass", std::int64_t{1});
    vsol = lp::solve(min_lp.model, opts_.lp, nullptr);
    pass1_ms = solve_span.end();
    lpo.solves.add();
    lpo.iterations.add(static_cast<std::uint64_t>(vsol.iterations));
    lpo.solve_ms.observe(pass1_ms);
  }
  if (!pass1_replay) gateLpCertificate(min_lp.model, vsol, chk);
  res.lp_solves.push_back({0.0, vsol.iterations, vsol.refactorizations,
                           pass1_replay,
                           vsol.status == lp::Status::Optimal, pass1_ms,
                           0.0});
  if (vsol.status != lp::Status::Optimal) return res;
  res.lp_min_sum_ps = vsol.objective;
  res.lp_iterations = vsol.iterations;

  // Pass 2: sweep U, realize each LP with the ECO flow, keep the best.
  //
  // The sweep model is built once — it differs from the pass-1 model only
  // in objective and in the budget row (5), appended last — and re-bounded
  // per sweep point. The LPs are solved serially so each re-enters from
  // the previous optimal basis (only that one bound moved); realization
  // (ECO + golden re-time), the expensive part, then fans out across sweep
  // points on the shared pool. The best-candidate pick below walks the
  // results in sweep order with the serial acceptance logic, so the
  // parallel path is bit-identical to the serial one.
  eco::EcoEngine eco_engine(*tech_, *lut_, opts_.eco_pair_penalty_ps,
                            opts_.eco_overshoot_weight);
  const std::size_t nk = d.corners.size();
  double best_sum = before.sum_variation_ps;
  Design best = d;
  bool improved = false;

  BuiltLp sweep_lp;
  {
    obs::Span build_span("global.lp_build");
    build_span.arg("pass", std::int64_t{2});
    if (reuse_models) {
      sweep_lp.model = warm_in->sweep_model;
      for (const GlobalWarmState::LatencyRow& lr : latency_rows)
        sweep_lp.model.setRowBounds(
            lr.row, -lp::kInf,
            derateOf(opts_.corner_dmax_derate, lr.ki) * lr.dmax - lr.lat);
    } else {
      sweep_lp = buildLp(d, ctx, *lut_, objective, before, opts_.beta,
                         opts_.corner_dmax_derate, /*min_sum_v=*/false,
                         res.lp_orig_sum_ps);
    }
  }
  const int budget_row = sweep_lp.model.numRows() - 1;
  gateLp(sweep_lp.model, budget_row, chk, "global:lp-sweep");
  if (chk >= check::Level::kDeep) {
    check::DiagnosticEngine engine;
    engine.setContext("global:lp-sweep");
    check::checkRatioEnvelope(*lut_, d, engine);
    if (engine.hasErrors())
      throw check::CheckFailure(engine, "global:lp-sweep");
  }
  lp::Basis chain;
  if (opts_.warm_start_sweep && !vsol.basis.empty()) {
    // Extend the pass-1 basis with the budget slack: its unit column keeps
    // the basis nonsingular, and the pass-1 vertex satisfies (5) for every
    // swept U >= the minimum sum, so phase 1 exits immediately. A replayed
    // pass-1 deserializes the exact basis the cold run would compute, so
    // the chain evolves identically either way.
    chain = vsol.basis;
    chain.status.push_back(lp::BasisStatus::Basic);
  }

  struct SweepPoint {
    double u = 0.0;
    bool solved = false;
    std::vector<double> x;  ///< LP solution (empty unless solved)
    int iterations = 0;
    std::vector<unsigned char> basis_after;  ///< chain after this solve
    std::size_t stats_ix = 0;
    std::shared_ptr<const Design> trial;
    VariationReport after;
    std::size_t changed = 0;
  };
  std::vector<SweepPoint> points;

  // Prefix-only sweep replay: the sweep solves chain bases serially, so a
  // cached point is the cold answer only while every earlier point (and
  // pass 1) replayed too — the first mismatch breaks the chain and every
  // later point solves live from the exactly-reproduced chain state.
  std::size_t replay_ix = 0;
  bool replaying = pass1_replay;
  for (const double t : opts_.u_sweep) {
    const double u =
        res.lp_min_sum_ps + t * (res.lp_orig_sum_ps - res.lp_min_sum_ps);
    if (u >= res.lp_orig_sum_ps) continue;
    obs::Span point_span("global.u_point");
    point_span.arg("u_index", static_cast<std::int64_t>(points.size()));
    point_span.arg("u_ps", u);
    SweepPoint pt;
    pt.u = u;
    pt.stats_ix = res.lp_solves.size();
    const GlobalWarmState::SweptSolution* cached = nullptr;
    if (replaying && replay_ix < warm_in->sweep_solutions.size() &&
        warm_in->sweep_solutions[replay_ix].u == u)
      cached = &warm_in->sweep_solutions[replay_ix];
    lp::Basis cached_basis;
    if (cached != nullptr && opts_.warm_start_sweep &&
        !(lp::deserializeBasis(cached->basis, &cached_basis) &&
          cached_basis.status.size() ==
              static_cast<std::size_t>(sweep_lp.model.numVars() +
                                       sweep_lp.model.numRows())))
      cached = nullptr;  // unusable chain state: fall back to a live solve
    if (cached != nullptr) {
      pt.solved = true;
      pt.x = cached->x;
      pt.iterations = cached->iterations;
      pt.basis_after = cached->basis;
      if (opts_.warm_start_sweep) chain = std::move(cached_basis);
      ++replay_ix;
      ++res.lp_replays;
      replays_ctr.add();
      res.lp_solves.push_back(
          {u, cached->iterations, 0, true, true, 0.0, 0.0});
      points.push_back(std::move(pt));
      continue;
    }
    replaying = false;
    sweep_lp.model.setRowBounds(budget_row, -lp::kInf, u);
    obs::Span solve_span("global.lp_solve");
    solve_span.arg("u_index", static_cast<std::int64_t>(points.size()));
    const lp::Solution sol = lp::solve(sweep_lp.model, opts_.lp,
                                       chain.empty() ? nullptr : &chain);
    const double sweep_ms = solve_span.end();
    gateLpCertificate(sweep_lp.model, sol, chk);
    lpo.solves.add();
    lpo.iterations.add(static_cast<std::uint64_t>(sol.iterations));
    lpo.solve_ms.observe(sweep_ms);
    if (!chain.empty()) {
      if (sol.warm_started) {
        ++res.lp_warm_hits;
        lpo.warm_hits.add();
      } else {
        ++res.lp_warm_misses;
        lpo.warm_misses.add();
      }
    }
    res.lp_solves.push_back({u, sol.iterations, sol.refactorizations,
                             sol.warm_started,
                             sol.status == lp::Status::Optimal, sweep_ms,
                             0.0});
    if (sol.status == lp::Status::Optimal) {
      pt.solved = true;
      pt.x = sol.x;
      pt.iterations = sol.iterations;
      if (opts_.warm_start_sweep) chain = sol.basis;
      pt.basis_after = lp::serializeBasis(sol.basis);
    }
    points.push_back(std::move(pt));
  }

  // Upstream arcs first so that downstream rebuilds see stable parents;
  // the order is a function of the original design only, so it is shared
  // by every sweep point.
  std::vector<std::size_t> slots(ctx.slot_arc.size());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  std::sort(slots.begin(), slots.end(), [&](std::size_t a, std::size_t b) {
    const int la = d.tree.level(
        ctx.arcs[static_cast<std::size_t>(ctx.slot_arc[a])].src);
    const int lb = d.tree.level(
        ctx.arcs[static_cast<std::size_t>(ctx.slot_arc[b])].src);
    return la != lb ? la < lb : a < b;
  });

  // Realizes one LP solution: per-point Design replica and timer copy,
  // Algorithm-1 ECO per arc, golden re-time, local-skew repair, full
  // evaluation. Reads only shared const state (d, ctx, *seed, engines), so
  // sweep points are independent.
  const auto realize = [&](SweepPoint& pt) {
    const std::vector<double>& x = pt.x;
    Design trial = d;
    std::size_t changed = 0;
    // Slews/loads are refreshed from the trial design as upstream rebuilds
    // land, so downstream arc solutions see post-ECO conditions. Each
    // rebuild re-times only the rebuilt driver's subtree, bit-identical to
    // a full golden re-analysis (IncrementalTimer contract).
    sta::IncrementalTimer inc(*seed);
    const std::vector<sta::CornerTiming>& trial_timing = inc.timings();
    const auto retime = [&](int dirty_root) {
      inc.ensureSize(trial.tree.numNodes());
      inc.update(trial, {dirty_root});
    };
    for (const std::size_t s : slots) {
      const Arc& arc = ctx.arcs[static_cast<std::size_t>(ctx.slot_arc[s])];
      std::vector<double> desired(nk), chain_ps(nk), slews(nk), loads(nk);
      double maxdev = 0.0;
      for (std::size_t ki = 0; ki < nk; ++ki) {
        const int v = sweep_lp.varBase(s, ki, nk);
        const double delta = x[static_cast<std::size_t>(v)] -
                             x[static_cast<std::size_t>(v + 1)];
        desired[ki] = ctx.delay[s][ki] + delta;
        maxdev = std::max(maxdev, std::abs(delta));
        slews[ki] = trial_timing[ki].slew[static_cast<std::size_t>(arc.src)];
        const network::ClockNode& dst = d.tree.node(arc.dst);
        loads[ki] = (dst.kind == NodeKind::Sink)
                        ? tech_->sinkCapFf(d.corners[ki])
                        : tech_->cell(static_cast<std::size_t>(dst.cell))
                              .pin_cap_ff[d.corners[ki]];
        // The arc delay spans src output -> dst *output*, but the LUT chain
        // model ends at the dst input pin: target the chain at the desired
        // delay minus the dst's own (current) gate delay.
        const double dst_gate =
            trial_timing[ki].arrival[static_cast<std::size_t>(arc.dst)] -
            trial_timing[ki].in_arrival[static_cast<std::size_t>(arc.dst)];
        chain_ps[ki] = std::max(1.0, desired[ki] - dst_gate);
      }
      if (maxdev < opts_.min_delta_ps) continue;
      eco::ArcSolution asol = eco_engine.selectSolution(
          d.corners, chain_ps, ctx.direct_len[s], slews, loads);
      if (!asol.valid) continue;
      // Second pass: the new chain changes the slew into dst, which moves
      // dst's own gate delay; re-target the chain against the *predicted*
      // post-ECO dst gate delay.
      const network::ClockNode& dstn = d.tree.node(arc.dst);
      if (dstn.kind == NodeKind::Buffer) {
        const tech::Cell& dcell =
            tech_->cell(static_cast<std::size_t>(dstn.cell));
        for (std::size_t ki = 0; ki < nk; ++ki) {
          const std::size_t k = d.corners[ki];
          const double slew_pred = lut_->detailOutSlew(
              asol.p, lut_->wirelengths()[asol.q_idx], k,
              asol.u >= 2 ? lut_->uniformSlew(asol.p, asol.q_idx, k)
                          : slews[ki],
              loads[ki]);
          const double dload =
              trial_timing[ki].driver_load[static_cast<std::size_t>(arc.dst)];
          const double gate_pred = dcell.delay[k].lookup(slew_pred, dload);
          chain_ps[ki] = std::max(1.0, desired[ki] - gate_pred);
        }
        asol = eco_engine.selectSolution(d.corners, chain_ps,
                                         ctx.direct_len[s], slews, loads);
        if (!asol.valid) continue;
      }
      const std::vector<int> inserted = eco_engine.rebuildArc(trial, arc, asol);
      ++changed;
      // The rebuild changed arc.src's net (and so its load and everything
      // below); in_arrival[arc.src] is untouched, so arc.src roots the
      // dirty subtree.
      retime(arc.src);

      // Trim: close nominal-corner undershoot with snaking on the arc's
      // last hop. Wire delay scales almost uniformly across corners, so
      // this cancels the common-mode part of the ECO quantization error.
      for (int pass = 0; pass < 2; ++pass) {
        const double realized =
            trial_timing[0].arrival[static_cast<std::size_t>(arc.dst)] -
            trial_timing[0].arrival[static_cast<std::size_t>(arc.src)];
        const double gap = desired[0] - realized;
        if (gap <= opts_.trim_threshold_ps) break;
        const int hop_driver = inserted.empty() ? arc.src : inserted.back();
        const auto& hop_kids = trial.tree.node(hop_driver).children;
        std::size_t pin = 0;
        bool found = false;
        for (std::size_t pi = 0; pi < hop_kids.size(); ++pi)
          if (hop_kids[pi] == arc.dst) {
            pin = pi;
            found = true;
          }
        if (!found) break;
        const tech::WireParams& w = tech_->wire(d.corners[0]);
        const network::ClockNode& hd = trial.tree.node(hop_driver);
        const double reff =
            (hd.kind == NodeKind::Buffer)
                ? cts::CtsEngine::effectiveDriveRes(
                      tech_->cell(static_cast<std::size_t>(hd.cell)),
                      d.corners[0])
                : 0.2;
        const double cur = trial.routing.extraOf(hop_driver, pin);
        const double sens = w.res_kohm_per_um * w.cap_ff_per_um * cur +
                            w.res_kohm_per_um * (loads[0] + 2.0) +
                            reff * w.cap_ff_per_um + 1e-4;
        const double extra = std::min(gap / sens, 500.0);
        if (extra < 1.0) break;
        trial.routing.addExtra(hop_driver, pin, extra);
        retime(hop_driver);
      }
    }

    std::string err;
    if (!trial.tree.validate(&err))
      throw std::logic_error("global ECO broke the tree: " + err);
    repairLocalSkew(trial, objective, before, inc);
    pt.after = objective.evaluateFromTimings(trial, inc.timings());
    pt.trial = std::make_shared<const Design>(std::move(trial));
    pt.changed = changed;
  };

  // Cross-job realize memo: a solved point whose LP solution matches a
  // prior run's bit-exactly (same design fingerprint) reuses that run's
  // realized candidate. Realization is deterministic in (options, design,
  // timing, x) — all pinned by the topology key and fingerprint — so a hit
  // cannot change the result, only skip the ECO + re-time that would
  // reproduce it.
  if (warm_in != nullptr) {
    for (SweepPoint& pt : points) {
      if (!pt.solved) continue;
      for (const RealizedPointMemo& memo : warm_in->realize_memo) {
        if (memo.fingerprint != fp || memo.x != pt.x) continue;
        pt.trial = memo.trial;
        pt.after = memo.after;
        pt.changed = memo.changed;
        ++res.realize_memo_hits;
        memo_hits_ctr.add();
        break;
      }
    }
  }

  std::vector<SweepPoint*> todo;
  for (SweepPoint& pt : points)
    if (pt.solved && pt.trial == nullptr) todo.push_back(&pt);
  static obs::Histogram& realize_hist = obs::MetricsRegistry::global().histogram(
      "skewopt_global_realize_ms", obs::defaultMsBuckets(),
      "Per-sweep-point ECO realization wall time");
  static obs::Counter& realized_arcs = obs::MetricsRegistry::global().counter(
      "skewopt_global_realized_arcs_total",
      "Arcs rebuilt by the global-stage ECO across sweep points");
  const auto realizeOne = [&](std::size_t i) {
    SweepPoint& pt = *todo[i];
    obs::Span realize_span("global.realize");
    // lp_solves[0] is pass 1, so a point's sweep index is stats_ix - 1.
    realize_span.arg("u_index", static_cast<std::int64_t>(pt.stats_ix - 1));
    realize(pt);
    const double ms = realize_span.end();
    res.lp_solves[pt.stats_ix].realize_ms = ms;
    realize_hist.observe(ms);
    realized_arcs.add(pt.changed);
  };
  if (opts_.parallel_realize && todo.size() > 1) {
    support::ThreadPool::shared().runSlices(todo.size(), realizeOne);
  } else {
    for (std::size_t i = 0; i < todo.size(); ++i) realizeOne(i);
  }

  // Capture this run's warm state before the pick below consumes the
  // trial designs. `warm_out` must not alias `warm_in` (the serve store
  // always hands out distinct snapshots).
  if (warm_out != nullptr) {
    warm_out->pass1_basis = lp::serializeBasis(vsol.basis);
    warm_out->model_fingerprint = fp;
    warm_out->latency_rows = std::move(latency_rows);
    warm_out->min_v_model = std::move(min_lp.model);
    warm_out->sweep_model = std::move(sweep_lp.model);
    warm_out->models_valid = true;
    warm_out->solve_derates = std::move(eff_derates);
    warm_out->pass1_valid = vsol.status == lp::Status::Optimal;
    warm_out->pass1_objective = vsol.objective;
    warm_out->pass1_iterations = vsol.iterations;
    warm_out->sweep_solutions.clear();
    for (const SweepPoint& pt : points)
      if (pt.solved)
        warm_out->sweep_solutions.push_back(
            {pt.u, pt.x, pt.iterations, pt.basis_after});
    constexpr std::size_t kMemoCap = 24;
    warm_out->realize_memo.clear();
    for (const SweepPoint& pt : points)
      if (pt.solved && pt.trial != nullptr &&
          warm_out->realize_memo.size() < kMemoCap)
        warm_out->realize_memo.push_back(
            {fp, pt.x, pt.trial, pt.after, pt.changed});
    if (warm_in != nullptr) {
      // Inherit prior entries (newest first already in store order) up to
      // the cap so alternating edits keep hitting.
      for (const RealizedPointMemo& memo : warm_in->realize_memo) {
        if (warm_out->realize_memo.size() >= kMemoCap) break;
        bool dup = false;
        for (const RealizedPointMemo& mine : warm_out->realize_memo)
          if (mine.fingerprint == memo.fingerprint && mine.x == memo.x) {
            dup = true;
            break;
          }
        if (!dup) warm_out->realize_memo.push_back(memo);
      }
    }
  }

  // Deterministic pick: walk the sweep points in index order with the
  // serial acceptance logic (strict improvement, earlier point wins ties).
  for (SweepPoint& pt : points) {
    if (!pt.solved) {
      res.candidates.push_back({pt.u, -1.0});
      continue;
    }
    res.candidates.push_back({pt.u, pt.after.sum_variation_ps});
    // Accept only if the realized local skew did not materially degrade.
    bool skew_ok = true;
    for (std::size_t ki = 0; ki < nk; ++ki)
      if (pt.after.local_skew_ps[ki] >
          before.local_skew_ps[ki] * opts_.local_skew_tolerance +
              opts_.local_skew_allowance_ps)
        skew_ok = false;
    if (skew_ok && pt.after.sum_variation_ps < best_sum) {
      best_sum = pt.after.sum_variation_ps;
      best = *pt.trial;
      improved = true;
      res.chosen_u_ps = pt.u;
      res.arcs_changed = pt.changed;
    }
  }

  if (improved) {
    d = std::move(best);
    res.sum_after_ps = best_sum;
    res.improved = true;
  }

  check::gateDesign(d, timer_, chk, "global:output");
  return res;
}

GlobalLpProbe GlobalOptimizer::extractGlobalLp(const Design& d,
                                               const Objective& objective) const {
  GlobalLpProbe probe;
  if (d.pairs.empty()) return probe;
  const std::vector<sta::CornerTiming> timing = timer_.analyzeDesign(d);
  std::vector<std::vector<double>> lat(timing.size());
  for (std::size_t ki = 0; ki < timing.size(); ++ki)
    lat[ki] = timing[ki].arrival;
  const VariationReport before = objective.evaluateFromLatencies(d, lat);
  const LpContext ctx = buildContext(d, timing, before, opts_.max_pairs_lp,
                                     opts_.min_arc_delay_ps);
  if (ctx.slot_arc.empty()) return probe;
  for (const std::size_t pi : ctx.opt_pairs)
    probe.orig_sum_ps += before.v_pair_ps[pi];
  probe.min_v = buildLp(d, ctx, *lut_, objective, before, opts_.beta,
                        opts_.corner_dmax_derate, /*min_sum_v=*/true, 0.0)
                    .model;
  BuiltLp sweep = buildLp(d, ctx, *lut_, objective, before, opts_.beta,
                          opts_.corner_dmax_derate, /*min_sum_v=*/false,
                          probe.orig_sum_ps);
  probe.budget_row = sweep.model.numRows() - 1;
  probe.sweep = std::move(sweep.model);
  return probe;
}

}  // namespace skewopt::core
