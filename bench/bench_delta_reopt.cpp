// Delta re-optimization bench: cold resubmit vs warm-started DELTA run.
//
// For each CLS testcase and each delta edit class (relaxed corner derate,
// tightened U sweep, moved sink) the bench completes a base job through the
// serve path — populating the warm-state store under the spec's topology
// key — then times the edited spec twice: a cold run (serve::runJobSpec,
// exactly what a fresh submission pays) and a warm run
// (serve::runJobSpecWarm against the populated store, exactly what a DELTA
// submission pays). Both runs produce equal results (the differential
// serve tests assert this bit-for-bit); here equality of the headline
// metrics is rechecked and the speedup reported.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "eco/stage_lut.h"
#include "serve/warm_state.h"

using namespace skewopt;

namespace {

double wallMs(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct EditCase {
  const char* name;
  serve::DeltaEdits edits;
};

serve::JobSpec baseSpec(const bench::BenchScale& scale,
                        const std::string& testcase) {
  serve::JobSpec spec;
  spec.source.kind = serve::DesignSource::Kind::kTestgen;
  spec.source.testcase = testcase;
  const testgen::TestcaseOptions o = bench::testcaseOptions(scale, testcase);
  spec.source.sinks = o.sinks;
  spec.source.max_pairs = o.max_pairs;
  spec.source.seed = o.seed;
  spec.mode = core::FlowMode::kGlobal;
  spec.options = bench::flowOptions(scale);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::parseScale(argc, argv);
  const tech::TechModel tech = tech::TechModel::make28nm();
  const eco::StageDelayLut lut(tech);
  bench::JsonEmitter json("bench_delta_reopt");

  std::printf("Delta re-optimization: cold resubmit vs warm DELTA run\n");
  bench::printRule(86);
  std::printf("%-9s %-14s %10s %10s %9s  %s\n", "Testcase", "Edit",
              "cold ms", "delta ms", "speedup", "equal");
  bench::printRule(86);

  for (const char* name : {"CLS1v1", "CLS1v2", "CLS2v1"}) {
    const serve::JobSpec base = baseSpec(scale, name);

    // A valid sink of the materialized base design for the moved-sink
    // edit; nudged by a few microns (a placement ECO-sized change).
    const network::Design d0 = serve::buildDesign(tech, base.source);
    const int sink = d0.tree.sinks().front();
    const geom::Point at = d0.tree.node(sink).pos;

    std::vector<EditCase> edit_cases;
    {
      EditCase derate{"derate-relax", {}};
      derate.edits.has_derates = true;
      derate.edits.corner_dmax_derate = {1.05};
      edit_cases.push_back(std::move(derate));

      // Tighten U by dropping the loosest budget point. The remaining
      // points are a prefix of the base sweep, so the warm run replays the
      // base job's recorded LP solutions and realized candidates outright
      // (solve + realize both skipped) — the headline "small edit" case.
      EditCase tighten{"u-tighten", {}};
      tighten.edits.has_u_sweep = true;
      tighten.edits.u_sweep = base.options.global.u_sweep;
      tighten.edits.u_sweep.pop_back();
      edit_cases.push_back(std::move(tighten));

      EditCase moved{"moved-sink", {}};
      moved.edits.moved_sinks.push_back(
          serve::MovedSink{sink, at.x + 2.0, at.y + 1.0});
      edit_cases.push_back(std::move(moved));
    }

    for (const EditCase& ec : edit_cases) {
      // Fresh store per edit class so every delta run starts from exactly
      // the base job's warm state (the edited spec shares its topology key
      // and would overwrite the entry otherwise).
      serve::WarmStateStore store(8);
      (void)serve::runJobSpecWarm(tech, lut, base, &store);

      const serve::JobSpec edited = serve::applyDeltaEdits(base, ec.edits);

      const auto t_cold = std::chrono::steady_clock::now();
      const core::FlowResult cold = serve::runJobSpec(tech, lut, edited);
      const double cold_ms = wallMs(t_cold);

      const auto t_delta = std::chrono::steady_clock::now();
      const core::FlowResult delta =
          serve::runJobSpecWarm(tech, lut, edited, &store);
      const double delta_ms = wallMs(t_delta);

      const bool equal =
          cold.after.sum_variation_ps == delta.after.sum_variation_ps &&
          cold.global.chosen_u_ps == delta.global.chosen_u_ps &&
          cold.global.arcs_changed == delta.global.arcs_changed;
      const double speedup = delta_ms > 0.0 ? cold_ms / delta_ms : 0.0;

      std::printf("%-9s %-14s %10.2f %10.2f %8.2fx  %s\n", name, ec.name,
                  cold_ms, delta_ms, speedup, equal ? "yes" : "NO");
      const std::string case_name = std::string(name) + "/" + ec.name;
      json.record(case_name, "cold_ms", cold_ms, cold_ms);
      json.record(case_name, "delta_ms", delta_ms, delta_ms);
      json.record(case_name, "speedup", speedup);
      json.record(case_name, "results_equal", equal ? 1.0 : 0.0);
      json.record(case_name, "delta_lp_replays",
                  static_cast<double>(delta.global.lp_replays));
      json.record(case_name, "delta_realize_memo_hits",
                  static_cast<double>(delta.global.realize_memo_hits));
      json.record(case_name, "delta_lp_solves",
                  static_cast<double>(delta.global.lp_solves.size()));
    }
  }
  bench::printRule(86);
  return 0;
}
