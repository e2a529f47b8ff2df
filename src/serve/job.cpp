#include "serve/job.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "network/io.h"
#include "support/fnv.h"
#include "testgen/testgen.h"

namespace skewopt::serve {

const char* sourceKindName(DesignSource::Kind k) {
  switch (k) {
    case DesignSource::Kind::kTestgen: return "testgen";
    case DesignSource::Kind::kFile: return "file";
    case DesignSource::Kind::kInline: return "inline";
  }
  return "?";
}

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

namespace {

// Canonical-key writer: '|'-separated key=value tokens, doubles in %.17g so
// the key distinguishes any two doubles that compare unequal.
class KeyWriter {
 public:
  void add(const char* k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << '|' << k << '=' << buf;
  }
  void add(const char* k, std::uint64_t v) { os_ << '|' << k << '=' << v; }
  void add(const char* k, int v) { os_ << '|' << k << '=' << v; }
  void add(const char* k, bool v) { os_ << '|' << k << '=' << (v ? 1 : 0); }
  void add(const char* k, const std::string& v) {
    // Length-prefixed so embedded '|' or '=' cannot alias another token.
    os_ << '|' << k << '=' << v.size() << ':' << v;
  }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

// Shared body of canonicalKey and topologyKey. `topology` drops exactly
// the delta-editable fields: the moved-sink list, the U sweep, and the
// corner derates (everything else pins the base topology / flow behavior).
void writeSpecKey(KeyWriter& w, const JobSpec& spec, bool topology) {
  const DesignSource& s = spec.source;
  w.add("src", std::string(sourceKindName(s.kind)));
  switch (s.kind) {
    case DesignSource::Kind::kTestgen:
      w.add("tc", s.testcase);
      w.add("sinks", s.sinks);
      w.add("pairs", s.max_pairs);
      w.add("seed", s.seed);
      w.add("best", s.select_best_scenario);
      break;
    case DesignSource::Kind::kFile:
      w.add("path", s.path);
      break;
    case DesignSource::Kind::kInline:
      w.add("text", s.text);
      break;
  }
  if (!topology) {
    w.add("mv.n", s.moved_sinks.size());
    for (const MovedSink& m : s.moved_sinks) {
      w.add("mv.s", m.sink);
      w.add("mv.x", m.x);
      w.add("mv.y", m.y);
    }
  }

  w.add("mode", std::string(core::flowModeName(spec.mode)));

  const core::GlobalOptions& g = spec.options.global;
  w.add("g.beta", g.beta);
  w.add("g.max_pairs_lp", g.max_pairs_lp);
  w.add("g.min_arc_delay_ps", g.min_arc_delay_ps);
  w.add("g.trim_threshold_ps", g.trim_threshold_ps);
  w.add("g.repair_passes", g.repair_passes);
  w.add("g.repair_threshold_ps", g.repair_threshold_ps);
  if (!topology) {
    w.add("g.u_sweep.n", g.u_sweep.size());
    for (const double u : g.u_sweep) w.add("g.u", u);
    w.add("g.derate.n", g.corner_dmax_derate.size());
    for (const double dr : g.corner_dmax_derate) w.add("g.derate", dr);
  }
  w.add("g.min_delta_ps", g.min_delta_ps);
  w.add("g.local_skew_tolerance", g.local_skew_tolerance);
  w.add("g.local_skew_allowance_ps", g.local_skew_allowance_ps);
  w.add("g.eco_pair_penalty_ps", g.eco_pair_penalty_ps);
  w.add("g.eco_overshoot_weight", g.eco_overshoot_weight);
  w.add("g.warm_start_sweep", g.warm_start_sweep);
  w.add("g.lp.max_iterations", g.lp.max_iterations);
  w.add("g.lp.tolerance", g.lp.tolerance);
  w.add("g.lp.refactor_every", g.lp.refactor_every);
  w.add("g.lp.stall_limit", g.lp.stall_limit);
  // Retired solver-choice slot (there is one LP solver). It keeps the
  // value 0 every spec wrote, so content hashes, shard routing and derived
  // trace ids of existing specs do not move.
  w.add("g.lp.algorithm", 0);
  w.add("g.lp.pricing", static_cast<int>(g.lp.pricing));

  const core::LocalOptions& l = spec.options.local;
  w.add("l.r", l.r);
  w.add("l.max_iterations", l.max_iterations);
  w.add("l.max_chunks_per_round", l.max_chunks_per_round);
  w.add("l.min_predicted_gain_ps", l.min_predicted_gain_ps);
  w.add("l.local_skew_tolerance", l.local_skew_tolerance);
  w.add("l.enum.step_um", l.enumerate.step_um);
  w.add("l.enum.surgery_box_um", l.enumerate.surgery_box_um);
  w.add("l.enum.max_reassign", l.enumerate.max_reassign);
  w.add("l.enum.include_no_sizing", l.enumerate.include_no_sizing);
}

}  // namespace

std::string canonicalKey(const JobSpec& spec) {
  KeyWriter w;
  // v2: moved_sinks + corner_dmax_derate joined the key. Bump when key
  // coverage or field semantics change.
  w.add("v", 2);
  writeSpecKey(w, spec, /*topology=*/false);
  return w.str();
}

std::uint64_t contentHash(const JobSpec& spec) {
  return support::fnv1a64(canonicalKey(spec));
}

std::string topologyKey(const JobSpec& spec) {
  KeyWriter w;
  w.add("tv", 1);  // distinct prefix: never aliases a canonical key
  writeSpecKey(w, spec, /*topology=*/true);
  return w.str();
}

JobSpec applyDeltaEdits(const JobSpec& base, const DeltaEdits& edits) {
  JobSpec spec = base;
  if (edits.has_u_sweep) spec.options.global.u_sweep = edits.u_sweep;
  if (edits.has_derates)
    spec.options.global.corner_dmax_derate = edits.corner_dmax_derate;
  for (const MovedSink& m : edits.moved_sinks) {
    bool replaced = false;
    for (MovedSink& mine : spec.source.moved_sinks)
      if (mine.sink == m.sink) {
        mine = m;
        replaced = true;
        break;
      }
    if (!replaced) spec.source.moved_sinks.push_back(m);
  }
  std::sort(spec.source.moved_sinks.begin(), spec.source.moved_sinks.end(),
            [](const MovedSink& a, const MovedSink& b) {
              return a.sink < b.sink;
            });
  return spec;
}

namespace {

network::Design materializeBase(const tech::TechModel& tech,
                                const DesignSource& source) {
  switch (source.kind) {
    case DesignSource::Kind::kTestgen: {
      testgen::TestcaseOptions o;
      o.sinks = source.sinks;
      o.max_pairs = source.max_pairs;
      o.seed = source.seed;
      o.select_best_scenario = source.select_best_scenario;
      return testgen::makeTestcase(tech, source.testcase, o);
    }
    case DesignSource::Kind::kFile:
      return network::loadDesign(tech, source.path);
    case DesignSource::Kind::kInline: {
      std::istringstream is(source.text);
      return network::readDesign(tech, is);
    }
  }
  throw std::runtime_error("unknown design source kind");
}

}  // namespace

network::Design buildDesign(const tech::TechModel& tech,
                            const DesignSource& source) {
  network::Design d = materializeBase(tech, source);
  // Sink moves ride on top of the base: relocate the sink and rebuild the
  // nets its move affects (its parent's, per Routing::rebuildAround).
  for (const MovedSink& m : source.moved_sinks) {
    if (!d.tree.isValid(m.sink) ||
        d.tree.node(m.sink).kind != network::NodeKind::Sink)
      throw std::runtime_error("moved_sinks: node " + std::to_string(m.sink) +
                               " is not a sink of the base design");
    d.tree.moveNode(m.sink, {m.x, m.y});
    d.routing.rebuildAround(d.tree, m.sink);
  }
  return d;
}

core::FlowResult runJobSpec(const tech::TechModel& tech,
                            const eco::StageDelayLut& lut,
                            const JobSpec& spec) {
  network::Design d = buildDesign(tech, spec.source);
  const core::Flow flow(tech, lut, spec.options);
  return flow.run(d, spec.mode, nullptr);
}

}  // namespace skewopt::serve
