#include "serve/spec_check.h"

#include <cmath>

namespace skewopt::serve {

using check::DiagnosticEngine;
using check::Severity;

void checkJobSpec(const JobSpec& spec, DiagnosticEngine& engine) {
  const char* kCheck = "job-spec";
  const DesignSource& s = spec.source;
  switch (s.kind) {
    case DesignSource::Kind::kTestgen:
      if (s.testcase != "CLS1v1" && s.testcase != "CLS1v2" &&
          s.testcase != "CLS2v1")
        engine.report(303, Severity::kError, kCheck,
                      "unknown testgen testcase \"" + s.testcase + "\"");
      if (s.sinks == 0)
        engine.report(303, Severity::kError, kCheck,
                      "testgen source requests zero sinks");
      break;
    case DesignSource::Kind::kFile:
      if (s.path.empty())
        engine.report(304, Severity::kError, kCheck,
                      "file source has an empty path");
      break;
    case DesignSource::Kind::kInline:
      if (s.text.empty())
        engine.report(304, Severity::kError, kCheck,
                      "inline source has empty design text");
      break;
  }
  // SKW306: moved-sink edit list (the delta edit class that changes
  // placement). Sorted unique ids with finite coordinates keep the
  // canonical key unambiguous; sink-ness against the materialized design
  // is enforced by buildDesign, which this check cannot see.
  for (std::size_t i = 0; i < s.moved_sinks.size(); ++i) {
    const MovedSink& m = s.moved_sinks[i];
    if (m.sink < 0)
      engine.report(306, Severity::kError, kCheck,
                    "moved_sinks[" + std::to_string(i) +
                        "] has a negative node id");
    if (!std::isfinite(m.x) || !std::isfinite(m.y))
      engine.report(306, Severity::kError, kCheck,
                    "moved_sinks[" + std::to_string(i) +
                        "] has a non-finite position");
    if (i > 0 && s.moved_sinks[i - 1].sink >= m.sink)
      engine.report(306, Severity::kError, kCheck,
                    "moved_sinks must be sorted by strictly increasing "
                    "sink id (entry " +
                        std::to_string(i) + ")");
  }
  // SKW307: per-corner Dmax derates (the delta edit class that moves the
  // latency rows' bounds). Derates must be finite and positive; a derate
  // below 1 tightens constraint (9), above 1 relaxes it.
  for (std::size_t i = 0;
       i < spec.options.global.corner_dmax_derate.size(); ++i) {
    const double dr = spec.options.global.corner_dmax_derate[i];
    if (!std::isfinite(dr) || dr <= 0.0)
      engine.report(307, Severity::kError, kCheck,
                    "corner_dmax_derate[" + std::to_string(i) +
                        "] must be finite and positive");
  }
  if (!std::isfinite(spec.deadline_ms) || spec.deadline_ms < 0.0)
    engine.report(305, Severity::kError, kCheck,
                  "deadline_ms must be finite and non-negative");
  if (spec.max_retries < 0)
    engine.report(305, Severity::kError, kCheck,
                  "max_retries must be non-negative");
}

void checkJobRecord(const JobSpec& spec, const std::string& key,
                    std::uint64_t hash, DiagnosticEngine& engine) {
  const char* kCheck = "job-record";
  checkJobSpec(spec, engine);
  if (key.rfind("|v=", 0) != 0)
    engine.report(302, Severity::kError, kCheck,
                  "canonical key lacks the version prefix");
  if (key != canonicalKey(spec))
    engine.report(300, Severity::kError, kCheck,
                  "stored canonical key does not match the spec");
  if (hash != contentHash(spec))
    engine.report(301, Severity::kError, kCheck,
                  "stored content hash does not match the spec");
}

}  // namespace skewopt::serve
