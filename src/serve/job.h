// Declarative optimization jobs for the serve subsystem.
//
// A JobSpec names everything needed to reproduce one optimization run:
// where the design comes from (a testgen recipe, a .skv file on disk, or
// inline .skv text), which flow to run, and the full FlowOptions. Specs
// are value types; `canonicalKey` serializes every result-affecting field
// into a versioned string and `contentHash` folds it to 64 bits, so two
// specs with equal keys are guaranteed to produce bit-identical
// FlowResults (the parallel trial engine and the warm-started sweep are
// bit-identical to their serial paths, so the pure-parallelism knobs —
// local.parallel_trials, local.threads, global.parallel_realize — are
// deliberately excluded from the key; scheduling fields such as priority,
// deadline and retry budget never affect the result and are excluded
// too, as is options.check_level — a gate level never changes a
// *successful* result, only whether a corrupt input fails fast, and
// failures are never cached).
//
// A Job is one submitted instance of a spec inside the scheduler, with the
// lifecycle
//
//    QUEUED --> RUNNING --> DONE | FAILED
//       \-----------------> CANCELLED
//
// CANCELLED is reachable only from QUEUED (a running flow is not
// interruptible); FAILED covers permanent errors and transient errors
// whose retry budget is exhausted.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "core/flow.h"
#include "network/design.h"
#include "support/thread_annotations.h"

namespace skewopt::serve {

/// A sink relocation applied on top of a materialized design (the
/// moved-sink edit class of DELTA jobs). Applied in list order; the list
/// is kept sorted by sink id so equal edit sets serialize identically.
struct MovedSink {
  int sink = -1;  ///< node id in the materialized design; must be a sink
  double x = 0.0;
  double y = 0.0;
};

/// Where the design under optimization comes from.
struct DesignSource {
  enum class Kind { kTestgen, kFile, kInline };
  Kind kind = Kind::kTestgen;

  // kTestgen: a paper testcase recipe ("CLS1v1", "CLS1v2", "CLS2v1").
  std::string testcase = "CLS1v1";
  std::size_t sinks = 120;
  std::size_t max_pairs = 120;
  std::uint64_t seed = 1;
  bool select_best_scenario = false;

  // kFile: a .skv design file loaded via network::loadDesign. The cache
  // keys file sources by *path*: the service assumes design files are
  // immutable for its lifetime.
  std::string path;

  // kInline: full .skv text parsed via network::readDesign (keyed by
  // content).
  std::string text;

  /// Sink moves applied after materialization (each move relocates the
  /// sink and rebuilds its parent's net). buildDesign throws on an id that
  /// is not a valid sink.
  std::vector<MovedSink> moved_sinks;
};

const char* sourceKindName(DesignSource::Kind k);

struct JobSpec {
  DesignSource source;
  core::FlowMode mode = core::FlowMode::kGlobalLocal;
  core::FlowOptions options;

  // Scheduling-only fields (not part of the content key).
  int priority = 0;         ///< higher runs first; FIFO within a priority
  double deadline_ms = 0;   ///< soft start deadline from submit; 0 = none
  int max_retries = 0;      ///< transient-failure retries beyond attempt 1

  /// Observability-only (not part of the content key, like check_level):
  /// client-supplied trace context (0 = none). When nonzero the scheduler
  /// enables tracing for the job's run and stamps every span with this id
  /// (obs::ScopedTraceContext), so the TRACE verb can export exactly this
  /// job's tree even across cluster shards. When zero but tracing is
  /// otherwise active, a deterministic per-job id
  /// (obs::traceIdFor(hash, id)) is stamped instead.
  std::uint64_t trace_id = 0;
  /// Observability-only: RESULT replies carry the flight record
  /// (flightRecordToJson, a view of the finished FlowResult). Never reaches
  /// the flow; excluded from the content key like trace_id.
  bool record = false;
};

/// Versioned serialization of every result-affecting field (see file
/// comment for what is excluded and why).
std::string canonicalKey(const JobSpec& spec);

/// FNV-1a (64-bit) over canonicalKey.
std::uint64_t contentHash(const JobSpec& spec);

/// Like canonicalKey, but *excluding* the delta-editable fields — the U
/// sweep, the per-corner Dmax derates, and the moved-sink list — under its
/// own version prefix ("|tv=..."), so it can never alias a canonical key.
/// Two specs with equal topology keys describe the same base topology and
/// the same non-delta options; the warm-state store is keyed by this, which
/// is what lets a DELTA job reuse the state its base job left behind even
/// though their content keys differ.
std::string topologyKey(const JobSpec& spec);

/// FNV-1a (64-bit) over topologyKey.
std::uint64_t topologyHash(const JobSpec& spec);

/// The edit list of a DELTA job: what changes relative to the base spec.
/// All three edit classes keep the topology key fixed by construction.
struct DeltaEdits {
  bool has_u_sweep = false;
  std::vector<double> u_sweep;  ///< replaces options.global.u_sweep
  bool has_derates = false;
  /// Replaces options.global.corner_dmax_derate.
  std::vector<double> corner_dmax_derate;
  /// Merged onto the base's moved-sink list by sink id (an edit for a sink
  /// already moved by the base replaces that entry — delta-of-delta works).
  std::vector<MovedSink> moved_sinks;
};

/// Resolves a DELTA request into a plain, self-contained JobSpec: the base
/// spec with the edits applied (scheduling fields are kept from the base;
/// the server overrides them from the request separately). The result runs
/// through the normal submit path — DELTA is validation + merge sugar, not
/// a separate execution mode.
JobSpec applyDeltaEdits(const JobSpec& base, const DeltaEdits& edits);

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };
const char* jobStateName(JobState s);
inline bool isTerminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

/// Thrown (by a job runner) to mark a failure as retryable; any other
/// exception fails the job permanently.
struct TransientError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One submitted job. State transitions are owned by the scheduler; all
/// mutable fields are guarded by `mu` and `cv` signals every transition.
/// Copyable snapshots for clients are taken via Scheduler::status().
struct Job {
  std::uint64_t id = 0;
  JobSpec spec;
  std::string key;          ///< canonicalKey(spec)
  std::uint64_t hash = 0;   ///< contentHash(spec)

  mutable support::Mutex mu;
  mutable support::CondVar cv;
  JobState state SKEWOPT_GUARDED_BY(mu) = JobState::kQueued;
  /// Runner invocations (>=2 means retried).
  int attempts SKEWOPT_GUARDED_BY(mu) = 0;
  /// Result came from the result cache.
  bool cached SKEWOPT_GUARDED_BY(mu) = false;
  /// FAILED: what went wrong.
  std::string error SKEWOPT_GUARDED_BY(mu);
  /// Valid once state == kDone.
  core::FlowResult result SKEWOPT_GUARDED_BY(mu);

  /// Set by cancel(); checked before the job is started. A running job
  /// finishes normally (the flow is not interruptible).
  std::atomic<bool> cancel_requested{false};

  /// Effective trace context: spec.trace_id when the client supplied one,
  /// obs::traceIdFor(hash, id) otherwise. Set once at submit; immutable.
  std::uint64_t trace_id = 0;
  /// obs::nowNs() at submit (for the serve.queue span); immutable.
  std::uint64_t submitted_ns = 0;

  /// Set once before the job is published to the queue; immutable after.
  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point started_at SKEWOPT_GUARDED_BY(mu){};
  std::chrono::steady_clock::time_point finished_at SKEWOPT_GUARDED_BY(mu){};
};

/// A client-side snapshot of a job's progress.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  int attempts = 0;
  bool cached = false;
  std::string error;
  double queue_ms = 0.0;  ///< submit -> start (or now/terminal if never ran)
  double run_ms = 0.0;    ///< start -> finish (or now while running)
};

/// Materializes the design a spec names. Throws std::runtime_error on an
/// unknown testcase name, unreadable file, or malformed inline text.
network::Design buildDesign(const tech::TechModel& tech,
                            const DesignSource& source);

/// Runs one spec exactly as a direct caller would: buildDesign +
/// core::Flow(tech, lut, spec.options).run(design, spec.mode, nullptr).
/// The determinism of that pipeline is what makes served results
/// bit-identical to local ones.
core::FlowResult runJobSpec(const tech::TechModel& tech,
                            const eco::StageDelayLut& lut,
                            const JobSpec& spec);

}  // namespace skewopt::serve
