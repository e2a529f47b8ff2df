// skewlint: the repo's determinism & concurrency lint pass.
//
// A small in-tree C++ source scanner (lexer + line rules with
// include/namespace/class context tracking — deliberately no clang-lib
// dependency) that encodes *this codebase's* reproducibility rules as
// stable `LNT###` codes, the static-analysis sibling of the runtime
// `SKW###` checkers in src/check. The headline guarantees — delta == cold,
// sharded == single-shard, serial == parallel — all rest on source-level
// discipline nothing else enforces: no wall-clock or environment reads in
// result paths, no iteration over unordered containers feeding LP rows or
// wire replies, no lock-guarded state without a GUARDED_BY annotation.
//
// Codes (catalog + rationale in docs/static_analysis.md):
//   LNT001  nondeterminism API (system_clock/time()/rand/random_device/
//           getenv) outside src/obs and the seeded testgen paths
//   LNT002  iteration over unordered_map/unordered_set in a
//           result-affecting module without a sort or a justified
//           suppression
//   LNT003  std::mutex / support::Mutex field in a class with no
//           GUARDED_BY-annotated member
//   LNT004  relaxed-ordering atomic outside src/obs
//   LNT005  clock read (obs::nowNs( / steady_clock::now) in src/ outside
//           src/obs, src/serve, src/cluster and src/support — wall time
//           elsewhere is an obs::Span's duration (Span::end)
//   LNT010  raw std::thread construction or detach() outside src/support
//           and src/serve
//   LNT011  catch (...) that neither rethrows nor logs
//   LNT030  banned include in a header (<iostream>, <regex>)
//   LNT090  malformed SKEWLINT-ALLOW suppression (missing justification)
//
// Suppressions: `// SKEWLINT-ALLOW(LNT###: reason)` on the offending line
// (or alone on the line above) silences that code there. The reason is
// mandatory — a reason-less suppression is itself a finding (LNT090) and
// suppresses nothing. Severities reuse the check::Severity model of the
// runtime DiagnosticEngine.
#pragma once

#include <string>
#include <vector>

#include "check/diagnostics.h"

namespace skewopt::lint {

struct Finding {
  int code = 0;  ///< LNT### number
  check::Severity severity = check::Severity::kError;
  std::string rule;     ///< short rule name, e.g. "unordered-iteration"
  std::string file;     ///< path as given to the scanner
  int line = 0;         ///< 1-based
  std::string message;  ///< human-readable finding
};

/// "LNT###", zero-padded to three digits.
std::string lintCodeString(int code);

/// Lints one translation unit given its contents; `path` scopes the
/// per-rule module/directory exemptions (it should be repo-relative, e.g.
/// "src/serve/scheduler.cpp") and labels the findings. Pure — the fixture
/// tests drive it with in-memory sources. `companion_text`, when
/// non-empty, contributes declarations only (the sibling header of a .cpp,
/// so member containers declared there are tracked here).
std::vector<Finding> lintSource(const std::string& path,
                                const std::string& text,
                                const std::string& companion_text = "");

/// Reads `path` and lints it, seeding declarations from the sibling
/// header when one exists. Throws std::runtime_error if unreadable.
std::vector<Finding> lintFile(const std::string& path);

/// One "LNT### severity [rule] file:line: message" line per finding.
std::string textReport(const std::vector<Finding>& findings);

/// {"tool":"skewlint","errors":N,"warnings":N,"findings":[...]} — same
/// shape family as check::DiagnosticEngine::json(), plus file/line.
std::string jsonReport(const std::vector<Finding>& findings);

}  // namespace skewopt::lint
