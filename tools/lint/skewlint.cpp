// skewlint engine: comment/string-stripping lexer, token stream with
// line numbers, and the LNT### rules over it. See skewlint.h for the
// catalog and docs/static_analysis.md for rationale and suppression
// policy.
#include "tools/lint/skewlint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "serve/json.h"

namespace skewopt::lint {

namespace {

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Normalizes a path for rule scoping: backslashes to slashes, leading
/// "./" stripped, and everything before an embedded "src/" or "tools/"
/// component dropped so absolute paths scope like repo-relative ones.
std::string scopedPath(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  while (startsWith(p, "./")) p = p.substr(2);
  for (const char* root : {"/src/", "/tools/", "/tests/"}) {
    const std::size_t at = p.find(root);
    if (at != std::string::npos) return p.substr(at + 1);
  }
  return p;
}

bool isHeaderPath(const std::string& p) {
  return p.size() >= 2 && (p.substr(p.size() - 2) == ".h" ||
                           (p.size() >= 4 && p.substr(p.size() - 4) == ".hpp"));
}

bool inDir(const std::string& p, const char* dir) {
  return startsWith(p, std::string(dir) + "/");
}

/// Result-affecting modules for LNT002: an unordered iteration here can
/// leak hash order into LP rows, timing results, or wire replies.
bool inResultModule(const std::string& p) {
  for (const char* m :
       {"src/core", "src/lp", "src/sta", "src/serve", "src/cluster",
        "src/check", "src/network"})
    if (inDir(p, m)) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Strip pass: per-line code text (comments and string/char literals
// blanked) plus per-line comment text (where suppressions live).

struct StrippedLine {
  std::string code;
  std::string comment;
};

std::vector<StrippedLine> stripSource(const std::string& text) {
  std::vector<StrippedLine> lines(1);
  enum class Mode { kCode, kLineComment, kBlockComment, kString, kChar,
                    kRawString };
  Mode mode = Mode::kCode;
  std::string raw_delim;  // for kRawString: ")delim" terminator
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (mode == Mode::kLineComment) mode = Mode::kCode;
      lines.emplace_back();
      continue;
    }
    StrippedLine& line = lines.back();
    switch (mode) {
      case Mode::kCode:
        if (c == '/' && next == '/') {
          mode = Mode::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          mode = Mode::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (line.code.empty() ||
                    (!std::isalnum(static_cast<unsigned char>(
                         line.code.back())) &&
                     line.code.back() != '_'))) {
          // R"delim( ... )delim" — find the delimiter.
          std::size_t open = text.find('(', i + 2);
          if (open == std::string::npos) open = text.size();
          raw_delim = ")" + text.substr(i + 2, open - (i + 2)) + "\"";
          mode = Mode::kRawString;
          line.code += ' ';
          i = open;  // skip to the opening paren
        } else if (c == '"') {
          mode = Mode::kString;
          line.code += ' ';
        } else if (c == '\'') {
          mode = Mode::kChar;
          line.code += ' ';
        } else {
          line.code += c;
        }
        break;
      case Mode::kLineComment:
        line.comment += c;
        break;
      case Mode::kBlockComment:
        if (c == '*' && next == '/') {
          mode = Mode::kCode;
          ++i;
        } else {
          line.comment += c;
        }
        break;
      case Mode::kString:
        if (c == '\\')
          ++i;
        else if (c == '"')
          mode = Mode::kCode;
        break;
      case Mode::kChar:
        if (c == '\\')
          ++i;
        else if (c == '\'')
          mode = Mode::kCode;
        break;
      case Mode::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          mode = Mode::kCode;
        }
        break;
    }
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Suppressions: `SKEWLINT-ALLOW(LNT###: reason)` in any comment.

struct Suppressions {
  /// line (1-based) -> codes suppressed on that line.
  std::map<int, std::set<int>> by_line;
  /// Malformed suppressions (missing/empty reason or unparseable code).
  std::vector<int> malformed_lines;
};

Suppressions collectSuppressions(const std::vector<StrippedLine>& lines) {
  Suppressions s;
  static const std::string kTag = "SKEWLINT-ALLOW";
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& c = lines[li].comment;
    std::size_t at = 0;
    while ((at = c.find(kTag, at)) != std::string::npos) {
      const int line = static_cast<int>(li) + 1;
      std::size_t p = at + kTag.size();
      at = p;
      bool ok = false;
      int code = 0;
      if (p < c.size() && c[p] == '(' &&
          c.compare(p + 1, 3, "LNT") == 0) {
        std::size_t q = p + 4;
        while (q < c.size() && std::isdigit(static_cast<unsigned char>(c[q])))
          code = code * 10 + (c[q++] - '0');
        if (q > p + 4 && q < c.size() && c[q] == ':') {
          // Justification: at least one non-space character before ')'.
          const std::size_t close = c.find(')', q);
          if (close != std::string::npos) {
            const std::string reason = c.substr(q + 1, close - q - 1);
            ok = reason.find_first_not_of(" \t") != std::string::npos;
          }
        }
      }
      if (ok)
        s.by_line[line].insert(code);
      else
        s.malformed_lines.push_back(line);
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Token stream.

struct Token {
  enum class Kind { kIdent, kPunct };
  Kind kind;
  std::string text;
  int line;  // 1-based
};

std::vector<Token> tokenize(const std::vector<StrippedLine>& lines) {
  std::vector<Token> toks;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& s = lines[li].code;
    const int line = static_cast<int>(li) + 1;
    std::size_t i = 0;
    while (i < s.size()) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (std::isspace(c)) {
        ++i;
        continue;
      }
      if (std::isalpha(c) || c == '_') {
        std::size_t j = i + 1;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) ||
                s[j] == '_'))
          ++j;
        toks.push_back({Token::Kind::kIdent, s.substr(i, j - i), line});
        i = j;
        continue;
      }
      if (std::isdigit(c)) {  // numbers: swallow as one ident-ish token
        std::size_t j = i + 1;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) ||
                s[j] == '.' || s[j] == '\''))
          ++j;
        toks.push_back({Token::Kind::kIdent, s.substr(i, j - i), line});
        i = j;
        continue;
      }
      if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        toks.push_back({Token::Kind::kPunct, "::", line});
        i += 2;
        continue;
      }
      toks.push_back({Token::Kind::kPunct, std::string(1, s[i]), line});
      ++i;
    }
  }
  return toks;
}

/// Balanced <...> skip in a raw token vector, starting at the '<'.
std::size_t skipAnglesIn(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kPunct && toks[i].text == "<") ++depth;
    if (toks[i].kind == Token::Kind::kPunct && toks[i].text == ">" &&
        --depth == 0)
      return i + 1;
  }
  return i;
}

/// Names declared with an unordered_map/unordered_set type anywhere in the
/// token stream. Collected up-front (not during the rule pass) so members
/// declared below their uses — and in a companion header — are still seen.
std::set<std::string> unorderedDeclNames(const std::vector<Token>& toks) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        (toks[i].text != "unordered_map" && toks[i].text != "unordered_set"))
      continue;
    if (i + 1 >= toks.size() || toks[i + 1].kind != Token::Kind::kPunct ||
        toks[i + 1].text != "<")
      continue;
    std::size_t j = skipAnglesIn(toks, i + 1);
    while (j < toks.size() &&
           ((toks[j].kind == Token::Kind::kIdent &&
             toks[j].text == "const") ||
            (toks[j].kind == Token::Kind::kPunct &&
             (toks[j].text == "&" || toks[j].text == "*"))))
      ++j;
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent)
      names.insert(toks[j].text);
  }
  return names;
}

// ---------------------------------------------------------------------------
// The rule pass.

class Linter {
 public:
  Linter(std::string path, const std::string& text,
         const std::string& companion_text)
      : path_(scopedPath(path)), label_(std::move(path)) {
    lines_ = stripSource(text);
    supp_ = collectSuppressions(lines_);
    toks_ = tokenize(lines_);
    unordered_names_ = unorderedDeclNames(toks_);
    if (!companion_text.empty()) {
      const std::set<std::string> extra =
          unorderedDeclNames(tokenize(stripSource(companion_text)));
      unordered_names_.insert(extra.begin(), extra.end());
    }
  }

  std::vector<Finding> run() {
    for (const int line : supp_.malformed_lines)
      report(90, "bad-suppression", line,
             "SKEWLINT-ALLOW needs the form (LNT###: reason) — a "
             "justification is mandatory and this one suppresses nothing");
    lintIncludes();
    lintTokens();
    return std::move(findings_);
  }

 private:
  struct ClassScope {
    std::string name;
    int body_depth;  // brace depth of the members
    bool has_guarded = false;
    std::vector<std::pair<int, std::string>> mutex_fields;  // line, name
  };

  bool suppressed(int code, int line) const {
    const auto at = supp_.by_line.find(line);
    if (at != supp_.by_line.end() && at->second.count(code)) return true;
    // A comment-only line immediately above covers the line below it.
    const auto above = supp_.by_line.find(line - 1);
    if (above != supp_.by_line.end() && above->second.count(code) &&
        line - 2 < static_cast<int>(lines_.size())) {
      const std::string& code_text = lines_[static_cast<std::size_t>(line - 2)]
                                         .code;
      if (code_text.find_first_not_of(" \t") == std::string::npos) return true;
    }
    return false;
  }

  void report(int code, const char* rule, int line, std::string message) {
    if (code != 90 && suppressed(code, line)) return;
    findings_.push_back({code, check::Severity::kError, rule, label_, line,
                         std::move(message)});
  }

  // LNT030 + include context: headers must not pull in <iostream> (static
  // initialization order + code-size hazards in a library) or <regex>
  // (catastrophic compile and runtime costs; the repo hand-rolls parsers).
  void lintIncludes() {
    for (std::size_t li = 0; li < lines_.size(); ++li) {
      const std::string& s = lines_[li].code;
      std::size_t p = s.find_first_not_of(" \t");
      if (p == std::string::npos || s[p] != '#') continue;
      p = s.find_first_not_of(" \t", p + 1);
      if (p == std::string::npos || s.compare(p, 7, "include") != 0) continue;
      p = s.find_first_not_of(" \t", p + 7);
      if (p == std::string::npos) continue;
      const char open = s[p];
      const char close = open == '<' ? '>' : '"';
      const std::size_t end = s.find(close, p + 1);
      if (end == std::string::npos) continue;
      const std::string name = s.substr(p + 1, end - p - 1);
      includes_.push_back(name);
      if (isHeaderPath(path_) && open == '<' &&
          (name == "iostream" || name == "regex"))
        report(30, "banned-include", static_cast<int>(li) + 1,
               "header includes <" + name +
                   ">; banned in headers (see docs/static_analysis.md)");
    }
  }

  const Token& tok(std::size_t i) const {
    static const Token kEnd{Token::Kind::kPunct, "", 0};
    return i < toks_.size() ? toks_[i] : kEnd;
  }
  bool isIdent(std::size_t i, const char* text) const {
    return tok(i).kind == Token::Kind::kIdent && tok(i).text == text;
  }
  bool isPunct(std::size_t i, const char* text) const {
    return tok(i).kind == Token::Kind::kPunct && tok(i).text == text;
  }

  /// Index just past the matching closer for the opener at `i`.
  std::size_t skipBalanced(std::size_t i, const char* open,
                           const char* close) const {
    int depth = 0;
    for (; i < toks_.size(); ++i) {
      if (isPunct(i, open)) ++depth;
      if (isPunct(i, close) && --depth == 0) return i + 1;
    }
    return i;
  }

  void lintTokens() {
    const bool exempt_nondet =
        inDir(path_, "src/obs") || inDir(path_, "src/testgen");
    const bool exempt_thread =
        inDir(path_, "src/support") || inDir(path_, "src/serve");
    const bool clock_banned =
        inDir(path_, "src") && !inDir(path_, "src/obs") &&
        !inDir(path_, "src/serve") && !inDir(path_, "src/cluster") &&
        !inDir(path_, "src/support");
    const bool unordered_module = inResultModule(path_);

    int depth = 0;
    bool pending_class = false;
    std::string pending_name;
    std::vector<ClassScope> classes;

    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];

      // --- brace/namespace/class context ------------------------------
      if (t.kind == Token::Kind::kPunct) {
        if (t.text == "{") {
          ++depth;
          if (pending_class) {
            classes.push_back({pending_name, depth, false, {}});
            pending_class = false;
          }
        } else if (t.text == "}") {
          if (!classes.empty() && classes.back().body_depth == depth)
            finishClass(classes.back()), classes.pop_back();
          if (depth > 0) --depth;
        } else if (t.text == ";") {
          pending_class = false;  // forward declaration
        }
        continue;
      }

      // namespace NAME — tracked for message context only.
      if (t.text == "namespace" && tok(i + 1).kind == Token::Kind::kIdent)
        continue;

      if ((t.text == "class" || t.text == "struct") &&
          tok(i + 1).kind == Token::Kind::kIdent &&
          !(i > 0 && (isPunct(i - 1, "<") || isPunct(i - 1, ",")))) {
        // Skip attribute-like macros (`class SKEWOPT_CAPABILITY("mutex")
        // Mutex`): an identifier directly followed by '(' is not the name.
        std::size_t j = i + 1;
        while (tok(j).kind == Token::Kind::kIdent && isPunct(j + 1, "("))
          j = skipBalanced(j + 1, "(", ")");
        if (tok(j).kind == Token::Kind::kIdent) {
          pending_class = true;
          pending_name = tok(j).text;
        }
        continue;
      }

      // --- LNT003 bookkeeping ----------------------------------------
      if (!classes.empty()) {
        ClassScope& cls = classes.back();
        if (t.text == "SKEWOPT_GUARDED_BY" || t.text == "GUARDED_BY" ||
            t.text == "SKEWOPT_PT_GUARDED_BY" || t.text == "PT_GUARDED_BY")
          cls.has_guarded = true;
        if ((t.text == "mutex" || t.text == "Mutex") &&
            depth == cls.body_depth &&
            tok(i + 1).kind == Token::Kind::kIdent)
          cls.mutex_fields.emplace_back(t.line, tok(i + 1).text);
      }

      // --- LNT001: nondeterminism APIs -------------------------------
      if (!exempt_nondet) {
        if (t.text == "system_clock" || t.text == "random_device" ||
            t.text == "getenv" || t.text == "srand")
          report(1, "wall-clock-or-env", t.line,
                 "'" + t.text +
                     "' is a nondeterminism source; result paths must be "
                     "pure functions of the spec (allowed only in src/obs "
                     "and seeded testgen)");
        if ((t.text == "rand" || t.text == "time") && isPunct(i + 1, "("))
          report(1, "wall-clock-or-env", t.line,
                 "'" + t.text +
                     "()' is a nondeterminism source; use the seeded "
                     "geom RNG / obs::nowNs instead");
      }

      // --- LNT004: relaxed atomics -----------------------------------
      if (t.text == "memory_order_relaxed" && !inDir(path_, "src/obs"))
        report(4, "relaxed-atomic", t.line,
               "relaxed-ordering atomics are allowed only in src/obs "
               "(metrics/trace fast paths); everything else must state "
               "acquire/release semantics");

      // --- LNT005: a second stopwatch --------------------------------
      if (clock_banned &&
          ((t.text == "nowNs" && isPunct(i + 1, "(")) ||
           (t.text == "steady_clock" && isPunct(i + 1, "::") &&
            isIdent(i + 2, "now"))))
        report(5, "raw-clock-read", t.line,
               "'" + t.text +
                   "' read outside src/obs, src/serve, src/cluster and "
                   "src/support; time the scope with an obs::Span and take "
                   "its duration from Span::end() (one timing source)");

      // --- LNT010: raw threads ---------------------------------------
      if (!exempt_thread) {
        if (t.text == "thread" && i >= 2 && isIdent(i - 2, "std") &&
            isPunct(i - 1, "::"))
          report(10, "raw-thread", t.line,
                 "raw std::thread outside src/support and src/serve; use "
                 "support::ThreadPool or the serve scheduler's workers");
        if (t.text == "detach" && isPunct(i + 1, "(") && i > 0 &&
            isPunct(i - 1, "."))
          report(10, "raw-thread", t.line,
                 "detach() orphans a thread past shutdown ordering; join "
                 "through an owner instead");
      }

      // --- LNT011: swallowed catch (...) -----------------------------
      if (t.text == "catch" && isPunct(i + 1, "(") && isPunct(i + 2, ".") &&
          isPunct(i + 3, ".") && isPunct(i + 4, ".") && isPunct(i + 5, ")"))
        lintCatchAll(i + 6, t.line);

      // --- LNT002: iteration over a tracked unordered container ------
      if (unordered_module && t.text == "for" && isPunct(i + 1, "(")) {
        const std::size_t end = skipBalanced(i + 1, "(", ")");
        lintRangeFor(i + 1, end, t.line);
      }
      if (unordered_module && t.kind == Token::Kind::kIdent &&
          unordered_names_.count(t.text) && isPunct(i + 1, ".") &&
          (isIdent(i + 2, "begin") || isIdent(i + 2, "cbegin")) &&
          isPunct(i + 3, "("))
        report(2, "unordered-iteration", t.line,
               "iterator walk over unordered container '" + t.text +
                   "' in a result-affecting module; iterate a sorted view "
                   "or justify with SKEWLINT-ALLOW(LNT002: ...)");
    }
  }

  /// `open` is the index of the for's '(' and `end` one past its ')'.
  /// A lone ':' at paren depth 1 makes it a range-for; every identifier in
  /// the range expression is checked against the unordered declarations.
  void lintRangeFor(std::size_t open, std::size_t end, int line) {
    int depth = 0;
    std::size_t colon = 0;
    for (std::size_t i = open; i < end; ++i) {
      if (isPunct(i, "(")) ++depth;
      if (isPunct(i, ")")) --depth;
      if (depth == 1 && isPunct(i, ":")) {
        colon = i;
        break;
      }
      if (depth == 1 && isPunct(i, ";")) return;  // classic for
    }
    if (colon == 0) return;
    for (std::size_t i = colon + 1; i + 1 < end; ++i) {
      // A function call in the range expression (sortedNames(b_idx),
      // sortedView(m)...) is assumed to normalize the order.
      if (tok(i).kind == Token::Kind::kIdent && isPunct(i + 1, "(")) return;
      if (tok(i).kind == Token::Kind::kIdent &&
          unordered_names_.count(tok(i).text)) {
        report(2, "unordered-iteration", line,
               "range-for over unordered container '" + tok(i).text +
                   "' in a result-affecting module; hash order must not "
                   "reach results — iterate a sorted view or justify with "
                   "SKEWLINT-ALLOW(LNT002: ...)");
        return;
      }
    }
  }

  /// `i` points just past `catch (...)`. The handler must rethrow (throw /
  /// rethrow_exception), capture (current_exception), or log; a silent
  /// swallow turns every failure mode into a mystery.
  void lintCatchAll(std::size_t i, int line) {
    while (i < toks_.size() && !isPunct(i, "{")) ++i;
    const std::size_t end = skipBalanced(i, "{", "}");
    static const std::set<std::string> kHandled = {
        "throw",   "rethrow_exception", "current_exception", "cerr",
        "fprintf", "perror",            "report",            "log",
        "abort",   "terminate",         "fail",              "error"};
    for (std::size_t j = i; j < end; ++j)
      if (tok(j).kind == Token::Kind::kIdent && kHandled.count(tok(j).text))
        return;
    report(11, "swallowed-catch", line,
           "catch (...) neither rethrows, captures, nor logs; failures "
           "must stay observable");
  }

  void finishClass(const ClassScope& cls) {
    if (cls.mutex_fields.empty() || cls.has_guarded) return;
    for (const auto& [line, name] : cls.mutex_fields)
      report(3, "unguarded-mutex", line,
             "class " + cls.name + " holds mutex '" + name +
                 "' but no member is GUARDED_BY it; annotate the guarded "
                 "state (support/thread_annotations.h) so -Wthread-safety "
                 "can prove the locking discipline");
  }

  std::string path_;   ///< scoped (repo-relative) path for rule dispatch
  std::string label_;  ///< path as given, used in findings
  std::vector<StrippedLine> lines_;
  Suppressions supp_;
  std::vector<Token> toks_;
  std::vector<std::string> includes_;
  std::set<std::string> unordered_names_;
  std::vector<Finding> findings_;
};

}  // namespace

std::string lintCodeString(int code) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "LNT%03d", code);
  return buf;
}

std::vector<Finding> lintSource(const std::string& path,
                                const std::string& text,
                                const std::string& companion_text) {
  return Linter(path, text, companion_text).run();
}

std::vector<Finding> lintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("skewlint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  // A .cpp sees its sibling header's declarations (members like
  // `std::unordered_map<...> nets_;` live there, the iterations here).
  std::string companion;
  const std::size_t dot = path.rfind(".cpp");
  if (dot != std::string::npos && dot == path.size() - 4) {
    std::ifstream hin(path.substr(0, dot) + ".h", std::ios::binary);
    if (hin) {
      std::ostringstream hs;
      hs << hin.rdbuf();
      companion = hs.str();
    }
  }
  return lintSource(path, ss.str(), companion);
}

std::string textReport(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += lintCodeString(f.code);
    out += ' ';
    out += check::severityName(f.severity);
    out += " [" + f.rule + "] " + f.file + ":" + std::to_string(f.line) +
           ": " + f.message + "\n";
  }
  return out;
}

std::string jsonReport(const std::vector<Finding>& findings) {
  namespace json = serve::json;
  std::size_t errors = 0, warnings = 0;
  json::Value arr = json::Value::array();
  for (const Finding& f : findings) {
    (f.severity == check::Severity::kError ? errors : warnings) += 1;
    json::Value v = json::Value::object();
    v.set("code", lintCodeString(f.code));
    v.set("severity", check::severityName(f.severity));
    v.set("rule", f.rule);
    v.set("file", f.file);
    v.set("line", f.line);
    v.set("message", f.message);
    arr.push(std::move(v));
  }
  json::Value top = json::Value::object();
  top.set("tool", "skewlint");
  top.set("errors", errors);
  top.set("warnings", warnings);
  top.set("findings", std::move(arr));
  return json::dump(top);
}

}  // namespace skewopt::lint
