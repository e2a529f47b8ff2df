// Pinned literals: the one way a test holds an answer bit for bit.
//
// A pinned test renders what it computed as C++ source text and compares
// that text with the literal written in the test. On a mismatch,
// expectPinned fails the test and prints one stdout line
//
//   PINNED <Suite>.<Test> <label> <got>
//
// where <got> is the source text to paste in place of the literal, so
// `ctest --output-on-failure | grep '^PINNED'` lists every moved literal.
// Nothing rewrites the literals: who may move one, and how, is written
// in docs/answer_changes.md. Labels carry no whitespace.
//
// Text forms: bool `true`/`false`; integers in decimal; Hex (a digest or
// the bits of a double) as `0x%016llxULL`; strings as a C++ string
// literal (raw `R"(...)"` when they hold a quote or backslash); vectors,
// pairs and braced(...) as `{a, b, ...}`. A suite pinning a struct gives
// it a pinText overload that renders every field, usually via braced().
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "network/design.h"
#include "support/fnv.h"

namespace skewopt::pinned {

/// A 64-bit value pinned as a hex literal.
struct Hex {
  constexpr Hex(std::uint64_t value) : v(value) {}
  std::uint64_t v;
};

/// The 16 lowercase hex digits of `v`, the form string pins hold.
inline std::string hexDigits(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The 16 hex digits of a double's bit pattern.
inline std::string hexBits(double v) {
  return hexDigits(std::bit_cast<std::uint64_t>(v));
}

/// FNV-1a-64 over a design's nodes: per slot its validity byte, then for
/// a valid node its parent, position bits and cell.
inline std::uint64_t designDigest(const network::Design& d) {
  support::Fnv1a64 h;
  for (std::size_t i = 0; i < d.tree.numNodes(); ++i) {
    const int id = static_cast<int>(i);
    const unsigned char valid = d.tree.isValid(id) ? 1 : 0;
    h.bytes(&valid, 1);
    if (valid == 0) continue;
    const network::ClockNode& n = d.tree.node(id);
    h.bytes(&n.parent, sizeof n.parent);
    h.f64(n.pos.x);
    h.f64(n.pos.y);
    h.bytes(&n.cell, sizeof n.cell);
  }
  return h.value();
}

inline std::string pinText(bool b) { return b ? "true" : "false"; }

template <std::integral T>
  requires(!std::same_as<T, bool>)
std::string pinText(T v) {
  return std::to_string(v);
}

inline std::string pinText(Hex h) { return "0x" + hexDigits(h.v) + "ULL"; }

inline std::string pinText(std::string_view s) {
  bool printable = true;
  for (const char c : s)
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) printable = false;
  if (printable && s.find(")\"") == s.npos &&
      (s.find('"') != s.npos || s.find('\\') != s.npos))
    return "R\"(" + std::string(s) + ")\"";
  std::string out = "\"";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\%03o", u);
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}
inline std::string pinText(const std::string& s) {
  return pinText(std::string_view(s));
}
inline std::string pinText(const char* s) {
  return pinText(std::string_view(s));
}

template <class A, class B>
std::string pinText(const std::pair<A, B>& p);
template <class T>
std::string pinText(const std::vector<T>& v);

/// `{a, b, ...}` over the text of each argument.
template <class... Ts>
std::string braced(const Ts&... parts) {
  std::string out = "{";
  const char* sep = "";
  ((out += sep, out += pinText(parts), sep = ", "), ...);
  return out + "}";
}

template <class A, class B>
std::string pinText(const std::pair<A, B>& p) {
  return braced(p.first, p.second);
}

template <class T>
std::string pinText(const std::vector<T>& v) {
  std::string out = "{";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i == 0 ? "" : ", ") + pinText(v[i]);
  return out + "}";
}

/// Compares the source text of `got` with that of the literal `want`. On
/// a mismatch, fails the current test and prints the one `PINNED` line.
template <class Got, class Want>
void expectPinned(std::string_view label, const Got& got, const Want& want) {
  const std::string g = pinText(got);
  const std::string w = pinText(want);
  if (g == w) return;
  const ::testing::TestInfo* t =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::printf("PINNED %s.%s %.*s %s\n", t->test_suite_name(), t->name(),
              static_cast<int>(label.size()), label.data(), g.c_str());
  std::fflush(stdout);
  ADD_FAILURE() << "pinned literal " << label << " moved\n  got:  " << g
                << "\n  want: " << w;
}

}  // namespace skewopt::pinned
