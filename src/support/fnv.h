// FNV-1a 64-bit: the repo's one byte-stream digest.
//
// It names things that must stay stable across processes and builds: a
// job spec's content and topology hashes (serve/job.cpp), the cluster
// ring's point placement (cluster/router.cpp), the warm-state design
// fingerprint (core::designFingerprint), skewopt_loadgen's result digests
// and the tests' pinned literals (tests/pinned.h). Every value it produces
// is a function of the bytes fed, in order; `u64` and `f64` feed a
// number's eight little-endian bytes, so a digest does not depend on the
// host's byte order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace skewopt::support {

class Fnv1a64 {
 public:
  Fnv1a64& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;  // FNV-1a 64 prime
    }
    return *this;
  }

  /// The eight bytes of `v`, least significant first.
  Fnv1a64& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
    return *this;
  }

  /// The bit pattern of `v`, through u64.
  Fnv1a64& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

  Fnv1a64& str(std::string_view s) { return bytes(s.data(), s.size()); }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;  // FNV-1a 64 offset basis
};

inline std::uint64_t fnv1a64(std::string_view s) {
  return Fnv1a64().str(s).value();
}

}  // namespace skewopt::support
