// Injectable monotonic clock — the single time source of the observability
// layer. Every phase timing in the optimizers is the duration of the
// obs::Span that times its scope (Span::end), and spans read this clock;
// the job service's histograms read it directly.
//
// Production reads std::chrono::steady_clock (monotonic across system
// clock adjustments; never system_clock or the implementation-defined
// high_resolution_clock in timing paths). Tests inject a deterministic
// fake via setClockForTest, which makes every duration-valued metric and
// span bit-stable: a snapshot taken under a fake clock compares exactly
// across serial and parallel runs.
//
// The active source is one atomic function pointer read with relaxed
// ordering — nowNs() costs a load plus the clock call itself, and nothing
// here takes a lock.
#pragma once

#include <atomic>
#include <cstdint>

namespace skewopt::obs {

/// Nanoseconds since an arbitrary (per-process) epoch.
using ClockFn = std::uint64_t (*)();

/// The production source: steady_clock, rebased so early readings are
/// small positive numbers.
std::uint64_t steadyNowNs();

namespace detail {
extern std::atomic<ClockFn> g_clock;
}  // namespace detail

/// Current time from the active source.
inline std::uint64_t nowNs() {
  return detail::g_clock.load(std::memory_order_relaxed)();
}

/// Installs a fake clock (nullptr restores steadyNowNs). Test-only: the
/// swap is not synchronized against concurrent nowNs() readers beyond the
/// atomicity of the pointer itself, so install fakes before spinning up
/// the threads under test.
void setClockForTest(ClockFn fn);

}  // namespace skewopt::obs
