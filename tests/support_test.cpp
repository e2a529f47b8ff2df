// Regression tests for support::ThreadPool's exception contract: a task
// throwing inside runSlices must surface on the calling thread
// as a rethrown exception — never std::terminate the process — and the
// pool must stay fully usable afterwards. Also the one FNV-1a-64
// (support/fnv.h), whose values are a persistence contract, and the one
// pinned-literal line (tests/pinned.h).
#include "support/thread_pool.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pinned.h"
#include "support/fnv.h"

namespace skewopt::support {
namespace {

TEST(ThreadPoolTest, SlicesCoverEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::size_t> seen;
  pool.runSlices(8, [&](std::size_t s) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_TRUE(seen.insert(s).second);
  });
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ThreadPoolTest, WorkerSliceExceptionRethrownOnCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.runSlices(6,
                     [&](std::size_t s) {
                       if (s == 3)  // slice 3 runs on a pool worker
                         throw std::runtime_error("slice 3 failed");
                     }),
      std::runtime_error);
}

TEST(ThreadPoolTest, CallingThreadSliceExceptionRethrown) {
  ThreadPool pool(2);
  try {
    pool.runSlices(4, [&](std::size_t s) {
      if (s == 0) throw std::runtime_error("caller slice failed");
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller slice failed");
  }
}

TEST(ThreadPoolTest, ExactlyOneOfManyExceptionsIsKept) {
  ThreadPool pool(4);
  try {
    pool.runSlices(8, [](std::size_t s) {
      throw std::runtime_error("slice " + std::to_string(s));
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("slice ", 0), 0u);
  }
}

TEST(ThreadPoolTest, PoolRemainsUsableAfterAnException) {
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.runSlices(4,
                                [](std::size_t) {
                                  throw std::logic_error("boom");
                                }),
                 std::logic_error);
    std::atomic<int> ok{0};
    pool.runSlices(4, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 4);
  }
}

TEST(ThreadPoolTest, WaitGroupCountsToZero) {
  ThreadPool pool(2);
  WaitGroup wg;
  std::atomic<int> done{0};
  wg.add(10);
  for (int i = 0; i < 10; ++i)
    pool.submit([&] {
      done.fetch_add(1);
      wg.done();
    });
  wg.wait();
  EXPECT_EQ(done.load(), 10);
}

// ---- FNV-1a-64 --------------------------------------------------------------

// Known FNV-1a-64 vectors. Content hashes, the cluster ring layout and
// every pinned digest are this function's values, so it is a contract.
TEST(Fnv1a64Test, KnownVectors) {
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64().str("foo").str("bar").value(), fnv1a64("foobar"));
}

// u64 and f64 feed a value's eight bytes, least significant first.
TEST(Fnv1a64Test, NumbersFeedTheirLittleEndianBytes) {
  const auto leBytes = [](std::uint64_t v) {
    std::array<unsigned char, 8> b{};
    for (std::size_t i = 0; i < 8; ++i)
      b[i] = static_cast<unsigned char>(v >> (8 * i));
    return b;
  };
  for (const std::uint64_t v : std::vector<std::uint64_t>{
           0, 0x517ead, 0x0123456789abcdefull, ~std::uint64_t{0}}) {
    const auto b = leBytes(v);
    EXPECT_EQ(Fnv1a64().u64(v).value(), Fnv1a64().bytes(b.data(), 8).value())
        << v;
  }
  for (const double d : {0.0, -0.0, 1.0, -2.5e-300, 416.8281917132466}) {
    const auto b = leBytes(std::bit_cast<std::uint64_t>(d));
    EXPECT_EQ(Fnv1a64().f64(d).value(), Fnv1a64().bytes(b.data(), 8).value())
        << d;
  }
}

// ---- the pinned-literal line ------------------------------------------------

TEST(PinnedLine, TextIsTheLiteralToPaste) {
  using pinned::Hex;
  using pinned::pinText;
  EXPECT_EQ(pinText(true), "true");
  EXPECT_EQ(pinText(-3), "-3");
  EXPECT_EQ(pinText(std::size_t{29}), "29");
  EXPECT_EQ(pinText(Hex(0xafull)), "0x00000000000000afULL");
  EXPECT_EQ(pinText("c014ae49861f1175"), "\"c014ae49861f1175\"");
  EXPECT_EQ(pinText(std::string(R"({"ok":true})")), R"x(R"({"ok":true})")x");
  EXPECT_EQ(pinText(std::string("a\nb\"")), R"x("a\012b\"")x");
  EXPECT_EQ(pinText(std::vector<std::pair<Hex, Hex>>{{1, 2}}),
            "{{0x0000000000000001ULL, 0x0000000000000002ULL}}");
  EXPECT_EQ(pinned::braced(7, false, std::vector<int>{}), "{7, false, {}}");
  EXPECT_EQ(pinned::hexBits(1.0), "3ff0000000000000");
}

TEST(PinnedLine, MismatchPrintsOnePinnedLine) {
  testing::internal::CaptureStdout();
  EXPECT_NONFATAL_FAILURE(
      pinned::expectPinned("digest", pinned::Hex(2), pinned::Hex(1)),
      "pinned literal digest moved");
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "PINNED PinnedLine.MismatchPrintsOnePinnedLine digest "
            "0x0000000000000002ULL\n");
}

TEST(PinnedLine, MatchPrintsNothing) {
  testing::internal::CaptureStdout();
  pinned::expectPinned("history", std::vector<int>{1, 2},
                       std::vector<int>{1, 2});
  pinned::expectPinned("digest", std::string("ab"), "ab");
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

}  // namespace
}  // namespace skewopt::support
