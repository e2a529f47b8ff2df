// Regression tests for support::ThreadPool's exception contract: a task
// throwing inside runSlices must surface on the calling thread
// as a rethrown exception — never std::terminate the process — and the
// pool must stay fully usable afterwards.
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>

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

}  // namespace
}  // namespace skewopt::support
